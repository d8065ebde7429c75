import numpy as np
import pytest

from specrig.poly import (MAX_COEFFS, MultiPoly, VariableMismatchError, poly_distance,
                          poly_equal, poly_from_json, poly_to_json)


def x_poly():
    return MultiPoly(("x",), {(1,): 1.0})


def showcase_poly():
    # t(4x^2 + 4yz - t^2) over (x, y, z, t)
    return MultiPoly(("x", "y", "z", "t"),
                     {(2, 0, 0, 1): 4.0, (0, 1, 1, 1): 4.0, (0, 0, 0, 3): -1.0})


class TestArithmetic:
    def test_difference_of_squares(self):
        x = x_poly()
        one = MultiPoly.constant(("x",), 1.0)
        expected = MultiPoly(("x",), {(2,): 1.0, (0,): -1.0})
        assert poly_equal((x + one) * (x - one), expected, 1e-14)

    def test_h3_spectrum_product(self):
        # prod_{j=0..2} ((2-2j) x - 1) = (2x-1)(-1)(-2x-1) = 4x^2 - 1
        vars = ("x",)
        p = MultiPoly.constant(vars, 1.0)
        for j in range(3):
            p = p * MultiPoly(vars, {(1,): 2.0 - 2.0 * j, (0,): -1.0})
        assert poly_equal(p, MultiPoly(vars, {(2,): 4.0, (0,): -1.0}), 1e-14)

    def test_scale_by_zero(self):
        assert showcase_poly().scale(0.0).terms == {}

    def test_distributivity(self, rng):
        vars = ("x", "y")
        def rand_poly():
            terms = {}
            for _ in range(6):
                e = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
                terms[e] = complex(rng.normal(), rng.normal())
            return MultiPoly(vars, terms)
        for _ in range(10):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            lhs = (p + q) * r
            rhs = p * r + q * r
            scale = max(1.0, lhs.max_abs_coeff(), rhs.max_abs_coeff())
            assert poly_distance(lhs, rhs) <= 1e-10 * scale

    def test_eval_multiplicative(self, rng):
        vars = ("x", "y", "z")
        def rand_poly():
            terms = {tuple(int(rng.integers(0, 3)) for _ in vars):
                     complex(rng.normal(), rng.normal()) for _ in range(5)}
            return MultiPoly(vars, terms)
        for _ in range(10):
            p, q = rand_poly(), rand_poly()
            pt = rng.uniform(-1, 1, size=3)
            lhs = (p * q).eval(pt)
            rhs = p.eval(pt) * q.eval(pt)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_add_mul_scale(self):
        p = MultiPoly(("x",), {(1,): 1.0, (0,): 1.0})
        q = MultiPoly(("x",), {(1,): 1.0, (0,): -1.0})
        assert poly_equal(p * q, MultiPoly(("x",), {(2,): 1.0, (0,): -1.0}), 1e-14)
        assert poly_equal(p + q, MultiPoly(("x",), {(1,): 2.0}), 1e-14)
        assert p.scale(2.0).terms[(1,)] == 2.0
        assert (2.0 * p).terms == (p * 2.0).terms == p.scale(2.0).terms
        with pytest.raises(TypeError):
            p / q  # no operator beyond +, -, * and scaling

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            x_poly() + MultiPoly(("y",), {(1,): 1.0})

    def test_product_and_eval_match_term_loops(self, rng):
        # reference: the product and the value summed term by term
        vars = ("x", "y", "z")
        for _ in range(10):
            p, q = (MultiPoly(vars, {tuple(int(e) for e in rng.integers(0, 4, size=3)):
                                     complex(rng.normal(), rng.normal()) for _ in range(6)})
                    for _ in range(2))
            want = {}
            for e1, c1 in p.terms.items():
                for e2, c2 in q.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    want[e] = want.get(e, 0j) + c1 * c2
            got = (p * q).terms
            assert set(got) == set(want)
            assert all(abs(got[e] - want[e]) <= 1e-14 * max(1.0, abs(want[e])) for e in want)
            pt = rng.uniform(-1, 1, size=3)
            value = sum(c * np.prod(pt ** np.array(e)) for e, c in p.terms.items())
            assert abs(p.eval(pt) - value) <= 1e-13 * max(1.0, abs(value))


class TestEval:
    def test_root_of_difference_of_squares(self):
        p = MultiPoly(("x",), {(2,): 1.0, (0,): -1.0})
        assert p.eval([1.0]) == pytest.approx(0.0)

    def test_showcase_point(self):
        # the homogeneous cone vanishes at (1, 0, 0, 2): 2*(4 - 4) = 0
        assert showcase_poly().eval([1.0, 0.0, 0.0, 2.0]) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(VariableMismatchError):
            showcase_poly().eval([1.0, 2.0])


class TestEquality:
    def test_reflexive(self):
        p = showcase_poly()
        assert poly_equal(p, p, 1e-12)

    def test_small_perturbation_detected(self):
        p = showcase_poly()
        q = p + MultiPoly(p.vars, {(1, 0, 0, 0): 1e-3})
        assert not poly_equal(p, q, 1e-9)


class TestFromDense:
    def test_matches_dict_constructor(self):
        # entries at and below PRUNE_REL times the largest go, as do zeros;
        # -0.0 parts come out as 0.0, as the sums in __init__ make them
        coeffs = np.array([[2.0, 0.0, 2e-14],
                           [3e-14, complex(-0.0, -0.0), complex(1.0, -0.0)]])
        p = MultiPoly.from_dense(("x", "y"), coeffs)
        old = MultiPoly(("x", "y"), {e: coeffs[e] for e in np.ndindex(coeffs.shape)})
        assert list(p.terms.items()) == list(old.terms.items())
        assert list(p.terms) == [(0, 0), (1, 0), (1, 2)]
        assert all(type(e) is int for exp in p.terms for e in exp)
        assert str(p.terms[(1, 2)]) == "(1+0j)"

    def test_zero_array(self):
        assert MultiPoly.from_dense(("x", "y"), np.zeros((3, 2))).terms == {}

    def test_exponent_bound(self):
        # the dense array must stay bounded whatever the exponents say
        with pytest.raises(ValueError):
            poly_from_json({"vars": ["x"], "terms": [{"exp": [10**12], "re": 1.0, "im": 0.0}]})
        with pytest.raises(ValueError):
            MultiPoly(("x", "y"), {(MAX_COEFFS, 0): 1.0})

    def test_axis_count_must_match_variables(self):
        with pytest.raises(ValueError):
            MultiPoly.from_dense(("x",), np.ones((2, 2)))


class TestVarDegree:
    def test_monomial(self):
        p = MultiPoly(("x", "y"), {(2, 1): 1.0})
        assert p.degree_in(1) == 1

    def test_triangular_pencil_is_x2_free(self):
        # det(x1 H + x2 E - I) for the sl2 triple is a product of the
        # diagonal entries, so the x2-degree is 0
        from specrig.generators import sl2_generators
        from specrig.spectrum import det_pencil
        t = sl2_generators(4)
        p = det_pencil([t.h, t.e])
        assert p.degree_in(1) == 0

    def test_showcase_t_degree(self):
        assert showcase_poly().degree_in(3) == 3

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            x_poly().degree_in(3)


class TestJson:
    def test_roundtrip_and_ordering(self):
        p = showcase_poly()
        blob = poly_to_json(p)
        exps = [tuple(t["exp"]) for t in blob["terms"]]
        assert exps == sorted(exps)
        assert poly_equal(poly_from_json(blob), p, 1e-15)
