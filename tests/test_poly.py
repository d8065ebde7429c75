import numpy as np
import pytest

import specrig
from specrig import rigidity
from specrig.poly import (MAX_COEFFS, MultiPoly, VariableMismatchError, poly_distance,
                          poly_equal, poly_from_json, poly_to_json)
from specrig.spectrum import _line_products

PAIR = ("x1", "x2")


def x_poly():
    return MultiPoly(("x",), {(1,): 1.0})


def showcase_poly():
    # t(4x^2 + 4yz - t^2) over (x, y, z, t)
    return MultiPoly(("x", "y", "z", "t"),
                     {(2, 0, 0, 1): 4.0, (0, 1, 1, 1): 4.0, (0, 0, 0, 3): -1.0})


class TestArithmetic:
    """A polynomial has no arithmetic; products of lines are built as
    coefficient arrays by ``spectrum._line_products``."""

    def test_difference_of_squares(self):
        # (x1 + x2 - 1)(-x1 - x2 - 1) = 1 - x1^2 - 2 x1 x2 - x2^2: both
        # shifts and their cross term
        got = MultiPoly.from_dense(PAIR, _line_products([[(1.0, 1.0), (-1.0, -1.0)]])[0])
        assert got.terms == {(0, 0): 1, (0, 2): -1, (1, 1): -2, (2, 0): -1}

    def test_h3_spectrum_product(self):
        # prod_{j=0..2} ((2-2j) x1 - 1) = (2x1-1)(-1)(-2x1-1) = 4x1^2 - 1
        got = _line_products([[(2.0 - 2.0 * j, 0.0) for j in range(3)]])
        assert got.shape == (1, 4, 4)
        assert MultiPoly.from_dense(PAIR, got[0]).terms == {(0, 0): -1, (2, 0): 4}

    def test_line_pruned_before_the_product(self):
        # a coefficient at most PRUNE_REL times its line's largest modulus
        # is dropped before multiplying, as a pruned polynomial would be
        lines = np.array([[(2.0, 0.5), (1e-15, 0.25), (-1.0, 0.75)]])
        got = _line_products(lines)
        assert np.array_equal(got, _line_products(lines * [[[1.0, 1.0], [0.0, 1.0], [1.0, 1.0]]]))

    def test_eval_multiplicative(self, rng):
        # the product's value is the product of the lines' values
        for _ in range(10):
            lines = rng.normal(size=(1, 6, 2)) + 1j * rng.normal(size=(1, 6, 2))
            p = MultiPoly.from_dense(PAIR, _line_products(lines)[0])
            pt = rng.uniform(-1, 1, size=2)
            rhs = np.prod(lines[0] @ pt - 1.0)
            assert abs(p.eval(pt) - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_no_arithmetic_operators(self):
        p = MultiPoly(("x",), {(1,): 1.0, (0,): 1.0})
        for op in (lambda: p + p, lambda: p * p, lambda: p - p, lambda: 2.0 * p, lambda: -p,
                   lambda: p / p):
            with pytest.raises(TypeError):
                op()
        for name in ("constant", "scale", "degree_in"):
            assert not hasattr(MultiPoly, name)
        assert not hasattr(specrig, "reference_pencil_polys")
        assert not hasattr(rigidity, "reference_pencil_polys")

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            poly_distance(x_poly(), MultiPoly(("y",), {(1,): 1.0}))

    def test_product_and_eval_match_term_loops(self, rng):
        # reference: the value summed term by term
        vars = ("x", "y", "z")
        for _ in range(10):
            p = MultiPoly(vars, {tuple(int(e) for e in rng.integers(0, 4, size=3)):
                                 complex(rng.normal(), rng.normal()) for _ in range(6)})
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
        q = MultiPoly(p.vars, {**p.terms, (1, 0, 0, 0): 1e-3})
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


class TestJson:
    def test_roundtrip_and_ordering(self):
        p = showcase_poly()
        blob = poly_to_json(p)
        exps = [tuple(t["exp"]) for t in blob["terms"]]
        assert exps == sorted(exps)
        assert poly_equal(poly_from_json(blob), p, 1e-15)

    def test_missing_terms_rejected(self):
        with pytest.raises(ValueError, match="^poly JSON must be an object with 'vars' and 'terms'$"):
            poly_from_json({"vars": ["x"]})

    def test_short_exponent_rejected(self):
        blob = {"vars": ["x", "y"], "terms": [{"exp": [1], "re": 1.0, "im": 0.0}]}
        with pytest.raises(ValueError, match=r"^exponent \(1,\) does not match 2 variables$"):
            poly_from_json(blob)
