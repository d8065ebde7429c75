import numpy as np
import pytest

import specrig
from specrig import exceptional, generators, poly, rigidity
from specrig.generators import sl2_generators
from specrig.poly import MultiPoly, poly_to_json
from specrig.spectrum import _compare_stacks, _line_products, det_pencil

from conftest import poly_value, showcase_coeffs

PAIR = ("x1", "x2")
SHOWCASE_VARS = ("x", "y", "z", "t")


class TestArithmetic:
    """A polynomial has no arithmetic; products of lines are built as
    coefficient arrays by ``spectrum._line_products``."""

    def test_difference_of_squares(self):
        # (x1 + x2 - 1)(-x1 - x2 - 1) = 1 - x1^2 - 2 x1 x2 - x2^2: both
        # shifts and their cross term
        got = MultiPoly(PAIR, _line_products([[(1.0, 1.0), (-1.0, -1.0)]])[0])
        assert got.terms == {(0, 0): 1, (0, 2): -1, (1, 1): -2, (2, 0): -1}

    def test_h3_spectrum_product(self):
        # prod_{j=0..2} ((2-2j) x1 - 1) = (2x1-1)(-1)(-2x1-1) = 4x1^2 - 1
        got = _line_products([[(2.0 - 2.0 * j, 0.0) for j in range(3)]])
        assert got.shape == (1, 4, 4)
        assert MultiPoly(PAIR, got[0]).terms == {(0, 0): -1, (2, 0): 4}

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
            p = MultiPoly(PAIR, _line_products(lines)[0])
            pt = rng.uniform(-1, 1, size=2)
            rhs = np.prod(lines[0] @ pt - 1.0)
            assert abs(poly_value(p.coeffs, pt) - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_no_arithmetic_operators(self):
        p = MultiPoly(("x",), [1.0, 1.0])
        for op in (lambda: p + p, lambda: p * p, lambda: p - p, lambda: 2.0 * p, lambda: -p,
                   lambda: p / p):
            with pytest.raises(TypeError):
                op()
        # only det_pencil's output is left: no evaluation, comparison or
        # second constructor, and no test-only helpers elsewhere
        for name in ("constant", "scale", "degree_in", "eval", "max_abs_coeff", "from_dense"):
            assert not hasattr(MultiPoly, name)
        for module, name in [
                (poly, "poly_distance"), (poly, "poly_equal"), (poly, "poly_from_json"),
                (poly, "VariableMismatchError"), (poly, "MAX_COEFFS"),
                (generators, "structural_matrices"), (exceptional, "exceptional_nus"),
                (rigidity, "reference_pencil_polys")]:
            assert not hasattr(module, name)
            assert not hasattr(specrig, name)

    def test_product_and_eval_match_term_loops(self, rng):
        # terms keys coeffs[e] by e: the value summed term by term is the
        # dense array's
        vars = ("x", "y", "z")
        for _ in range(10):
            coeffs = np.zeros((4, 4, 4), dtype=np.complex128)
            for _ in range(6):
                coeffs[tuple(rng.integers(0, 4, size=3))] = complex(rng.normal(), rng.normal())
            p = MultiPoly(vars, coeffs)
            pt = rng.uniform(-1, 1, size=3)
            value = sum(c * np.prod(pt ** np.array(e)) for e, c in p.terms.items())
            assert abs(poly_value(p.coeffs, pt) - value) <= 1e-13 * max(1.0, abs(value))


class TestEval:
    def test_showcase_point(self):
        # the homogeneous cone vanishes at (1, 0, 0, 2): 2*(4 - 4) = 0
        t = sl2_generators(3)
        p = det_pencil([t.h, t.e, t.f, -np.eye(3)], SHOWCASE_VARS, affine=False)
        assert poly_value(p.coeffs, [1.0, 0.0, 0.0, 2.0]) == pytest.approx(0.0, abs=1e-12)


class TestEquality:
    """Coefficient equality has one owner, ``spectrum._compare_stacks``."""

    def test_reflexive(self):
        c = showcase_coeffs()[None]
        (cmp,) = _compare_stacks(["showcase"], c, c, 1e-12)
        assert cmp.equal and cmp.residual == 0.0

    def test_small_perturbation_detected(self):
        p = showcase_coeffs()
        q = p.copy()
        q[1, 0, 0, 0] = 1e-3
        (cmp,) = _compare_stacks(["showcase"], p[None], q[None], 1e-9)
        assert not cmp.equal and cmp.residual == pytest.approx(1e-3 / 4.0)


class TestFromDense:
    """The one constructor: a dense coefficient array, pruned."""

    def test_matches_dict_constructor(self):
        # entries at and below PRUNE_REL times the largest go, as do zeros;
        # -0.0 parts come out as 0.0
        coeffs = np.array([[2.0, 0.0, 2e-14],
                           [3e-14, complex(-0.0, -0.0), complex(1.0, -0.0)]])
        p = MultiPoly(("x", "y"), coeffs)
        top = np.abs(coeffs).max()
        kept = {e: complex(coeffs[e]) + 0j for e in np.ndindex(coeffs.shape)
                if abs(coeffs[e]) > poly.PRUNE_REL * top}
        assert list(p.terms.items()) == list(kept.items())
        assert list(p.terms) == [(0, 0), (1, 0), (1, 2)]
        assert all(type(e) is int for exp in p.terms for e in exp)
        assert str(p.terms[(1, 2)]) == "(1+0j)"

    def test_zero_array(self):
        assert MultiPoly(("x", "y"), np.zeros((3, 2))).terms == {}

    def test_axis_count_must_match_variables(self):
        with pytest.raises(ValueError):
            MultiPoly(("x",), np.ones((2, 2)))


class TestJson:
    def test_roundtrip_and_ordering(self):
        p = MultiPoly(SHOWCASE_VARS, showcase_coeffs())
        blob = poly_to_json(p)
        exps = [tuple(t["exp"]) for t in blob["terms"]]
        assert exps == sorted(exps)
        assert blob["vars"] == list(SHOWCASE_VARS)
        back = np.zeros_like(p.coeffs)
        for t in blob["terms"]:
            back[tuple(t["exp"])] = complex(t["re"], t["im"])
        assert np.array_equal(back, p.coeffs)
