import math
import re

import numpy as np
import pytest

from specrig import exceptional, generators
from specrig.exceptional import exceptional_set, multiplicity_profile
from specrig.generators import (c_coeff, counterexample_tuple,
                                fundamental_generators, h_coeff, one_dim_rep,
                                relation_residuals, sl2_generators,
                                snu2_generators, tuple_from_json,
                                tuple_to_json)
from specrig.linalg import hs_norm

from conftest import cyclic_permutation, random_complex


def brute_residuals(t, orientation):
    """Independent re-computation of the deformed relation residuals."""
    nu = t.nu
    h, e, f = t.matrices
    if orientation == "paper":
        rs = [nu * f @ e - e @ f / nu - h,
              nu**2 * h @ e - e @ h / nu**2 - (1 + nu**2) * e,
              nu**2 * f @ h - h @ f / nu**2 - (1 + nu**2) * f]
        ops = [nu * f @ e, nu**2 * h @ e, nu**2 * f @ h]
    else:
        rs = [nu * e @ f - f @ e / nu - h,
              nu**2 * e @ h - h @ e / nu**2 - (1 + nu**2) * e,
              nu**2 * h @ f - f @ h / nu**2 - (1 + nu**2) * f]
        ops = [nu * e @ f, nu**2 * e @ h, nu**2 * h @ f]
    scale = max(1.0, *(np.linalg.norm(o) for o in ops))
    return [np.linalg.norm(r) for r in rs], scale


class TestCCoeff:
    @pytest.mark.parametrize("n,nu", [(3, 0.5), (6, 0.3), (8, -0.7), (5, 1.0)])
    def test_endpoints_vanish(self, n, nu):
        assert c_coeff(n, 0, nu) == 0.0
        assert c_coeff(n, n, nu) == 0.0

    def test_n2_is_sign(self):
        assert c_coeff(2, 1, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert c_coeff(2, 1, -0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_classical_limit_value(self):
        assert c_coeff(5, 2, 1.0) == pytest.approx(math.sqrt(6.0), abs=1e-15)

    def test_matches_raw_formula(self):
        # literal formula, valid away from |nu| = 1
        for n, nu in [(4, 0.5), (7, 0.3), (9, -0.8), (12, 0.95)]:
            for k in range(1, n):
                f1 = nu ** (n - 2 * k - 1) - nu ** (n - 1)
                f2 = nu ** (1 - n) - nu ** (n - 2 * k + 1)
                raw = nu / (1 - nu**2) * math.sqrt(f1 * f2)
                assert c_coeff(n, k, nu) == pytest.approx(raw, rel=1e-12)

    def test_odd_in_nu(self):
        for k in range(1, 6):
            assert c_coeff(6, k, -0.4) == pytest.approx(-c_coeff(6, k, 0.4), rel=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 1.5, -2.0, math.nan, math.inf])
    def test_invalid_nu_rejected(self, nu):
        with pytest.raises(ValueError):
            c_coeff(4, 1, nu)

    def test_nan_nu_message(self):
        with pytest.raises(ValueError, match=r"^nu must lie in \[-1, 1\] excluding 0, got nan$"):
            snu2_generators(4, math.nan)

    @pytest.mark.parametrize("coeff,k,last", [
        (c_coeff, -1, 3), (c_coeff, 4, 3), (h_coeff, -2, 2), (h_coeff, 3, 2), (h_coeff, 7, 2)])
    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_index_out_of_range(self, coeff, k, last, nu):
        # c_k has k = 0..n (c_0 = c_n = 0), h_k has k = 0..n-1
        with pytest.raises(ValueError, match=rf"^k must lie in 0\.\.{last}, got {k}$"):
            coeff(3, k, nu)


class TestFloat64Range:
    """|nu|^(-k) leaves float64 at small |nu| and large n: a ValueError
    names the point instead of Python's bare OverflowError."""

    def test_last_point_before_overflow_builds(self):
        t = snu2_generators(59, 0.002)
        assert all(np.isfinite(m).all() for m in t.matrices)

    @pytest.mark.parametrize("build", [
        lambda: snu2_generators(60, 0.002), lambda: snu2_generators(121, 0.05),
        lambda: snu2_generators(297, 0.3), lambda: c_coeff(200, 150, 0.002),
        lambda: h_coeff(60, 59, 0.002), lambda: multiplicity_profile(122, 0.05)])
    def test_overflow_named(self, build):
        with pytest.raises(ValueError, match=r"^the ladder at n=\d+, nu=\S+ overflows float64$"):
            build()


def _per_k_ladder(n, nu):
    return [c_coeff(n, k, nu) for k in range(n + 1)]


def _bits(values):
    return [float(v).hex() for v in values]


# every interior root parameter at n <= 40 (a double eigenvalue of E E*)
# and the fixed set, at each n of 1..70
_FIXED_NUS = (1.0, -1.0, 0.5, -0.5, -0.3, 0.9999999)
_LADDER_CASES = [(n, nu) for n in range(1, 71) for nu in _FIXED_NUS] + [
    (n, r.nu) for n in range(2, 41) for r in exceptional_set(n)]


class TestLadder:
    """``generators._ladder`` computes each g_m once and each c_k (and h_k)
    once by ``c_coeff``'s (``h_coeff``'s) rule: every float is the one the
    per-k calls give."""

    def test_matches_per_k_coefficients(self):
        for n, nu in _LADDER_CASES:
            c, h = generators._ladder(n, nu, diagonal=True)
            assert _bits(generators._ladder(n, nu)) == _bits(c), (n, nu)
            assert _bits(c) == _bits(_per_k_ladder(n, nu)), (n, nu)
            assert _bits(h) == _bits(h_coeff(n, k, nu) for k in range(n)), (n, nu)

    def test_profile_matches_per_k_coefficients(self, monkeypatch):
        got = [multiplicity_profile(n, nu) for n, nu in _LADDER_CASES]
        monkeypatch.setattr(exceptional, "_ladder", _per_k_ladder)
        for (n, nu), profile in zip(_LADDER_CASES, got):
            want = multiplicity_profile(n, nu)
            assert [m for _, m in profile] == [m for _, m in want], (n, nu)
            assert _bits(v for v, _ in profile) == _bits(v for v, _ in want), (n, nu)

    def test_generators_match_per_k_coefficients(self):
        for n, nu in _LADDER_CASES:
            t = snu2_generators(n, nu)
            c = _per_k_ladder(n, nu)
            h = np.diag([h_coeff(n, k, nu) for k in range(n)]).astype(complex)
            e = np.diag([nu * x for x in c[1:n]], 1).astype(complex)
            f = np.diag([-x for x in c[1:n]], -1).astype(complex)
            for got, want in zip(t.matrices, (h, e, f)):
                assert got.tobytes() == want.tobytes(), (n, nu)

    def test_overflow_message(self):
        # at n = 55, nu = 1e-3 every c_k is finite and squaring one
        # overflows: the profile names the point as the ladder does
        assert all(map(math.isfinite, generators._ladder(55, 1e-3)))
        for n, build in ((55, multiplicity_profile), (55, snu2_generators),
                         (200, generators._ladder)):
            with pytest.raises(ValueError, match=rf"^the ladder at n={n}, nu=0\.001 overflows float64$"):
                build(n, 1e-3)

    @pytest.mark.parametrize("nu", [1e-170, -1e-300, 5e-324])
    def test_underflowing_square(self, nu):
        # nu^2 rounds to 0, so g_m = 1 for m >= 1 and the ladder is exact
        # while |nu|^-k stays finite: at n = 2, H = diag(-0.0, 1) and
        # c_1 = sign(nu), unless c_1's |nu|^-1 overflows (|nu| < 5.6e-309);
        # from n = 3 on h_(n-1) = nu^-2 overflows
        def overflows(n):
            return pytest.raises(ValueError, match=rf"^the ladder at n={n}, nu={nu} overflows float64$")
        if abs(nu) < 5.6e-309:
            for build in (snu2_generators, multiplicity_profile, generators._ladder):
                with overflows(2):
                    build(2, nu)
        else:
            t = snu2_generators(2, nu)
            assert list(map(repr, t.h.diagonal().tolist())) == ["(-0+0j)", "(1+0j)"]
            c = generators._ladder(2, nu)
            assert c == [0.0, pytest.approx(math.copysign(1.0, nu)), 0.0]
            assert t.f[1, 0] == -c[1]
            assert multiplicity_profile(2, nu) == [(0.0, 2)]
        for build in (snu2_generators, multiplicity_profile):
            with overflows(3):
                build(3, nu)
        with overflows(3):
            h_coeff(3, 2, nu)

    @pytest.mark.parametrize("nu", [math.nan, 0.0, 2.0])
    def test_nu_message(self, nu):
        with pytest.raises(ValueError) as want:
            c_coeff(5, 2, nu)
        for build in (lambda: generators._ladder(5, nu), lambda: snu2_generators(5, nu),
                      lambda: multiplicity_profile(5, nu)):
            with pytest.raises(ValueError) as got:
                build()
            assert str(got.value) == str(want.value)


class TestSnu2:
    def test_n2_matrices(self):
        t = snu2_generators(2, 0.5)
        assert np.allclose(t.h, np.diag([-0.25, 1.0]))
        assert np.allclose(t.e, [[0, 0.5], [0, 0]])
        assert np.allclose(t.f, [[0, 0], [-1.0, 0]])

    def test_classical_limit_entrywise(self):
        # at nu = +1 the matrices are exactly the limit triple
        n = 6
        t = snu2_generators(n, 1.0)
        assert t.family == "limit_nu1"
        assert np.allclose(np.diag(t.h).real, [2 * k + 1 - n for k in range(n)])
        for k in range(1, n):
            assert t.e[k - 1, k] == pytest.approx(math.sqrt(k * (n - k)))
            assert t.f[k, k - 1] == pytest.approx(-math.sqrt(k * (n - k)))

    def test_nu_minus_one_sign_convention(self):
        # c_k(+-1) takes the positive branch, so at nu = -1 the E slot is
        # the negative of the nu = +1 limit while F and H agree
        n = 5
        plus = snu2_generators(n, 1.0)
        minus = snu2_generators(n, -1.0)
        assert np.allclose(minus.h, plus.h)
        assert np.allclose(minus.e, -plus.e)
        assert np.allclose(minus.f, plus.f)

    @pytest.mark.parametrize("nu", [1.0, -1.0])
    def test_self_adjointness_at_limit(self, nu):
        t = snu2_generators(7, nu)
        assert hs_norm(-nu * t.e.conj().T - t.f) <= 1e-12

    def test_max_diagonal_entry(self):
        for n, nu in [(3, 0.4), (6, 0.7), (9, 0.25)]:
            t = snu2_generators(n, nu)
            expected = nu**2 / (1 - nu**2) * (nu ** (2 * (1 - n)) - 1)
            assert np.max(np.diag(t.h).real) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,nu", [(4, 0.5), (8, 0.3), (10, -0.7), (6, 0.95)])
    def test_h_strictly_increasing_and_matches_formula(self, n, nu):
        d = np.diag(snu2_generators(n, nu).h).real
        assert np.all(np.diff(d) > 0)
        raw = [nu**2 / (1 - nu**2) * (nu ** (2 * (n - 2 * k - 1)) - 1) for k in range(n)]
        assert np.allclose(d, raw, rtol=1e-10)

    @pytest.mark.parametrize("n,nu", [(3, 0.5), (7, 0.3), (10, -0.7)])
    def test_ladder_products_diagonal(self, n, nu):
        t = snu2_generators(n, nu)
        ee = t.e @ t.e.conj().T
        expected = np.diag([(nu * c_coeff(n, k + 1, nu)) ** 2 for k in range(n)])
        assert hs_norm(ee - expected) <= 1e-12 * max(1, hs_norm(ee))
        este = t.e.conj().T @ t.e
        expected2 = np.diag([(nu * c_coeff(n, k, nu)) ** 2 for k in range(n)])
        assert hs_norm(este - expected2) <= 1e-12 * max(1, hs_norm(este))

    def test_continuity_into_the_limit(self):
        n = 5
        lim = snu2_generators(n, 1.0)
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            t = snu2_generators(n, 1.0 - eps)
            gaps.append(max(hs_norm(a - b) for a, b in zip(t.matrices, lim.matrices)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            snu2_generators(0, 0.5)


class TestSl2:
    def test_n3_display(self):
        t = sl2_generators(3)
        assert np.array_equal(t.e, np.array([[0, 2, 0], [0, 0, 2], [0, 0, 0]], dtype=complex))
        assert np.array_equal(t.f, np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex))
        assert np.array_equal(t.h, np.diag([2.0, 0.0, -2.0]))

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_integer_exact_relations(self, n):
        h, e, f = sl2_generators(n).matrices
        assert np.array_equal(h @ e - e @ h, 2 * e)
        assert np.array_equal(h @ f - f @ h, -2 * f)
        assert np.array_equal(e @ f - f @ e, h)

    def test_ef_diagonal(self):
        n = 6
        t = sl2_generators(n)
        expected = np.diag([(j + 1) * (n - 1 - j) for j in range(n - 1)] + [0]).astype(complex)
        assert np.array_equal(t.e @ t.f, expected)

    def test_too_small(self):
        with pytest.raises(ValueError):
            sl2_generators(1)


class TestFundamental:
    def test_matrices(self):
        t = fundamental_generators(0.7)
        assert np.allclose(t.h, np.diag([1.0, -0.49]))
        assert np.allclose(t.e, [[0, 1], [0, 0]])
        assert np.allclose(t.f, [[0, 0], [-0.7, 0]])

    def test_classical_case(self):
        t = fundamental_generators(1.0)
        assert np.allclose(t.h, np.diag([1.0, -1.0]))
        assert np.allclose(t.f, [[0, 0], [-1.0, 0]])

    @pytest.mark.parametrize("nu", [0.3, -0.3, 0.9, -0.9, 1.0])
    def test_paper_orientation_exact(self, nu):
        res = relation_residuals(fundamental_generators(nu), "paper")
        assert max(res.r1, res.r2, res.r3) <= 1e-12

    @pytest.mark.parametrize("nu", [0.4, -0.8, 1.0])
    def test_self_adjointness(self, nu):
        t = fundamental_generators(nu)
        assert hs_norm(-nu * t.e.conj().T - t.f) <= 1e-14


class TestOneDim:
    def test_h_value(self):
        t = one_dim_rep(1.0, 0.5)
        assert t.h[0, 0] == pytest.approx(-0.25 / 0.75)

    def test_product_independent_of_c(self):
        nu = 0.5
        expected = nu**3 / (1 - nu**2) ** 2
        for c in (1.0, 2.5 - 1j, -0.3):
            t = one_dim_rep(c, nu)
            assert (t.f @ t.e)[0, 0] == pytest.approx(expected)

    def test_f_value(self):
        t = one_dim_rep(1.0, 0.5)
        assert t.f[0, 0] == pytest.approx(2.0 / 3.0)

    def test_rejects_limit_and_zero(self):
        with pytest.raises(ValueError):
            one_dim_rep(1.0, 1.0)
        with pytest.raises(ValueError):
            one_dim_rep(0.0, 0.5)


class TestCounterexample:
    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            counterexample_tuple(1.0, 1.0, 1.0, 1.0)

    def test_commutator_corners(self):
        t = counterexample_tuple(2.0, 1.0, 1.0, 2.0)
        comm = t.e @ t.f - t.f @ t.e
        expected = np.array([[2, 0, 4], [0, -4, 0], [1, 0, 2]], dtype=complex)
        assert np.allclose(comm, expected)

    def test_complex_parameters(self):
        t = counterexample_tuple(2j, 1.0, -1j, 2.0)
        assert t.n == 3


class TestStructural:
    def test_cyclic_permutation(self):
        n = 5
        p = cyclic_permutation(n)
        assert hs_norm(p @ p.conj().T - np.eye(n)) <= 1e-15
        assert np.array_equal(np.linalg.matrix_power(p, n), np.eye(n))

    def test_conjugation_shifts_diagonal(self):
        n = 4
        p = cyclic_permutation(n)
        d = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        shifted = p.conj().T @ d @ p
        assert np.allclose(np.diag(shifted).real, [4.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n,nu", [(4, 0.5), (7, 0.3), (6, -0.7)])
    def test_ladder_permutation_identity(self, n, nu):
        # A2* A2 = P* (A2 A2*) P for the ladder E
        t = snu2_generators(n, nu)
        p = cyclic_permutation(n)
        lhs = t.e.conj().T @ t.e
        rhs = p.conj().T @ (t.e @ t.e.conj().T) @ p
        assert hs_norm(lhs - rhs) <= 1e-12 * max(1, hs_norm(lhs))


class TestRelationResiduals:
    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_ladder_swapped_orientation(self, n, nu):
        t = snu2_generators(n, nu)
        res = relation_residuals(t, "swapped")
        assert res.max_relative() <= 1e-10
        rs, scale = brute_residuals(t, "swapped")
        assert max(rs) / scale <= 1e-10
        # both residual sets sit at the rounding floor eps * scale; they
        # agree up to that floor, not relative to each other
        assert [res.r1, res.r2, res.r3] == pytest.approx(rs, abs=1e-12 * scale)

    def test_orientation_split(self):
        res = relation_residuals(snu2_generators(2, 0.5), "paper")
        assert res.r1 > 0.1

    def test_fundamental_swapped_nonzero(self):
        res = relation_residuals(fundamental_generators(0.5), "swapped")
        assert res.r1 > 0.1

    def test_family_without_nu_rejected(self):
        with pytest.raises(ValueError):
            relation_residuals(sl2_generators(3), "paper")

    def test_unknown_orientation(self):
        with pytest.raises(ValueError):
            relation_residuals(snu2_generators(2, 0.5), "sideways")


class TestTupleJson:
    def test_roundtrip(self, rng):
        t = snu2_generators(4, 0.6)
        back = tuple_from_json(tuple_to_json(t))
        for a, b in zip(t.matrices, back.matrices):
            assert np.array_equal(a, b)
        assert back.family == "snu2" and back.nu == 0.6 and back.n == 4

    def test_missing_matrix_rejected(self):
        with pytest.raises(ValueError):
            tuple_from_json({"matrices": {"H": {"n": 1, "entries": [[[0.0, 0.0]]]}}})

    @pytest.mark.parametrize("nu", ["0.5", True, [0.5]])
    def test_non_number_nu_rejected(self, nu):
        blob = tuple_to_json(snu2_generators(2, 0.5))
        blob["nu"] = nu
        message = f"^'nu' must be a JSON number, got {re.escape(repr(nu))}$"
        with pytest.raises(ValueError, match=message):
            tuple_from_json(blob)

    def test_number_nu_accepted(self):
        blob = tuple_to_json(snu2_generators(2, 1.0))
        blob["nu"] = 1  # a JSON integer is a number
        assert tuple_from_json(blob).nu == 1.0
        assert snu2_generators(3, np.float64(0.5)).nu == 0.5  # library callers keep numpy floats

    def test_missing_matrices_rejected(self):
        with pytest.raises(ValueError, match="^tuple JSON must be an object with 'matrices'$"):
            tuple_from_json({"family": "sl2"})
