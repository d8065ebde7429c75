import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrig import rigidity, spectrum
from specrig.exceptional import exceptional_set
from specrig.generators import (counterexample_tuple, one_dim_rep, sl2_generators,
                                snu2_generators)
from specrig.linalg import DEFAULT_TOL, DimensionMismatchError, NotHermitianError, hs_norm
from specrig.rigidity import (EQUIVALENT, HYPOTHESIS_FAILED,
                              RECONSTRUCTION_FAILED, LineNotInSpectrumError,
                              MultiplicityError, NotUnitaryError,
                              _superdiagonal_support, certify_equivalence, compression_check,
                              sl2_rigidity, snu2_rigidity)
from specrig.poly import MultiPoly, poly_to_json
from specrig.spectrum import PencilComparison, det_pencil, spectra_equal

from conftest import random_complex, random_phases, random_unitary


PAIR = ("x1", "x2")

# the second slot of each rigidity pencil as an explicit product: the
# reference against which the parsed pencil names are checked
PRODUCTS = {
    "A1, A2 A2^H": lambda a2, a3: a2 @ a2.conj().T,
    "A1, A2^H A2": lambda a2, a3: a2.conj().T @ a2,
    "A1, A3 A3^H": lambda a2, a3: a3 @ a3.conj().T,
    "A1, A3^H A3": lambda a2, a3: a3.conj().T @ a3,
    "A1, A2 A3": lambda a2, a3: a2 @ a3,
}


def conjugated(t, w):
    return tuple(w @ m @ w.conj().T for m in t.matrices)


# ``rigidity._drive``'s errstate, under which every stage runs
_STAGES_ERRSTATE = dict(over="ignore", invalid="ignore")


def _verify(family, cand, n, nu=None, tol=DEFAULT_TOL):
    """The verification stage, entered as the drivers enter it: the
    failed hypotheses and the pencils' residuals."""
    with np.errstate(**_STAGES_ERRSTATE):
        return rigidity._verify_conditions(spectrum._slot_matrices(cand),
                                           rigidity._verification(family, n, nu), tol)


def _reconstruct(family, cand, n, nu=None, tol=DEFAULT_TOL):
    """The reconstruction stage, then the named steps, as the drivers run
    them once the hypotheses hold, so every diagnostic is computed."""
    with np.errstate(**_STAGES_ERRSTATE):
        rep, frame = rigidity._reconstruct(spectrum._slot_matrices(cand),
                                           rigidity._reference(family, n, nu), tol)
        return (rigidity._explain(frame) or rep) if frame else rep


class TestVerifyConditionsSnu2:
    def test_reference_passes(self):
        t = snu2_generators(5, 0.5)
        failures, residuals = _verify("snu2", t, 5, 0.5)
        assert failures == []
        assert list(residuals) == list(rigidity.SNU2_PENCILS)

    def test_unitary_conjugate_passes(self, rng):
        n, nu = 6, -0.7
        t = snu2_generators(n, nu)
        failures, _ = _verify("snu2", conjugated(t, random_unitary(rng, n)), n, nu)
        assert failures == []

    def test_scaled_a2_fails_first_pencil(self):
        t = snu2_generators(4, 0.5)
        failures, _ = _verify("snu2", (t.h, 2.0 * t.e, t.f), 4, 0.5)
        assert "pencil equality failed: A1, A2 A2^H" in failures

    def test_non_normal_a1_short_circuits(self, rng):
        t = snu2_generators(3, 0.5)
        # no pencil is evaluated, so none has a residual
        assert _verify("snu2", (random_complex(rng, 3), t.e, t.f), 3, 0.5) \
            == (["A1 is not normal"], {})


class TestReconstructSnu2:
    def test_reference_gives_identity_witness(self):
        n, nu = 5, 0.5
        t = snu2_generators(n, nu)
        rep = _reconstruct("snu2", t.matrices, n, nu)
        assert rep.verdict == EQUIVALENT
        assert np.allclose(rep.witness, np.eye(n))
        assert np.allclose(rep.basis, np.eye(n))
        assert rep.residual <= 1e-12

    @pytest.mark.parametrize("n,nu", [(2, 0.3), (5, -0.7), (8, 0.3), (10, 1.0)])
    def test_phase_roundtrip_recovers_witness(self, rng, n, nu):
        t = snu2_generators(n, nu)
        ph = random_phases(rng, n)
        rep = _reconstruct("snu2", conjugated(t, np.diag(ph)), n, nu)
        assert rep.verdict == EQUIVALENT
        assert rep.residual <= 1e-9
        # gauge: first entry fixed to 1 makes the witness canonical
        assert np.max(np.abs(np.diag(rep.witness) - ph)) <= 1e-9

    @pytest.mark.parametrize("n,nu", [(4, 0.5), (7, 0.3), (9, -0.7), (6, 1.0)])
    def test_unitary_roundtrip(self, rng, n, nu):
        t = snu2_generators(n, nu)
        w = random_unitary(rng, n)
        cand = conjugated(t, w)
        rep = snu2_rigidity(cand, n, nu, tol=1e-8)
        assert rep.verdict == EQUIVALENT
        assert certify_equivalence(cand, t, rep.global_witness, 1e-8) <= 1e-8

    def test_soundness_assertion(self, rng):
        # whenever the verdict is equivalent the witness certifies
        for n, nu in [(3, 0.4), (6, 0.9), (5, -0.3)]:
            t = snu2_generators(n, nu)
            cand = conjugated(t, random_unitary(rng, n))
            rep = snu2_rigidity(cand, n, nu)
            assert rep.verdict == EQUIVALENT
            assert certify_equivalence(cand, t, rep.global_witness) <= 1e-9

    def test_superdiagonal_tamper_names_step3(self):
        n, nu, tol = 6, 0.5, 1e-9
        t = snu2_generators(n, nu)
        a2 = t.e.copy()
        bump = 10 * tol * max(1.0, hs_norm(a2))
        a2[2, 3] += bump * a2[2, 3] / abs(a2[2, 3])  # push the modulus
        rep = _reconstruct("snu2", (t.h, a2, t.f), n, nu, tol)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0].startswith("step3")

    def test_spread_off_superdiagonal_mass_names_entries(self):
        # 16 entries of half the threshold each: no entry exceeds it, the
        # HS norm (twice the threshold) does
        n, nu, tol = 8, 0.5, 1e-9
        t = snu2_generators(n, nu)
        s = max(1.0, hs_norm(t.e))
        spots = [(i, j) for i in range(n - 1) for j in range(1, n) if j != i + 1][:16]
        a2 = t.e.copy()
        for i, j in spots:
            a2[i, j] = 0.5 * tol * s
        msg = _superdiagonal_support("A2", a2, np.abs(np.diag(t.e, 1)), tol)
        assert msg == ("A2: A2 support off the superdiagonal at (0,2), (0,3), (0,4), "
                       f"(0,5) (HS norm {2 * tol * s:.3g} > {tol * s:.3g})")
        rep = _reconstruct("snu2", (t.h, a2, t.f), n, nu, tol)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0].startswith("step3")
        assert "A2 support off the superdiagonal at (" in rep.diagnostics[0]

    def test_off_ladder_mass_flags_x2_diagnostic(self):
        n, nu = 4, 0.5
        t = snu2_generators(n, nu)
        a2 = t.e.copy()
        a2[2, 0] = 0.5  # a genuine cycle, not just noise
        rep = _reconstruct("snu2", (t.h, a2, t.f), n, nu)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert any("x2_dependence detected: True" in d for d in rep.diagnostics)

    def test_non_finite_scale_fails_closed(self, rng):
        # with 2e307 on every A2 entry, ||A2|| = 2e308 overflows: a bound of
        # tol * inf let the A2 support checks pass and step3 blamed A3^H instead
        n, nu = 10, 0.05
        a1, a2, a3 = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        with np.errstate(all="ignore"):
            rep = _reconstruct("snu2", (a1, a2 + 2e307, a3), n, nu, 1e-9)
        assert rep.diagnostics == ["step3: A2: the scale of A2 is not finite"]

    def test_finite_scale_near_overflow_keeps_a_unitary_basis(self, rng):
        # 1e307 on every A2 entry gives ||A2|| = 1e308, finite: no ladder
        # step may overflow into a zero column, so the basis stays unitary
        # and step3 names A2's support, not its scale
        n, nu = 10, 0.05
        a1, a2, a3 = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        mats = spectrum._slot_matrices((a1, a2 + 1e307, a3))
        entry = rigidity._reference("snu2", n, nu)
        with np.errstate(all="ignore"):
            _, v, _, ok = rigidity._eigenbasis_matched(mats[0], mats[1], entry, 1e-9)
            rep = _reconstruct("snu2", mats, n, nu, 1e-9)
        assert ok and hs_norm(v.conj().T @ v - np.eye(n)) <= 1e-13
        assert rep.diagnostics[0] == "step3: A2: first column or last row of A2 is not zero"

    @pytest.mark.parametrize("value,bound,fails", [
        (1.0, 2.0, False), (2.0, 2.0, False), (3.0, 2.0, True), (np.nan, 2.0, True),
        (1.0, np.nan, True), (1.0, np.inf, True), (np.inf, np.inf, True)])
    def test_checks_fail_closed(self, value, bound, fails):
        assert rigidity._exceeds(value, bound) is fails

    def test_phase_mismatch_names_step4(self, rng):
        n, nu = 5, 0.5
        t = snu2_generators(n, nu)
        a2 = t.e.copy()
        a2[1, 2] *= np.exp(0.3j)  # rotate one A2 phase, leave A3 alone
        rep = _reconstruct("snu2", (t.h, a2, t.f), n, nu)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0].startswith("step4")

    def test_wrong_spectrum_names_step1(self):
        n, nu = 4, 0.5
        t = snu2_generators(n, nu)
        rep = _reconstruct("snu2", (2.0 * t.h, t.e, t.f), n, nu)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0].startswith("step1")


def _a3_off_subdiagonal(h, e, f):
    f = f.copy()
    f[3, 1] = 0.5
    return h, e, f


def _a3_modulus(h, e, f):
    f = f.copy()
    f[2, 1] *= 1.5
    return h, e, f


def _a2_off_superdiagonal(h, e, f):
    e = e.copy()
    e[1, 3] = 0.5
    return h, e, f


def _a3_phase(h, e, f):
    f = f.copy()
    f[2, 1] *= np.exp(0.4j)
    return h, e, f


def _double_a1(h, e, f):
    return 2.0 * h, e, f


# tamper of the n = 5 reference -> first diagnostic, snu2 (nu = 0.5) / sl2
FAILING_STEPS = [
    (_a3_off_subdiagonal,
     "step3: A3^H: A3^H support off the superdiagonal at (1,3)",
     "step2: A3 A3^H is not diagonal in the A1 eigenbasis"),
    (_a3_modulus,
     "step3: A3^H: superdiagonal modulus mismatch at (1,2)",
     "step2: A3 A3^H diagonal mismatch at index 2"),
    (_a2_off_superdiagonal,
     "step3: A2: A2 support off the superdiagonal at (1,3)",
     "step3: A2: A2 support off the superdiagonal at (1,3)"),
    (_a3_phase,
     "step4: phase mismatch between A2 and A3",
     "step4: phase mismatch between A2 and A3"),
    (_double_a1,
     "step1: spectrum of A1 does not match the reference diagonal",
     "step1: spectrum of A1 does not match the reference diagonal"),
]


@pytest.mark.parametrize("family", ["snu2", "sl2"])
@pytest.mark.parametrize("tamper,snu2_msg,sl2_msg", FAILING_STEPS,
                         ids=[case[0].__name__.lstrip("_") for case in FAILING_STEPS])
def test_failing_step_names(family, tamper, snu2_msg, sl2_msg):
    n = 5
    if family == "snu2":
        rep = _reconstruct("snu2", tamper(*snu2_generators(n, 0.5).matrices), n, 0.5)
        expected = snu2_msg
    else:
        rep = _reconstruct("sl2", tamper(*sl2_generators(n).matrices), n)
        expected = sl2_msg
    assert rep.verdict == RECONSTRUCTION_FAILED
    assert rep.diagnostics[0].startswith(expected), rep.diagnostics


class TestGaugeInvariance:
    @pytest.mark.parametrize("n,nu", [(4, 0.5), (10, 0.3), (7, 1.0)])
    def test_witness_equals_diagonal_conjugator(self, rng, n, nu):
        t = snu2_generators(n, nu)
        ph = random_phases(rng, n)  # first phase 1
        rep = _reconstruct("snu2", conjugated(t, np.diag(ph)), n, nu)
        assert rep.verdict == EQUIVALENT
        assert np.max(np.abs(np.diag(rep.witness) - ph)) <= 1e-9


class TestReconstructSl2:
    def test_reference_identity(self):
        n = 5
        t = sl2_generators(n)
        rep = _reconstruct("sl2", t.matrices, n)
        assert rep.verdict == EQUIVALENT
        assert np.allclose(rep.witness, np.eye(n))

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_phase_roundtrip(self, rng, n):
        t = sl2_generators(n)
        ph = random_phases(rng, n)
        rep = _reconstruct("sl2", conjugated(t, np.diag(ph)), n)
        assert rep.verdict == EQUIVALENT
        assert rep.residual <= 1e-9

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_unitary_roundtrip(self, rng, n):
        t = sl2_generators(n)
        cand = conjugated(t, random_unitary(rng, n))
        rep = sl2_rigidity(cand, n, tol=1e-8)
        assert rep.verdict == EQUIVALENT
        assert certify_equivalence(cand, t, rep.global_witness, 1e-8) <= 1e-8

    def test_counterexample_fails_hypotheses(self):
        t = counterexample_tuple(1.0, 2.0, 2.0, 1.0)
        rep = sl2_rigidity(t.matrices, 3)
        assert rep.verdict == HYPOTHESIS_FAILED
        assert any("A1, A2 A2^H" in d for d in rep.diagnostics)

    def test_subdiagonal_phase_tamper(self):
        n = 5
        t = sl2_generators(n)
        a3 = t.f.copy()
        a3[2, 1] *= np.exp(0.4j)
        rep = _reconstruct("sl2", (t.h, t.e, a3), n)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0].startswith("step4")


class TestNonRigidityShowcase:
    def test_three_matrix_spectrum_agrees_but_rigidity_fails(self):
        # the joint spectrum alone does not pin the tuple: the
        # counterexample matches on (A1, A2, A3) yet fails the
        # adjoint-augmented hypothesis set
        t = counterexample_tuple(1.0, 2.0, 2.0, 1.0)
        ref = sl2_generators(3)
        assert spectra_equal(t, ref, ["A1, A2, A3"])[0].equal
        assert hs_norm((t.e @ t.f - t.f @ t.e) - t.h) >= 1.0
        assert sl2_rigidity(t.matrices, 3).verdict == HYPOTHESIS_FAILED

    def test_second_parameter_choice(self):
        t = counterexample_tuple(2.0, 1.0, 1.0, 2.0)
        ref = sl2_generators(3)
        assert spectra_equal(t, ref, ["A1, A2, A3"])[0].equal
        assert sl2_rigidity(t.matrices, 3).verdict == HYPOTHESIS_FAILED


_SNU2_LINE_POINTS = [(10, 0.3), (20, 0.5), (32, -0.7), (16, 0.9), (24, 0.9), (40, 0.95)]


def _snu2_adjoint_lines(n, nu):
    """H, E E* and the (H, E E*) lines, each with whether its H eigenvalue
    lies more than tol max(1, ||H||) from the other ones."""
    t = snu2_generators(n, nu)
    b = t.e @ t.e.conj().T
    h, mu = np.diag(t.h).real, np.diag(b).real
    far = np.abs(h[:, None] - h[None]) > DEFAULT_TOL * max(1.0, hs_norm(t.h))
    np.fill_diagonal(far, True)
    return t.h, b, list(zip(h, mu, far.all(axis=1)))


class TestCompressionCheck:
    @pytest.mark.parametrize("n", [3, 5, 8, 24, 32, 40])
    def test_sl2_product_lines(self, n):
        t = sl2_generators(n)
        b = t.e @ t.f
        for j in range(n - 1):
            assert compression_check(t.h, b, n - 1 - 2 * j, (j + 1) * (n - 1 - j))

    def test_sl2_product_lines_n16(self):
        n = 16
        t = sl2_generators(n)
        b = t.e @ t.f
        for j in range(n - 1):
            assert compression_check(t.h, b, n - 1 - 2 * j, (j + 1) * (n - 1 - j))

    @pytest.mark.parametrize("n", [3, 8, 16, 24, 32, 40])
    def test_sl2_shifted_lines_not_in_spectrum(self, n):
        t = sl2_generators(n)
        b = t.e @ t.f
        for j in range(n - 1):
            with pytest.raises(LineNotInSpectrumError):
                compression_check(t.h, b, n - 1 - 2 * j, (j + 1) * (n - 1 - j) + 1)

    @pytest.mark.parametrize("n, nu", _SNU2_LINE_POINTS)
    def test_snu2_adjoint_lines(self, n, nu):
        # a resolved H eigenvalue passes; an unresolved one is refused by
        # name, as its spectral projection would be its cluster's
        h, b, lines = _snu2_adjoint_lines(n, nu)
        for lam, mu, resolved in lines:
            if resolved:
                assert compression_check(h, b, lam, mu) is True
            else:
                with pytest.raises(MultiplicityError, match="unresolved"):
                    compression_check(h, b, lam, mu)

    @pytest.mark.parametrize("n, nu", _SNU2_LINE_POINTS)
    def test_snu2_shifted_lines_not_in_spectrum(self, n, nu):
        h, b, lines = _snu2_adjoint_lines(n, nu)
        for lam, mu, _ in lines:
            with pytest.raises(LineNotInSpectrumError):
                compression_check(h, b, lam, mu + 1e-6 * max(1.0, hs_norm(b)))

    # just above tol max(1, ||a||) for the near_* matrices a below
    _GAP = 1.01 * DEFAULT_TOL * np.sqrt(2.0)

    @pytest.mark.parametrize("a, b, match", [
        (np.diag([1.0, 1.0, 2.0]), np.diag([5.0, 5.0, 7.0]), "unresolved"),
        (np.eye(2), np.array([[5.0, 1.0], [0.0, 5.0]]), "unresolved"),
        (np.diag([1.0, 1.0 + _GAP, 0.0, 0.0]), np.diag([5.0, 5.0, 50.0, -50.0]),
         "multiplicity > 1"),
        (np.diag([1.0, 1.0 + _GAP]), np.array([[5.0, 100.0], [0.0, 5.0]]), "multiplicity > 1"),
    ], ids=["double_line", "jordan_pair", "near_double_line", "near_jordan_pair"])
    def test_double_lines_refused(self, a, b, match):
        # lam = 1 is a double eigenvalue of the first two a, so unresolved;
        # in the near_* pairs it is resolved, but the lines x1 + 5 x2 = 1
        # and (1 + gap) x1 + 5 x2 = 1 coincide within tol on the samples,
        # failing the sigma_(n-1) half of the simplicity test
        # (near_double_line) or its slope half (near_jordan_pair)
        with pytest.raises(MultiplicityError, match=match):
            compression_check(a, b, 1.0, 5.0)

    def test_dimension_one(self):
        assert compression_check([[2.0]], [[3.0]], 2.0, 3.0) is True

    @pytest.mark.parametrize("a, b, lam, mu, match", [
        (np.diag([1.0, 2.0]), np.diag([5.0, 7.0]), 0.0, 0.0, "no finite sample points"),
        (np.diag([1.0, 2.0]), np.diag([5.0, 7.0]), np.nan, 5.0, "no finite sample points"),
        (np.diag([1.0, 2.0]), np.diag([5.0, 7.0]), 1.0, np.inf, "no finite sample points"),
        (np.diag([1.0, 2.0]), np.diag([5.0, 7.0]), complex(np.inf, 1.0), 0.0,
         "no finite sample points"),
        (np.eye(2), np.eye(3), 1.0, 1.0, "share one dimension"),
        # a nonzero subnormal line: its sample points lie beyond float64
        (np.diag([1.0, 2.0]), np.diag([5.0, 7.0]), 1e-320, 0.0, "no finite sample points"),
    ], ids=["zero_line", "nan_lam", "inf_mu", "complex_inf_lam", "shape_mismatch",
            "overflowing_samples"])
    def test_bad_arguments(self, a, b, lam, mu, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=match):
                compression_check(a, b, lam, mu)

    def test_commuting_diagonals(self):
        assert compression_check(np.diag([1.0, 2.0]).astype(complex),
                                 np.diag([5.0, 7.0]).astype(complex), 1.0, 5.0)

    def test_compression_reads_diagonal_entry(self):
        # P_1 b P_1 = b_00 P_1 as matrix arithmetic even off the
        # spectral lines ...
        from specrig.linalg import spectral_projection
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.array([[5.0, 1.0], [1.0, 7.0]], dtype=complex)
        p = spectral_projection(a, 1.0)
        assert hs_norm(p @ b @ p - 5.0 * p) <= 1e-12
        # ... but the line x1 + 5 x2 = 1 is not contained in this pair's
        # spectrum (the determinant restricts to -x2^2 on it), so the
        # guarded check refuses the input
        with pytest.raises(LineNotInSpectrumError):
            compression_check(a, b, 1.0, 5.0)

    def test_line_not_in_spectrum(self):
        with pytest.raises(LineNotInSpectrumError):
            compression_check(np.diag([1.0, 2.0]).astype(complex),
                              np.diag([5.0, 7.0]).astype(complex), 1.0, 6.0)

    def test_multiplicity_refused(self):
        a = np.diag([1.0, 1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 3.0, 5.0]).astype(complex)
        with pytest.raises(MultiplicityError, match="unresolved"):
            compression_check(a, b, 1.0, 3.0)


class TestCertifyEquivalence:
    def test_identity(self):
        t = snu2_generators(4, 0.5)
        assert certify_equivalence(t, t, np.eye(4)) == 0.0

    def test_counterexample_large_residual(self):
        t = counterexample_tuple(1.0, 2.0, 2.0, 1.0)
        ref = sl2_generators(3)
        assert certify_equivalence(t, ref, np.eye(3)) >= 1.0

    @pytest.mark.parametrize("sizes", [(2, 1, 1), (4, 5, 4), (4, 5, 5), (4, 4, 3)])
    def test_sizes_must_agree(self, sizes):
        # (2, 1, 1) broadcast to a residual of 2.03; the others raised
        # numpy's "operands could not be broadcast" or "matmul: Input
        # operand 1 has a mismatch ..."
        cand, ref, w = sizes
        refs = one_dim_rep(1, 0.5) if ref == 1 else snu2_generators(ref, 0.5)
        with pytest.raises(DimensionMismatchError, match="^candidate, reference and witness "
                           f"sizes differ: {cand}, {ref}, {w}$"):
            certify_equivalence(snu2_generators(cand, 0.5), refs, np.eye(w))

    def test_non_unitary_rejected(self, rng):
        t = snu2_generators(3, 0.5)
        with pytest.raises(NotUnitaryError):
            certify_equivalence(t, t, 2.0 * np.eye(3))

    def test_overflowing_slot_is_not_certified(self):
        # w r w* overflows in the second slot; Python's max dropped that
        # slot's NaN and called the pair certified (0.0)
        c = np.sqrt(0.5)
        w = np.array([[c, -c], [c, c]])
        h, zero = np.diag([1.0, -1.0]), np.zeros((2, 2))
        with np.errstate(all="ignore"):
            resid = certify_equivalence((w @ h @ w.conj().T, zero, zero),
                                        (h, 1.5e308 * np.ones((2, 2)), zero), w, 1e-9)
        assert not resid <= 1e-9
        assert np.isnan(resid)

    @pytest.mark.parametrize("s", [1e155, 1e200])
    def test_large_witness_rejected_without_overflow(self, s):
        # ||w||^2 overflowed: a warning from matmul, then an OverflowError
        g = snu2_generators(4, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitaryError):
                certify_equivalence(g, g, s * np.eye(4))


class TestVerifySl2:
    def test_reference_passes(self):
        t = sl2_generators(6)
        failures, residuals = _verify("sl2", t, 6)
        assert failures == []
        assert list(residuals) == list(rigidity.SL2_PENCILS)

    def test_report_json_shape(self, rng):
        n = 4
        t = sl2_generators(n)
        rep = sl2_rigidity(conjugated(t, random_unitary(rng, n)), n)
        blob = rep.to_json()
        assert blob["verdict"] == EQUIVALENT
        assert blob["witness"]["n"] == n
        assert set(blob) == {"verdict", "witness", "basis", "condition_residuals",
                             "diagnostics", "residual"}


class TestReportInvariants:
    def test_witness_shape_on_success(self, rng):
        n, nu = 6, 0.5
        t = snu2_generators(n, nu)
        rep = snu2_rigidity(conjugated(t, random_unitary(rng, n)), n, nu)
        assert rep.verdict == EQUIVALENT
        w = rep.witness
        assert hs_norm(w - np.diag(np.diag(w))) == 0.0
        assert hs_norm(w @ w.conj().T - np.eye(n)) <= 1e-10
        assert w[0, 0] == 1.0
        assert hs_norm(rep.global_witness @ rep.global_witness.conj().T
                       - np.eye(n)) <= 1e-10

    def test_witness_absent_on_failure(self):
        t = snu2_generators(4, 0.5)
        rep = snu2_rigidity(t.matrices, 4, 0.7)
        assert rep.verdict == HYPOTHESIS_FAILED
        assert rep.witness is None and rep.basis is None
        assert rep.global_witness is None

    def test_one_dimensional_tuple(self):
        t = snu2_generators(1, 0.5)
        rep = snu2_rigidity(t.matrices, 1, 0.5)
        assert rep.verdict == EQUIVALENT
        assert np.array_equal(rep.witness, np.eye(1))


LARGE_REFS = [("snu2", nu) for nu in (0.3, 0.5, 0.9, 1.0, -1.0)] + [("sl2", None)]
# (n, family, nu, tol): the references above at tol 1e-8, and small |nu|, whose
# lower ladder diagonal clusters below float64 resolution, at the default tol
LARGE_CONJUGATES = [
    *(pytest.param(n, family, nu, 1e-8, id=f"{n}-{family}-{nu}")
      for n in (16, 24, 32) for family, nu in LARGE_REFS),
    *(pytest.param(n, "snu2", nu, DEFAULT_TOL, id=f"{n}-snu2-{nu}-default_tol")
      for n in (20, 32, 40) for nu in (0.05, 0.1, 0.3, 0.5, -0.5))]


def _rigidity(family, cand, n, nu, tol):
    if family == "sl2":
        return sl2_rigidity(cand, n, tol)
    return snu2_rigidity(cand, n, nu, tol)


def _reference(family, n, nu):
    return sl2_generators(n) if family == "sl2" else snu2_generators(n, nu)


class TestLargeDimension:
    """Beyond the n <= 10 acceptance grid the determinant interpolation
    has to stay exact to ~eps: a monomial Vandermonde solve at real nodes
    loses about one digit per dimension and rejected the reference triple
    itself from n = 13."""

    @pytest.mark.parametrize("family,nu", LARGE_REFS)
    @pytest.mark.parametrize("n", [13, 14, 16, 24, 32])
    def test_reference_is_self_rigid(self, n, family, nu):
        ref = _reference(family, n, nu)
        rep = _rigidity(family, ref.matrices, n, nu, 1e-9)
        assert rep.verdict == EQUIVALENT, rep.diagnostics
        assert rep.residual <= 1e-12

    @pytest.mark.parametrize("n,family,nu,tol", LARGE_CONJUGATES)
    def test_conjugate_accepted_and_tamper_rejected(self, rng, n, family, nu, tol):
        ref = _reference(family, n, nu)
        w = random_unitary(rng, n)
        cand = conjugated(ref, w)
        rep = _rigidity(family, cand, n, nu, tol)
        assert rep.verdict == EQUIVALENT, rep.diagnostics
        assert certify_equivalence(cand, ref, rep.global_witness, tol) <= tol
        slot = int(rng.integers(3))
        i, j = (int(x) for x in rng.integers(n, size=2))
        tampered = [m.copy() for m in cand]
        tampered[slot][i, j] += 1e-6 * max(1.0, hs_norm(cand[slot])) \
            * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        assert _rigidity(family, tuple(tampered), n, nu, tol).verdict != EQUIVALENT


class TestLadderBasis:
    """Step 1's basis is unitary where the ladder builds it, though the
    certificate does not test that: it measures the slots only."""

    @pytest.mark.parametrize("n,nu,built", [(20, 0.05, 18), (15, -0.0229, 13),
                                            (24, -0.7, 13), (40, 0.3, 36)])
    def test_ladder_built_basis_is_unitary(self, rng, n, nu, built):
        ref = snu2_generators(n, nu)
        entry = rigidity._reference("snu2", n, nu)
        theta = max(DEFAULT_TOL, np.finfo(float).eps / DEFAULT_TOL) * max(1.0, hs_norm(ref.h))
        gaps = np.abs(np.diff(np.sort(entry.diag)))
        # the clusters of the reference diagonal below a column, as step 1 splits A1's
        sizes = np.diff(np.flatnonzero(np.r_[True, gaps > theta, True]))[:-1]
        assert int(sizes[sizes > 1].sum()) == built
        for _ in range(3):
            cand = conjugated(ref, random_unitary(rng, n))
            rep = snu2_rigidity(cand, n, nu)
            assert rep.verdict == EQUIVALENT, rep.diagnostics
            v = rep.basis
            assert hs_norm(v.conj().T @ v - np.eye(n)) <= 1e-13
            assert certify_equivalence(cand, ref, rep.global_witness) <= DEFAULT_TOL


class TestStackedVerification:
    """Verification evaluates all pencils of the family in one stacked
    determinant pass, a block of matrices at a time."""

    def test_pencil_names_evaluate_to_their_products(self, rng):
        # each name means (A1, its product), bit for bit, through the
        # public evaluator and through the fold that verification,
        # reference building and step2 use
        assert set(rigidity.SL2_PENCILS) <= set(rigidity.SNU2_PENCILS) == set(PRODUCTS)
        for n in (1, 3, 6):
            mats = np.array([random_complex(rng, n) for _ in range(3)])
            for name in rigidity.SNU2_PENCILS:
                want = PRODUCTS[name](mats[1], mats[2])
                first, second = spectrum.parse_pencil(name)
                assert np.array_equal(spectrum.evaluate_expr(first, mats), mats[0])
                for got in (spectrum.evaluate_expr(second, mats),
                            spectrum._product(rigidity._SECOND_SLOT[name], mats)):
                    assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("family,nu", [("snu2", 0.5), ("sl2", None)])
    @pytest.mark.parametrize("n", [*range(2, 11), 16, 24, 40])
    def test_polynomials_match_det_pencil(self, monkeypatch, rng, n, family, nu):
        if n in (24, 40):  # one pencil's node grid spans several blocks
            assert (n + 1) ** 2 * n * n > spectrum._BLOCK
        cand = conjugated(_reference(family, n, nu), random_unitary(rng, n))
        stacks, det_stack = [], rigidity._det_stack

        def spy(pencils):
            stacks.append(det_stack(pencils))
            return stacks[-1]
        monkeypatch.setattr(rigidity, "_det_stack", spy)
        _, residuals = _verify(family, cand, n, nu)
        entry = rigidity._verification(family, n, nu)
        (stack,) = stacks  # one kernel call for all the family's pencils
        assert list(residuals) == list(entry.pencils)  # so A1 is normal
        assert len(stack) == len(entry.pencils)
        a1, a2, a3 = cand
        for name, s2, coeffs in zip(entry.pencils, entry.s2, stack):
            alone = det_pencil([entry.s1 * a1, s2 * PRODUCTS[name](a2, a3)], PAIR)
            assert json.dumps(poly_to_json(MultiPoly(PAIR, coeffs))) \
                == json.dumps(poly_to_json(alone))

    @pytest.mark.parametrize("family,nu", [("snu2", 0.5), ("sl2", None)])
    @pytest.mark.parametrize("n,dim,tamper", [
        (5, 5, False), (5, 5, True), (9, 9, True), (16, 16, False), (16, 16, True),
        (24, 24, True), (40, 40, False), (6, 4, False), (6, 9, False), (16, 13, True)])
    def test_report_matches_per_pencil_definition(self, rng, n, dim, tamper, family, nu):
        # equal and residual of each pencil are those of the scaled
        # determinant polynomial against the reference's, one at a time
        cand = conjugated(_reference(family, dim, nu), random_unitary(rng, dim))
        if tamper:
            i, j = (int(x) for x in rng.integers(dim, size=2))
            cand[1][i, j] += 1e-6 * hs_norm(cand[1])
        failures, residuals = _verify(family, cand, n, nu)
        pencils = rigidity.SL2_PENCILS if family == "sl2" else rigidity.SNU2_PENCILS
        a1, a2, a3 = cand
        entry = rigidity._verification(family, n, nu)
        assert entry.pencils == pencils
        want = []
        for name, s2, coeffs in zip(pencils, entry.s2, entry.coeffs):
            q = MultiPoly(PAIR, coeffs).coeffs
            p = det_pencil([entry.s1 * a1, s2 * PRODUCTS[name](a2, a3)], PAIR).coeffs
            scale = max(1.0, np.abs(p).max(), np.abs(q).max())
            shape = tuple(map(max, p.shape, q.shape))
            p, q = (np.pad(c, [(0, s - d) for s, d in zip(shape, c.shape)]) for c in (p, q))
            dist = np.abs(p - q).max()
            want.append(PencilComparison(name, dist <= 1e-9 * scale, dist / scale))
        assert failures == [f"pencil equality failed: {c.pencil}" for c in want if not c.equal]
        assert list(residuals.items()) == [(c.pencil, c.residual) for c in want]
        assert (failures == []) == (dim == n and not tamper)

    @pytest.mark.parametrize("family,n,nu", [
        ("sl2", 2, None), ("sl2", 10, None), ("sl2", 40, None), ("snu2", 10, 0.3),
        ("snu2", 20, 0.05), ("snu2", 40, 0.9), ("snu2", 32, -1.0)])
    def test_reference_stack_matches_det_pencil(self, family, n, nu):
        # the line products of the cached stack against the determinant
        # kernel on the reference's scaled diagonal pencils
        entry = rigidity._verification(family, n, nu)
        h, e, f = rigidity._reference(family, n, nu).slots
        for name, s2, coeffs in zip(entry.pencils, entry.s2, entry.coeffs):
            alone = det_pencil([entry.s1 * h, s2 * PRODUCTS[name](e, f)]).coeffs
            assert np.abs(coeffs - alone).max() <= 1e-13 * np.abs(coeffs).max(), name

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 16, 24, 40, 64])
    def test_reference_products_are_exactly_diagonal(self, n):
        # each pencil's product of the reference ladder matrices has no
        # off-diagonal entry at all, so the reference's polynomial is the
        # product of the lines of its diagonal pair
        refs = [("snu2", snu2_generators(n, nu))
                for nu in (0.05, 0.1, 0.3, 0.5, -0.7, 0.95, 1.0, -1.0)]
        for family, ref in [*refs, ("sl2", sl2_generators(n))]:
            pencils = rigidity.SL2_PENCILS if family == "sl2" else rigidity.SNU2_PENCILS
            for name in pencils:
                b = spectrum._product(rigidity._SECOND_SLOT[name], ref.matrices)
                assert np.isfinite(b).all(), (family, ref.nu, name)
                assert np.array_equal(b, np.diag(np.diag(b))), (family, ref.nu, name)

    def test_memory_stays_within_blocks(self, rng):
        n, nu = 40, 0.9
        cand = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        rigidity._reference.cache_clear()  # the reference and its pencils are built cold
        rigidity._verification.cache_clear()
        tracemalloc.start()
        try:
            failures, _ = _verify("snu2", cand, n, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures == []
        assert peak <= 20e6, f"peak {peak / 1e6:.1f} MB"


class TestOverflowSafeScales:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_determinant_fails_its_pencil_without_warnings(self):
        # the product pencils are finite, but a determinant of the stack
        # overflows: its pencil fails, and nothing warns
        t = snu2_generators(16, 0.05)
        rep = sl2_rigidity((t.h, t.e, 1001 * t.f), 16)
        assert rep.verdict == HYPOTHESIS_FAILED
        residuals = rep.condition_residuals
        failed = [k for k in rigidity.SL2_PENCILS if not residuals[k] <= DEFAULT_TOL]
        assert "A1, A3 A3^H" in failed and not np.isfinite(residuals["A1, A3 A3^H"])
        assert rep.diagnostics == [f"pencil equality failed: {k}" for k in failed]

    def test_small_nu_conjugate_is_normal_without_warnings(self, rng):
        # ||A1|| is about 7.6e98 here: the sum of squares of A1 A1* - A1* A1
        # overflows float64 unless it is rescaled
        n, nu = 40, 0.05
        cand = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            failures, residuals = _verify("snu2", cand, n, nu)
        assert list(residuals) == list(rigidity.SNU2_PENCILS)  # A1 is normal
        assert failures == []


    @pytest.mark.parametrize("nu", [0.05, 0.01])
    def test_n64_reference_is_equivalent_without_overflow(self, nu):
        # ||H|| is about 2.1e161 at nu = 0.05: its square overflows float64
        n = 64
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = snu2_rigidity(snu2_generators(n, nu), n, nu)
        assert rep.verdict == EQUIVALENT, rep.diagnostics
        assert rep.residual == 0.0


@pytest.mark.parametrize("nu,n", [(0.3, 24), (0.1, 20), (0.5, 32)])
def test_conjugate_equivalent_at_default_tol(nu, n):
    ref = snu2_generators(n, nu)
    cand = conjugated(ref, random_unitary(np.random.default_rng(0), n))
    rep = snu2_rigidity(cand, n, nu)
    assert rep.verdict == EQUIVALENT, rep.diagnostics


def test_equivalent_reports_pass_mpmath_oracle():
    # the certificate recomputed at 40 digits from the returned global
    # witness G = basis @ witness, independently of float64 and of the
    # eigenbasis the certificate was computed in: max_i ||A_i - G R_i G*||
    # / max(1, ||R_i||) within tol, and G unitary to 1e-12 n
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    tol = DEFAULT_TOL
    cases = [("sl2", n, None) for n in (2, 3, 5, 8)]
    for n in (2, 3, 5, 8):
        roots = exceptional_set(n)
        cases += [("snu2", n, nu) for nu in (0.05, 0.3, -0.7, 1.0)]
        cases += [("snu2", n, roots[len(roots) // 2].nu)] if roots else []
    with mp.workdps(40):
        def exact(a):
            return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])

        for family, n, nu in cases:
            ref = _reference(family, n, nu)
            for _ in range(2):
                cand = conjugated(ref, random_unitary(rng, n))
                rep = _rigidity(family, cand, n, nu, tol)
                assert rep.verdict == EQUIVALENT, (family, n, nu, rep.diagnostics)
                g = exact(rep.global_witness)
                assert mp.mnorm(g.H * g - mp.eye(n), "f") <= 1e-12 * n
                resid = max(mp.mnorm(exact(a) - g * exact(r) * g.H, "f") / max(1.0, hs_norm(r))
                            for a, r in zip(cand, ref.matrices))
                assert resid <= tol * (1 + 1e-6), (family, n, nu, float(resid))


@pytest.mark.parametrize("n,nu", [(10, 0.05), (12, 0.1), (20, 0.3)])
def test_vanishing_ladder_step_fails_without_warnings(n, nu):
    # step 1 builds A1's clustered eigenvectors down the A2 ladder; a zero
    # column of A2 (column 0 is zero in the reference) stops the ladder,
    # which must end in a failed step, not a NaN basis
    ref = snu2_generators(n, nu)
    for j in range(1, n):
        a2 = ref.e.copy()
        a2[:, j] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = _reconstruct("snu2", (ref.h, a2, ref.f), n, nu)
        assert rep.verdict == RECONSTRUCTION_FAILED, (j, rep.diagnostics)
        assert rep.basis is None and rep.residual is None


def test_one_dimensional_steps_read_no_phase():
    # A1 = [x + i y]: within the Hermitian test and step 1's gap, but its
    # certificate fails; at n = 1 there is no ladder phase, so every named
    # step passes and certification is named
    tol = DEFAULT_TOL
    t = snu2_generators(1, 0.5)
    cand = (np.array([[0.99 * tol + 0.4j * tol]]), t.e, t.f)
    rep = _reconstruct("snu2", cand, 1, 0.5)
    assert rep.diagnostics == ["step5: certification residual 1.07e-09 exceeds tolerance"]


class TestReconstructionBranches:
    """Candidates that pass verification at the default tol and fail one
    named reconstruction check."""

    @pytest.mark.parametrize("family,n,nu", [("snu2", 5, 0.5), ("snu2", 6, -0.7),
                                             ("sl2", 4, None)])
    def test_padded_candidate_fails_dimension(self, family, n, nu):
        # a 2x2 zero block leaves every det(x1 A1 + x2 B - I) unchanged; a
        # 1x1 block flips its sign, so the constant terms differ
        ref = _reference(family, n, nu)
        rep = _rigidity(family, tuple(np.pad(m, (0, 2)) for m in ref.matrices), n, nu,
                        DEFAULT_TOL)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0] == f"step1: candidate dimension {n + 2} != n={n}"
        rep = _rigidity(family, tuple(np.pad(m, (0, 1)) for m in ref.matrices), n, nu,
                        DEFAULT_TOL)
        assert rep.verdict == HYPOTHESIS_FAILED

    @pytest.mark.parametrize("n,nu", [(5, 0.5), (8, 0.3), (6, -0.7)])
    def test_normal_non_hermitian_a1_fails_step1(self, n, nu):
        # A1 stays normal and its pencils still match, but its
        # anti-Hermitian part exceeds tol * max(1, ||A1||)
        t = snu2_generators(n, nu)
        s = 1e-9 * max(1.0, hs_norm(t.h))
        a1 = t.h + 1j * s * np.diag([1.0, -1.0] + [0.0] * (n - 2))
        rep = snu2_rigidity((a1, t.e, t.f), n, nu)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0] == "step1: A1 is not Hermitian/normal within tolerance"

    @pytest.mark.parametrize("n,drop,message", [
        (5, 2e-9, "step4: A3 subdiagonal entry (1,0) is not unimodular"),
        (3, 1e-9, "step5: hs-budget violation: trace(A3 A3*) = 2 "
                  "carries 2e-09 off the subdiagonal")])
    def test_sl2_a3_turned_off_subdiagonal(self, n, drop, message):
        # row 1 of A3 turns toward the unused last column:
        # A3[1,0] = cos(theta), A3[1,n-1] = sin(theta), 1 - cos(theta) = drop.
        # `message` is what the deleted steps said of this case; certification
        # now names it, with a residual bounding the quantity they tested
        t = sl2_generators(n)
        a3 = t.f.copy()
        a3[1, 0] = 1.0 - drop
        a3[1, n - 1] = np.sqrt(1.0 - (1.0 - drop) ** 2)
        rep = sl2_rigidity((t.h, t.e, a3), n)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert message not in rep.diagnostics
        assert rep.diagnostics[0].startswith("step6: ")
        bound = rep.condition_residuals["certify A3"] * max(1.0, hs_norm(t.f))
        assert bound >= hs_norm(a3 - np.diag(a3.diagonal(-1), -1))
        assert bound >= np.abs(np.abs(a3.diagonal(-1)) - 1.0).max()

    def test_sl2_a3_turned_off_subdiagonal_probe(self):
        # row r of A3 turns toward the unused last column:
        # A3[r,r-1] = cos(theta), A3[r,n-1] = sin(theta), 1 - cos(theta) = eps.
        # W F W* is subdiagonal with unimodular entries, so the certificate
        # bounds A3's HS mass off the subdiagonal and every subdiagonal
        # modulus gap: no step checks either, and certification names them
        # (the 181 other cases fail the (A1, A2 A3) pencil)
        step6 = 0
        for n in range(2, 9):
            t = sl2_generators(n)
            scale = max(1.0, hs_norm(t.f))
            for row in range(1, n):
                for k in range(1, 13):
                    eps = 0.5 * k * DEFAULT_TOL
                    a3 = t.f.copy()
                    a3[row, row - 1] = 1.0 - eps
                    a3[row, n - 1] = np.sqrt(1.0 - (1.0 - eps) ** 2)
                    rep = sl2_rigidity((t.h, t.e, a3), n)
                    assert not any(d.startswith("step5") or "not unimodular" in d
                                   for d in rep.diagnostics)
                    if not rep.diagnostics or not rep.diagnostics[0].startswith("step6"):
                        continue
                    step6 += 1
                    bound = rep.condition_residuals["certify A3"] * scale
                    assert bound >= hs_norm(a3 - np.diag(a3.diagonal(-1), -1))
                    assert bound >= np.abs(np.abs(a3.diagonal(-1)) - 1.0).max()
        assert step6 == 155

    def test_sl2_phase_turn_probe(self):
        # one A2 superdiagonal or A3 subdiagonal entry turned, then
        # conjugated.  No step checks the compressions on the (A1, A2 A3)
        # lines: where certification names the failure, each gap
        # |(A2 A3)_jj - e_j f_j| is within the module docstring's bound by
        # the phase gap and step 3's moduli and support mass, which passed,
        # and c3 = certify A3 max(1, ||F||)
        rng = np.random.default_rng(27)
        step6 = 0
        for n in range(2, 9):
            ref, entry = sl2_generators(n), rigidity._reference("sl2", n, None)
            e, f = entry.e_sd, entry.f_sd
            for tol in (1e-9, 1e-6):
                for slot, entries in ((1, [(j, j + 1) for j in range(n - 1)]),
                                      (2, [(j + 1, j) for j in range(n - 1)])):
                    for i, j in entries:
                        for turn in (0.3, *(k * tol for k in (0.5, 0.9, 1.1, 1.5, 3, 10))):
                            mats = [m.copy() for m in ref.matrices]
                            mats[slot][i, j] *= np.exp(1j * turn)
                            w = random_unitary(rng, n)
                            cand = tuple(w @ m @ w.conj().T for m in mats)
                            rep = _reconstruct("sl2", cand, n, tol=tol)
                            assert not any("compression" in d for d in rep.diagnostics)
                            if not rep.diagnostics or not rep.diagnostics[0].startswith("step6"):
                                continue
                            step6 += 1
                            _, fr = rigidity._reconstruct(spectrum._slot_matrices(cand), entry,
                                                          tol)
                            a2, a3 = fr.ahat[1], fr.ahat[2]
                            s2 = tol * max(1.0, hs_norm(a2))
                            sigma = np.conj(rigidity._unit_phases(a3.diagonal(-1), f))
                            a, b = np.abs(a2.diagonal(1)), np.abs(a3.diagonal(-1))
                            m2 = hs_norm(a2 - np.diag(a2.diagonal(1), 1))
                            assert np.abs(a - np.abs(e)).max() <= s2 and m2 <= s2
                            c3 = rep.condition_residuals["certify A3"] * max(1.0, hs_norm(ref.f))
                            bound = (np.abs(e * f) * np.abs(fr.phases - sigma)
                                     + np.abs(a - np.abs(e)) * b + np.abs(e) * c3 + m2 * c3)
                            gap = np.abs((a2 @ a3).diagonal()[:-1] - e * f)
                            assert (gap <= bound).all(), (n, tol, slot, i, j, turn)
        assert step6 > 0

    def test_snu2_adjoint_product_off_diagonal_names_step2(self):
        # a conjugate with A3[0,0] bumped by tol ||A3||: the pencils match and
        # the certificate fails just above tol; an adjoint product of A3 then
        # has mass off the diagonal of A1's eigenbasis (seeded: the case sits
        # near tol)
        n, nu = 2, 0.3
        t = snu2_generators(n, nu)
        h, e, f = conjugated(t, random_unitary(np.random.default_rng(21), n))
        f[0, 0] += DEFAULT_TOL * max(1.0, hs_norm(f))
        rep = snu2_rigidity((h, e, f), n, nu)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics[0].startswith("step2: ")


class TestReferenceCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        """An empty cache, and the list of (n, nu) it builds from now on."""
        rigidity._reference.cache_clear()
        builds = []

        def counted(n, nu):
            builds.append((n, nu))
            return snu2_generators(n, nu)
        monkeypatch.setattr(rigidity, "snu2_generators", counted)
        return builds

    def test_reference_built_once_and_read_only(self, builds, rng):
        n, nu = 6, 0.35
        cand = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        assert snu2_rigidity(cand, n, nu).verdict == EQUIVALENT
        assert builds == [(n, nu)]
        assert snu2_rigidity(cand, n, nu).verdict == EQUIVALENT
        assert builds == [(n, nu)]
        entry = rigidity._reference("snu2", n, nu)
        for m in (entry.slots, *entry.slots, entry.diag, entry.e_sd, entry.f_sd):
            with pytest.raises(ValueError):
                m[0] = 1.0
        # the slot stack is the one copy of the triple: the diagonals that
        # step 1 and the named steps read are views of it
        assert all(np.shares_memory(d, entry.slots) for d in (entry.diag, entry.e_sd, entry.f_sd))
        assert all(m.flags.writeable for m in snu2_generators(n, nu).matrices)

    def test_cache_is_bounded(self, builds):
        # the rigidity-grid workload uses 36 references: none may be
        # evicted; the 100 keys below overflow the bound
        maxsize = rigidity._reference.cache_info().maxsize
        assert 36 <= maxsize < 100
        nus = np.linspace(0.2, 0.9, 100).tolist()
        for k, nu in enumerate(nus):
            rigidity._reference("snu2", 4, nu)
            assert len(builds) == k + 1  # one build per fresh key
            assert rigidity._reference.cache_info().currsize <= maxsize
        rigidity._reference("snu2", 4, nus[-1])  # a repeat builds nothing
        assert len(builds) == len(nus)
        rigidity._reference("snu2", 4, nus[0])  # the oldest was evicted
        assert len(builds) == len(nus) + 1

    def test_cache_evicts_least_recently_used(self, builds):
        maxsize = rigidity._reference.cache_info().maxsize
        nus = np.linspace(0.2, 0.9, maxsize + 1).tolist()
        first = rigidity._reference("snu2", 3, nus[0])
        for nu in nus[1:maxsize]:
            rigidity._reference("snu2", 3, nu)
        assert rigidity._reference("snu2", 3, nus[0]) is first  # now the most recent
        rigidity._reference("snu2", 3, nus[maxsize])  # evicts nus[1]
        assert len(builds) == maxsize + 1
        assert rigidity._reference("snu2", 3, nus[0]) is first
        assert len(builds) == maxsize + 1
        rigidity._reference("snu2", 3, nus[1])
        assert builds[-1] == (3, nus[1])
        assert len(builds) == maxsize + 2


class TestVerificationCache:
    """A certified verdict reads no pencil of the reference: the first
    uncertified verdict per (family, n, nu) builds them, once."""

    @pytest.fixture(autouse=True)
    def cold(self):
        rigidity._reference.cache_clear()
        rigidity._verification.cache_clear()
        yield
        rigidity._verification.cache_clear()

    @pytest.mark.parametrize("family,n,nu", [("snu2", 6, 0.35), ("snu2", 10, 0.3),
                                             ("sl2", 7, None)])
    def test_certified_verdict_builds_no_pencils(self, rng, family, n, nu):
        for _ in range(3):
            cand = conjugated(_reference(family, n, nu), random_unitary(rng, n))
            assert _rigidity(family, cand, n, nu, DEFAULT_TOL).verdict == EQUIVALENT
        assert rigidity._verification.cache_info().currsize == 0
        assert rigidity._reference.cache_info().currsize == 1

    @pytest.mark.parametrize("family,n,nu", [("snu2", 6, 0.35), ("sl2", 7, None)])
    def test_first_uncertified_verdict_builds_pencils_once(self, rng, family, n, nu):
        w = random_unitary(rng, n)
        first = _rigidity(family, _tampered(family, n, nu, 1, 0, 1, w=w), n, nu, DEFAULT_TOL)
        assert first.verdict != EQUIVALENT
        info = rigidity._verification.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 0)
        # a second uncertified verdict reads the same entry; a certified one none
        second = _rigidity(family, _tampered(family, n, nu, 2, 1, 0, w=w), n, nu, DEFAULT_TOL)
        assert second.verdict != EQUIVALENT
        cand = conjugated(_reference(family, n, nu), w)
        assert _rigidity(family, cand, n, nu, DEFAULT_TOL).verdict == EQUIVALENT
        info = rigidity._verification.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        pencils = rigidity._verification(family, n, nu).pencils
        assert list(first.condition_residuals)[-len(pencils):] == list(pencils)

    def test_one_entry_per_reference(self, rng):
        keys = [("snu2", 4, 0.3), ("snu2", 4, 0.5), ("snu2", 5, 0.3), ("sl2", 4, None)]
        for family, n, nu in keys:
            cand = _tampered(family, n, nu, 1, 0, 1, w=random_unitary(rng, n))
            assert _rigidity(family, cand, n, nu, DEFAULT_TOL).verdict != EQUIVALENT
        info = rigidity._verification.cache_info()
        assert (info.currsize, info.misses) == (len(keys), len(keys))
        assert info.maxsize == rigidity._reference.cache_info().maxsize


class TestArguments:
    def test_nan_nu_rejected(self):
        t = snu2_generators(4, 0.5)
        with pytest.raises(ValueError, match="nu must lie in"):
            snu2_rigidity(t, 4, float("nan"))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("family", ["snu2", "sl2"])
    def test_tol_must_be_finite_and_positive(self, rng, family, tol):
        # an infinite tol called a random real triple equivalent; a
        # negative or NaN one called every A1 "not normal"
        cand = tuple(rng.normal(size=(4, 4)) for _ in range(3))
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            _rigidity(family, cand, 4, 0.5, tol)

    def test_overflowing_products_named(self):
        # every entry is finite, but A2 A2* overflows float64
        n, nu = 10, 0.5
        ref = snu2_generators(n, nu)
        with pytest.raises(ValueError, match="^the candidate's pencil products overflow float64$"):
            snu2_rigidity((ref.h, ref.e + 1e300, ref.f), n, nu)

    @pytest.mark.parametrize("family,n,nu,slot", [
        ("sl2", 6, None, 2), ("snu2", 10, 0.5, 1), ("snu2", 10, 0.5, 2)])
    def test_overflowing_products_raise_without_warnings(self, family, n, nu, slot):
        # reconstruction runs first, and its products overflow too
        mats = list(_reference(family, n, nu).matrices)
        mats[slot] = mats[slot] + 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError,
                               match="^the candidate's pencil products overflow float64$"):
                _rigidity(family, tuple(mats), n, nu, DEFAULT_TOL)


def _tampered(family, n, nu, slot, i, j, size=1e-6, w=None):
    """The reference, conjugated by ``w`` if given, with size ||slot||
    added to entry (i, j) of ``slot``."""
    ref = _reference(family, n, nu)
    mats = [m.copy() for m in (ref.matrices if w is None else conjugated(ref, w))]
    mats[slot][i, j] += size * hs_norm(mats[slot])
    return tuple(mats)


def _verify_then_reconstruct(family, cand, n, nu, tol):
    """Verdict and first diagnostic in the order the proof states the
    theorem: verify the hypotheses, reconstruct only if they all hold."""
    failures, _ = _verify(family, cand, n, nu, tol)
    if failures:
        return HYPOTHESIS_FAILED, failures[:1]
    rep = _reconstruct(family, cand, n, nu, tol)
    return rep.verdict, rep.diagnostics[:1]


def _steps_then_certify(family, cand, n, nu, tol):
    """The report with reconstruction's named steps run as gates in front
    of its certificate, each in order, then the hypotheses verified when
    reconstruction fails, as the drivers do.  Step 1 comes before the
    certificate in either order, so its failures are ``_reconstruct``'s."""
    mats, entry = spectrum._slot_matrices(cand), rigidity._reference(family, n, nu)
    failures, residuals = _verify(family, mats, n, nu, tol)
    with np.errstate(**_STAGES_ERRSTATE):
        try:
            values, v, _, ok = rigidity._eigenbasis_matched(mats[0], mats[1], entry, tol)
        except NotHermitianError:
            ok = False
        if not ok:
            rep, _ = rigidity._reconstruct(mats, entry, tol)
        else:
            ahat = v.conj().T @ mats @ v
            frame = rigidity._Frame(entry, tol, values, ahat,
                                    rigidity._unit_phases(ahat[1].diagonal(1), entry.e_sd))
            failed = next(((name, f) for name, step in entry.steps[:-1] if (f := step(frame))),
                          None)
            # with every named step passed, the certificate decides
            rep = (rigidity._reconstruct(mats, entry, tol)[0]
                   if failed is None else rigidity._fail(failed[0], *failed[1]))
    if rep.verdict == EQUIVALENT:
        return rep
    if failures:
        rep = rigidity.RigidityReport(verdict=HYPOTHESIS_FAILED, diagnostics=failures)
    rep.condition_residuals.update(residuals)
    return rep


class TestCertificateFirst:
    """The drivers reconstruct and certify first, verify the hypotheses
    only when certification fails, and run the named steps only to
    explain a failed certificate where the hypotheses hold."""

    @pytest.fixture
    def no_diagnostic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("x2_dependence computed for a dropped diagnostic")
        monkeypatch.setattr(rigidity, "x2_dependence", refuse)

    @pytest.fixture
    def stages(self, monkeypatch):
        """The log of the verification ("verify") and the named steps (by
        function name), in the order the drivers call them."""
        log = []

        def logged(name, f):
            def call(*args):
                log.append(name)
                return f(*args)
            return call
        monkeypatch.setattr(rigidity, "_verify_conditions",
                            logged("verify", rigidity._verify_conditions))
        for name in ("_SNU2_STEPS", "_SL2_STEPS"):
            *steps, certification = getattr(rigidity, name)
            monkeypatch.setattr(rigidity, name, (*((label, logged(step.__name__, step))
                                                   for label, step in steps), certification))
        rigidity._reference.cache_clear()  # the cached entry holds the steps
        yield log
        monkeypatch.undo()
        rigidity._reference.cache_clear()

    @pytest.mark.parametrize("family,n,nu", [("snu2", 6, -0.7), ("snu2", 10, 0.3),
                                             ("sl2", 7, None)])
    def test_certified_conjugate_skips_verification(self, monkeypatch, rng, family, n, nu):
        # and every named step of reconstruction: a certified witness ends it
        def refuse(*args):
            raise AssertionError("verification or a named step ran on a certified candidate")
        ref = _reference(family, n, nu)
        cand = conjugated(ref, random_unitary(rng, n))
        expected = _steps_then_certify(family, cand, n, nu, DEFAULT_TOL)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(rigidity, "_verify_conditions", refuse)
                for name in ("_SNU2_STEPS", "_SL2_STEPS"):
                    *steps, certification = getattr(rigidity, name)
                    patch.setattr(rigidity, name, (*((label, refuse) for label, _ in steps),
                                                   certification))
                rigidity._reference.cache_clear()  # the cached entry holds the steps
                rep = _rigidity(family, cand, n, nu, DEFAULT_TOL)
        finally:
            rigidity._reference.cache_clear()
        assert rep.verdict == EQUIVALENT, rep.diagnostics
        assert json.dumps(rep.to_json()) == json.dumps(expected.to_json())
        assert list(rep.condition_residuals) == ["certify A1", "certify A2", "certify A3"]
        assert max(rep.condition_residuals.values()) == rep.residual
        assert certify_equivalence(cand, ref, rep.global_witness) <= DEFAULT_TOL

    def test_tol_size_tamper_that_certifies_is_equivalent(self):
        # 0.7 tol ||A2|| on A2's (1, 0) entry passes the support checks and
        # certifies at 0.7 tol, but A2* A2 is off-diagonal by more than
        # tol ||A2* A2||: with the steps as gates, step2 rejected it
        n, nu = 3, 0.5
        mats = [m.copy() for m in _reference("snu2", n, nu).matrices]
        mats[1][1, 0] += 0.7 * DEFAULT_TOL * max(1.0, hs_norm(mats[1]))
        gated = _steps_then_certify("snu2", tuple(mats), n, nu, DEFAULT_TOL)
        assert (gated.verdict, gated.diagnostics) == (
            RECONSTRUCTION_FAILED, ["step2: A2^H A2 is not diagonal in the A1 eigenbasis"])
        rep = snu2_rigidity(tuple(mats), n, nu)
        assert rep.verdict == EQUIVALENT and rep.residual <= DEFAULT_TOL
        assert certify_equivalence(tuple(mats), _reference("snu2", n, nu),
                                   rep.global_witness) <= DEFAULT_TOL

    @pytest.mark.parametrize("family,slot,i,j,diagnostics", [
        ("snu2", 0, 2, 1, ["A1 is not normal"]),
        ("snu2", 1, 1, 2, ["pencil equality failed: A1, A2 A2^H",
                           "pencil equality failed: A1, A2^H A2",
                           "pencil equality failed: A1, A2 A3"]),
        ("snu2", 2, 2, 1, ["pencil equality failed: A1, A3 A3^H",
                           "pencil equality failed: A1, A3^H A3",
                           "pencil equality failed: A1, A2 A3"]),
        ("sl2", 0, 1, 2, ["A1 is not normal"]),
        ("sl2", 1, 1, 2, ["pencil equality failed: A1, A2 A2^H",
                          "pencil equality failed: A1, A2^H A2",
                          "pencil equality failed: A1, A2 A3"]),
        ("sl2", 2, 2, 1, ["pencil equality failed: A1, A3 A3^H",
                          "pencil equality failed: A1, A2 A3"])])
    def test_failing_hypothesis_decides(self, no_diagnostic, stages, family, slot, i, j,
                                        diagnostics):
        # no named step runs: the (1, 2) A2 tamper would fail step3 first,
        # whose x2-dependence diagnostic the hypothesis_failed verdict drops
        n, nu = 5, (0.5 if family == "snu2" else None)
        cand = _tampered(family, n, nu, slot, i, j)
        rep = _rigidity(family, cand, n, nu, DEFAULT_TOL)
        assert stages == ["verify"]
        assert rep.verdict == HYPOTHESIS_FAILED
        assert rep.diagnostics == diagnostics
        assert rep.witness is None and rep.residual is None
        assert rep.condition_residuals == _verify(family, cand, n, nu)[1]

    @pytest.mark.parametrize("family,slot,i,j,diagnostics,certify,size,conjugate", [
        ("snu2", 1, 2, 1, ["step3: A2: A2 support off the superdiagonal at (2,1) "
                           "(HS norm 5.46e-06 > 5.46e-09)", "x2_dependence detected: True"],
         False, 1e-6, False),
        ("snu2", 1, 0, 4, ["step3: A2: A2 support off the superdiagonal at (0,4) "
                           "(HS norm 5.46e-06 > 5.46e-09)", "x2_dependence detected: False"],
         False, 1e-6, False),
        ("sl2", 2, 0, 4, ["step6: certification residual 1e-06 exceeds tolerance"], True,
         1e-6, False),
        ("snu2", 2, 2, 0, ["step5: certification residual 1e-09 exceeds tolerance"], True,
         DEFAULT_TOL, True)])
    def test_reconstruction_failure_keeps_pencil_residuals(self, rng, family, slot, i, j,
                                                           diagnostics, certify, size, conjugate):
        # tampers that every pencil still matches at tol: second-order ones
        # of the reference, and one of tol on a conjugate whose A3 certifies
        # just above tol, after every explaining step has passed
        n, nu = 5, (0.5 if family == "snu2" else None)
        w = random_unitary(rng, n) if conjugate else None
        cand = _tampered(family, n, nu, slot, i, j, size, w)
        failures, residuals = _verify(family, cand, n, nu)
        assert failures == []
        rep = _rigidity(family, cand, n, nu, DEFAULT_TOL)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert rep.diagnostics == diagnostics
        slots = ["certify A1", "certify A2", "certify A3"] if certify else []
        assert list(rep.condition_residuals) == slots + list(residuals)
        assert {k: rep.condition_residuals[k] for k in residuals} == residuals

    @pytest.mark.parametrize("family,slot,i,j,steps", [
        ("snu2", 1, 2, 1, ["_a2_support"]),
        ("sl2", 2, 0, 4, ["_a2_support", "_adjoint_products", "_phases"])])
    def test_verification_runs_once_before_the_steps(self, stages, family, slot, i, j, steps):
        # a reconstruction_failed verdict: step3, and sl2's certification
        # step after every explaining step has passed
        n, nu = 5, (0.5 if family == "snu2" else None)
        rep = _rigidity(family, _tampered(family, n, nu, slot, i, j), n, nu, DEFAULT_TOL)
        assert rep.verdict == RECONSTRUCTION_FAILED
        assert stages == ["verify", *steps]

    def test_a1_of_overflowing_norm_falls_back_to_verification(self):
        # ||A1|| overflows: (A1 + A1*) / 2 would hold inf, and eigh would
        # raise LinAlgError before verification names the failure
        n, nu = 5, 0.5
        ref = snu2_generators(n, nu)
        rep = snu2_rigidity((np.full((n, n), 1e308), ref.e, ref.f), n, nu)
        assert rep.verdict == HYPOTHESIS_FAILED
        assert rep.diagnostics == [f"pencil equality failed: {name}"
                                   for name in rigidity.SNU2_PENCILS]
        with pytest.raises(ValueError, match="^the candidate's pencil products overflow"):
            sl2_rigidity((np.full((n, n), 1e308),) * 3, n)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=st.one_of(st.tuples(st.just("snu2"), st.integers(2, 8),
                                    st.floats(0.2, 1.0) | st.floats(-1.0, -0.2)),
                          st.tuples(st.just("sl2"), st.integers(2, 8), st.none())),
           seed=st.integers(0, 2**32 - 1),
           size=st.sampled_from([0.0, 1e-7, 1e-6, 1e-4, 1e-2]))
    def test_verdicts_match_verification_first(self, case, seed, size):
        # conjugates (size 0) and tampers of at least 100 tol
        family, n, nu = case
        gen = np.random.default_rng(seed)
        mats = [m.copy() for m in conjugated(_reference(family, n, nu), random_unitary(gen, n))]
        slot, i, j = (int(x) for x in gen.integers((3, n, n)))
        mats[slot][i, j] += size * max(1.0, hs_norm(mats[slot])) \
            * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi))
        rep = _rigidity(family, tuple(mats), n, nu, DEFAULT_TOL)
        assert (rep.verdict, rep.diagnostics[:1]) \
            == _verify_then_reconstruct(family, tuple(mats), n, nu, DEFAULT_TOL)
        # and the whole report is the one of the named steps run as gates
        # in front of the certificate
        expected = _steps_then_certify(family, tuple(mats), n, nu, DEFAULT_TOL)
        assert json.dumps(rep.to_json()) == json.dumps(expected.to_json())


class TestSlotShapes:
    @pytest.mark.parametrize("sizes,shapes", [((5, 4, 5), "A1 5x5, A2 4x4, A3 5x5"),
                                              ((4, 5, 5), "A1 4x4, A2 5x5, A3 5x5")])
    def test_mixed_shapes_named(self, sizes, shapes):
        # these ended in numpy's "matmul: Input operand 1 has a mismatch ..."
        # and "setting an array element with a sequence ..."
        refs = {k: snu2_generators(k, 0.5) for k in (4, 5)}
        mats = tuple(refs[k].matrices[slot] for slot, k in enumerate(sizes))
        calls = (lambda: snu2_rigidity(mats, 5, 0.5), lambda: sl2_rigidity(mats, 5),
                 lambda: certify_equivalence(mats, refs[5], np.eye(5)),
                 lambda: spectra_equal(mats, refs[5], ["A1, A2"]))
        for call in calls:
            with pytest.raises(ValueError,
                               match=f"^the three slots must share one shape, got {shapes}$"):
                call()

    @pytest.mark.parametrize("fault,error,message", [
        ("non-square", DimensionMismatchError, "expected a square matrix, got shape (3, 2)"),
        ("two slots", ValueError, "expected a triple (A1, A2, A3)"),
        ("four slots", ValueError, "expected a triple (A1, A2, A3)"),
        ("3-D slot", DimensionMismatchError, "expected a square matrix, got shape (1, 3, 3)"),
        ("NaN entry", ValueError, "matrix entries must be finite"),
        ("string entry", ValueError, "complex() arg is a malformed string")])
    def test_malformed_triple_named_at_every_entry_point(self, fault, error, message):
        # the triple is coerced in one pass; a fault is named slot by slot
        t = snu2_generators(3, 0.5)
        h, e, f = t.matrices
        nan = h.copy()
        nan[1, 2] = np.nan
        triple = {"non-square": (h, e[:, :2], f), "two slots": (h, e),
                  "four slots": (h, e, f, h), "3-D slot": (h, e[None], f),
                  "NaN entry": (h, nan, f), "string entry": (h, e, [["a", "b", "c"]] * 3)}[fault]
        calls = (lambda: snu2_rigidity(triple, 3, 0.5), lambda: sl2_rigidity(triple, 3),
                 lambda: certify_equivalence(triple, t, np.eye(3)),
                 lambda: certify_equivalence(t, triple, np.eye(3)),
                 lambda: spectra_equal(triple, t, ["A1, A2"]),
                 lambda: spectra_equal(t, triple, ["A1, A2"]))
        for call in calls:
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == message
