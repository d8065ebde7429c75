import json
import tracemalloc
import warnings

import numpy as np
import pytest

from specrig import rigidity, spectrum
from specrig.generators import (counterexample_tuple, sl2_generators,
                                snu2_generators)
from specrig.linalg import DEFAULT_TOL, hs_norm
from specrig.rigidity import (EQUIVALENT, HYPOTHESIS_FAILED,
                              RECONSTRUCTION_FAILED, ConditionReport, LineNotInSpectrumError,
                              MultiplicityError, NotUnitaryError,
                              _superdiagonal_support, certify_equivalence, compression_check,
                              sl2_rigidity, snu2_rigidity)
from specrig.poly import MultiPoly, poly_distance, poly_to_json
from specrig.spectrum import PencilComparison, det_pencil, spectra_equal

from conftest import random_complex, random_phases, random_unitary


PAIR = ("x1", "x2")


def conjugated(t, w):
    return tuple(w @ m @ w.conj().T for m in t.matrices)


def _verify(family, cand, n, nu=None, tol=DEFAULT_TOL):
    """The verification stage, entered as the drivers enter it."""
    return rigidity._verify_conditions(spectrum._slot_matrices(cand),
                                       rigidity._reference(family, n, nu), tol)


def _reconstruct(family, cand, n, nu=None, tol=DEFAULT_TOL):
    """The reconstruction stage, entered as the drivers enter it."""
    return rigidity._reconstruct(spectrum._slot_matrices(cand),
                                 rigidity._reference(family, n, nu), tol)


class TestVerifyConditionsSnu2:
    def test_reference_passes(self):
        t = snu2_generators(5, 0.5)
        cond = _verify("snu2", t, 5, 0.5)
        assert cond.all_passed
        assert len(cond.checks) == 5

    def test_unitary_conjugate_passes(self, rng):
        n, nu = 6, -0.7
        t = snu2_generators(n, nu)
        cond = _verify("snu2", conjugated(t, random_unitary(rng, n)), n, nu)
        assert cond.all_passed

    def test_scaled_a2_fails_first_pencil(self):
        t = snu2_generators(4, 0.5)
        cond = _verify("snu2", (t.h, 2.0 * t.e, t.f), 4, 0.5)
        failed = [c.pencil for c in cond.checks if not c.equal]
        assert "A1, A2 A2^H" in failed

    def test_non_normal_a1_short_circuits(self, rng):
        t = snu2_generators(3, 0.5)
        cond = _verify("snu2", (random_complex(rng, 3), t.e, t.f), 3, 0.5)
        assert not cond.a1_normal
        assert not cond.all_passed


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
     "step4: compression mismatch on line 1"),
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


class TestCompressionCheck:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_sl2_product_lines(self, n):
        t = sl2_generators(n)
        b = t.e @ t.f
        for j in range(n - 1):
            assert compression_check(t.h, b, n - 1 - 2 * j, (j + 1) * (n - 1 - j))

    @pytest.mark.xfail(raises=MultiplicityError, strict=True,
                       reason="the synthetic-division guards lose a line once the "
                              "coefficients span many orders: lines j = 4..10 at n = 16")
    def test_sl2_product_lines_n16(self):
        n = 16
        t = sl2_generators(n)
        b = t.e @ t.f
        for j in range(n - 1):
            assert compression_check(t.h, b, n - 1 - 2 * j, (j + 1) * (n - 1 - j))

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
        with pytest.raises(MultiplicityError):
            compression_check(a, b, 1.0, 3.0)


class TestCertifyEquivalence:
    def test_identity(self):
        t = snu2_generators(4, 0.5)
        assert certify_equivalence(t, t, np.eye(4)) == 0.0

    def test_counterexample_large_residual(self):
        t = counterexample_tuple(1.0, 2.0, 2.0, 1.0)
        ref = sl2_generators(3)
        assert certify_equivalence(t, ref, np.eye(3)) >= 1.0

    def test_non_unitary_rejected(self, rng):
        t = snu2_generators(3, 0.5)
        with pytest.raises(NotUnitaryError):
            certify_equivalence(t, t, 2.0 * np.eye(3))


class TestVerifySl2:
    def test_reference_passes(self):
        t = sl2_generators(6)
        cond = _verify("sl2", t, 6)
        assert cond.all_passed
        assert len(cond.checks) == 4

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
        assert max(rep.condition_residuals.values()) <= 1e-12

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


class TestStackedVerification:
    """Verification evaluates all pencils of the family in one stacked
    determinant pass, a block of matrices at a time."""

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
        cond = _verify(family, cand, n, nu)
        assert cond.a1_normal
        entry = rigidity._reference(family, n, nu)
        (stack,) = stacks  # one kernel call for all the family's pencils
        assert [c.pencil for c in cond.checks] == list(entry.pencils)
        assert len(stack) == len(entry.pencils)
        a1, a2, a3 = cand
        for name, s2, coeffs in zip(entry.pencils, entry.s2, stack):
            alone = det_pencil([entry.s1 * a1, s2 * rigidity._PRODUCTS[name](a2, a3)], PAIR)
            assert json.dumps(poly_to_json(MultiPoly.from_dense(PAIR, coeffs))) \
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
        cond = _verify(family, cand, n, nu)
        ref = _reference(family, n, nu)
        pencils = rigidity.SL2_PENCILS if family == "sl2" else rigidity.SNU2_PENCILS
        a1, a2, a3 = cand
        want = []
        for name, (q, (s1, s2)) in rigidity.reference_pencil_polys(ref, pencils).items():
            p = det_pencil([s1 * a1, s2 * rigidity._PRODUCTS[name](a2, a3)], PAIR)
            scale = max(1.0, p.max_abs_coeff(), q.max_abs_coeff())
            dist = poly_distance(p, q)
            want.append(PencilComparison(name, dist <= 1e-9 * scale, dist / scale))
        assert cond == ConditionReport(a1_normal=True, checks=tuple(want))
        assert cond.all_passed == (dim == n and not tamper)

    def test_memory_stays_within_blocks(self, monkeypatch, rng):
        n, nu = 40, 0.9
        cand = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        monkeypatch.setattr(rigidity, "_references", {})
        tracemalloc.start()
        try:
            cond = _verify("snu2", cand, n, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cond.all_passed
        assert peak <= 20e6, f"peak {peak / 1e6:.1f} MB"


class TestOverflowSafeScales:
    def test_small_nu_conjugate_is_normal_without_warnings(self, rng):
        # ||A1|| is about 7.6e98 here: the sum of squares of A1 A1* - A1* A1
        # overflows float64 unless it is rescaled
        n, nu = 40, 0.05
        cand = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cond = _verify("snu2", cand, n, nu)
        assert cond.a1_normal
        assert cond.all_passed


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


class TestReferenceCache:
    def test_reference_built_once_and_read_only(self, monkeypatch, rng):
        monkeypatch.setattr(rigidity, "_references", {})
        builds = []

        def counted(n, nu):
            builds.append((n, nu))
            return snu2_generators(n, nu)
        monkeypatch.setattr(rigidity, "snu2_generators", counted)
        n, nu = 6, 0.35
        cand = conjugated(snu2_generators(n, nu), random_unitary(rng, n))
        assert snu2_rigidity(cand, n, nu).verdict == EQUIVALENT
        assert len(builds) == 1
        assert snu2_rigidity(cand, n, nu).verdict == EQUIVALENT
        assert len(builds) == 1
        for m in rigidity._reference("snu2", n, nu).ref.matrices:
            with pytest.raises(ValueError):
                m[0, 0] = 1.0
        assert all(m.flags.writeable for m in snu2_generators(n, nu).matrices)

    def test_cache_is_bounded(self, monkeypatch):
        # the rigidity-grid workload uses 36 references: none may be evicted
        assert rigidity._REFERENCES_KEPT >= 36
        monkeypatch.setattr(rigidity, "_references", {})
        for nu in np.linspace(0.2, 0.9, 100).tolist():
            rigidity._reference("snu2", 4, nu)
            assert len(rigidity._references) <= rigidity._REFERENCES_KEPT
            assert next(reversed(rigidity._references)) == ("snu2", 4, nu)
        assert ("snu2", 4, 0.2) not in rigidity._references

    def test_cache_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(rigidity, "_references", {})
        monkeypatch.setattr(rigidity, "_REFERENCES_KEPT", 2)
        first = rigidity._reference("sl2", 3)
        rigidity._reference("sl2", 4)
        assert rigidity._reference("sl2", 3) is first  # now the most recent
        rigidity._reference("sl2", 5)
        assert list(rigidity._references) == [("sl2", 3, None), ("sl2", 5, None)]


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
        with pytest.warns(RuntimeWarning), \
                pytest.raises(ValueError, match="^the candidate's pencil products overflow float64$"):
            snu2_rigidity((ref.h, ref.e + 1e300, ref.f), n, nu)
