import warnings

import numpy as np
import pytest

from specrig.exceptional import corollary_check, is_exceptional, multiplicity_profile
from specrig.generators import h_coeff, sl2_generators, snu2_generators, structural_matrices
from specrig.linalg import (DimensionMismatchError, EigenvalueNotFoundError,
                            NotHermitianError, as_matrix, classify,
                            commutator, hermitian_eig, hs_norm,
                            matrix_from_json, matrix_to_json,
                            spectral_projection)
from specrig.poly import poly_equal
from specrig.rigidity import certify_equivalence, compression_check
from specrig.spectrum import det_pencil, lines_of_pair, spectra_equal

from conftest import random_complex, random_hermitian


class TestMatOp:
    def test_identity_commutes(self, rng):
        m = random_complex(rng, 4)
        assert hs_norm(commutator(np.eye(4), m)) == 0.0

    def test_counterexample_commutator_display(self):
        # [A2, A3] for (alpha, beta, gamma, delta) = (1, 2, 2, 1)
        a2 = np.array([[0, 1, 0], [0, 0, 0], [0, 2, 0]], dtype=complex)
        a3 = np.array([[0, 0, 0], [2, 0, 1], [0, 0, 0]], dtype=complex)
        expected = np.array([[2, 0, 1], [0, -4, 0], [4, 0, 2]], dtype=complex)
        assert np.array_equal(commutator(a2, a3), expected)

    def test_mul_e3_f3(self):
        t = sl2_generators(3)
        assert np.array_equal(t.e @ t.f, np.diag([2.0, 2.0, 0.0]))
        # [E, F] = H for the sl(2) ladder
        assert np.array_equal(commutator(t.e, t.f), t.h)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan, 0], [0, 1]]))


class TestHermitianEig:
    def test_diagonal_permutation(self):
        dec = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0])
        # columns are permuted identity columns
        assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]])

    def test_sigma_x(self):
        dec = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(dec.values, [-1.0, 1.0])

    def test_h4_half(self):
        # diagonal of the ladder H at n=4, nu=0.5: exact values from the
        # closed form nu^2/(1-nu^2) (nu^(2(n-2k-1)) - 1)
        t = snu2_generators(4, 0.5)
        dec = hermitian_eig(t.h)
        expected = sorted(h_coeff(4, k, 0.5) for k in range(4))
        assert np.allclose(dec.values, expected, atol=1e-14)
        assert expected == pytest.approx([-21 / 64, -1 / 4, 1.0, 21.0])

    def test_reconstruction_and_orthogonality(self, rng):
        for n in (2, 5, 9):
            a = random_hermitian(rng, n)
            dec = hermitian_eig(a)
            v, w = dec.vectors, dec.values
            assert hs_norm(a @ v - v @ np.diag(w)) <= 1e-10 * max(1, hs_norm(a))
            assert hs_norm(v @ np.diag(w) @ v.conj().T - a) <= 1e-9 * max(1, hs_norm(a))
            assert hs_norm(v.conj().T @ v - np.eye(n)) <= 1e-10

    def test_not_hermitian_rejected(self, rng):
        with pytest.raises(NotHermitianError):
            hermitian_eig(random_complex(rng, 3))


class TestSpectralProjection:
    def test_diagonal(self):
        p = spectral_projection(np.diag([1.0, 2.0]).astype(complex), 1.0)
        assert np.allclose(p, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_sl2_h_eigenprojections(self, n):
        t = sl2_generators(n)
        for j in range(n):
            p = spectral_projection(t.h, n - 1 - 2 * j)
            expected = np.zeros((n, n), dtype=complex)
            expected[j, j] = 1.0
            assert hs_norm(p - expected) <= 1e-12

    def test_projection_identities(self, rng):
        a = random_hermitian(rng, 5)
        w = np.linalg.eigvalsh(a)
        total = np.zeros((5, 5), dtype=complex)
        for lam in w:
            p = spectral_projection(a, lam)
            assert hs_norm(p @ p - p) <= 1e-10
            assert hs_norm(p - p.conj().T) <= 1e-10
            assert hs_norm(p @ a @ p - lam * p) <= 1e-9 * max(1, hs_norm(a))
            total += p
        assert hs_norm(total - np.eye(5)) <= 1e-9

    def test_multiplicity_rank(self):
        p = spectral_projection(np.diag([1.0, 1.0, 2.0]).astype(complex), 1.0)
        assert round(np.trace(p).real) == 2

    def test_not_an_eigenvalue(self):
        with pytest.raises(EigenvalueNotFoundError):
            spectral_projection(np.diag([1.0, 2.0]).astype(complex), 5.0)


class TestHsNorm:
    def test_bit_identical_to_numpy_norm(self, rng):
        for n in (1, 2, 5, 10, 17, 40):
            for scale in (1e-8, 1.0, 1e8, 1e60):
                a = scale * random_complex(rng, n)
                for view in (a, a.conj().T, a.real, a[:, 0], a[1:, ::2]):
                    assert hs_norm(view) == float(np.linalg.norm(view))

    def test_overflowing_sum_of_squares_is_rescaled(self, rng):
        a = 1e200 * random_complex(rng, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norm = hs_norm(a)
        assert np.isfinite(norm)
        assert norm == pytest.approx(1e200 * hs_norm(a / 1e200), rel=1e-15)

    def test_zero_matrix(self):
        assert hs_norm(np.zeros((4, 4), dtype=complex)) == 0.0

    def test_real_and_integer_input(self):
        assert hs_norm(np.array([[3.0, 0.0], [0.0, -4.0]])) == 5.0
        assert hs_norm([[3, 0], [0, 4]]) == 5.0


class TestClassify:
    def test_identity_1x1(self):
        flags = classify(np.eye(1))
        assert (flags.normal and flags.hermitian and flags.unitary
                and flags.diagonal and flags.simple_spectrum)

    def test_identity_3x3_not_simple(self):
        flags = classify(np.eye(3))
        assert flags.normal and flags.hermitian and flags.unitary and flags.diagonal
        assert not flags.simple_spectrum

    def test_e3_not_normal(self):
        t = sl2_generators(3)
        assert not classify(t.e).normal

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.9, -0.6])
    def test_ladder_h_flags(self, nu):
        flags = classify(snu2_generators(5, nu).h)
        assert flags.normal and flags.hermitian and flags.diagonal
        assert flags.simple_spectrum

    def test_huge_norm_does_not_overflow(self):
        # ||H|| is about 2.1e161 and ||E|| larger: squares overflow float64
        t = snu2_generators(64, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h, e = classify(t.h), classify(t.e)
        assert h.normal and h.hermitian and h.diagonal and not h.unitary
        assert not e.normal and not e.unitary

    def test_cyclic_permutation_flags(self):
        p, _ = structural_matrices(5, 1, 3)
        flags = classify(p)
        assert flags.normal and flags.unitary
        assert not flags.hermitian and not flags.diagonal


class TestMatrixJson:
    def test_roundtrip(self, rng):
        m = random_complex(rng, 3)
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_ragged_rejected(self):
        bad = {"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}
        with pytest.raises(ValueError, match="ragged"):
            matrix_from_json(bad)


_SL2 = sl2_generators(4)
_DIAG = np.diag([1.0, 2.0]).astype(complex)
# every exported function that takes a tolerance, on inputs it accepts at tol 1e-9
TOL_CALLS = {
    "hermitian_eig": lambda tol: hermitian_eig(_SL2.h, tol),
    "spectral_projection": lambda tol: spectral_projection(_DIAG, 1.0, tol),
    "classify": lambda tol: classify(_SL2.e, tol),
    "lines_of_pair": lambda tol: lines_of_pair(_SL2.h, _SL2.e @ _SL2.f, tol),
    "spectra_equal": lambda tol: spectra_equal(_SL2, _SL2, ["A1, A2 A3"], tol),
    "poly_equal": lambda tol: poly_equal(det_pencil([_DIAG]), det_pencil([_DIAG]), tol),
    "compression_check": lambda tol: compression_check(_DIAG, 3.0 * _DIAG, 1.0, 3.0, tol),
    "certify_equivalence": lambda tol: certify_equivalence(_SL2, _SL2, np.eye(4), tol),
    "is_exceptional": lambda tol: is_exceptional(12, 0.5, tol),
    "corollary_check": lambda tol: corollary_check(12, tol),
    "multiplicity_profile": lambda tol: multiplicity_profile(8, 0.6, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("name", list(TOL_CALLS))
def test_tol_must_be_finite_and_positive(name, tol):
    # a NaN or infinite tol silently changed answers, e.g. hermitian_eig
    # accepted a non-Hermitian matrix and is_exceptional(12, 0.5, inf) held
    TOL_CALLS[name](1e-9)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        TOL_CALLS[name](tol)
