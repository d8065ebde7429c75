import warnings

import numpy as np
import pytest

from specrig.generators import h_coeff, sl2_generators, snu2_generators, structural_matrices
from specrig.linalg import (DimensionMismatchError, EigenvalueNotFoundError,
                            NotHermitianError, adjoint, as_matrix, classify,
                            commutator, determinant, hermitian_eig, hs_norm,
                            matrix_from_json, matrix_to_json,
                            spectral_projection)

from conftest import cofactor_det, random_complex, random_hermitian


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


class TestAdjoint:
    def test_diag(self):
        assert np.array_equal(adjoint(np.diag([1j, 2.0])), np.diag([-1j, 2.0]))

    def test_e3_transpose(self):
        t = sl2_generators(3)
        assert np.array_equal(adjoint(t.e), t.e.T)

    def test_involution(self, rng):
        m = random_complex(rng, 5)
        assert np.array_equal(adjoint(adjoint(m)), m)

    def test_hs_isometry(self, rng):
        m = random_complex(rng, 6)
        assert hs_norm(adjoint(m)) == pytest.approx(hs_norm(m), rel=1e-14)


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(7)) == pytest.approx(1.0)

    def test_2x2_closed_form(self):
        a, b, c, d = 1 + 2j, -0.5j, 3.0, 2 - 1j
        m = np.array([[a, b], [c, d]])
        assert determinant(m) == pytest.approx(a * d - b * c)

    def test_against_cofactor_oracle(self, rng):
        for _ in range(5):
            m = random_complex(rng, 6)
            ours = determinant(m)
            oracle = cofactor_det(m)
            assert abs(ours - oracle) <= 1e-9 * abs(oracle)

    def test_multiplicative(self, rng):
        for _ in range(5):
            a = random_complex(rng, 5)
            b = random_complex(rng, 5)
            lhs = determinant(a @ b)
            rhs = determinant(a) * determinant(b)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


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
