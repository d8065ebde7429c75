import inspect
import warnings

import numpy as np
import pytest

import specrig
from specrig.exceptional import corollary_check, is_exceptional, multiplicity_profile
from specrig.generators import h_coeff, sl2_generators, snu2_generators
from specrig.linalg import (DimensionMismatchError, EigenvalueNotFoundError,
                            NotHermitianError, as_matrix, classify, cluster_values,
                            commutator, hermitian_eig, hs_norm, hs_norms,
                            matrix_from_json, matrix_to_json, normal_eig,
                            spectral_projection)
from specrig.rigidity import (certify_equivalence, compression_check, sl2_rigidity,
                              snu2_rigidity)
from specrig.spectrum import lines_of_pair, spectra_equal

from conftest import cyclic_permutation, random_complex, random_hermitian, random_unitary


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

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^expected a square matrix, got shape \(2, 3\)$"):
            as_matrix(np.zeros((2, 3)))


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

    def test_overflowing_norm_fails_closed(self):
        # ||a|| and ||a - a*|| both overflow: comparing inf with tol * inf
        # passed this matrix
        a = np.full((4, 4), 1e308)
        a[0, 1] = -1e308
        with pytest.raises(NotHermitianError):
            hermitian_eig(a)

    def test_hermitian_matrix_of_overflowing_norm_passes(self):
        a = np.full((4, 4), 1e308)
        a[0, 1] = a[1, 0] = -1e308
        assert hs_norm(a) == np.inf
        assert hermitian_eig(a).values.shape == (4,)


def _clusters_by_walk(vals, tol, scale):
    """The reference: walk the sorted values, starting a cluster wherever
    a gap is not within tol * max(1, scale)."""
    order = np.lexsort((vals.imag, vals.real)) if np.iscomplexobj(vals) else np.argsort(vals)
    clusters = [[int(order[0])]]
    for idx in order[1:].tolist():
        if abs(vals[idx] - vals[clusters[-1][-1]]) <= tol * max(1.0, scale):
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


class TestClusterValues:
    def test_matches_the_sorted_walk(self, rng):
        for k in range(60):
            n = int(rng.integers(1, 9))
            vals = np.round(rng.normal(size=n), 1) + rng.normal(size=n) * 1e-10
            if k % 2:
                vals = vals + 1j * np.round(rng.normal(size=n), 1)
            for tol in (1e-12, 1e-9, 1e-2):
                got = cluster_values(vals, tol, 2.0)
                want = _clusters_by_walk(vals, tol, 2.0)
                assert [idx for _, idx in got] == want
                assert [rep for rep, _ in got] == [np.mean(vals[c]).item() for c in want]

    def test_nan_gap_splits(self):
        vals = np.array([1.0, np.nan, 1.0 + 1e-12])
        got = cluster_values(vals, 1e-9, 1.0)
        assert [idx for _, idx in got] == _clusters_by_walk(vals, 1e-9, 1.0) == [[0, 2], [1]]


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


class TestNormalEig:
    def test_non_hermitian_normal_matrix(self, rng):
        # a repeated eigenvalue: its eigenvectors are orthonormalised together
        lams = np.array([1j, 1j, -1, 0.5 + 0.5j, 2, -2j])
        w = random_unitary(rng, 6)
        a = w @ np.diag(lams) @ w.conj().T
        values, v = normal_eig(a)
        assert np.abs(np.sort_complex(values.round(12)) - np.sort_complex(lams)).max() == 0.0
        assert hs_norm(v.conj().T @ v - np.eye(6)) <= 1e-14
        assert hs_norm(v.conj().T @ a @ v - np.diag(values)) <= 1e-14
        p = spectral_projection(a, 1j)
        assert np.linalg.matrix_rank(p) == 2
        assert hs_norm(p @ a - 1j * p) <= 1e-14


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

    def test_stacked_norms_match(self, rng):
        for n in (1, 3, 10):
            stack = np.array([s * random_complex(rng, n) for s in (1e-8, 1.0, 1e60)])
            assert hs_norms(stack).tolist() == pytest.approx([hs_norm(m) for m in stack],
                                                             rel=1e-15)
        assert hs_norms(np.array([[[3.0, 0.0], [0.0, -4.0]]])).tolist() == [5.0]

    def test_stacked_overflow_is_rescaled_and_nan_propagates(self, rng):
        stack = np.array([random_complex(rng, 4), 1e200 * random_complex(rng, 4),
                          random_complex(rng, 4)])
        stack[2, 1, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = hs_norms(stack)
        assert norms[:2].tolist() == [hs_norm(stack[0]), hs_norm(stack[1])]
        assert np.isfinite(norms[1]) and np.isnan(norms[2])

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
        p = cyclic_permutation(5)
        flags = classify(p)
        assert flags.normal and flags.unitary
        assert not flags.hermitian and not flags.diagonal


class TestMatrixJson:
    def test_roundtrip(self, rng):
        m = random_complex(rng, 3)
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_integer_parts_accepted(self):
        m = matrix_from_json({"n": 1, "entries": [[[3, -2]]]})
        assert m[0, 0] == 3 - 2j and m.dtype == np.complex128

    def test_ragged_rejected(self):
        bad = {"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}
        with pytest.raises(ValueError, match="ragged"):
            matrix_from_json(bad)

    @pytest.mark.parametrize("blob,message", [
        ({"n": 1.5, "entries": [[[0.0, 0.0]]]}, "^'n' must be a positive integer$"),
        ({"n": True, "entries": [[[0.0, 0.0]]]}, "^'n' must be a positive integer$"),
        ({"n": 2, "entries": [[[0.0, 0.0], [0.0, 0.0]]]}, "^expected 2 rows, got 1$"),
        ({"n": 1, "entries": [[[0.0, 0.0, 0.0]]]}, r"^entry \(0,0\) must be a \[re, im\] pair$"),
        # float() would read these as numbers
        ({"n": 1, "entries": [[["0.75", "0"]]]},
         r"^entry \(0,0\) must be a pair of JSON numbers, got \['0.75', '0'\]$"),
        ({"n": 2, "entries": [[[0.0, 0.0], [1, 0]], [[0.0, True], [0.0, 0.0]]]},
         r"^entry \(1,0\) must be a pair of JSON numbers, got \[0.0, True\]$"),
        ({"n": 1, "entries": [[[None, 0.0]]]},
         r"^entry \(0,0\) must be a pair of JSON numbers, got \[None, 0.0\]$"),
    ], ids=["non-integer-n", "boolean-n", "row-count", "three-element-entry",
            "string-parts", "boolean-part", "null-part"])
    def test_malformed_rejected(self, blob, message):
        with pytest.raises(ValueError, match=message):
            matrix_from_json(blob)


_SL2 = sl2_generators(4)
_DIAG = np.diag([1.0, 2.0]).astype(complex)
# every exported function that takes a tolerance, on inputs it accepts at tol 1e-9
TOL_CALLS = {
    "hermitian_eig": lambda tol: hermitian_eig(_SL2.h, tol),
    "spectral_projection": lambda tol: spectral_projection(_DIAG, 1.0, tol),
    "classify": lambda tol: classify(_SL2.e, tol),
    "lines_of_pair": lambda tol: lines_of_pair(_SL2.h, _SL2.e @ _SL2.f, tol),
    "spectra_equal": lambda tol: spectra_equal(_SL2, _SL2, ["A1, A2 A3"], tol),
    "compression_check": lambda tol: compression_check(_DIAG, 3.0 * _DIAG, 1.0, 3.0, tol),
    "certify_equivalence": lambda tol: certify_equivalence(_SL2, _SL2, np.eye(4), tol),
    "is_exceptional": lambda tol: is_exceptional(12, 0.5, tol),
    "corollary_check": lambda tol: corollary_check(12, tol),
    "multiplicity_profile": lambda tol: multiplicity_profile(8, 0.6, tol),
    "snu2_rigidity": lambda tol: snu2_rigidity(snu2_generators(3, 0.5), 3, 0.5, tol),
    "sl2_rigidity": lambda tol: sl2_rigidity(_SL2, 4, tol),
}


def test_tol_registry_lists_every_export_with_a_tol():
    # an export added or deleted cannot drift out of the check below
    exported = {name for name, obj in vars(specrig).items()
                if not name.startswith("_") and callable(obj)
                and "tol" in inspect.signature(obj).parameters}
    assert set(TOL_CALLS) == exported


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("name", list(TOL_CALLS))
def test_tol_must_be_finite_and_positive(name, tol):
    # a NaN or infinite tol silently changed answers, e.g. hermitian_eig
    # accepted a non-Hermitian matrix and is_exceptional(12, 0.5, inf) held
    TOL_CALLS[name](1e-9)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        TOL_CALLS[name](tol)
