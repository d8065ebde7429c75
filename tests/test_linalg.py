import importlib
import inspect
import warnings

import numpy as np
import pytest

import specrig
from specrig.exceptional import corollary_check, is_exceptional, multiplicity_profile
from specrig.generators import h_coeff, sl2_generators, snu2_generators
from specrig.linalg import (DimensionMismatchError, EigenvalueNotFoundError,
                            NotHermitianError, NotNormalError, _checked_eigh,
                            _is_hermitian, _is_normal, _is_unitary, as_matrix,
                            cluster_values, commutator, hs_norm, hs_norms,
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
    """``normal_eig`` on Hermitian input, and the checked kernel behind it."""

    def test_diagonal_permutation(self):
        w, v = normal_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # columns are permuted identity columns
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_sigma_x(self):
        w, _ = normal_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    def test_h4_half(self):
        # diagonal of the ladder H at n=4, nu=0.5: exact values from the
        # closed form nu^2/(1-nu^2) (nu^(2(n-2k-1)) - 1)
        t = snu2_generators(4, 0.5)
        w, _ = normal_eig(t.h)
        expected = sorted(h_coeff(4, k, 0.5) for k in range(4))
        assert np.allclose(w, expected, atol=1e-14)
        assert expected == pytest.approx([-21 / 64, -1 / 4, 1.0, 21.0])

    def test_reconstruction_and_orthogonality(self, rng):
        for n in (2, 5, 9):
            a = random_hermitian(rng, n)
            w, v = normal_eig(a)
            assert np.all(w.imag == 0.0) and np.all(np.diff(w.real) >= 0.0)
            top = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
            assert np.all(np.abs(top.imag) <= 1e-15) and np.all(top.real > 0.0)
            assert hs_norm(a @ v - v @ np.diag(w)) <= 1e-10 * max(1, hs_norm(a))
            assert hs_norm(v @ np.diag(w) @ v.conj().T - a) <= 1e-9 * max(1, hs_norm(a))
            assert hs_norm(v.conj().T @ v - np.eye(n)) <= 1e-10

    def test_not_hermitian_rejected(self, rng):
        a = random_complex(rng, 3)
        with pytest.raises(NotHermitianError):
            _checked_eigh(a, 1e-9, hs_norm(a))
        with pytest.raises(NotNormalError):
            normal_eig(a)

    def test_overflowing_norm_fails_closed(self):
        # ||a|| and ||a - a*|| both overflow: comparing inf with tol * inf
        # passed this matrix
        a = as_matrix(np.full((4, 4), 1e308))
        a[0, 1] = -1e308
        with pytest.raises(NotHermitianError):
            _checked_eigh(a, 1e-9, hs_norm(a))

    def test_hermitian_matrix_of_overflowing_norm_passes(self):
        a = as_matrix(np.full((4, 4), 1e308))
        a[0, 1] = a[1, 0] = -1e308
        assert hs_norm(a) == np.inf
        assert _checked_eigh(a, 1e-9, hs_norm(a))[0].shape == (4,)


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

    def test_overflowing_anti_hermitian_part(self):
        # ||a|| is finite but a - a* overflows: the Hermitian test warned
        # (an error here); such an a is not Hermitian
        a = np.diag([1e308, -1e308, 1e308j, 5.0])
        w, _ = normal_eig(a)
        assert np.allclose(w, [-1e308, 1e308j, 5.0, 1e308], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a NaN tol was reported as a matrix that is not normal
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            normal_eig(np.eye(2), tol)


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


def _flags(a, tol=1e-9):
    """(normal, Hermitian, unitary) by the predicates rigidity relies on."""
    a = as_matrix(a)
    return _is_normal(a, tol), _is_hermitian(a, tol, hs_norm(a)), _is_unitary(a, tol)


class TestClassify:
    """Structural classification by ``_is_normal``, ``_is_hermitian`` and
    ``_is_unitary``."""

    def test_identity_1x1(self):
        assert _flags(np.eye(1)) == (True, True, True)

    def test_identity_3x3_not_simple(self):
        assert _flags(np.eye(3)) == (True, True, True)
        assert np.linalg.matrix_rank(spectral_projection(np.eye(3), 1.0)) == 3

    def test_e3_not_normal(self):
        t = sl2_generators(3)
        assert not _flags(t.e)[0]

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.9, -0.6])
    def test_ladder_h_flags(self, nu):
        h = snu2_generators(5, nu).h
        assert _flags(h)[:2] == (True, True)
        assert len(cluster_values(normal_eig(h)[0], 1e-9, hs_norm(h))) == 5

    def test_huge_norm_does_not_overflow(self):
        # ||H|| is about 2.1e161 and ||E|| larger: squares overflow float64
        t = snu2_generators(64, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h, e = _flags(t.h), _flags(t.e)
        assert h == (True, True, False)
        assert not e[0] and not e[2]

    def test_cyclic_permutation_flags(self):
        assert _flags(cyclic_permutation(5)) == (True, False, True)

    def test_overflowing_norm_fails_closed(self):
        # ||a|| overflows: a / ||a|| was the zero matrix, so a was normal
        # and unitary
        a = np.full((4, 4), 1e308)
        a[0, 1] = -1e308
        assert _flags(a) == (False, False, False)

    def test_diagonal_of_overflowing_norm_keeps_its_flags(self):
        assert _flags(np.diag([1e308, -1e308, 1e308, -1e308])) == (True, True, False)
        w, _ = normal_eig(np.diag([1e308, -1e308, 3e307, 2.0]))
        assert np.array_equal(w, [-1e308, 2.0, 3e307, 1e308])


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
    "spectral_projection": lambda tol: spectral_projection(_DIAG, 1.0, tol),
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


def _exports():
    """The public names of ``specrig`` and their objects, each read
    through ``getattr``: the package binds an export on first use."""
    return {name: getattr(specrig, name) for name in dir(specrig)
            if not name.startswith("_") and not inspect.ismodule(getattr(specrig, name))}


def test_tol_registry_lists_every_export_with_a_tol():
    # an export added or deleted cannot drift out of the check below
    exported = {name for name, obj in _exports().items()
                if callable(obj) and "tol" in inspect.signature(obj).parameters}
    assert set(TOL_CALLS) == exported


# the public names of ``specrig``, by the module that defines them
DEFINED_IN = {
    "exceptional": {"CorollaryCheck", "ExceptionalRoot", "corollary_check", "exceptional_set",
                    "is_exceptional", "multiplicity_profile", "z_root"},
    "generators": {"GeneratorTuple", "RelationResidual", "c_coeff", "counterexample_tuple",
                   "fundamental_generators", "h_coeff", "one_dim_rep", "relation_residuals",
                   "sl2_generators", "snu2_generators", "tuple_from_json", "tuple_to_json"},
    "linalg": {"DEFAULT_TOL", "as_matrix", "commutator", "hs_norm", "matrix_from_json",
               "matrix_to_json", "spectral_projection"},
    "poly": {"MultiPoly", "poly_to_json"},
    "rigidity": {"EQUIVALENT", "HYPOTHESIS_FAILED", "RECONSTRUCTION_FAILED", "RigidityReport",
                 "certify_equivalence", "compression_check", "sl2_rigidity", "snu2_rigidity"},
    "spectrum": {"Line", "det_pencil", "lines_of_pair", "parse_pencil", "spectra_equal",
                 "x2_dependence"},
}
PUBLIC_NAMES = set().union(*DEFINED_IN.values())


def test_public_names_are_pinned():
    # an export added or deleted shows up here as a one-line diff
    exported = _exports()
    assert exported.keys() == PUBLIC_NAMES
    assert sorted(specrig.__all__) == sorted(PUBLIC_NAMES)
    for module, names in DEFINED_IN.items():
        defining = importlib.import_module(f"specrig.{module}")
        for name in names:
            obj = exported[name]
            assert obj is getattr(defining, name), name
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == defining.__name__, name


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("name", list(TOL_CALLS))
def test_tol_must_be_finite_and_positive(name, tol):
    # a NaN or infinite tol silently changed answers, e.g. the Hermitian
    # test accepted a non-Hermitian matrix and is_exceptional(12, 0.5, inf) held
    TOL_CALLS[name](1e-9)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        TOL_CALLS[name](tol)
