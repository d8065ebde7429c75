"""Dense complex linear algebra kernels.

Matrices are square ``numpy.complex128`` arrays; scalars are Python
``complex``.  Every routine here is pure and leaves its arguments
untouched, so concurrent callers need no synchronization.

Tolerances are relative: a residual ``r`` counts as zero when
``r <= tol * max(1, scale)`` where ``scale`` is the natural magnitude of
the quantity being tested (Hilbert-Schmidt norm of the matrix, or its
square for products like A A*).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9


class DimensionMismatchError(ValueError):
    pass


class NotHermitianError(ValueError):
    pass


class NotNormalError(ValueError):
    pass


class EigenvalueNotFoundError(ValueError):
    pass


def _check_tol(tol, name="tol") -> float:
    """``tol`` itself, if it is a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")
    return tol


def _check_slot_shapes(mats) -> None:
    """Raise ``ValueError`` naming all three unless the slots share one shape."""
    if not mats[0].shape == mats[1].shape == mats[2].shape:
        shapes = ", ".join(f"A{k} {'x'.join(map(str, m.shape))}" for k, m in enumerate(mats, 1))
        raise ValueError(f"the three slots must share one shape, got {shapes}")


def _as_square(a) -> np.ndarray:
    """``a`` coerced to complex128, if it is a non-empty square matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _finite(m) -> np.ndarray:
    """``m`` itself, if every entry is finite."""
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_matrix(a) -> np.ndarray:
    """Validate and coerce ``a`` to a square complex128 matrix.

    Rejects non-square shapes and non-finite entries.
    """
    return _finite(_as_square(a))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm, with ``np.linalg.norm``'s sum of
    squares and bits.  Where that sum overflows, the entries are divided
    by the largest modulus first; ``np.vdot`` raises no warning."""
    x = np.asarray(a)
    x = (x if x.dtype.kind in "fc" else x.astype(np.float64)).ravel(order="K")
    sq = float(np.vdot(x.real, x.real))
    if x.dtype.kind == "c":
        sq += float(np.vdot(x.imag, x.imag))
    if sq == math.inf and (big := float(np.max(np.abs(x)))) < math.inf:
        return big * hs_norm(x / big)
    return math.sqrt(sq)


def hs_norms(stack) -> np.ndarray:
    """``hs_norm`` of each matrix of a stack, by one sum of squares each;
    if a sum overflows or is NaN, by ``hs_norm`` (its rescale, its NaN)."""
    x = np.asarray(stack, dtype=np.complex128)
    flat = x.reshape(len(x), -1).view(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    return norms if norms.max() < math.inf else np.array([hs_norm(m) for m in x])


def _finite_scale(a, scale):
    """(a, scale) for a finite ``scale`` = max(1, ||a||), else a / max|a_ij|
    and its norm: a scale-invariant test then compares no inf with inf."""
    if scale < math.inf:
        return a, scale
    b = a / np.abs(a).max()
    return b, hs_norm(b)


def _is_normal(a, tol: float, scale=None) -> bool:
    """||a a* - a* a|| <= tol * scale^2, tested on a / scale so that
    neither the products nor the squared norm can overflow; ``scale``
    is max(1, ||a||), computed here when not given (``_finite_scale``)."""
    a, s = _finite_scale(a, max(1.0, hs_norm(a)) if scale is None else scale)
    b = a / s
    return hs_norm(b @ b.conj().T - b.conj().T @ b) <= tol


def _is_unitary(a, tol: float, scale=None) -> bool:
    """||a a* - I|| <= tol * scale^2, tested on a / scale as ``_is_normal``
    is, so nothing can overflow; ``scale`` as in ``_is_normal``, and
    never inf: a matrix whose norm overflows is not unitary."""
    s = max(1.0, hs_norm(a)) if scale is None else scale
    u = a / s
    return s < math.inf and hs_norm(u @ u.conj().T - np.eye(a.shape[0]) / (s * s)) <= tol


def commutator(a, b) -> np.ndarray:
    """ab - ba."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"operands differ in size: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def _is_hermitian(a, tol, norm, halves=None) -> bool:
    """||a - a*|| <= tol * max(1, norm) for the finite ``a`` of HS norm
    ``norm``, tested as 2 ||h - h*|| with h = a / 2, which cannot overflow;
    ``halves`` is (h, h*), if the caller formed them.  If ``norm``
    overflows, the test runs on a / max|a_ij|, so it cannot compare inf
    with inf; a NaN or infinite residual fails."""
    b, s = _finite_scale(a, max(1.0, norm))
    if halves is None or b is not a:
        h = b * 0.5
        halves = h, h.conj().T
    return 2.0 * hs_norm(halves[0] - halves[1]) <= tol * s


def _checked_eigh(a, tol, norm):
    """Eigenvalues (ascending) and eigenvectors of the Hermitian part of a
    validated ``a`` of HS norm ``norm``, each column's largest-modulus
    entry made real positive; ``NotHermitianError`` unless
    ``||a - a*|| <= tol * max(1, norm)``.  One adjoint of a / 2 serves the
    test and the Hermitian part (halves first: the sum cannot overflow)."""
    h = a * 0.5
    halves = h, h.conj().T
    if not _is_hermitian(a, tol, norm, halves):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(halves[0] + halves[1])
    return w, _phase_fixed(v)


def _phase_fixed(v) -> np.ndarray:
    """``v`` with each nonzero column's largest-modulus entry made real positive."""
    ph = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    ph[ph == 0] = 1.0
    return v * (np.abs(ph) / ph)


def _cluster_starts(values, bound) -> np.ndarray:
    """Where sorted ``values`` start a new cluster: the indices k whose gap
    |values[k] - values[k-1]| is not within ``bound`` (a scalar or one per
    gap).  A NaN gap splits."""
    return np.flatnonzero(~(np.abs(np.diff(values)) <= bound)) + 1


def cluster_values(values, tol: float, scale: float):
    """Group sorted-by-magnitude-agnostic values that lie within
    ``tol * max(1, scale)`` of each other.

    Returns a list of (representative, indices) with the representative
    the cluster mean.  Clustering is transitive along the sorted order,
    matching the convention that nearly coincident eigenvalues form one
    spectral point.
    """
    vals = np.asarray(values)
    order = np.lexsort((vals.imag, vals.real)) if np.iscomplexobj(vals) else np.argsort(vals)
    cast = complex if np.iscomplexobj(vals) else float
    return [(cast(np.mean(vals[c])), c.tolist())
            for c in np.split(order, _cluster_starts(vals[order], tol * max(1.0, scale)))]


def normal_eig(a, tol: float = DEFAULT_TOL):
    """Eigenvalues and orthonormal eigenvectors of a normal matrix.

    Hermitian inputs go through ``_checked_eigh`` (values ascending,
    vectors phase-fixed); otherwise the general eigensolver is used and
    eigenvectors are re-orthonormalized inside each eigenvalue cluster
    (for a normal matrix distinct eigenspaces are already orthogonal).
    Values are ordered by (real, imag).
    """
    _check_tol(tol)
    a = as_matrix(a)
    scale = max(1.0, hs_norm(a))
    if not _is_normal(a, tol, scale):
        raise NotNormalError("matrix is not normal within tolerance")
    try:
        w, v = _checked_eigh(a, tol, scale)
        return w.astype(np.complex128), v
    except NotHermitianError:
        pass
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    for _, idxs in cluster_values(w, tol, scale):
        q, _ = np.linalg.qr(v[:, idxs])
        v[:, idxs] = q
    return w, v


def spectral_projection(a, lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the eigenspace of a normal matrix.

    ``lam`` must lie within ``tol * max(1, ||a||)`` of an eigenvalue;
    eigenvalues within that distance of each other count as one spectral
    point, so the projection rank equals the multiplicity.
    """
    a = as_matrix(a)
    w, v = normal_eig(a, tol)
    scale = max(1.0, hs_norm(a))
    for rep, idxs in cluster_values(w, tol, scale):
        if abs(rep - lam) <= tol * max(1.0, scale):
            q = v[:, idxs]
            return q @ q.conj().T
    raise EigenvalueNotFoundError(f"{lam} is not an eigenvalue within tolerance")


# --- Matrix JSON: {"n": int, "entries": [[[re, im], ...], ...]} row-major ---

def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    n = a.shape[0]
    entries = [[[float(a[i, j].real), float(a[i, j].imag)] for j in range(n)]
               for i in range(n)]
    return {"n": n, "entries": entries}


def _check_size(n) -> int:
    """A dimension read from JSON: an integer >= 1 (a boolean is not one)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("'n' must be a positive integer")
    return n


def _is_number(x) -> bool:
    """Whether ``x`` is a JSON number: an int or a float, not a bool or a string."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with 'n' and 'entries'")
    n = _check_size(obj["n"])
    rows = obj["entries"]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    m = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"ragged row {i}: expected {n} entries, got {len(row)}")
        for j, pair in enumerate(row):
            if len(pair) != 2:
                raise ValueError(f"entry ({i},{j}) must be a [re, im] pair")
            if not (_is_number(pair[0]) and _is_number(pair[1])):
                raise ValueError(f"entry ({i},{j}) must be a pair of JSON numbers, got {pair!r}")
            m[i, j] = complex(pair[0], pair[1])
    return as_matrix(m)
