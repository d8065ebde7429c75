"""The exceptional deformation parameters.

The squared ladder coefficients c_i(nu)^2 and c_j(nu)^2 collide exactly
when z = nu^2 is a root of

    1 + z + ... + z^(n-j-1) - z^(n-i) - ... - z^(n-1) = 0

for an index pair i < j with i + j > n (for i + j <= n the left side is
bounded below by (1 - z^i)(1 - z^(n-i)) > 0 on (0, 1)).  By Descartes'
rule of signs that polynomial has at most one positive root, and it
changes sign on (0, 1), so bisection isolates the unique root z_ij.
The exceptional set is S = {+-sqrt(z_ij)} together with {+-1}, where the
|nu| = 1 collisions follow the pairing i + j = n instead.

All R ~ n^2/4 pairs of a dimension are bisected at once, as arrays.  A
step is the scalar one for every pair: mid = 0.5 (lo + hi), Horner
acc = acc * mid + c over the degrees n-1 .. 0, then keep the half where
acc > 0.  So each root is the same float, bit for bit, as one pair's
bisection gives.  The coefficients are built for a block of pairs at a
time, which bounds the working memory to about ``_BLOCK`` floats however
large n is.  Bisection stops at the first step that moves no interval
end: from there mid rounds to an end and every later step repeats it, so
``BISECT_ITERATIONS`` is only a cap (about 53 steps are taken).
``z_root`` takes the same steps for one pair on Python floats: there a
numpy call per degree would cost 5-10 times the arithmetic it does.

``is_exceptional`` and ``corollary_check`` read only the roots near their
question, so they step the pairs in lockstep and drop a pair once its
bracket [lo, hi] rules it out.  The final root stays inside the bracket,
so the answers are those of the full bisection, bit for bit:

- ``is_exceptional``: np.sqrt and float subtraction are monotone under
  rounding, so fl(nu - sqrt(hi)) > tol or fl(nu - sqrt(lo)) < -tol
  rules out |nu - sqrt(z)| <= tol, and likewise for -sqrt(z).
- ``corollary_check``: after the first step all brackets lie in [1/2, 1]
  with dyadic ends, so lo_q - hi_p is exact and bounds |z_q - z_p| from
  below.  In lo order, a pair with brackets more than tol away on both
  sides (the largest hi before it, the next lo after it) can join no
  close pair.  The survivors' roots are sorted once and scanned for
  neighbours within ``tol``, instead of testing every pair and triple.

The last ``_SCALAR_FINISH`` pairs, or in ``exceptional_set`` up to
``_SCALAR_PAIRS`` (n <= 13, where that beats the array steps), run on
``z_root``'s loop from their brackets.  Above one block, each block runs
``_ROUND`` steps per build of its coefficients, so memory stays within
``_BLOCK`` floats plus a bracket per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .generators import _overflow, c_coeff
from .linalg import DEFAULT_TOL, _check_tol, _cluster_starts

BISECT_ITERATIONS = 200
_BLOCK = 2 ** 18  # coefficient floats per block of pairs (2 MB)
_SCALAR_FINISH = 4  # pruned bisection finishes this many pairs on Python floats
_SCALAR_PAIRS = 32  # exceptional_set runs this many pairs or fewer on Python floats
_ROUND = 4  # pruned bisection steps per coefficient build, above one block


@dataclass(frozen=True)
class ExceptionalRoot:
    n: int
    i: int
    j: int
    z: float
    nu: float  # the positive branch sqrt(z); -nu is exceptional too


def _check_indices(n, i, j):
    if not (0 <= i < j <= n - 1):
        raise ValueError(f"need 0 <= i < j <= n-1, got i={i}, j={j}, n={n}")
    if i + j <= n:
        raise ValueError(f"need i + j > n, got i={i}, j={j}, n={n}")


def root_polynomial(n: int, i: int, j: int) -> np.ndarray:
    """Ascending coefficient array: +1 for degrees 0..n-j-1, -1 for
    degrees n-i..n-1, zeros between."""
    _check_indices(n, i, j)
    return _coefficients(n, np.array([i]), np.array([j]))[::-1, 0]


def _coefficients(n, i, j):
    """(n, pairs) array; row k multiplies z^(n-1-k), Horner order."""
    degrees = np.arange(n - 1, -1, -1)[:, None]
    coeffs = np.zeros((n, i.size))
    coeffs[degrees < n - j] = 1.0
    coeffs[degrees >= n - i] = -1.0
    return coeffs


def _step(coeffs, lo, hi):
    """One bisection step of every column of ``coeffs``: the new (lo, hi)."""
    mid = 0.5 * (lo + hi)
    acc = np.zeros(mid.size)
    for c in coeffs:
        acc *= mid
        acc += c
    pos = acc > 0.0
    return np.where(pos, mid, lo), np.where(pos, hi, mid)


def _steps(coeffs, lo, hi, count):
    """Up to ``count`` steps, stopping at the first that moves no end."""
    for _ in range(count):
        new_lo, new_hi = _step(coeffs, lo, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi


def _bisect(n: int, i: np.ndarray, j: np.ndarray, needed=None) -> np.ndarray:
    """Roots z of the pairs (i[k], j[k]) of dimension n, bisected together
    (see the module docstring).

    The pairs step in lockstep until no interval end moves.  With
    ``needed``, after each step only the pairs whose brackets pass
    ``needed(lo, hi)`` (a boolean mask) go on; the others come back as
    NaN.  The last ``_SCALAR_FINISH`` or fewer (``_SCALAR_PAIRS`` without
    ``needed``) finish on Python floats from their brackets."""
    rows = max(1, _BLOCK // n)
    # above one block, a block's coefficients are built once per _ROUND
    # steps, or once in all when every pair runs to its fixed point anyway
    count, finish = ((BISECT_ITERATIONS, _SCALAR_PAIRS) if needed is None
                     else (_ROUND, _SCALAR_FINISH))
    live, coeffs = np.arange(i.size), None
    lo, hi = np.zeros(i.size), np.ones(i.size)
    for _ in range(BISECT_ITERATIONS):
        if live.size <= finish:
            break
        if coeffs is None and live.size <= rows:
            coeffs = _coefficients(n, i[live], j[live])
        if coeffs is not None:
            new_lo, new_hi = _step(coeffs, lo, hi)
        else:
            new_lo, new_hi = lo.copy(), hi.copy()
            for b in (slice(s, s + rows) for s in range(0, live.size, rows)):
                new_lo[b], new_hi[b] = _steps(_coefficients(n, i[live[b]], j[live[b]]),
                                              lo[b], hi[b], count)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
        keep = needed(lo, hi) if needed is not None else None
        if keep is not None and not keep.all():
            live, lo, hi = live[keep], lo[keep], hi[keep]
            if coeffs is not None:
                coeffs = coeffs[:, keep]
    out = np.full(i.size, np.nan)
    if live.size > finish:
        out[live] = 0.5 * (lo + hi)
        return out
    # the live pairs' coefficients, if the lockstep loop built them
    cols = (_coefficients(n, i[live], j[live]) if coeffs is None else coeffs).T.tolist()
    out[live] = [_scalar_root(c, a, b) for c, a, b in zip(cols, lo.tolist(), hi.tolist())]
    return out


def _scalar_root(coeffs, lo=0.0, hi=1.0):
    """One pair's root from its Horner-order coefficients (a list of
    floats), bisected on Python floats from [lo, hi] with the array
    kernel's steps, so the same float."""
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        acc = 0.0
        for c in coeffs:
            acc = acc * mid + c
        if acc > 0.0:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def z_root(n: int, i: int, j: int) -> ExceptionalRoot:
    """The unique root of the sign-change polynomial in (0, 1).

    Bisection on the guaranteed sign change (value 1 at z=0, negative at
    z=1 since i + j > n); unconditionally convergent, final interval far
    below 1e-16.
    """
    z = _scalar_root(root_polynomial(n, i, j)[::-1].tolist())
    return ExceptionalRoot(n=n, i=i, j=j, z=z, nu=float(np.sqrt(z)))


def _index_pairs(n):
    """The index pairs i < j with i + j > n, in lexicographic order."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    i, j = np.triu_indices(n, 1)
    keep = i + j > n
    return i[keep], j[keep]


def _roots(n, i, j, z):
    return [ExceptionalRoot(n=n, i=a, j=b, z=c, nu=d)
            for a, b, c, d in zip(i.tolist(), j.tolist(), z.tolist(), np.sqrt(z).tolist())]


def exceptional_set(n: int):
    """All interior exceptional roots for dimension n, in lexicographic
    (i, j) order.  The parameters +-1 are always exceptional as well but
    are tagged separately (see ``exceptional_nus``)."""
    i, j = _index_pairs(n)
    return _roots(n, i, j, _bisect(n, i, j))


def exceptional_nus(n: int):
    """Sorted list of every exceptional parameter: +-sqrt(z_ij) plus +-1."""
    nus = {1.0, -1.0}
    for r in exceptional_set(n):
        nus.add(r.nu)
        nus.add(-r.nu)
    return sorted(nus)


def is_exceptional(n: int, nu: float, tol: float = DEFAULT_TOL) -> bool:
    """Whether nu lies within tol of one of ``exceptional_nus(n)``;
    pairs are bisected only while their root may (see the module
    docstring).  A NaN nu is never exceptional."""
    _check_tol(tol)
    i, j = _index_pairs(n)
    if abs(nu - 1.0) <= tol or abs(nu + 1.0) <= tol:
        return True
    if math.isnan(nu):
        return False

    def needed(lo, hi):
        a, b = np.sqrt(lo), np.sqrt(hi)
        return ~(((nu - b > tol) | (nu - a < -tol)) & ((nu + a > tol) | (nu + b < -tol)))
    s = np.sqrt(_bisect(n, i, j, needed))
    return bool(np.any(np.abs(nu - s) <= tol) or np.any(np.abs(nu + s) <= tol))


def multiplicity_profile(n: int, nu: float, tol: float = DEFAULT_TOL):
    """Clustered eigenvalue multiplicities of E E* (the values
    nu^2 c_(k+1)(nu)^2 for k = 0..n-1), as (eigenvalue, multiplicity)
    pairs sorted ascending.

    Consecutive sorted values a, b fall into one cluster unless
    |a - b| > tol * max(1, |a|, |b|); the representative is the cluster
    mean."""
    _check_tol(tol)
    try:
        vals = np.sort([(nu * c_coeff(n, k + 1, nu)) ** 2 for k in range(n)])
    except OverflowError:
        raise _overflow(n, nu) from None
    mags = np.abs(vals)
    starts = np.concatenate(([0], _cluster_starts(
        vals, tol * np.maximum(1.0, np.maximum(mags[:-1], mags[1:])))))
    counts = np.diff(np.append(starts, vals.size))
    return list(zip((np.add.reduceat(vals, starts) / counts).tolist(), counts.tolist()))


@dataclass
class CorollaryCheck:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def corollary_check(n: int, tol: float = 1e-10) -> CorollaryCheck:
    """Ordering constraints on coincident roots.

    Whenever two index pairs share a root (within ``tol``), the pair with
    the larger i must have the smaller j, and the i-gap must exceed the
    j-gap.  No root may be shared by three pairs.  Returns a truthy
    result; on failure ``violations`` lists the offending pair groups.
    """
    _check_tol(tol)
    i, j = _index_pairs(n)

    def needed(lo, hi):
        # in lo order, near[k] says a bracket before gap k may come within
        # tol of one after it; a pair stays while a gap beside it is near
        order = np.argsort(lo)
        near = np.zeros(lo.size + 1, dtype=bool)
        near[1:-1] = lo[order[1:]] - np.maximum.accumulate(hi[order[:-1]]) <= tol
        keep = np.empty(lo.size, dtype=bool)
        keep[order] = near[:-1] | near[1:]
        return keep
    z = _bisect(n, i, j, needed)
    kept = ~np.isnan(z)  # the survivors, still in lexicographic order
    roots = _roots(n, i[kept], j[kept], z[kept])
    z = z[kept]
    order = np.argsort(z).tolist()
    zs = z[order]
    # every root lies in (1/2, 1) (the polynomial is positive at 1/2), so
    # z_q - z_p is exact and z_q <= fl(z_p + tol) whenever it is <= tol;
    # the test below drops the roots that the rounding of z_p + tol admits
    ends = np.searchsorted(zs, zs + tol, side="right").tolist()
    close = sorted((min(p, q), max(p, q))
                   for k, p in enumerate(order) for q in order[k + 1:ends[k]]
                   if abs(roots[p].z - roots[q].z) <= tol)
    res = CorollaryCheck(ok=True)
    above, below = {}, {}
    for p, q in close:
        a, b = (roots[p], roots[q]) if roots[p].i < roots[q].i else (roots[q], roots[p])
        if not (a.j > b.j and (b.i - a.i) > (a.j - b.j)):
            res.violations.append(("ordering", (a.i, a.j), (b.i, b.j), a.z))
        above.setdefault(p, []).append(q)
        below.setdefault(q, []).append(p)
    # closeness is not transitive: a triple is two close pairs that share
    # their middle root, as in the (first, middle, last) index order
    for l, m, u in sorted((l, m, u) for m, us in above.items()
                          for l in below.get(m, ()) for u in us):
        r1, r2, r3 = roots[l], roots[m], roots[u]
        res.violations.append(("triple", (r1.i, r1.j), (r2.i, r2.j),
                               (r3.i, r3.j), r1.z))
    res.ok = not res.violations
    return res
