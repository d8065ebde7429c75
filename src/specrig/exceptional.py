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
acc = acc * mid + c over the degrees n-1 .. 0 (a multiply, then an add:
no FMA), then keep the half where acc > 0.  So each root is the same
float, bit for bit, as one pair's bisection from [0, 1] gives
(``z_root``, on Python floats: there a numpy call per degree would cost
5-10 times the arithmetic it does).  Bisection stops at the first step
that moves no interval end: from there mid rounds to an end and every
later step repeats it, so ``BISECT_ITERATIONS`` is only a cap.  The
coefficients are built for a block of pairs at a time, which bounds the
working memory to about ``_BLOCK`` floats however large n is.

From [0, 1] that takes 54 steps (53 that move an end), and only the last
dozen or so come close enough to the root for rounding to decide a sign.
So each pair starts instead from a dyadic bracket [a, b] = [k, k+1] 2^-L
that the bisection from [0, 1] provably passes through; it then returns
the same float and skips the first L steps.  The certificate, for one
pair (i, j):

- f(z) = sum_{k<n-j} z^k - sum_{k=n-i}^{n-1} z^k (the columns of
  ``_coefficients``), and f^ its value as ``_step`` computes it.  On
  [0, 1], |f^ - f| <= E = n gamma_2n, where gamma_m = m u / (1 - m u)
  and u = 2^-53 (Higham, *Accuracy and Stability of Numerical
  Algorithms*, sec. 5.1).
- Left of the root.  Put P = sum_{k<n-j} z^k, Q = sum_{k=n-i}^{n-1} z^k
  and S_m = sum_{k<m} z^k.  Then f/P = 1 - Q/P with Q/P =
  z^(n-i) S_i / S_(n-j) and S_i / S_(n-j) = 1 + z^(n-j) S_(i-n+j) / S_(n-j);
  each factor is positive and increasing (i > n - j), so f/P decreases on
  (0, 1).  As 1 <= P <= n - j, f(p) > 0 gives f(m) >= f(p) / (n-j) for
  every m <= p.  So f^(p) > (n-j+1) E gives f^(m) > 0 for every m <= p.
- Right of the root.  h = f / z^(n-i) strictly decreases (P / z^(n-i) has
  only negative powers, and S_i increases), so f(p) < 0 gives
  f(m) <= f(p) for every m >= p.  So f^(p) < -2E gives f^(m) < 0 for
  every m >= p.
- The mids the bisection evaluates before level L are exact dyadics: the
  ends of [a, b]'s ancestors.  Left of the bracket they are a (unless
  a = 0) and ends <= a' = a - 2^-l, where a = k' 2^-l with k' odd (a is
  the mid of the ancestor [a', a + 2^-l]).  Each of them gets f^ > 0, so
  lo moves to it, if a = 0, or f^(a) > (n-j+1) E, or f^(a) > 0 (the very
  value the bisection computes at a) and a' = 0 or f^(a') > (n-j+1) E.
  Right of the bracket they are b (unless b = 1) and ends >= b' =
  b + 2^-l, b = k' 2^-l; each gets f^ <= 0, so hi moves to it, if b = 1,
  or f^(b) < -2E, or f^(b) <= 0 and b' = 1 or f^(b') < -2E.  Then after L
  steps the bisection holds exactly [a, b], and ``_step`` and
  ``_scalar_root`` continuing from there return its result.

``_certified`` snaps approximate roots (``_approximate``) to the level L
with 2^-L in (E/4, E/2]: L = 45, 43 and 41 at n = 16, 32 and 64.  A pair
that fails moves to the next bracket if an end's own sign sends the
bisection through that end, and otherwise up to the level at which a
failed end is a mid; level 0, [0, 1], needs no certificate.  Of the 2.2
million pairs of n = 9..300, all but nine certify at level L and those
nine at L - 1, so ``exceptional_set`` takes 9, 11 and 13 lockstep steps
at n = 16, 32 and 64.  The approximation only buys speed: a NaN or a
wrong value fails the certificate.

``is_exceptional`` and ``corollary_check`` read only the roots near their
question, so they step the pairs in lockstep and drop a pair once its
bracket [lo, hi] rules it out.  The final root stays inside the bracket,
so the answers are those of the full bisection, bit for bit:

- ``is_exceptional``: np.sqrt and float subtraction are monotone under
  rounding, so fl(nu - sqrt(hi)) > tol or fl(nu - sqrt(lo)) < -tol
  rules out |nu - sqrt(z)| <= tol, and likewise for -sqrt(z).
- ``corollary_check``: every bracket has ends k 2^-l in [0, 1] with
  l <= 53, so lo_q - hi_p is exact and bounds |z_q - z_p| from below.  In
  lo order, a pair with brackets more than tol away on both sides (the
  largest hi before it, the next lo after it) can join no close pair.
  The survivors' roots are sorted once and scanned for neighbours within
  ``tol``, instead of testing every pair and triple.

``exceptional_set`` and ``corollary_check`` take the certified start.
``is_exceptional`` keeps the start [0, 1]: its pruning rules out every
pair in a step or a few when nu is not near a root, and there the start
(about 150 numpy calls) would cost more than it saves (at n = 32, 372 us
a query from [0, 1] against 493 us from certified brackets).  The last
``_SCALAR_FINISH`` pairs, or in ``exceptional_set`` up to
``_SCALAR_PAIRS`` (all of them for n <= 13, where that beats the array
steps), run on ``z_root``'s loop from their brackets.  Above one block,
each block runs ``_ROUND`` steps per build of its coefficients, so memory
stays within ``_BLOCK`` floats plus a bracket per pair.

With the bisection this short, the work around it counts too.  The index
pairs of a dimension are built once, as read-only arrays
(``_index_pairs``, the 64 most recent dimensions kept), and the roots are
``ExceptionalRoot`` NamedTuples made in one ``map`` over the result
columns: the 961 of n = 64 take about 0.2 ms, where frozen dataclasses
took 1.4 ms.  ``multiplicity_profile`` reads the whole ladder from
``generators._ladder``, which computes each g_m and each c_k once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .generators import _ladder, _overflow
from .linalg import DEFAULT_TOL, _check_tol, _cluster_starts

BISECT_ITERATIONS = 200
_BLOCK = 2 ** 18  # coefficient floats per block of pairs (2 MB)
_SCALAR_FINISH = 4  # pruned bisection finishes this many pairs on Python floats
_SCALAR_PAIRS = 32  # exceptional_set runs this many pairs or fewer on Python floats
_ROUND = 4  # pruned bisection steps per coefficient build, above one block


class ExceptionalRoot(NamedTuple):
    """The root z = z_ij of the pair (i, j) of dimension n, and nu =
    sqrt(z).  A NamedTuple: immutable, hashable, and equal to the plain
    tuple (n, i, j, z, nu) as well as to another root with those fields."""

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


def _approximate(n, i, j):
    """Approximate roots z = exp(-t) of the pairs.  With S_m = 1 + ... +
    z^(m-1), f = S_(n-j) - z^(n-i) S_i, so f = 0 where

        phi(t) = log(1 - z^i) - log(1 - z^(n-j)) - (n-i) t = 0.

    phi is decreasing and convex (i > n-j), so Newton steps from the
    tangent at t = 0, t0 = log(i/(n-j)) / (n-i + (i-n+j)/2), rise to the
    root without passing it; six of them reach it to within 2.3e-16 for
    every pair of n = 2..120, 150, 200 and 400.  Only speed depends on the
    result (see ``_certified``)."""
    k = np.array([i, n - j], dtype=float)
    q = n - i
    t = np.log(k[0] / k[1]) / (q + 0.5 * (k[0] - k[1]))
    with np.errstate(all="ignore"):
        for _ in range(6):
            e = -np.expm1(-k * t)  # 1 - z^i, 1 - z^(n-j)
            slope = k * (1.0 - e) / e
            t = t - (np.log(e[0] / e[1]) - q * t) / (slope[0] - slope[1] - q)
    return np.exp(-t)


def _certified(coeffs, n, i, j):
    """Dyadic brackets [lo, hi] that the plain bisection of each column of
    ``coeffs`` from [0, 1] passes through (see the module docstring)."""
    u = 2.0 ** -53
    bound = n * (2 * n * u) / (1.0 - 2 * n * u)  # E = n gamma_2n
    above = (n - j + 1) * bound
    z = _approximate(n, i, j)
    z = np.where((z >= 0.0) & (z < 1.0), z, 0.5)  # a NaN or an end starts anywhere
    lo, hi = np.zeros(i.size), np.ones(i.size)
    level = np.full(i.size, 2 - math.frexp(bound)[1])  # 2^-level in (E/4, E/2]
    todo, rounds = np.arange(i.size), 0
    while todo.size:
        scale = np.ldexp(1.0, level[todo])
        a = np.floor(z[todo] * scale) / scale
        b = a + 1.0 / scale
        # a (b) is first an end at the level l with 2^-l = width[0]
        # (width[1]), and the mid of [a - 2^-l, a + 2^-l] one level up
        k = (np.array([a, b]) * scale).astype(np.int64)
        width = (k & -k) / scale
        x = np.array([a, a - width[0], b, np.minimum(1.0, b + width[1])])
        f = np.zeros(x.shape)
        for c in coeffs if rounds == 0 else coeffs[:, todo]:
            f *= x
            f += c
        ok_a = (a == 0.0) | (f[0] > above[todo]) | (
            (f[0] > 0.0) & ((x[1] == 0.0) | (f[1] > above[todo])))
        ok_b = (b == 1.0) | (f[2] < -2.0 * bound) | (
            (f[2] <= 0.0) & ((x[3] == 1.0) | (f[3] < -2.0 * bound)))
        ok = ok_a & ok_b
        lo[todo[ok]], hi[todo[ok]] = a[ok], b[ok]
        # a pair whose bisection leaves [a, b] through an end, by that
        # end's own sign, moves to the bracket beside it; any other pair
        # moves up to where its failed ends are mids, and at least 2^rounds
        # levels (shifts stop after two rounds, so this ends)
        left, right = (a > 0.0) & (f[0] <= 0.0), (b < 1.0) & (f[2] > 0.0)
        shift = (left ^ right) & (rounds < 2)
        z[todo] += np.where(shift, np.where(left, -1.0, 1.0) / scale, 0.0)
        up = -np.frexp(width)[1]  # the levels l - 1
        up = np.minimum(np.where(ok_a, level[todo], up[0]), np.where(ok_b, level[todo], up[1]))
        level[todo] = np.where(shift, level[todo], np.minimum(up, level[todo] - (1 << rounds)))
        todo, rounds = todo[~ok & (level[todo] > 0)], rounds + 1
    return lo, hi


def _bisect(n: int, i: np.ndarray, j: np.ndarray, needed=None, start=True) -> np.ndarray:
    """Roots z of the pairs (i[k], j[k]) of dimension n, bisected together
    (see the module docstring), each from its certified bracket if
    ``start``, else from [0, 1]; the floats are the same either way.

    The pairs step in lockstep until no interval end moves.  With
    ``needed``, before each step only the pairs whose brackets pass
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
    if start:
        for b in (slice(s, s + rows) for s in range(0, i.size, rows)):
            coeffs = _coefficients(n, i[b], j[b])
            lo[b], hi[b] = _certified(coeffs, n, i[b], j[b])
        if i.size > rows:  # keep only a single block's coefficients
            coeffs = None
    keep = needed(lo, hi) if start and needed is not None else None
    for _ in range(BISECT_ITERATIONS):
        if keep is not None and not keep.all():
            live, lo, hi = live[keep], lo[keep], hi[keep]
            if coeffs is not None:
                coeffs = coeffs[:, keep]
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

    Bisection on Python floats from [0, 1], on the guaranteed sign change
    (value 1 at z=0, negative at z=1 since i + j > n), until a step moves
    neither end.  It takes no certified start, so it is the plain
    bisection that ``exceptional_set`` reproduces bit for bit.
    """
    z = _scalar_root(root_polynomial(n, i, j)[::-1].tolist())
    return ExceptionalRoot(n, i, j, z, float(np.sqrt(z)))


@functools.lru_cache(maxsize=64)
def _index_pairs(n):
    """The index pairs i < j with i + j > n, in lexicographic order, as
    read-only arrays built once per n."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    i, j = np.triu_indices(n, 1)
    keep = i + j > n
    i, j = i[keep], j[keep]
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _roots(n, i, j, z):
    # tuple.__new__ is what ExceptionalRoot._make calls, without the
    # Python-level __new__ per root
    return list(map(tuple.__new__, repeat(ExceptionalRoot), zip(
        repeat(n), i.tolist(), j.tolist(), z.tolist(), np.sqrt(z).tolist())))


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
    s = np.sqrt(_bisect(n, i, j, needed, start=False))
    return bool(np.any(np.abs(nu - s) <= tol) or np.any(np.abs(nu + s) <= tol))


def multiplicity_profile(n: int, nu: float, tol: float = DEFAULT_TOL):
    """Clustered eigenvalue multiplicities of E E* (the values
    nu^2 c_(k+1)(nu)^2 for k = 0..n-1), as (eigenvalue, multiplicity)
    pairs sorted ascending.

    Consecutive sorted values a, b fall into one cluster unless
    |a - b| > tol * max(1, |a|, |b|); the representative is the cluster
    mean."""
    _check_tol(tol)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    try:
        vals = np.sort([(nu * c) ** 2 for c in _ladder(n, nu)[1:]])
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
