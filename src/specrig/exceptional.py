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

The R ~ n^2/4 pairs of a dimension are bisected as arrays.  A step is
the scalar one for every pair: mid = 0.5 (lo + hi), Horner
acc = acc * mid + c over the degrees n-1 .. 0 (a multiply, then an add:
no FMA), then keep the half where acc > 0.  So each root is the same
float, bit for bit, as one pair's bisection from [0, 1] gives
(``z_root``, on Python floats: there a numpy call per degree would cost
5-10 times the arithmetic it does).  Bisection stops at the first step
that moves no interval end: from there mid rounds to an end and every
later step repeats it, so ``BISECT_ITERATIONS`` is only a cap.  Each
block of ``_BLOCK // n`` pairs (``_blocks``) is bisected on its own: it
builds its coefficients once and steps to its own fixed point, so the
working memory stays within about ``_BLOCK`` floats however large n is.

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
question and bisect only the pairs that a bound cannot settle, so their
answers are those of the full bisection, bit for bit:

- ``is_exceptional`` sweeps once.  Rounded sqrt and subtraction are
  monotone, so the floats z of [0, 1] with |fl(nu - fl(sqrt z))| <= tol
  form a band [z_a, z_b] (``_band``; likewise for -nu), whose ends
  ``_edge`` finds by testing that condition beside fl((nu -+ tol)^2); an
  end not within 8 floats (nu +- tol nearly cancels) is bisected over
  the floats' bit patterns, in at most 63 more tests.  f~ = S_(n-j) -
  (S_n - S_(n-i)) from running sums of running powers
  (``_power_sums``) is within 4E of f: each S_m is within
  gamma_(2n-3) S_m <= E of its value, and the two subtractions add at
  most 3nu(1 + 2 gamma_2n)(1 + u) <= E (underflow aside).  The
  bisection keeps f^ > 0 at lo and f^ <= 0 at hi, and its root is lo or
  hi where no float lies between them, so by the bounds above f~(p) >
  (n-j+4) E puts the root at or above p, and f~(p) < -5E at or below p.
  A pair so placed in [z_a, z_b] answers True; one at or below z_a^- or
  at or above z_b^+ (the floats beside the ends) of every band is out
  (beside an end 0 or 1, f~ is about 1 or n-i-j and rules nothing out);
  only the rest are bisected and tested with np.sqrt.
- ``corollary_check`` certifies every pair, a block at a time, prunes
  once on those brackets and bisects only the survivors (none at n = 12,
  16, 24, 40 and 64; 6 of 9801 at n = 200).  Every bracket has ends
  k 2^-l in [0, 1] with l <= 53, so lo_q - hi_p is exact and bounds
  |z_q - z_p| from below.  In lo order, a pair with brackets more than
  tol away on both sides (the largest hi before it, the next lo after
  it) can join no close pair.  The survivors' roots are sorted once and
  scanned for neighbours within ``tol``, instead of testing every pair
  and triple.

A block of up to ``_SCALAR_PAIRS`` pairs (all of them for n <= 13, where
that beats the array steps) runs on ``z_root``'s loop from its brackets.

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
import struct
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .generators import _ladder, _overflow
from .linalg import DEFAULT_TOL, _check_tol

BISECT_ITERATIONS = 200
_BLOCK = 2 ** 18  # coefficient floats per block of pairs (2 MB)
_SCALAR_PAIRS = 32  # a block of at most this many pairs is bisected on Python floats


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


def _coefficients(n, i, j):
    """(n, pairs) array; row k multiplies z^(n-1-k), Horner order."""
    degrees = np.arange(n - 1, -1, -1)[:, None]
    coeffs = np.zeros((n, i.size))
    coeffs[degrees < n - j] = 1.0
    coeffs[degrees >= n - i] = -1.0
    return coeffs


def _error_bound(n):
    """E = n gamma_2n, which bounds |f^ - f| on [0, 1] (module docstring)."""
    return n * (2 * n * 2.0 ** -53) / (1.0 - 2 * n * 2.0 ** -53)


def _step(coeffs, lo, hi):
    """One bisection step of every column of ``coeffs``: the new (lo, hi)."""
    mid = 0.5 * (lo + hi)
    acc = np.zeros(mid.size)
    for c in coeffs:
        acc *= mid
        acc += c
    pos = acc > 0.0
    return np.where(pos, mid, lo), np.where(pos, hi, mid)


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
    bound = _error_bound(n)
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


def _blocks(n, size):
    """Consecutive slices over ``size`` pairs, ``_BLOCK // n`` (at least one)
    each, so that a block's coefficients take at most about ``_BLOCK`` floats."""
    rows = max(1, _BLOCK // n)
    return (slice(s, s + rows) for s in range(0, size, rows))


def _bisect(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Roots z of the pairs (i[k], j[k]) of dimension n (see the module
    docstring), bisected a block of pairs at a time.

    A block's pairs start from their certified brackets and step in
    lockstep until no interval end moves; a block of ``_SCALAR_PAIRS`` or
    fewer finishes on Python floats from its brackets instead."""
    out = np.empty(i.size)
    for b in _blocks(n, i.size):
        coeffs = _coefficients(n, i[b], j[b])
        lo, hi = _certified(coeffs, n, i[b], j[b])
        if lo.size <= _SCALAR_PAIRS:
            out[b] = [_scalar_root(c, x, y)
                      for c, x, y in zip(coeffs.T.tolist(), lo.tolist(), hi.tolist())]
            continue
        for _ in range(BISECT_ITERATIONS):
            new_lo, new_hi = _step(coeffs, lo, hi)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        out[b] = 0.5 * (lo + hi)
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
    _check_indices(n, i, j)
    z = _scalar_root(_coefficients(n, np.array([i]), np.array([j]))[:, 0].tolist())
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
    are not listed."""
    i, j = _index_pairs(n)
    return _roots(n, i, j, _bisect(n, i, j))


def _edge(holds, z, toward):
    """For a predicate that holds on the floats of [0, 1] from the end
    1 - ``toward`` up to one edge, the last float from ``z`` toward
    ``toward`` (0.0 or 1.0) at which it holds: +inf (toward 0) or -inf
    (toward 1) if it holds nowhere.  The 8 floats after ``z`` are tested
    in turn; an edge beyond them is bisected over the bit patterns, which
    order the floats of [0, 1] as their values do."""
    inside = holds(z)
    end = toward if inside else 1.0 - toward
    for _ in range(8):
        if z == end:
            return z if inside else math.copysign(math.inf, end - toward)
        if holds(nxt := math.nextafter(z, end)) != inside:
            return z if inside else nxt
        z = nxt
    # bisect between z, where holds(z) == inside, and the bit pattern one
    # past end, taken as the first where it is not
    last, stop = _bits(z), _bits(end)
    first = stop + (1 if stop >= last else -1)
    while abs(first - last) > 1:
        mid = (last + first) // 2
        if holds(_float(mid)) == inside:
            last = mid
        else:
            first = mid
    if last == stop:
        return end if inside else math.copysign(math.inf, end - toward)
    return _float(last if inside else first)


def _bits(z):
    return struct.unpack("<q", struct.pack("<d", z))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _band(m, tol):
    """The floats z of [0, 1] with |fl(m - fl(sqrt z))| <= tol, as their
    least and greatest (z_a, z_b), by ``_edge``: empty if z_a > z_b."""
    lo, hi = max(0.0, m - tol), max(0.0, m + tol)
    return (_edge(lambda z: m - math.sqrt(z) <= tol, min(1.0, lo * lo), 0.0),
            _edge(lambda z: m - math.sqrt(z) >= -tol, min(1.0, hi * hi), 1.0))


def _power_sums(n, x):
    """s[p, m] = 1 + x_p + ... + x_p^(m-1) for m = 0..n: a running sum of
    the running products."""
    s, powers = np.zeros((len(x), n + 1)), np.ones((len(x), n))
    powers[:, 1:] = np.reshape(x, (-1, 1))
    np.cumsum(np.cumprod(powers, axis=1), axis=1, out=s[:, 1:])
    return s


def is_exceptional(n: int, nu: float, tol: float = DEFAULT_TOL) -> bool:
    """Whether nu lies within tol of an exceptional parameter of
    dimension n: +-1, or +-nu of a root in ``exceptional_set(n)``.  One
    sweep at the ends of the band of such roots places most pairs, only
    the others are bisected (see the module docstring), and the answer is
    the full scan's.  A NaN nu is never exceptional."""
    _check_tol(tol)
    i, j = _index_pairs(n)
    if abs(nu - 1.0) <= tol or abs(nu + 1.0) <= tol:
        return True
    if math.isnan(nu):
        return False
    nu = float(nu)
    x = [z for a, b in (_band(m, tol) for m in (nu, -nu)) if a <= b
         for z in (math.nextafter(a, -1.0), a, b, math.nextafter(b, 2.0))]
    s, bound = _power_sums(n, x), _error_bound(n)
    undecided = np.empty(i.size, dtype=bool)
    for blk in _blocks(n, i.size):
        f = s[:, n - j[blk]] - (s[:, n:] - s[:, n - i[blk]])  # f~ at each x
        f, above = f.reshape(-1, 4, f.shape[1]), (n - j[blk] + 4) * bound
        if ((f[:, 1] > above) & (f[:, 2] < -5.0 * bound)).any():
            return True
        undecided[blk] = ~((f[:, 0] < -5.0 * bound) | (f[:, 3] > above)).all(axis=0)
    if not undecided.any():
        return False
    s = np.sqrt(_bisect(n, i[undecided], j[undecided]))
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
        vals = sorted([(nu * c) ** 2 for c in _ladder(n, nu)[1:]])
    except OverflowError:
        raise _overflow(n, nu) from None
    # on Python floats: numpy calls on n values cost more than the work;
    # the values are >= 0, so max(1, |a|, |b|) is max(1, b)
    starts = [0] + [k for k in range(1, n) if not vals[k] - vals[k - 1] <= tol * max(1.0, vals[k])]
    counts = [b - a for a, b in zip(starts, starts[1:] + [n])]
    return [(v / c, c) for v, c in zip(np.add.reduceat(vals, starts).tolist(), counts)]


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
    lo, hi = np.empty(i.size), np.empty(i.size)
    for b in _blocks(n, i.size):
        lo[b], hi[b] = _certified(_coefficients(n, i[b], j[b]), n, i[b], j[b])
    # in lo order, near[k] says a bracket before gap k may come within tol
    # of one after it; only a pair with a near gap beside it is bisected
    order = np.argsort(lo)
    near = np.zeros(i.size + 1, dtype=bool)
    near[1:-1] = lo[order[1:]] - np.maximum.accumulate(hi[order[:-1]]) <= tol
    keep = np.empty(i.size, dtype=bool)
    keep[order] = near[:-1] | near[1:]
    i, j = i[keep], j[keep]  # still in lexicographic order
    z = _bisect(n, i, j)
    roots = _roots(n, i, j, z)
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
