"""Property tests: rigidity verdicts on random conjugates and tampers, and
the exceptional roots against the scalar reference computations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specrig.exceptional import (corollary_check, exceptional_set, is_exceptional,
                                 z_root)
from specrig.generators import sl2_generators, snu2_generators
from specrig.linalg import hs_norm
from specrig.rigidity import EQUIVALENT, certify_equivalence, sl2_rigidity, snu2_rigidity

from conftest import random_unitary

TOL = 1e-9
FEW = settings(derandomize=True, max_examples=12, deadline=None)

families = st.one_of(
    st.tuples(st.just("snu2"),
              st.floats(0.2, 1.0) | st.floats(-1.0, -0.2)),
    st.tuples(st.just("sl2"), st.none()))

# (n, (family, nu)): the families above at n <= 8, and small |nu|, where
# the lower ladder diagonal clusters below float64 resolution, at n <= 24
cases = (st.tuples(st.integers(2, 8), families)
         | st.tuples(st.integers(2, 24),
                     st.tuples(st.just("snu2"),
                               st.floats(0.01, 0.2) | st.floats(-0.2, -0.01))))


def _reference(family, n, nu):
    return sl2_generators(n) if family == "sl2" else snu2_generators(n, nu)


def _rigidity(family, cand, n, nu):
    if family == "sl2":
        return sl2_rigidity(cand, n, TOL)
    return snu2_rigidity(cand, n, nu, TOL)


def _conjugate(ref, seed):
    w = random_unitary(np.random.default_rng(seed), ref.e.shape[0])
    return tuple(w @ m @ w.conj().T for m in ref.matrices)


@FEW
@given(case=cases, seed=st.integers(0, 2**32 - 1))
def test_unitary_conjugate_is_equivalent(case, seed):
    n, (family, nu) = case
    assume(family == "sl2" or abs(nu) == 1.0 or not is_exceptional(n, nu, 1e-6))
    ref = _reference(family, n, nu)
    cand = _conjugate(ref, seed)
    rep = _rigidity(family, cand, n, nu)
    assert rep.verdict == EQUIVALENT, rep.diagnostics
    assert certify_equivalence(cand, ref, rep.global_witness) <= 1e-8


@FEW
@given(case=cases, seed=st.integers(0, 2**32 - 1),
       slot=st.integers(0, 2), entry=st.tuples(st.integers(0, 23), st.integers(0, 23)),
       angle=st.floats(0.0, 2.0 * np.pi))
def test_single_entry_tamper_is_not_equivalent(case, seed, slot, entry, angle):
    n, (family, nu) = case
    ref = _reference(family, n, nu)
    cand = [m.copy() for m in _conjugate(ref, seed)]
    i, j = entry[0] % n, entry[1] % n
    cand[slot][i, j] += 1e-6 * max(1.0, hs_norm(cand[slot])) * np.exp(1j * angle)
    assert _rigidity(family, tuple(cand), n, nu).verdict != EQUIVALENT


# --- the scalar computations that the array code must reproduce exactly ---

def _scalar_z(n, i, j):
    """One pair's bisection, 200 steps of a Horner evaluation each."""
    coeffs = np.zeros(n)
    coeffs[0:n - j] = 1.0
    coeffs[n - i:n] = -1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * mid + c
        if float(acc) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_corollary(roots, tol):
    """(ok, violations) from every pair and every triple of roots."""
    violations = []
    for r1, r2 in itertools.combinations(roots, 2):
        if abs(r1.z - r2.z) > tol:
            continue
        a, b = (r1, r2) if r1.i < r2.i else (r2, r1)
        if not (a.j > b.j and (b.i - a.i) > (a.j - b.j)):
            violations.append(("ordering", (a.i, a.j), (b.i, b.j), a.z))
    for r1, r2, r3 in itertools.combinations(roots, 3):
        if abs(r1.z - r2.z) <= tol and abs(r2.z - r3.z) <= tol:
            violations.append(("triple", (r1.i, r1.j), (r2.i, r2.j),
                               (r3.i, r3.j), r1.z))
    return not violations, violations


def _close_pair_corollary(roots, tol, pairs=None):
    """``_scalar_corollary`` with its triples built from the close pairs
    (r1 < r2 < r3 with r1, r2 and r2, r3 within tol), for dimensions
    where the C(R, 3) triples are too many to enumerate.  ``pairs``
    (index pairs p < q, ascending) narrows the pairs tested."""
    violations, above = [], {}
    for p, q in itertools.combinations(range(len(roots)), 2) if pairs is None else pairs:
        r1, r2 = roots[p], roots[q]
        if abs(r1.z - r2.z) > tol:
            continue
        above.setdefault(p, []).append(q)
        a, b = (r1, r2) if r1.i < r2.i else (r2, r1)
        if not (a.j > b.j and (b.i - a.i) > (a.j - b.j)):
            violations.append(("ordering", (a.i, a.j), (b.i, b.j), a.z))
    for l, m, u in sorted((l, m, u) for l, ms in above.items() for m in ms
                          for u in above.get(m, ())):
        r1, r2, r3 = roots[l], roots[m], roots[u]
        violations.append(("triple", (r1.i, r1.j), (r2.i, r2.j), (r3.i, r3.j), r1.z))
    return not violations, violations


@settings(derandomize=True, max_examples=8, deadline=None)
@given(n=st.integers(2, 24))
def test_exceptional_set_and_z_root_match_scalar_bisection(n):
    roots = exceptional_set(n)
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if i + j > n]
    assert [(r.i, r.j) for r in roots] == pairs
    for r in roots:
        z = _scalar_z(n, r.i, r.j)
        assert (r.z.hex(), r.nu.hex()) == (z.hex(), float(np.sqrt(z)).hex())
        assert z_root(n, r.i, r.j) == r


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(2, 22), tol=st.sampled_from([1e-10, 1e-4, 1e-3, 1e-2, 5e-2]),
       data=st.data())
def test_corollary_check_matches_pair_and_triple_loops(n, tol, data):
    roots = exceptional_set(n)
    if len(roots) >= 2 and data.draw(st.booleans()):
        # a tol that equals the gap between two roots tests the boundary;
        # two distinct roots, as a tol of 0 is rejected (no two coincide)
        a, b = data.draw(st.lists(st.sampled_from(roots), min_size=2, max_size=2,
                                  unique=True))
        tol = abs(a.z - b.z)
    res = corollary_check(n, tol)
    assert (res.ok, res.violations) == _scalar_corollary(roots, tol)


@pytest.mark.parametrize("n", [12, 18, 22])
@pytest.mark.parametrize("tol", [1e-10, 1e-3, 5e-2])
def test_close_pair_oracle_matches_pair_and_triple_loops(n, tol):
    roots = exceptional_set(n)
    assert _close_pair_corollary(roots, tol) == _scalar_corollary(roots, tol)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(23, 40), tol=st.sampled_from([1e-10, 1e-4, 1e-3]), data=st.data())
def test_corollary_check_above_n22_matches_close_pair_loop(n, tol, data):
    # a tol of 1e-2 or more makes 1e5 to 1e7 close triples here (n = 40),
    # so the boundary tol is a gap between sorted neighbours
    roots = exceptional_set(n)
    if data.draw(st.booleans()):
        zs = sorted(r.z for r in roots)
        k = data.draw(st.integers(0, len(zs) - 2))
        tol = zs[k + 1] - zs[k]
    res = corollary_check(n, tol)
    assert (res.ok, res.violations) == _close_pair_corollary(roots, tol)


def test_corollary_check_n200_matches_full_scan():
    # the pairs within 2 tol of each other in sorted order hold every pair
    # within tol; the full scan then tests each of them exactly
    n, tol = 200, 1e-10
    roots = exceptional_set(n)
    z = np.array([r.z for r in roots])
    order = np.argsort(z)
    ends = np.searchsorted(z[order], z[order] + 2 * tol, side="right")
    pairs = sorted((min(p, q), max(p, q)) for k, p in enumerate(order.tolist())
                   for q in order[k + 1:ends[k]].tolist())
    res = corollary_check(n, tol)
    assert (res.ok, res.violations) == _close_pair_corollary(roots, tol, pairs)


@pytest.mark.parametrize("n", [36, 40])
def test_corollary_check_at_n40_matches_pair_loop(n):
    roots = exceptional_set(n)
    gaps = np.diff(np.sort([r.z for r in roots]))
    for tol in (1e-10, 1e-4, 1e-3, float(gaps.min()), float(np.median(gaps))):
        res = corollary_check(n, tol)
        assert (res.ok, res.violations) == _close_pair_corollary(roots, tol)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(n=st.integers(2, 40), tol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.3, 2.0, 1e160]),
       data=st.data())
def test_is_exceptional_matches_full_scan(n, tol, data):
    # parameters at a band edge (+-sqrt(z) +- tol, +-1/sqrt(2) +- tol or
    # +-tol, where a band end lies below every root, then a few ulps either
    # way), anywhere in [-3, 3], a signed zero, or huge; at tol 2.0 both
    # signs of every root are in reach of |nu| < 2
    nus = [1.0] + [r.nu for r in exceptional_set(n)]
    kind = data.draw(st.sampled_from(["edge", "half", "tol", "wide", "zero", "huge"]))
    if kind in ("edge", "half", "tol"):
        centre = {"edge": st.sampled_from(nus), "half": st.just(math.sqrt(0.5)),
                  "tol": st.just(0.0)}[kind]
        nu = (data.draw(centre) * data.draw(st.sampled_from([1.0, -1.0]))
              + data.draw(st.sampled_from([-tol, 0.0, tol])))
        steps = data.draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            nu = math.nextafter(nu, math.copysign(3.0, steps))
    elif kind == "huge":
        nu = data.draw(st.sampled_from([1e200, -1e200, 1e300, -1e300]))
    else:
        nu = data.draw(st.floats(-3.0, 3.0) if kind == "wide" else st.sampled_from([0.0, -0.0]))
    scan = any(abs(nu - s) <= tol or abs(nu + s) <= tol for s in nus)
    assert is_exceptional(n, nu, tol) == scan
