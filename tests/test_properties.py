"""Property tests: rigidity verdicts on random conjugates and tampers, and
the exceptional roots against the scalar reference computations."""

import itertools

import numpy as np
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
@given(n=st.integers(2, 8), fam=families, seed=st.integers(0, 2**32 - 1))
def test_unitary_conjugate_is_equivalent(n, fam, seed):
    family, nu = fam
    assume(family == "sl2" or abs(nu) == 1.0 or not is_exceptional(n, nu, 1e-6))
    ref = _reference(family, n, nu)
    cand = _conjugate(ref, seed)
    rep = _rigidity(family, cand, n, nu)
    assert rep.verdict == EQUIVALENT, rep.diagnostics
    assert certify_equivalence(cand, ref, rep.global_witness) <= 1e-8


@FEW
@given(n=st.integers(2, 8), fam=families, seed=st.integers(0, 2**32 - 1),
       slot=st.integers(0, 2), entry=st.tuples(st.integers(0, 7), st.integers(0, 7)),
       angle=st.floats(0.0, 2.0 * np.pi))
def test_single_entry_tamper_is_not_equivalent(n, fam, seed, slot, entry, angle):
    family, nu = fam
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
        # a tol that equals the gap between two roots tests the boundary
        a, b = data.draw(st.lists(st.sampled_from(roots), min_size=2, max_size=2))
        tol = abs(a.z - b.z)
    res = corollary_check(n, tol)
    assert (res.ok, res.violations) == _scalar_corollary(roots, tol)
