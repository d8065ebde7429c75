"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured margins (run with ``pytest -s`` to see them)."""

import itertools
import time

import numpy as np
import pytest

from specrig.exceptional import (corollary_check, exceptional_set,
                                 is_exceptional, multiplicity_profile, z_root)
from specrig.generators import (c_coeff, counterexample_tuple,
                                fundamental_generators, relation_residuals,
                                sl2_generators, snu2_generators)
from specrig.linalg import hs_norm
from specrig.rigidity import (EQUIVALENT, certify_equivalence,
                              compression_check, sl2_rigidity, snu2_rigidity)
from specrig.spectrum import det_pencil, lines_of_pair

from conftest import (cofactor_det, poly_value, random_complex, random_phases, random_unitary,
                      showcase_coeffs)

TOL_RIGIDITY = 1e-8

SHOWCASE = showcase_coeffs()  # t(4x^2 + 4yz - t^2)


def conjugated(t, w):
    return tuple(w @ m @ w.conj().T for m in t.matrices)


def test_criterion_1_showcase_polynomial():
    t = sl2_generators(3)
    mats = [t.h, t.e, t.f, -np.eye(3)]
    det_pencil(mats, ("x", "y", "z", "t"), affine=False)  # warm caches
    # the best of 5 calls: one timed sample can be lost to a scheduler pause
    elapsed = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        p = det_pencil(mats, ("x", "y", "z", "t"), affine=False)
        elapsed = min(elapsed, time.perf_counter() - t0)
    err = float(np.abs(p.coeffs - SHOWCASE).max())
    assert err <= 1e-10, f"showcase coefficient error {err:.2e} exceeds 1e-10"
    assert elapsed < 1e-3, (f"showcase det_pencil took {elapsed * 1e3:.3f} ms, "
                            f"bound is 1 ms")
    print(f"\nACCEPTANCE 1 PASS: n=3 showcase det = t(4x^2+4yz-t^2), "
          f"coeff error {err:.2e}, runtime {elapsed * 1e3:.3f} ms")


def test_criterion_2_counterexample_reproduction():
    worst_err, worst_comm = 0.0, np.inf
    for params in [(1.0, 2.0, 2.0, 1.0), (2.0, 1.0, 1.0, 2.0)]:
        t = counterexample_tuple(*params)
        p = det_pencil([t.h, t.e, t.f, -np.eye(3)], ("x", "y", "z", "t"),
                       affine=False)
        err = float(np.abs(p.coeffs - SHOWCASE).max())
        comm_gap = hs_norm((t.e @ t.f - t.f @ t.e) - t.h)
        assert err <= 1e-10
        assert comm_gap >= 1.0
        worst_err = max(worst_err, err)
        worst_comm = min(worst_comm, comm_gap)
    print(f"\nACCEPTANCE 2 PASS: counterexamples share the spectrum "
          f"(coeff error {worst_err:.2e}) with ||[A2,A3]-A1|| >= {worst_comm:.2f}")


def test_criterion_3_commutation_relations():
    worst_fund = 0.0
    for nu in (0.3, -0.3, 0.9, -0.9, 1.0):
        res = relation_residuals(fundamental_generators(nu), "paper")
        worst_fund = max(worst_fund, res.r1, res.r2, res.r3)
        assert max(res.r1, res.r2, res.r3) <= 1e-10
    worst_ladder = 0.0
    for n in range(2, 13):
        for nu in (0.3, 0.5, 0.9):
            res = relation_residuals(snu2_generators(n, nu), "swapped")
            # residuals judged against the operand magnitudes: at n=12,
            # nu=0.3 the products reach 1e12, where an absolute 1e-10 is
            # below the float64 floor
            worst_ladder = max(worst_ladder, res.max_relative())
            assert res.max_relative() <= 1e-10
    split = relation_residuals(snu2_generators(2, 0.5), "paper")
    assert split.r1 >= 0.1
    print(f"\nACCEPTANCE 3 PASS: fundamental(paper) residual {worst_fund:.2e}, "
          f"ladder(swapped) relative residual {worst_ladder:.2e}, "
          f"orientation split r1 = {split.r1:.3f} >= 0.1")


def test_criterion_4_spectrum_lines():
    worst = 0.0
    cases = 0
    for n in range(2, 11):
        for nu in (0.3, 0.5, -0.7):
            t = snu2_generators(n, nu)
            arr, certified = lines_of_pair(t.h, t.e @ t.e.conj().T, tol=1e-9)
            assert certified, (n, nu)
            got = sorted((l.coeffs[0].real, l.coeffs[1].real)
                         for l in arr.lines for _ in range(l.mult))
            expected = sorted((np.diag(t.h)[j].real,
                               (nu * c_coeff(n, j + 1, nu)) ** 2)
                              for j in range(n))
            for (lg, mg), (le, me) in zip(got, expected):
                scale = max(1.0, abs(le), abs(me))
                gap = max(abs(lg - le), abs(mg - me)) / scale
                worst = max(worst, gap)
                assert gap <= 1e-9
            cases += 1
    print(f"\nACCEPTANCE 4 PASS: {cases} ladder pairs certified as line "
          f"arrangements, slope error {worst:.2e}")


def _roundtrip_protocol(family, make_ref, run_driver, rng, trials=200):
    """Shared criterion 5/6 protocol: half diagonal-phase, half
    full-unitary conjugations; returns (count, worst certified residual)."""
    worst = 0.0
    count = 0
    for ref, args in make_ref:
        n = ref.n
        for trial in range(trials):
            if trial % 2 == 0:
                w = np.diag(random_phases(rng, n, fix_first=False))
            else:
                w = random_unitary(rng, n)
            cand = conjugated(ref, w)
            rep = run_driver(cand, *args)
            assert rep.verdict == EQUIVALENT, (family, args, trial, rep.diagnostics)
            cert = certify_equivalence(cand, ref, rep.global_witness, TOL_RIGIDITY)
            assert cert <= TOL_RIGIDITY
            worst = max(worst, cert, rep.residual)
            count += 1
    return count, worst


def _tamper_protocol(make_cases, rng, fixtures=50):
    """Single-entry tampering at 1e-6 (scaled by the slot magnitude so
    the perturbation is visible at every ladder scale); every tampered
    fixture must flip the verdict."""
    flipped = 0
    for _ in range(fixtures):
        ref, run_driver, args = make_cases[int(rng.integers(len(make_cases)))]
        n = ref.n
        w = random_unitary(rng, n)
        cand = [m.copy() for m in conjugated(ref, w)]
        slot = int(rng.integers(3))
        i, j = int(rng.integers(n)), int(rng.integers(n))
        delta = 1e-6 * max(1.0, hs_norm(cand[slot]))
        cand[slot][i, j] += delta * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rep = run_driver(tuple(cand), *args)
        assert rep.verdict != EQUIVALENT, (args, slot, i, j)
        flipped += 1
    return flipped


def test_criterion_5_rigidity_roundtrip_snu2():
    rng = np.random.default_rng(50)
    grid = []
    for n in range(2, 11):
        for nu in (0.3, -0.7, 1.0):
            if abs(nu) != 1.0 and is_exceptional(n, nu, tol=1e-9):
                continue  # excluded by construction; never hit on this grid
            ref = snu2_generators(n, nu)
            grid.append((ref, (n, nu, TOL_RIGIDITY)))
    assert len(grid) == 27

    def driver(cand, n, nu, tol):
        return snu2_rigidity(cand, n, nu, tol)

    count, worst = _roundtrip_protocol("snu2", grid, driver, rng, trials=200)
    tampered = _tamper_protocol([(ref, driver, args) for ref, args in grid],
                                rng, fixtures=50)
    print(f"\nACCEPTANCE 5 PASS: {count} roundtrips equivalent "
          f"(worst residual {worst:.2e}), {tampered}/50 tampered fixtures flipped")


def test_criterion_6_rigidity_roundtrip_sl2():
    rng = np.random.default_rng(60)
    grid = [(sl2_generators(n), (n, TOL_RIGIDITY)) for n in range(2, 11)]

    def driver(cand, n, tol):
        return sl2_rigidity(cand, n, tol)

    count, worst = _roundtrip_protocol("sl2", grid, driver, rng, trials=200)
    tampered = _tamper_protocol([(ref, driver, args) for ref, args in grid],
                                rng, fixtures=50)
    lines = 0
    for n in range(2, 11):
        t = sl2_generators(n)
        b = t.e @ t.f
        for j in range(n - 1):
            assert compression_check(t.h, b, n - 1 - 2 * j, (j + 1) * (n - 1 - j))
            lines += 1
    print(f"\nACCEPTANCE 6 PASS: {count} sl2 roundtrips equivalent "
          f"(worst residual {worst:.2e}), {tampered}/50 tampered flipped, "
          f"{lines} compression lines verified")


def test_criterion_7_exceptional_set():
    r = z_root(4, 2, 3)
    assert 0.754877 < r.z < 0.754878
    assert abs(r.z**3 + r.z**2 - 1.0) <= 1e-12

    worst_mult_eq = 0.0
    profiles = 0
    for n in range(2, 13):
        roots = exceptional_set(n)
        for root in roots:
            val = abs(1.0 + root.z**n - root.z ** (n - root.j)
                      - root.z ** (n - root.i))
            worst_mult_eq = max(worst_mult_eq, val)
            assert val <= 1e-11
            mults = sorted(m for _, m in multiplicity_profile(n, root.nu))
            assert mults == [1] * (n - 2) + [2], (n, root)
        assert corollary_check(n)
        for a, b, c in itertools.combinations(roots, 3):
            assert not (abs(a.z - b.z) <= 1e-10 and abs(b.z - c.z) <= 1e-10)
        # classical pairing at nu = 1: doubles exactly for i + j = n
        doubles = sum(1 for _, m in multiplicity_profile(n, 1.0) if m == 2)
        assert doubles == (n - 1) // 2
        profiles += 1
    print(f"\nACCEPTANCE 7 PASS: z_23(4) = {r.z:.10f}, multiplicity-equation "
          f"residual {worst_mult_eq:.2e}, profiles and corollary checked for "
          f"n <= 12 ({profiles} dimensions)")


def test_criterion_8_commuting_pairs_certify():
    rng = np.random.default_rng(80)
    certified = 0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        w = random_unitary(rng, n)
        a = w @ np.diag(rng.normal(size=n)).astype(complex) @ w.conj().T
        b = w @ np.diag(rng.normal(size=n)).astype(complex) @ w.conj().T
        _, ok = lines_of_pair(a, b)
        assert ok
        certified += 1
    _, conic_ok = lines_of_pair(np.diag([1.0, -1.0]).astype(complex),
                                np.array([[0, 1], [1, 0]], dtype=complex))
    assert not conic_ok
    print(f"\nACCEPTANCE 8 PASS: {certified}/100 commuting Hermitian pairs "
          f"certified; the sigma_x conic pair refused")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        mats = [random_complex(rng, n) for _ in range(k)]
        p = det_pencil(mats)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=k)
            pencil = sum(xi * m for xi, m in zip(x, mats)) - np.eye(n)
            oracle = cofactor_det(pencil)
            rel = abs(poly_value(p.coeffs, x) - oracle) / max(1.0, abs(oracle))
            worst = max(worst, rel)
            assert rel <= 1e-9
    print(f"\nACCEPTANCE 9 PASS: 50 random pencils match the cofactor "
          f"oracle, worst relative error {worst:.2e}")
