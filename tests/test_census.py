"""A slice of ``tools/census.py``'s grid class under its own invariants:
every plain conjugate is ``equivalent`` and no tamper of a size in
``GRID_FLIPS`` is.  The cases are the census's own (same seeds, same
draws) at n in {2, 3}; ``tools/census.py`` is loaded read-only, so no
bytecode is written next to it."""

import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from specrig.generators import sl2_generators, snu2_generators
from specrig.linalg import hs_norm
from specrig.rigidity import EQUIVALENT

CENSUS = Path(__file__).resolve().parents[1] / "tools" / "census.py"
SLICE_N = (2, 3)


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _slice(census):
    """(id, family, n, nu, candidate, expected) of the grid cases at
    ``SLICE_N``: each conjugate's seed counts up from ``SEED`` over the
    grid's points as the census counts it, and its tamper phases are drawn
    for every size in ``GRID_SIZES``, of which the ``GRID_FLIPS`` run."""
    points = [("snu2", n, nu) for n in census.GRID_N for nu in census.GRID_NU]
    points += [("sl2", n, None) for n in census.GRID_N]
    for p, (family, n, nu) in enumerate(points):
        if n not in SLICE_N:
            continue
        ref = snu2_generators(n, nu) if family == "snu2" else sl2_generators(n)
        for conj in range(3):
            rng = np.random.default_rng(census.SEED + 3 * p + conj)
            mats = census._conjugated(ref.matrices, census._unitary(rng, n))
            shape = (len(census.GRID_SIZES), 3, n, n)
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))
            head = f"grid/{family}/n{n}/nu{nu}/c{conj}"
            yield f"{head}/plain", family, n, nu, mats, True
            for s, size in enumerate(census.GRID_SIZES):
                if size not in census.GRID_FLIPS:
                    continue
                for slot, i, j in np.ndindex(3, n, n):
                    cand = list(mats)
                    cand[slot] = mats[slot].copy()
                    cand[slot][i, j] += size * max(1.0, hs_norm(mats[slot])) \
                        * phases[s, slot, i, j]
                    yield (f"{head}/{size:g}/A{slot + 1}[{i},{j}]", family, n, nu, cand,
                           False)


def test_grid_slice_keeps_the_invariants(census):
    offending, count = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case_id, family, n, nu, cand, expected in _slice(census):
            verdict, _, residual, _ = census.run_case(family, n, nu, census.GRID_TOL, cand)
            if (verdict == EQUIVALENT) != expected:
                offending.append(case_id)
            # the record's residual is the certified one, and only an equivalent's
            if verdict == EQUIVALENT:
                assert 0.0 <= residual <= census.GRID_TOL, case_id
            else:
                assert residual is None, case_id
            count += 1
    # 14 points x 3 conjugates, each plain and with its flip tampers
    assert count == 3 * (7 * (1 + 2 * 3 * 4) + 7 * (1 + 2 * 3 * 9))
    assert offending == []
