"""A slice of ``tools/census.py``'s grid class under its own invariants:
every plain conjugate is ``equivalent`` and no tamper of a size in
``GRID_FLIPS`` is.  The cases are drawn from the census's own generator
at n in {2, 3}, so the slice cannot drift from it.  The exceptional
class runs whole: each ``is_exceptional`` answer must be the full
scan's.  ``tools/census.py`` is loaded read-only, so no bytecode is
written next to it."""

import importlib.util
import io
import sys
import warnings
from pathlib import Path

import pytest

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
    """(id, family, n, nu, tol, candidate, expected) of the grid cases at
    ``SLICE_N`` whose verdict the census checks: the plain conjugates and
    the ``GRID_FLIPS`` tampers."""
    for case_id, _, family, n, nu, tol, cand, expected in census._grid(census.SEED):
        if n in SLICE_N and expected is not None:
            yield case_id, family, n, nu, tol, cand, expected


def test_grid_slice_keeps_the_invariants(census):
    offending, count = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case_id, family, n, nu, tol, cand, expected in _slice(census):
            verdict, _, residual, _ = census.run_case(family, n, nu, tol, cand)
            if (verdict == EQUIVALENT) != expected:
                offending.append(case_id)
            # the record's residual is the certified one, and only an equivalent's
            if verdict == EQUIVALENT:
                assert 0.0 <= residual <= tol, case_id
            else:
                assert residual is None, case_id
            count += 1
    # 14 points x 3 conjugates, each plain and with its flip tampers
    assert count == 3 * (7 * (1 + 2 * 3 * 4) + 7 * (1 + 2 * 3 * 9))
    assert offending == []


def test_exceptional_class_matches_the_full_scan(census):
    # the whole class: every is_exceptional answer is the full scan's
    records, offending = census.census(["exceptional"], census.SEED, io.StringIO())
    assert offending == []
    assert len(records) == 19 * 5 * 43
    assert {r["verdict"] for r in records} == {"exceptional", "not exceptional"}
