"""The benchmark's correctness oracles, run once in this process: every
operation of one rigidity-grid pass and one exceptional-scan pass passes
its check, so a change that breaks one fails here before a benchmark run.
``bench/workloads.py`` is loaded read-only: no bytecode is written next
to it."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("plan", ["rigidity_grid", "exceptional_scan"])
def test_one_pass_passes_every_check(workloads, tmp_path, plan):
    ops = getattr(workloads, plan)(1, tmp_path).ops
    outcomes = [(op.kind, *op.run()) for op in ops]
    assert [o for o in outcomes if o[2] is not None] == []
    assert len(outcomes) == len(ops) > 0
