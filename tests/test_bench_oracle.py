"""The benchmark's correctness oracles, run once in this process: every
operation of one rigidity-grid pass, one exceptional-scan pass and one
cli-clean pass passes its check, so a change that breaks one fails here
before a benchmark run; and the tracer counts what a pass builds.
``bench/workloads.py`` and ``bench/layers.py`` are loaded read-only: no
bytecode is written next to them."""

import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from specrig import rigidity

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
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


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


@pytest.mark.parametrize("plan", ["rigidity_grid", "exceptional_scan"])
def test_one_pass_passes_every_check(workloads, tmp_path, plan):
    ops = getattr(workloads, plan)(1, tmp_path).ops
    outcomes = [(op.kind, *op.run()) for op in ops]
    assert [o for o in outcomes if o[2] is not None] == []
    assert len(outcomes) == len(ops) > 0


def test_cli_clean_pass_passes_every_check(workloads, tmp_path, monkeypatch):
    # set-up writes the fixtures with ``specrig gen`` child processes, which
    # import specrig from src; the pass (det, lines, compare, rigidity and
    # exceptional) is then replayed through ``cli.main`` in this process
    src = str(Path(__file__).resolve().parents[1] / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    plan = workloads.cli_clean(1, tmp_path)
    outcomes = [(op.kind, *op.run()) for op in plan.replay]
    assert [o for o in outcomes if o[2] is not None] == []
    assert sorted(kind for kind, *_ in outcomes) == sorted(op.kind for op in plan.ops)
    assert {"det", "lines", "compare", "rigidity"} <= {kind for kind, *_ in outcomes}


def test_tracer_counts_each_reference_build(workloads, layers, tmp_path):
    # the tracer wraps the generators where rigidity looks them up: a pass
    # on cold caches builds each of the grid's 27 snu2 and 9 sl2 references
    # once, and a second pass, on warm caches, builds none
    ops = workloads.rigidity_grid(1, tmp_path).ops
    rigidity._reference.cache_clear()
    rigidity._verification.cache_clear()
    builds = []
    for _ in range(2):
        tracer = layers.Tracer()
        tracer.install()
        try:
            for index, op in enumerate(ops):
                tracer.op = index
                op.run()
        finally:
            tracer.uninstall()
        builds.append(Counter(ops[op_id].kind.split("-")[0]
                              for name, _, op_id, _, _ in tracer.spans
                              if name == "generators.reference_build"))
    assert builds == [Counter(snu2=27, sl2=9), Counter()]
