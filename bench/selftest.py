"""Self-test of the benchmark: the same seed gives the same run.

    python3 bench/selftest.py

For every workload, two set-ups from seed 1 must produce identical
inputs (fingerprint of every generated matrix, query and fixture file),
and one traced pass of each must give the identical outcome sequence
(verdicts, failing steps) and identical counts (calls per layer and the
"computed" counts) and the identical failures.  Seed 2 must give other
inputs, and its counts must repeat exactly from one pass to the next.
On the workloads of ``BENCHMARK.json`` every operation of both seeds
must pass its check, and the multiplicity profile must pass at every
root ``exceptional_set`` returns for the dimensions exceptional-scan
draws its profile queries from, so that no seed can pick a failing one.
rigidity-large is checked on its inputs only: one of its passes takes
several seconds.
``BENCHMARK.json`` must name only workloads the runner knows and list
exactly the per-layer metrics ``layers.py`` reports.  Exits 1 on the
first mismatch.
"""

import json
import shutil
import sys

import run  # sets the BLAS threads and the import path first
import layers
import workloads


def traced_pass(plan):
    """One pass under the tracer; the in-process replay for the CLI workloads."""
    loop, tracer = run.Loop(), layers.Tracer()
    tracer.install()
    try:
        loop.run_pass(plan.replay or plan.ops, tracer)
    finally:
        tracer.uninstall()
    counts = dict(tracer.counts)
    counts.update({f"{name}.calls": calls
                   for name, (calls, _, _) in tracer.layer_times().items()})
    return loop, counts


def check(ok, message):
    if not ok:
        sys.exit(f"selftest FAILED: {message}")


def main():
    config = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(all(w["name"] in workloads.WORKLOADS for w in config["workloads"]),
          "BENCHMARK.json names a workload the runner does not know")
    check([m["name"] for m in config["per_layer"]] == list(layers.PER_LAYER)
          and all(m["unit"] == layers.PER_LAYER[m["name"]] for m in config["per_layer"]),
          "BENCHMARK.json per_layer differs from layers.PER_LAYER")

    contract = {w["name"] for w in config["workloads"]}
    for n in workloads.PROFILE_NS:
        ops = [workloads._profile_op(n, r.nu) for r in workloads.exceptional.exceptional_set(n)]
        failures = [e for e in (op.run()[1] for op in ops) if e is not None]
        check(not failures, f"multiplicity_profile: {failures[:3]}")
        print(f"multiplicity_profile-n{n}: passes at all {len(ops)} roots")
    dirs = []

    def plan(name, seed):
        work_dir = run.BENCH / f".work-selftest-{len(dirs)}"
        work_dir.mkdir()
        dirs.append(work_dir)
        return run.set_up(name, seed, work_dir)

    try:
        for name in workloads.WORKLOADS:
            a, b, c = plan(name, 1), plan(name, 1), plan(name, 2)
            check(a.fingerprint == b.fingerprint, f"{name}: seed 1 inputs differ")
            check(a.fingerprint != c.fingerprint, f"{name}: seeds 1 and 2 give the same inputs")
            if name == "rigidity-large":
                print(f"{name}: inputs repeat ({a.fingerprint})")
                continue
            loop_a, counts_a = traced_pass(a)
            loop_b, counts_b = traced_pass(b)
            check(loop_a.errors == loop_b.errors, f"{name}: seed 1 failures differ")
            check(loop_a.labels == loop_b.labels, f"{name}: seed 1 outcome sequences differ")
            check(counts_a == counts_b, f"{name}: seed 1 counts differ")
            loop_c, counts_c = traced_pass(c)
            _, counts_c2 = traced_pass(c)
            check(counts_c == counts_c2, f"{name}: seed 2 counts differ between passes")
            failures = loop_a.errors + loop_c.errors
            check(name not in contract or not failures, f"{name}: {failures[:3]}")
            print(f"{name}: inputs, {len(loop_a.labels)} outcomes and {len(counts_a)} counts "
                  f"repeat; {len(failures)} failed; dets_computed seed 1 "
                  f"{counts_a.get('spectrum.det_pencil.dets_computed', 0)}, seed 2 "
                  f"{counts_c.get('spectrum.det_pencil.dets_computed', 0)}")
    finally:
        for work_dir in dirs:
            shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
