"""specrig benchmark runner.

    python3 bench/run.py --workload rigidity-grid --seed 1 --seconds 20 --trace 0

Runs one seeded workload (see ``workloads.py``) as a closed loop with one
client: the next operation starts when the previous one has returned.
It repeats whole passes of the workload until ``--seconds`` have passed,
checks every output, and prints a report followed, as the last line, by
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

  setup_s               median of the cold set-ups of this process and of
                        fresh ones started between passes, spread evenly over
                        the timed loop and outside its timing (15, or 7 for
                        the CLI workloads): import, input generation, fixture
                        files and warm-up, from the first line of this file
  throughput_ops_per_s  operations per second of the timed loop
  latency_p50_ms        median operation wall time
  latency_tail_ms       a fixed high percentile per workload, chosen so that
                        at least ten samples lie beyond it; the report line
                        states the percentile and that count
  peak_rss_mb           peak RSS of this process, or of the CLI children
                        for cli-files and cli-clean

The four times are scaled to the reference host speed of
``calibration.py``: each set-up by the child reference task run next to
it, the timed loop by the reference task interleaved with it (the
in-process kernel, or the child task for the CLI workloads).  The report
lines give the raw figures and the scale beside them.

and reports ``error_rate`` (failed / attempted) on its report line; it is
the ``failed`` and ``attempted`` of the JSON line, and not a metric there
because it reads 0 on a correct run.

``--trace 1`` alternates untraced passes with passes under the tracer of
``layers.py``, and reports the per-layer metrics, per pass, with the
tracing overhead (median traced over untraced pass time, minus 1).  For
cli-files and cli-clean the first half of the time runs the child
processes (for the ``cli.*`` figures) and the traced passes replay the
same argv through ``specrig.cli.main`` in this process.
Spans are written to ``bench/out/spans-<workload>.json``.

BLAS runs on one thread, and this process and its children on one CPU.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# one CPU for the runner and its children, so that a run does not move
# between CPUs that other tenants of the host load unequally
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "specrig" / "__init__.py").is_file():
    sys.exit(f"specrig sources not found under {SRC}")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

PROBE_REPEATS = 3


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            **{v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def set_up(name, seed, work_dir):
    """Inputs, fixtures and warm-up; returns the plan."""
    plan = workloads.WORKLOADS[name].plan(seed, work_dir)
    for op in plan.warmup:
        op.run()
    return plan


def cold_setup_seconds(name, seed):
    """Set-up time of a fresh process running only the set-up."""
    out = subprocess.run([sys.executable, __file__, "--setup-only", "--workload", name,
                          "--seed", str(seed)], capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def scaled_setup(seconds):
    """A set-up time and the same at the reference speed, from the child
    reference task run right after it."""
    return seconds, seconds * calibration.CHILD_REF_S / calibration.child()


class Loop:
    """Latencies, outcome labels and failures of whole passes."""

    def __init__(self):
        self.latencies, self.labels, self.errors, self.pass_seconds = [], [], [], []

    @classmethod
    def timed(cls, ops, seconds, between=None, times=0, speed=None):
        """Whole passes of ``ops`` until they have run ``seconds``.
        ``between`` is called ``times`` times between passes, spread
        evenly over the run and outside its timing; ``speed`` samples
        its reference task between operations."""
        loop, done = cls(), 0
        while True:
            loop.run_pass(ops, speed=speed)
            busy = sum(loop.pass_seconds)
            while done < times and busy >= seconds * (done + 1) / (times + 1):
                between()
                done += 1
            if busy >= seconds:
                break
        for _ in range(times - done):
            between()
        return loop

    def run_pass(self, ops, tracer=None, speed=None):
        pass_start, sampling = time.perf_counter(), 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = len(self.latencies)
            t0 = time.perf_counter()
            try:
                label, error = op.run()
            except Exception as exc:  # counted as a failed operation
                label, error = "exception", f"{type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - t0)
            if speed is not None:
                sampling += speed.after(self.latencies[-1])
            self.labels.append(label)
            if error is not None:
                self.errors.append(f"{op.kind}: {error}")
        self.pass_seconds.append(time.perf_counter() - pass_start - sampling)

    @property
    def attempted(self):
        return len(self.latencies)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, loop, setups, plan, speed):
    """The end-to-end metrics, times at the reference speed, and report
    notes with the raw figures."""
    w = workloads.WORKLOADS[name]
    raw = np.array(loop.latencies)
    scales = speed.scales(raw)
    lat = raw * scales
    busy = sum(loop.pass_seconds)
    tail = float(np.percentile(lat, w.tail_pct))
    beyond = int(np.sum(lat > tail))
    rss_kb = (plan.cli.peak_rss_kb if plan.cli is not None
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "throughput_ops_per_s": metric(loop.attempted / float(np.sum(lat)), "ops/s"),
        "latency_p50_ms": metric(float(np.median(lat)) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
    }
    notes = {
        "throughput_ops_per_s": f"{loop.attempted} ops in {len(loop.pass_seconds)} passes "
                                f"of {len(plan.ops)}, {busy:.2f} s; raw "
                                f"{loop.attempted / busy:.6g}; scale {np.median(scales):.4f} "
                                f"(median), {np.min(scales):.4f}..{np.max(scales):.4f}, from "
                                f"{speed.total_runs()} {speed.task.__name__} runs",
        "latency_p50_ms": f"raw {np.median(raw) * 1e3:.6g}",
        "latency_tail_ms": f"p{w.tail_pct:g}, {beyond} of {loop.attempted} samples beyond; "
                           f"raw {np.percentile(raw, w.tail_pct) * 1e3:.6g}",
        "peak_rss_mb": "CLI children" if plan.cli is not None else "runner",
        "setup_s": f"raw median {statistics.median(s for s, _ in setups):.6g}",
    }
    return metrics, notes


def _child_seconds(code):
    """Wall time of ``python -c code`` and the float it prints."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return time.perf_counter() - t0, float(out or 0)


def cli_probes(plan, seconds):
    """Interpreter start (``python -c pass``), ``import specrig.cli`` timed
    inside a child, and per-command medians from child-process passes."""
    timed_import = "import time; t = time.perf_counter(); import specrig.cli; " \
                   "print(time.perf_counter() - t)"
    extra = {"cli.interpreter_s": statistics.median(
                 _child_seconds("pass")[0] for _ in range(PROBE_REPEATS)),
             "cli.import_s": statistics.median(
                 _child_seconds(timed_import)[1] for _ in range(PROBE_REPEATS))}
    plan.cli.bytes_in = plan.cli.bytes_out = 0
    loop = Loop.timed(plan.ops, seconds)
    by_kind = {"gen": plan.gen_seconds}
    for op, t in zip(plan.ops * len(loop.pass_seconds), loop.latencies):
        by_kind.setdefault(op.kind, []).append(t)
    for kind in ("gen", "det", "lines", "compare", "rigidity", "exceptional"):
        extra[f"cli.command.{kind}.p50_ms"] = statistics.median(by_kind[kind]) * 1e3
    extra["cli.json_bytes_in"] = plan.cli.bytes_in / len(loop.pass_seconds)
    extra["cli.json_bytes_out"] = plan.cli.bytes_out / len(loop.pass_seconds)
    return extra, loop


def traced_run(name, seed, plan, seconds):
    """Alternating untraced and traced passes of the same operations, so
    drift on the machine lands on both sides; returns the per-layer
    metrics, their report notes and every loop run."""
    extra = {n: 0.0 for n in layers.PER_LAYER if n.startswith("cli.") and n != "cli.main.self_s"}
    loops = []
    ops = plan.ops
    if plan.replay is not None:  # CLI children cannot be traced: replay in-process
        probe_extra, probe_loop = cli_probes(plan, seconds / 2)
        extra.update(probe_extra)
        loops.append(probe_loop)
        ops, seconds = plan.replay, seconds / 2
    untraced, traced, tracer = Loop(), Loop(), layers.Tracer()
    started = time.perf_counter()
    while True:
        untraced.run_pass(ops)
        tracer.install()
        try:
            traced.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() - started >= seconds:
            break
    loops += [untraced, traced]
    extra["trace.overhead_ratio"] = (statistics.median(traced.pass_seconds)
                                     / statistics.median(untraced.pass_seconds) - 1.0)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{name}.json", {"workload": name, "seed": seed})
    values = layers.per_layer_metrics(tracer, len(traced.pass_seconds), traced.labels, extra)
    if tracer.missing:
        print(f"# not traced (missing): {', '.join(sorted(set(tracer.missing)))}")
    metrics = {k: metric(v, layers.PER_LAYER[k]) for k, v in values.items()}
    return metrics, dict.fromkeys(layers.COMPUTED, "computed"), loops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = BENCH / f".work-{os.getpid()}"
    work_dir.mkdir()
    try:
        plan = set_up(args.workload, args.seed, work_dir)
        setup_here = time.perf_counter() - _T0
        if args.setup_only:
            print(setup_here)
            return 0
        setups = []
        if args.trace:
            metrics, notes, loops = traced_run(args.workload, args.seed, plan, args.seconds)
        else:
            setups.append(scaled_setup(setup_here))
            speed = calibration.Speed.for_workload(
                plan.cli is not None, workloads.WORKLOADS[args.workload].speed_exponent)
            loop = Loop.timed(plan.ops, args.seconds,
                              lambda: setups.append(scaled_setup(
                                  cold_setup_seconds(args.workload, args.seed))),
                              workloads.WORKLOADS[args.workload].setups - 1, speed)
            loops = [loop]
            metrics, notes = end_to_end(args.workload, loop, setups, plan, speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(l.attempted for l in loops)
    errors = [e for l in loops for e in l.errors]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {plan.fingerprint}")
    print(f"# env {json.dumps(environment())}")
    print(f"# setup_s samples (raw/scaled) {', '.join(f'{r:.4f}/{s:.4f}' for r, s in setups)}")
    for key, m in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:42s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"{'error_rate':42s} {len(errors) / attempted:>16.6g} fraction  "
          f"({len(errors)} of {attempted})")
    for e in errors[:10]:
        print(f"# failed: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
