"""Run-to-run spread of the benchmark, and the baseline record.

    python3 bench/spread.py --runs 10 --out bench/baseline.json
    python3 bench/spread.py --runs 5 --workloads cli-files

Runs the command of ``BENCHMARK.json`` ``--runs`` times per workload,
each run with another seed (``--first-seed``, +1, ...), and prints for
every end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, beside the metric's bound.  ``--trace`` adds one traced run
per workload.  ``--out`` writes every run's result line, the report
lines of the first run (environment, tail percentile) and the summary.
Workloads default to those of ``BENCHMARK.json``; any workload the
runner knows may be named.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(results, bounds):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "bound": bounds.get(name)}
    return summary


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {"command": config["command"], "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(config["command"], workload, s, args.seconds, 0) for s in seeds]
        results = [r for r, _ in runs]
        entry = {"report": runs[0][1], "seeds": list(seeds), "runs": results,
                 "summary": summarise(results, bounds)}
        print(f"{workload}: {sum(r['failed'] for r in results)} failed of "
              f"{sum(r['attempted'] for r in results)} attempted in {args.runs} runs")
        for name, s in entry["summary"].items():
            bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"  {name:24s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:7.4f}  bound {bound}")
        if args.trace:
            entry["trace"], entry["trace_report"] = run_once(
                config["command"], workload, args.first_seed, args.seconds, 1)
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
