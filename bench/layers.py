"""Tracing for the per-layer metrics.

``Tracer.install()`` swaps each traced public function for a wrapper in
every ``specrig`` module namespace that binds it (the place it is looked
up, e.g. ``specrig.rigidity.det_pencil``); ``uninstall()`` puts the
originals back.  A wrapper records one span in memory: name, parent
span, operation id, start and end.  A layer's busy time is the time its
outermost spans cover; its self time is that minus the time covered by
the spans it caused.  Counts labelled "computed" are derived from the
call arguments, not timed, and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _det_counts(counts, args, kwargs, result):
    mats = args[0] if args else kwargs["mats"]
    k, n = len(mats), np.shape(mats[0])[0]
    dets = (n + 1) ** k  # one n x n determinant per interpolation node
    counts["spectrum.det_pencil.dets_computed"] += dets
    counts["spectrum.det_pencil.lu_flops_computed"] += dets * 8 * n ** 3 // 3
    counts["spectrum.det_pencil.terms_out"] += len(result.terms)


def _bisection_counts(counts, args, kwargs, result):
    counts["exceptional.bisection_evals_computed"] += sys.modules[
        "specrig.exceptional"].BISECT_ITERATIONS


# (span name, defining module, function, namespaces to patch or None for
# every specrig module binding the function, counter)
TARGETS = [
    ("spectrum.det_pencil", "spectrum", "det_pencil", None, _det_counts),
    ("spectrum.x2_dependence", "spectrum", "x2_dependence", None, None),
    ("rigidity.verify", "rigidity", "verify_conditions_snu2", None, None),
    ("rigidity.verify", "rigidity", "verify_conditions_sl2", None, None),
    ("rigidity.reference_pencil_polys", "rigidity", "reference_pencil_polys", None, None),
    ("rigidity.reconstruct", "rigidity", "reconstruct_snu2", None, None),
    ("rigidity.reconstruct", "rigidity", "reconstruct_sl2", None, None),
    ("rigidity.certify", "rigidity", "certify_equivalence", None, None),
    ("poly.poly_distance", "poly", "poly_distance", None, None),
    ("poly.divide_linear", "poly", "divide_linear", None, None),
    ("poly.poly_to_json", "poly", "poly_to_json", None, None),
    ("linalg.classify", "linalg", "classify", None, None),
    ("linalg.hermitian_eig", "linalg", "hermitian_eig", None, None),
    ("linalg.matrix_to_json", "linalg", "matrix_to_json", None, None),
    ("generators.reference_build", "generators", "snu2_generators", ("rigidity",), None),
    ("generators.reference_build", "generators", "sl2_generators", ("rigidity",), None),
    ("generators.tuple_from_json", "generators", "tuple_from_json", None, None),
    ("exceptional.exceptional_set", "exceptional", "exceptional_set", None, None),
    ("exceptional.z_root", "exceptional", "z_root", None, _bisection_counts),
    ("exceptional.corollary_check", "exceptional", "corollary_check", None, None),
    ("exceptional.is_exceptional", "exceptional", "is_exceptional", None, None),
    ("exceptional.multiplicity_profile", "exceptional", "multiplicity_profile", None, None),
    ("cli.main", "cli", "main", None, None),
]

# name -> unit, in report order; per-pass figures are totals over the
# traced passes divided by their number.  The comment above each group
# says which end-to-end metric it should move, on which workload.
PER_LAYER = {
    # throughput and p50 on rigidity-grid (Python work around tiny dets),
    # the tail on rigidity-large (LAPACK); no change on exceptional-scan
    "spectrum.det_pencil.calls": "count/pass",
    "spectrum.det_pencil.busy_s": "s/pass",
    "spectrum.det_pencil.self_s": "s/pass",
    "spectrum.det_pencil.dets_computed": "count/pass",
    "spectrum.det_pencil.lu_flops_computed": "flop/pass",
    "spectrum.det_pencil.terms_out": "count/pass",
    "spectrum.det_pencil.us_per_det": "us",
    "spectrum.x2_dependence.busy_s": "s/pass",
    # verify self time -> rigidity-grid throughput; reached ratio and
    # fail.hypothesis -> error_rate on rigidity-large
    "rigidity.verify.calls": "count/pass",
    "rigidity.verify.busy_s": "s/pass",
    "rigidity.verify.self_s": "s/pass",
    "rigidity.reference_pencil_polys.busy_s": "s/pass",
    "rigidity.reconstruct.calls": "count/pass",
    "rigidity.reconstruct.busy_s": "s/pass",
    "rigidity.reconstruct.self_s": "s/pass",
    "rigidity.certify.busy_s": "s/pass",
    "rigidity.reconstruct_reached_ratio": "ratio",
    "rigidity.fail.hypothesis": "count/pass",
    **{f"rigidity.fail.step{k}": "count/pass" for k in range(1, 7)},
    # rigidity-grid latency; cli-files and cli-clean latency for det
    "poly.poly_distance.calls": "count/pass",
    "poly.poly_distance.busy_s": "s/pass",
    "poly.divide_linear.busy_s": "s/pass",
    "poly.poly_to_json.busy_s": "s/pass",
    # rigidity-grid latency
    "linalg.classify.busy_s": "s/pass",
    "linalg.hermitian_eig.busy_s": "s/pass",
    "linalg.matrix_to_json.busy_s": "s/pass",
    # rigidity-grid throughput; cli-files and cli-clean latency
    "generators.reference_build.calls": "count/pass",
    "generators.reference_build.busy_s": "s/pass",
    "generators.tuple_from_json.busy_s": "s/pass",
    # exceptional-scan throughput and tail; no change on rigidity workloads
    "exceptional.exceptional_set.calls": "count/pass",
    "exceptional.exceptional_set.busy_s": "s/pass",
    "exceptional.z_root.calls": "count/pass",
    "exceptional.bisection_evals_computed": "count/pass",
    "exceptional.corollary_check.self_s": "s/pass",
    "exceptional.is_exceptional.busy_s": "s/pass",
    "exceptional.multiplicity_profile.busy_s": "s/pass",
    # cli-files and cli-clean p50; no change on the library workloads
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"cli.command.{c}.p50_ms": "ms"
       for c in ("gen", "det", "lines", "compare", "rigidity", "exceptional")},
    "cli.json_bytes_in": "byte/pass",
    "cli.json_bytes_out": "byte/pass",
    "cli.main.self_s": "s/pass",
    "trace.overhead_ratio": "ratio",
}

# counts derived from arguments and outputs rather than timed
COMPUTED = {"spectrum.det_pencil.dets_computed", "spectrum.det_pencil.lu_flops_computed",
            "spectrum.det_pencil.terms_out", "exceptional.bisection_evals_computed",
            "cli.json_bytes_in", "cli.json_bytes_out"}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index, op id, start, end]
        self.counts = Counter()
        self.op = -1
        self.missing = []
        self._stack = [-1]
        self._patched = []   # (module, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1], self.op, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                span[3] = start
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if (k == "specrig" or k.startswith("specrig.")) and m is not None]
        for name, module, attr, where, counter in TARGETS:
            original = getattr(importlib.import_module(f"specrig.{module}"), attr, None)
            if original is None:
                self.missing.append(f"specrig.{module}.{attr}")
                continue
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                if where is not None and mod.__name__.rsplit(".", 1)[-1] not in where:
                    continue
                if vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_times(self):
        """{name: (calls, busy_s, self_s)} over all recorded spans."""
        covered = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
        for idx, (name, parent, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - covered[idx]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if parent < 0:  # outermost span of this name
                busy[name] += end - start
        return {name: (calls[name], busy[name], own[name]) for name in calls}

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "parent", "op", "start", "end"],
                       "spans": self.spans}, fh)


def per_layer_metrics(tracer, passes, labels, extra):
    """Every ``PER_LAYER`` metric from a traced run of ``passes`` whole
    passes; ``labels`` are the operations' outcome labels and ``extra``
    holds the figures measured outside the tracer (cli probes, overhead).
    Layers the workload never reaches read 0."""
    times = tracer.layer_times()
    values = {}
    for name in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
            continue
        layer, _, stat = name.rpartition(".")
        if name.endswith(("_computed", ".terms_out")):
            values[name] = tracer.counts[name] / passes
        elif stat in ("calls", "busy_s", "self_s"):
            calls, busy, own = times.get(layer, (0, 0.0, 0.0))
            values[name] = {"calls": calls, "busy_s": busy, "self_s": own}[stat] / passes
    det_busy = times.get("spectrum.det_pencil", (0, 0.0, 0.0))[1]
    dets = tracer.counts["spectrum.det_pencil.dets_computed"]
    values["spectrum.det_pencil.us_per_det"] = det_busy / dets * 1e6 if dets else 0.0
    verify = times.get("rigidity.verify", (0,))[0]
    reconstruct = times.get("rigidity.reconstruct", (0,))[0]
    values["rigidity.reconstruct_reached_ratio"] = reconstruct / verify if verify else 0.0
    outcome = Counter(labels)
    values["rigidity.fail.hypothesis"] = outcome["hypothesis"] / passes
    for k in range(1, 7):
        values[f"rigidity.fail.step{k}"] = outcome[f"step{k}"] / passes
    return {name: values[name] for name in PER_LAYER}
