"""The benchmark's workloads: seeded inputs, one pass of operations, and
the correctness oracle every operation is checked against.

A workload's ``plan(seed, work_dir)`` builds every input up front and
returns one pass of operations in a seeded order.  The pass has a fixed
composition (the same query kinds and sizes for every seed; the seed
draws the unitaries, tamper positions, parameters and order), so whole
passes do the same amount of work and a run's figures do not depend on
which seed a run is given.

Every operation returns ``(label, error)``: the label names the outcome
(a verdict, or the failing rigidity step) and ``error`` is ``None`` when
the output passed its check, otherwise the reason it did not.  Library
functions are looked up through their modules at call time, so the
traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specrig import cli, exceptional, generators, rigidity

TOL = 1e-8            # rigidity tolerance of the acceptance suite
TAMPER = 1e-6         # single-entry tamper, relative to the slot's HS norm
ROOT_RESIDUAL = 1e-11  # multiplicity-equation residual of an exceptional root
SHOWCASE_TOL = 1e-10

# det(x H + y E + z F - I) for the 3-dimensional sl(2) triple
SHOWCASE = {(2, 0, 0): 4.0, (0, 1, 1): 4.0, (0, 0, 0): -1.0}


@dataclass
class Op:
    kind: str
    run: object  # () -> (label, error or None)


@dataclass
class Plan:
    ops: list                 # one pass, in seeded order
    warmup: list              # run once at the end of set-up
    fingerprint: str          # digest of every generated input
    replay: list | None = None  # in-process ops the traced run uses instead
    cli: "CliRunner | None" = None
    gen_seconds: list = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# --- rigidity verdicts ---------------------------------------------------------

def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phases(rng, n):
    return np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)))


def _tamper(rng, mats):
    mats = [m.copy() for m in mats]
    n = mats[0].shape[0]
    slot = int(rng.integers(3))
    i, j = (int(x) for x in rng.integers(n, size=2))
    delta = TAMPER * max(1.0, float(np.linalg.norm(mats[slot])))
    mats[slot][i, j] += delta * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return tuple(mats)


def verdict_label(rep) -> str:
    """``equivalent``, ``hypothesis``, or the rigidity step that failed."""
    if rep.verdict == rigidity.EQUIVALENT:
        return "equivalent"
    if rep.verdict == rigidity.HYPOTHESIS_FAILED:
        return "hypothesis"
    return rep.diagnostics[0].split(":", 1)[0] if rep.diagnostics else "reconstruction"


def _verdict_op(family, n, nu, ref, cand, expect_equivalent):
    def run():
        if family == "sl2":
            rep = rigidity.sl2_rigidity(cand, n, TOL)
        else:
            rep = rigidity.snu2_rigidity(cand, n, nu, TOL)
        label = verdict_label(rep)
        if not expect_equivalent:
            return label, ("tampered candidate accepted"
                           if rep.verdict == rigidity.EQUIVALENT else None)
        if rep.verdict != rigidity.EQUIVALENT:
            return label, f"conjugate not recognised ({label})"
        resid = rigidity.certify_equivalence(cand, ref, rep.global_witness, TOL)
        return label, None if resid <= TOL else f"certify residual {resid:.3g}"
    return Op(kind=f"{family}-n{n}", run=run)


def _rigidity_plan(rng, points, modes):
    """Per grid point one candidate per entry of ``modes``: a conjugate of
    the reference by diagonal phases or by a full unitary, or a tampered
    conjugate."""
    ops, warmup, blobs = [], [], []
    for idx, (family, n, nu) in enumerate(points):
        ref = (generators.sl2_generators(n) if family == "sl2"
               else generators.snu2_generators(n, nu))
        for k, mode in enumerate(modes):
            if mode == "alternate":
                mode = "phase" if idx % 2 == 0 else "unitary"
            tampered = mode.startswith("tamper-")
            w = _phases(rng, n) if mode.endswith("phase") else _unitary(rng, n)
            cand = tuple(w @ m @ w.conj().T for m in ref.matrices)
            if tampered:
                cand = _tamper(rng, cand)
            blobs.extend(m.tobytes() for m in cand)
            op = _verdict_op(family, n, nu, ref, cand, not tampered)
            ops.append(op)
            if k == 0:
                warmup.append(op)
    order = rng.permutation(len(ops))
    return Plan(ops=[ops[i] for i in order], warmup=warmup,
                fingerprint=_digest(*blobs, order.tobytes()))


def rigidity_grid(seed, work_dir):
    points = [("snu2", n, nu) for n in range(2, 11) for nu in (0.3, -0.7, 1.0)]
    points += [("sl2", n, None) for n in range(2, 11)]
    modes = ["phase"] * 3 + ["unitary"] * 3 + ["tamper-phase", "tamper-unitary"]
    return _rigidity_plan(np.random.default_rng(seed), points, modes)


def rigidity_large(seed, work_dir):
    points = [("snu2", n, nu) for n in (16, 24, 32) for nu in (0.3, 0.5, 0.9, 1.0)]
    points += [("sl2", n, None) for n in (16, 24, 32)]
    modes = ["phase", "unitary", "alternate", "tamper-unitary"]
    return _rigidity_plan(np.random.default_rng(seed), points, modes)


# --- exceptional parameters ------------------------------------------------------

def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if i + j > n]


def _root_residual(n, i, j, z):
    return abs(1.0 + z ** n - z ** (n - j) - z ** (n - i))


def _oracle_nus(n):
    """Positive exceptional parameters from the companion-matrix roots of
    each pair's sign-change polynomial (independent of the library's
    bisection), plus 1."""
    nus = [1.0]
    for i, j in _pairs(n):
        coeffs = np.zeros(n)
        coeffs[:n - j] = 1.0
        coeffs[n - i:] = -1.0
        z = np.polynomial.polynomial.polyroots(coeffs)
        inside = z[(z.real > 0.0) & (z.real < 1.0)]
        nus.append(float(np.sqrt(inside[np.argmin(np.abs(inside.imag))].real)))
    return np.array(nus)


def _exceptional_set_op(n):
    expected = _pairs(n)

    def run():
        roots = exceptional.exceptional_set(n)
        if [(r.i, r.j) for r in roots] != expected:
            return "roots", f"index pairs differ from the {len(expected)} with i + j > n"
        worst = max(_root_residual(n, r.i, r.j, r.z) for r in roots)
        return f"{len(roots)} roots", (None if worst <= ROOT_RESIDUAL
                                       else f"root residual {worst:.3g}")
    return Op(kind=f"exceptional_set-n{n}", run=run)


def _corollary_op(n):
    def run():
        res = exceptional.corollary_check(n)
        return "ok", None if res.ok and not res.violations else f"violations {res.violations[:2]}"
    return Op(kind=f"corollary_check-n{n}", run=run)


def _is_exceptional_op(n, nu, expected):
    def run():
        got = exceptional.is_exceptional(n, nu)
        return str(got), None if got == expected else f"is_exceptional({n}, {nu!r}) = {got}"
    return Op(kind=f"is_exceptional-n{n}", run=run)


def _profile_op(n, nu):
    expected = [1] * (n - 2) + [2]

    def run():
        mults = sorted(m for _, m in exceptional.multiplicity_profile(n, nu))
        return "profile", None if mults == expected else f"profile {mults[-3:]} of {len(mults)}"
    return Op(kind=f"multiplicity_profile-n{n}", run=run)


def _is_exceptional_queries(rng, n, count):
    """Half at a seeded root (either sign), half at a seeded parameter at
    least 1e-6 from every exceptional one."""
    pairs = _pairs(n)
    oracle = _oracle_nus(n)
    queries = []
    for q in range(count):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if q % 2 == 0:
            i, j = pairs[int(rng.integers(len(pairs)))]
            queries.append((sign * exceptional.z_root(n, i, j).nu, True))
            continue
        while True:
            nu = float(rng.uniform(0.01, 0.99))
            if np.min(np.abs(oracle - nu)) > 1e-6:
                break
        queries.append((sign * nu, False))
    return queries


# exceptional-scan's profile dimensions; the self-test checks the profile
# at every interior root of each, so that no seed draws a failing one
PROFILE_NS = (8, 16, 24, 32, 40)


def exceptional_scan(seed, work_dir):
    """Fixed composition per pass (40 queries): 15 profiles and 10 small
    repeated is_exceptional queries below the median, a middle band of
    small scans, four n=32 queries, and the one-off n=64 scan and n=40
    corollary check at the top."""
    rng = np.random.default_rng(seed)
    ops, inputs = [], []
    for n in PROFILE_NS:
        pairs = _pairs(n)
        for _ in range(3):
            i, j = pairs[int(rng.integers(len(pairs)))]
            nu = exceptional.z_root(n, i, j).nu
            inputs.append(("profile", n, nu))
            ops.append(_profile_op(n, nu))
    for n, count in ((10, 10), (32, 2)):
        for nu, expected in _is_exceptional_queries(rng, n, count):
            inputs.append(("is_exceptional", n, nu, expected))
            ops.append(_is_exceptional_op(n, nu, expected))
    for n in (12, 12, 16, 16, 20, 24, 32, 32, 64):
        ops.append(_exceptional_set_op(n))
    for n in (12, 16, 24, 40):
        ops.append(_corollary_op(n))
    order = rng.permutation(len(ops))
    # one small query of each function; ops[0] and ops[15] are the first
    # profile and the first is_exceptional query
    warmup = [_exceptional_set_op(8), _corollary_op(8), ops[0], ops[15]]
    return Plan(ops=[ops[i] for i in order], warmup=warmup,
                fingerprint=_digest(inputs, order.tobytes()))


def profile_sweep(seed, work_dir):
    """multiplicity_profile at every interior root of n = 48 and n = 64,
    in seeded order; exceptional-scan keeps its profiles at n <= 40."""
    ops = [_profile_op(n, r.nu) for n in (48, 64) for r in exceptional.exceptional_set(n)]
    order = np.random.default_rng(seed).permutation(len(ops))
    return Plan(ops=[ops[i] for i in order], warmup=ops[:1], fingerprint=_digest(order.tobytes()))


# --- the command line on fixture files -------------------------------------------------

class CliRunner:
    """Runs ``python -m specrig.cli`` one child at a time, output to files,
    and keeps the children's peak RSS and the JSON bytes in and out."""

    def __init__(self, work_dir: Path):
        self.work = work_dir
        self.peak_rss_kb = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def spawn(self, argv):
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(encoding="utf-8")

    def run(self, args):
        code, text = self.spawn([sys.executable, "-m", "specrig.cli", *args])
        self.bytes_in += _input_bytes(args)
        self.bytes_out += len(text.encode("utf-8"))
        return code, text


def _input_bytes(args):
    return sum(os.path.getsize(args[k + 1]) for k, a in enumerate(args)
               if a in ("--tuple", "--tuple2"))


def replay(args):
    """The same command in this process, through ``specrig.cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue()


def _matrix(obj):
    return np.array([[complex(*e) for e in row] for row in obj["entries"]])


def _triple(mats_json):
    return [_matrix(mats_json[key]) for key in "HEF"]


def _check_rigidity_text(code, text, expect_equivalent):
    lines = text.splitlines()
    verdict = lines[0].removeprefix("verdict: ") if lines else ""
    notes = [l.removeprefix("note: ") for l in lines if l.startswith("note: ")]
    label = {"equivalent": "equivalent", "hypothesis_failed": "hypothesis"}.get(
        verdict, notes[0].split(":", 1)[0] if notes else verdict)
    want_code = {"equivalent": 0, "hypothesis_failed": 2, "reconstruction_failed": 3}.get(verdict)
    if want_code is None or code != want_code:
        return label, f"exit {code} with verdict line {verdict!r}"
    if expect_equivalent != (verdict == "equivalent"):
        return label, f"unexpected verdict {verdict}"
    return label, None


def _check_rigidity_json(code, text, cand, ref):
    blob = json.loads(text)
    if code != 0 or blob["verdict"] != "equivalent":
        return blob["verdict"], f"exit {code}, verdict {blob['verdict']}"
    w = _matrix(blob["basis"]) @ _matrix(blob["witness"])
    resid = max(np.linalg.norm(a - w @ r @ w.conj().T) / max(1.0, np.linalg.norm(r))
                for a, r in zip(cand, ref))
    return "equivalent", None if resid <= TOL else f"witness residual {resid:.3g}"


def _poly_terms(text):
    blob = json.loads(text)
    return {tuple(t["exp"]): complex(t["re"], t["im"]) for t in blob["terms"]}


def _max_gap(got, want):
    return max(abs(got.get(e, 0j) - want.get(e, 0j)) for e in set(got) | set(want))


def _check_showcase(code, text):
    gap = _max_gap(_poly_terms(text), SHOWCASE)
    return "poly", None if code == 0 and gap <= SHOWCASE_TOL else f"exit {code}, gap {gap:.3g}"


def _lines_poly(h, b):
    """Coefficients of prod_j (h_j x1 + b_j x2 - 1) by repeated 2-D
    convolution; c[a, b] multiplies x1^a x2^b."""
    c = np.ones((1, 1), dtype=np.complex128)
    for hj, bj in zip(h, b):
        nxt = np.zeros((c.shape[0] + 1, c.shape[1] + 1), dtype=np.complex128)
        nxt[:-1, :-1] -= c
        nxt[1:, :-1] += hj * c
        nxt[:-1, 1:] += bj * c
        c = nxt
    return {(a, b): c[a, b] for a in range(c.shape[0]) for b in range(c.shape[1])
            if c[a, b] != 0}


def _check_pair_det(code, text, want):
    gap = _max_gap(_poly_terms(text), want)
    scale = max(1.0, max(abs(c) for c in want.values()))
    ok = code == 0 and gap <= TOL * scale
    return "poly", None if ok else f"exit {code}, gap {gap / scale:.3g} of the largest coefficient"


def _check_lines(code, text, h, b):
    blob = json.loads(text)
    got = sorted((l["coeffs"][0][0], l["coeffs"][1][0]) for l in blob["lines"]
                 for _ in range(l["mult"]))
    want = sorted(zip(h.real, b.real))
    if code != 0 or not blob["certified"] or len(got) != len(want):
        return "lines", f"exit {code}, certified {blob['certified']}, {len(got)} lines"
    worst = max(max(abs(g[0] - w[0]), abs(g[1] - w[1])) / max(1.0, abs(w[0]), abs(w[1]))
                for g, w in zip(got, want))
    return "lines", None if worst <= 1e-9 else f"line gap {worst:.3g}"


def _check_compare(code, text, count):
    blob = json.loads(text)
    ok = code == 0 and blob["equal"] == [True] * count
    return "equal", None if ok else f"exit {code}, equal {blob['equal']}"


def _check_csv(code, text, n):
    rows = list(csv.DictReader(io.StringIO(text)))
    if code != 0 or [(int(r["i"]), int(r["j"])) for r in rows] != _pairs(n):
        return "roots", f"exit {code}, {len(rows)} rows"
    worst = max(_root_residual(n, int(r["i"]), int(r["j"]), float(r["z"])) for r in rows)
    return f"{len(rows)} roots", None if worst <= ROOT_RESIDUAL else f"root residual {worst:.3g}"


def _cli_op(runner, kind, args, check):
    def run():
        code, text = runner.run(args)
        return check(code, text)

    def run_in_process():
        code, text = replay(args)
        return check(code, text)
    return Op(kind=kind, run=run), Op(kind=kind, run=run_in_process)


def cli_files(seed, work_dir, pair_det=True):
    """Fixtures come from ``specrig gen`` during set-up; one pass runs ten
    commands over them (nine without ``pair_det``), one child process at a
    time."""
    rng = np.random.default_rng(seed)
    runner = CliRunner(work_dir)
    gen_seconds = []

    def gen(name, *args):
        path = str(work_dir / name)
        t0 = time.perf_counter()
        code, _ = runner.spawn([sys.executable, "-m", "specrig.cli", "gen", *args, "-o", path])
        gen_seconds.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"specrig gen {' '.join(args)} exited {code}")
        return path

    s = str(seed)
    sl2_3 = gen("sl2_3.json", "--family", "sl2", "--n", "3")
    snu2_6 = gen("snu2_6c.json", "--family", "random-conjugate", "--base", "snu2",
                 "--n", "6", "--nu", "0.5", "--seed", s)
    sl2_8 = gen("sl2_8c.json", "--family", "random-conjugate", "--base", "sl2",
                "--n", "8", "--mode", "phase", "--seed", s)
    snu2_10t = gen("snu2_10t.json", "--family", "random-conjugate", "--base", "snu2",
                   "--n", "10", "--nu", "-0.7", "--seed", s)
    snu2_10 = gen("snu2_10.json", "--family", "snu2", "--n", "10", "--nu", "0.5")
    snu2_10c = gen("snu2_10c.json", "--family", "random-conjugate", "--base", "snu2",
                   "--n", "10", "--nu", "0.5", "--seed", str(seed + 1))

    blob = json.loads(Path(snu2_10t).read_text(encoding="utf-8"))
    mats = _tamper(rng, _triple(blob["matrices"]))
    for key, m in zip("HEF", mats):
        blob["matrices"][key]["entries"] = [[[z.real, z.imag] for z in row] for row in m]
    Path(snu2_10t).write_text(json.dumps(blob), encoding="utf-8")

    sl2_8_cand = _triple(json.loads(Path(sl2_8).read_text(encoding="utf-8"))["matrices"])
    ref8 = generators.sl2_generators(8).matrices
    ref10 = generators.snu2_generators(10, 0.5)
    h10 = np.diag(ref10.h)
    b10 = np.diag(ref10.e @ ref10.e.conj().T)
    pair_poly = _lines_poly(h10, b10)

    pair = "A1, A2 A2^H"
    specs = [
        ("rigidity", ["rigidity", "--tuple", snu2_6, "--family", "snu2", "--n", "6",
                      "--nu", "0.5", "--tol", str(TOL)],
         lambda c, t: _check_rigidity_text(c, t, True)),
        ("rigidity", ["rigidity", "--tuple", sl2_8, "--family", "sl2", "--n", "8",
                      "--tol", str(TOL), "--json"],
         lambda c, t: _check_rigidity_json(c, t, sl2_8_cand, ref8)),
        ("rigidity", ["rigidity", "--tuple", snu2_10t, "--family", "snu2", "--n", "10",
                      "--nu", "-0.7", "--tol", str(TOL)],
         lambda c, t: _check_rigidity_text(c, t, False)),
        ("det", ["det", "--tuple", sl2_3, "--pencil", "A1, A2, A3", "--vars", "x,y,z"],
         _check_showcase),
        *([("det", ["det", "--tuple", snu2_10c, "--pencil", pair],
            lambda c, t: _check_pair_det(c, t, pair_poly))] if pair_det else []),
        ("lines", ["lines", "--tuple", snu2_10c, "--pencil", pair],
         lambda c, t: _check_lines(c, t, h10, b10)),
        ("compare", ["compare", "--tuple", snu2_10c, "--tuple2", snu2_10,
                     "--pencil", pair, "--pencil", "A1, A2 A3"],
         lambda c, t: _check_compare(c, t, 2)),
        ("exceptional", ["exceptional", "--n", "8", "--csv"], lambda c, t: _check_csv(c, t, 8)),
        ("exceptional", ["exceptional", "--n", "12", "--csv"], lambda c, t: _check_csv(c, t, 12)),
        ("exceptional", ["exceptional", "--n", "16", "--csv"], lambda c, t: _check_csv(c, t, 16)),
    ]
    pairs = [_cli_op(runner, kind, args, check) for kind, args, check in specs]
    order = rng.permutation(len(pairs))
    fixtures = [Path(p).read_bytes() for p in (sl2_3, snu2_6, sl2_8, snu2_10t, snu2_10, snu2_10c)]
    return Plan(ops=[pairs[i][0] for i in order], warmup=[],
                fingerprint=_digest(*fixtures, order.tobytes()),
                replay=[pairs[i][1] for i in order], cli=runner, gen_seconds=gen_seconds)


def cli_clean(seed, work_dir):
    """cli-files without the det of the n=10 pair pencil, the one command
    that misses its check on some seeds at this commit."""
    return cli_files(seed, work_dir, pair_det=False)


@dataclass(frozen=True)
class Workload:
    plan: object      # (seed, work_dir) -> Plan
    tail_pct: float   # the latency_tail_ms percentile
    setups: int = 15  # cold set-ups per run, for setup_s
    speed_exponent: float = 1.0  # see calibration.py


# Each tail percentile is fixed, so that two commits compare the same
# percentile, and sits inside a band of equally costly operations of the
# pass (a percentile on the border between two bands jumps between
# them); a 30 s run leaves more than ten samples beyond it.
# rigidity-large, cli-files and profile-sweep are not in BENCHMARK.json:
# at the seed some of their operations fail (conjugates at n >= 14
# rejected; the n=10 nu=0.5 pair-pencil det off by up to 2.5e-8 of its
# largest coefficient; profiles at 1 root of n=48 and 2 of n=64 merge
# distinct eigenvalues), and the benchmark's workloads must run clean.
# They run here and are recorded in bench/baseline.json as measured;
# cli-clean is the part of cli-files that runs clean.
WORKLOADS = {
    "rigidity-grid": Workload(rigidity_grid, 99.0),
    "rigidity-large": Workload(rigidity_large, 90.0),
    "exceptional-scan": Workload(exceptional_scan, 90.0, speed_exponent=0.8),
    "cli-files": Workload(cli_files, 80.0, setups=7),
    "cli-clean": Workload(cli_clean, 80.0, setups=7),
    "profile-sweep": Workload(profile_sweep, 99.0),
}
