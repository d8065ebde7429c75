"""Seeded verdict census of the rigidity checks, with a comparison mode.

    PYTHONPATH=src python3 tools/census.py -o census.jsonl
    PYTHONPATH=src python3 tools/census.py --classes phase -o new.jsonl --compare old.jsonl

Runs each case through ``snu2_rigidity`` / ``sl2_rigidity`` with warnings
raised as errors and writes one JSON line per case: its id, seed, class,
family, verdict, first diagnostic and the sha256 of
``json.dumps(rep.to_json())`` (of ``type: message`` when the call
raises; the verdict is then ``error``, the CLI's exit 1).  It prints
the count of each first diagnostic, numbers cut off, per class and
family.  ``--compare OLD.jsonl`` then lists the cases whose digest
changed as transitions between those labels, and exits 1 if a verdict
changed or a case is in one file only.

Classes (``--classes``, comma-separated, default both):

  grid   snu2 at n in {2, 3, 4, 5, 6, 8, 10, 16} x nu in {0.05, 0.3,
         0.5, -0.7, 0.95, 1} and sl2 at the same n, at tol 1e-9; 3
         unitary conjugates per point, each plain and with every entry
         of every slot tampered by {1e-3, 1e-6, 1e-8, 3e-9, 1e-9} *
         max(1, ||slot||_HS) at a random phase (160 818 cases).
  phase  sl2 at n in {2, 3, 4, 5, 6, 8, 10, 16, 24} x tol in {1e-10,
         1e-9, 1e-8, 1e-6, 1e-4}: one A2 superdiagonal or A3 subdiagonal
         entry turned by 0.3 rad or by {0.5, 0.9, 1.1, 1.5, 3, 10} * tol
         rad, then unitarily conjugated (4830 cases).

The grid takes minutes and the phase class seconds, hence ``--classes``.
Each conjugate draws from ``numpy.random.default_rng(seed)``, with one
seed per conjugate counted up from ``SEED`` in each class, and the
record holds it.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import re
import sys
import warnings

import numpy as np

from specrig.generators import sl2_generators, snu2_generators
from specrig.linalg import hs_norm
from specrig.rigidity import sl2_rigidity, snu2_rigidity

GRID_N = (2, 3, 4, 5, 6, 8, 10, 16)
GRID_NU = (0.05, 0.3, 0.5, -0.7, 0.95, 1.0)
GRID_SIZES = (1e-3, 1e-6, 1e-8, 3e-9, 1e-9)
GRID_TOL = 1e-9
PHASE_N = (2, 3, 4, 5, 6, 8, 10, 16, 24)
PHASE_TOLS = (1e-10, 1e-9, 1e-8, 1e-6, 1e-4)
PHASE_TURNS = (0.5, 0.9, 1.1, 1.5, 3.0, 10.0)  # times tol; 0.3 rad besides
SEED = 20261020


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(mats, w):
    return [w @ m @ w.conj().T for m in mats]


def _grid(seed):
    """(id, seed, family, n, nu, tol, candidate) of the grid class: one
    seed per conjugate, its tampers drawn after the unitary."""
    points = [("snu2", n, nu) for n in GRID_N for nu in GRID_NU]
    points += [("sl2", n, None) for n in GRID_N]
    k = seed
    for family, n, nu in points:
        ref = snu2_generators(n, nu) if family == "snu2" else sl2_generators(n)
        for conj in range(3):
            rng = np.random.default_rng(k)
            mats = _conjugated(ref.matrices, _unitary(rng, n))
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (len(GRID_SIZES), 3, n, n)))
            head = f"grid/{family}/n{n}/nu{nu}/c{conj}"
            yield f"{head}/plain", k, family, n, nu, GRID_TOL, mats
            for s, size in enumerate(GRID_SIZES):
                for slot in range(3):
                    step = size * max(1.0, hs_norm(mats[slot]))
                    for i in range(n):
                        for j in range(n):
                            cand = list(mats)
                            cand[slot] = mats[slot].copy()
                            cand[slot][i, j] += step * phases[s, slot, i, j]
                            yield (f"{head}/{size:g}/A{slot + 1}[{i},{j}]", k, family, n, nu,
                                   GRID_TOL, cand)
            k += 1


def _phase(seed):
    """The phase class: sl2, one ladder entry turned, then conjugated."""
    k = seed
    for n in PHASE_N:
        ref = sl2_generators(n)
        for tol in PHASE_TOLS:
            for slot, entries in ((1, [(j, j + 1) for j in range(n - 1)]),
                                  (2, [(j + 1, j) for j in range(n - 1)])):
                for i, j in entries:
                    for turn in (0.3, *(t * tol for t in PHASE_TURNS)):
                        mats = [m.copy() for m in ref.matrices]
                        mats[slot][i, j] *= np.exp(1j * turn)
                        cand = _conjugated(mats, _unitary(np.random.default_rng(k), n))
                        yield (f"phase/n{n}/tol{tol:g}/A{slot + 1}[{i},{j}]/{turn:g}", k,
                               "sl2", n, None, tol, cand)
                        k += 1


CLASSES = {"grid": _grid, "phase": _phase}


def _label(diagnostic):
    """A first diagnostic without its numbers: cut at the first word that
    starts with a digit, a sign, '(' or '|', and at a trailing place
    word."""
    words = []
    for word in diagnostic.split(" "):
        if re.match(r"[-+(|\d]", word):
            break
        words.append(word)
    return re.sub(r"( at| on line| at index)$", "", " ".join(words))


def run_case(family, n, nu, tol, cand):
    """(verdict, first diagnostic, digest) of one rigidity call."""
    try:
        rep = (snu2_rigidity(cand, n, nu, tol) if family == "snu2"
               else sl2_rigidity(cand, n, tol))
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        text = f"{type(exc).__name__}: {exc}"
        return "error", text, hashlib.sha256(text.encode()).hexdigest()
    blob = json.dumps(rep.to_json())
    return (rep.verdict, rep.diagnostics[0] if rep.diagnostics else "",
            hashlib.sha256(blob.encode()).hexdigest())


def census(classes, seed, out):
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in classes:
            for case_id, case_seed, family, n, nu, tol, cand in CLASSES[name](seed):
                verdict, first, digest = run_case(family, n, nu, tol, cand)
                rec = {"id": case_id, "seed": case_seed, "class": name, "family": family,
                       "verdict": verdict, "first": first, "sha256": digest}
                records.append(rec)
                out.write(json.dumps(rec) + "\n")
    return records


def _table(records):
    counts = collections.Counter((r["class"], r["family"], r["verdict"], _label(r["first"]))
                                 for r in records)
    lines = [f"{'class':<6} {'family':<6} {'verdict':<22} {'first diagnostic':<60} count"]
    lines += [f"{c:<6} {f:<6} {v:<22} {label:<60} {count}"
              for (c, f, v, label), count in sorted(counts.items())]
    return "\n".join(lines)


def compare(old, new):
    """The comparison report and whether it passes: no verdict changes
    and the same case ids on both sides."""
    before = {r["id"]: r for r in old}
    after = {r["id"]: r for r in new}
    lines, ok = [], True
    for side, ids in (("only in OLD", before.keys() - after.keys()),
                      ("only in NEW", after.keys() - before.keys())):
        if ids:
            ok = False
            lines.append(f"{len(ids)} cases {side}, e.g. {sorted(ids)[0]}")
    same = collections.Counter()
    moves = collections.Counter()
    verdicts = 0
    for case_id in sorted(before.keys() & after.keys()):
        a, b = before[case_id], after[case_id]
        if a["sha256"] == b["sha256"]:
            same[a["class"]] += 1
            continue
        verdicts += a["verdict"] != b["verdict"]
        moves[(a["class"], f"{a['verdict']}: {_label(a['first'])}",
               f"{b['verdict']}: {_label(b['first'])}")] += 1
    for name in sorted({r["class"] for r in new}):
        changed = sum(c for (k, *_), c in moves.items() if k == name)
        lines.append(f"{name}: {same[name]} identical by digest, {changed} changed")
    lines += [f"  {k}: {a} -> {b}: {c}" for (k, a, b), c in sorted(moves.items())]
    lines.append(f"verdict changes: {verdicts}")
    return "\n".join(lines), ok and verdicts == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--output", required=True, help="JSONL file to write")
    parser.add_argument("--classes", default="grid,phase",
                        help="comma-separated: " + ", ".join(CLASSES))
    parser.add_argument("--compare", metavar="OLD.jsonl",
                        help="list the transitions from an earlier census")
    args = parser.parse_args(argv)
    classes = args.classes.split(",")
    if unknown := set(classes) - CLASSES.keys():
        parser.error(f"unknown classes: {', '.join(sorted(unknown))}")
    with open(args.output, "w", encoding="utf-8") as out:
        records = census(classes, SEED, out)
    print(_table(records))
    if args.compare is None:
        return 0
    with open(args.compare, encoding="utf-8") as fh:
        old = [rec for line in fh if (rec := json.loads(line))["class"] in classes]
    report, ok = compare(old, records)
    print(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
