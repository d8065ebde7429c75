"""Command-line front end.

Subcommands: gen, det, lines, compare, rigidity, exceptional, relations,
counterexample.  All file I/O is UTF-8 JSON (CSV for ``exceptional``).
Complex numbers are serialized as [re, im] pairs; floats use Python's
shortest round-trip representation, so identical inputs (and ``--seed``)
produce byte-identical output.

Exit codes: 0 success (for ``rigidity``: verdict equivalent), 1 usage or
input error, 2 hypothesis failed, 3 reconstruction failed.

SPECRIG_TOL overrides the default tolerance; ``--tol`` (lines, compare,
rigidity, counterexample) overrides both.  A family parameter the family
never reads is a usage error.

Each command imports the modules it runs inside its handler, so no command
compiles a module it does not run and ``--version`` loads no other one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .generators import GeneratorTuple


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _tol(given) -> float:
    """``--tol`` if given, else SPECRIG_TOL, else the default; checked."""
    from .linalg import DEFAULT_TOL, _check_tol
    if given is not None:
        return _check_tol(given, "--tol")
    raw = os.environ.get("SPECRIG_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise UsageError(f"SPECRIG_TOL must be a float, got {raw!r}")
    return _check_tol(tol, "SPECRIG_TOL")


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"{out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _dump(obj, out_path):
    """``obj`` as JSON, which has no NaN or infinity: a non-finite float
    (an overflowed residual or coefficient) is written as null."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        text = json.dumps(json.loads(json.dumps(obj), parse_constant=lambda _: None), indent=2)
    _emit(text + "\n", out_path)


def _load_tuple(path) -> GeneratorTuple:
    from .generators import tuple_from_json
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return tuple_from_json(data)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"{path}: malformed tuple JSON ({exc})")


def _parse_complex(raw: str) -> complex:
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise UsageError(f"cannot parse complex number {raw!r}")


def _random_conjugate(base: GeneratorTuple, mode: str, seed: int) -> GeneratorTuple:
    import numpy as np

    from .generators import GeneratorTuple
    rng = np.random.default_rng(seed)
    n = base.n
    if mode == "phase":
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
        phases[0] = 1.0
        w = np.diag(phases)
    else:
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w, r = np.linalg.qr(z)
        w = w @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    mats = tuple(w @ m @ w.conj().T for m in base.matrices)
    return GeneratorTuple(h=mats[0], e=mats[1], f=mats[2], n=n,
                          nu=base.nu, family=base.family)


# the family parameters each family reads, and their defaults; any other one
# given is an error (``limit`` takes only nu = 1 or -1, and 1 by default;
# ``random-conjugate`` also reads those of its base)
_READS = {"snu2": ("n", "nu"), "limit": ("n", "nu"), "sl2": ("n",), "fundamental": ("nu",),
          "onedim": ("nu", "c"), "counterexample": ("alpha", "beta", "gamma", "delta"),
          "random-conjugate": ("base", "mode", "seed")}
_DEFAULTS = {"c": "1", "alpha": "1", "beta": "2", "gamma": "2", "delta": "1",
             "base": "snu2", "mode": "unitary", "seed": 0}


def _family_args(args, fam, flag="--family", also=()) -> dict:
    """The parameters ``fam`` reads (and ``also`` those), defaults filled
    in; one it never reads, or one it needs and lacks, is a usage error
    that names it."""
    reads = _READS[fam] + also
    given = {name: getattr(args, name, None) for name in ("n", "nu", *_DEFAULTS)}
    for name, value in given.items():
        if value is not None and name not in reads:
            raise UsageError(f"{flag} {fam} does not read --{name}")
    if fam == "limit":
        if given["nu"] not in (None, 1.0, -1.0):
            raise UsageError(f"{flag} limit reads only --nu 1 or -1, got {given['nu']!r}")
        given["nu"] = given["nu"] or 1.0
    vals = {name: _DEFAULTS.get(name) if given[name] is None else given[name]
            for name in reads}
    if missing := [name for name, value in vals.items() if value is None]:
        raise UsageError(f"{flag} {fam} requires --{missing[0]}")
    return vals


def _build_base(fam, v) -> GeneratorTuple:
    """The tuple of family ``fam`` from its ``_family_args`` values ``v``."""
    from .generators import (counterexample_tuple, fundamental_generators, one_dim_rep,
                             sl2_generators, snu2_generators)
    if fam in ("snu2", "limit"):
        return snu2_generators(v["n"], v["nu"])
    if fam == "sl2":
        return sl2_generators(v["n"])
    if fam == "fundamental":
        return fundamental_generators(v["nu"])
    if fam == "onedim":
        return one_dim_rep(_parse_complex(v["c"]), v["nu"])
    return counterexample_tuple(*(_parse_complex(v[k]) for k in _READS["counterexample"]))


def _cmd_gen(args) -> int:
    from .generators import tuple_to_json
    if args.family == "random-conjugate":
        base = args.base or _DEFAULTS["base"]
        v = _family_args(args, base, "--base", _READS["random-conjugate"])
        t = _random_conjugate(_build_base(base, v), v["mode"], v["seed"])
    else:
        t = _build_base(args.family, _family_args(args, args.family))
    _dump(tuple_to_json(t), args.output)
    return 0


def _cmd_det(args) -> int:
    from .poly import poly_to_json
    from .spectrum import det_pencil, evaluate_expr, parse_pencil
    t = _load_tuple(args.tuple)
    mats = [evaluate_expr(e, t.matrices) for e in parse_pencil(args.pencil)]
    names = None if args.vars is None else args.vars.split(",")
    if names is not None and len(names) != len(mats):
        raise UsageError(f"--vars lists {len(names)} names for {len(mats)} pencil slots")
    p = det_pencil(mats, names)
    _dump(poly_to_json(p), args.output)
    return 0


def _cmd_lines(args) -> int:
    from .spectrum import evaluate_expr, lines_of_pair, parse_pencil
    t = _load_tuple(args.tuple)
    exprs = parse_pencil(args.pencil)
    if len(exprs) != 2:
        raise UsageError("lines requires a two-slot pencil, e.g. 'A1, A2 A3'")
    a, b = (evaluate_expr(e, t.matrices) for e in exprs)
    lines, certified = lines_of_pair(a, b, args.tol)
    _dump({
        "lines": [{"coeffs": [[c.real, c.imag] for c in l.coeffs], "mult": l.mult}
                  for l in lines],
        "certified": certified,
    }, args.output)
    return 0


def _cmd_compare(args) -> int:
    from .spectrum import spectra_equal
    t1 = _load_tuple(args.tuple)
    t2 = _load_tuple(args.tuple2)
    results = spectra_equal(t1, t2, args.pencil, args.tol)
    _dump({
        "pencils": [r.pencil for r in results],
        "equal": [r.equal for r in results],
        "residuals": [r.residual for r in results],
    }, args.output)
    return 0


def _cmd_rigidity(args) -> int:
    from .rigidity import EQUIVALENT, HYPOTHESIS_FAILED, sl2_rigidity, snu2_rigidity
    _family_args(args, args.family)
    t = _load_tuple(args.tuple)
    if args.family == "snu2":
        rep = snu2_rigidity(t, args.n, args.nu, args.tol)
    else:
        rep = sl2_rigidity(t, args.n, args.tol)
    if args.json:
        _dump(rep.to_json(), args.output)
    else:
        lines = [f"verdict: {rep.verdict}"]
        if rep.residual is not None:
            lines.append(f"residual: {rep.residual!r}")
        lines.extend(f"note: {d}" for d in rep.diagnostics)
        _emit("\n".join(lines) + "\n", args.output)
    if rep.verdict == EQUIVALENT:
        return 0
    return 2 if rep.verdict == HYPOTHESIS_FAILED else 3


def _cmd_exceptional(args) -> int:
    from .exceptional import exceptional_set
    roots = exceptional_set(args.n)
    if args.csv:
        rows = ["i,j,z,nu"]
        rows += [f"{r.i},{r.j},{r.z!r},{r.nu!r}" for r in roots]
        _emit("\n".join(rows) + "\n", args.output)
    elif args.json:
        _dump({"n": args.n,
               "roots": [{"i": r.i, "j": r.j, "z": r.z, "nu": r.nu} for r in roots]},
              args.output)
    else:
        rows = [f"{'i':>3} {'j':>3} {'z':>20} {'nu':>20}"]
        rows += [f"{r.i:>3} {r.j:>3} {r.z:>20.12f} {r.nu:>20.12f}" for r in roots]
        _emit("\n".join(rows) + "\n", args.output)
    return 0


def _cmd_relations(args) -> int:
    from .generators import relation_residuals
    t = _build_base(args.family, _family_args(args, args.family))
    res = relation_residuals(t, args.orientation)
    _dump({
        "family": t.family, "n": t.n, "nu": t.nu,
        "orientation": res.orientation,
        "r1": res.r1, "r2": res.r2, "r3": res.r3,
        "operand_scale": res.scale,
        "max_relative": res.max_relative(),
    }, args.output)
    return 0


def _cmd_counterexample(args) -> int:
    from .generators import sl2_generators, tuple_to_json
    from .linalg import commutator, hs_norm, matrix_to_json
    from .spectrum import spectra_equal
    t = _build_base(args.family, _family_args(args, args.family))
    ref = sl2_generators(3)
    comm = commutator(t.e, t.f)
    same = spectra_equal(t, ref, ["A1, A2, A3"], args.tol)[0]
    _dump({
        "tuple": tuple_to_json(t),
        "commutator_A2_A3": matrix_to_json(comm),
        "commutator_minus_A1_hs": hs_norm(comm - t.h),
        "three_matrix_spectra_equal": same.equal,
        "spectra_residual": same.residual,
    }, args.output)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="specrig", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, tol=False):
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance (default 1e-9, or SPECRIG_TOL)")

    p = sub.add_parser("gen", help="construct a generator tuple")
    p.add_argument("--family", required=True,
                   choices=["snu2", "sl2", "limit", "fundamental", "onedim",
                            "counterexample", "random-conjugate"])
    p.add_argument("--n", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--c", help="scalar parameter of the 1-dim family (default 1)")
    for name in ("alpha", "beta", "gamma", "delta"):
        p.add_argument(f"--{name}", help=f"default {_DEFAULTS[name]}")
    p.add_argument("--base", choices=["snu2", "sl2", "limit", "fundamental"],
                   help="base family for random-conjugate (default snu2)")
    p.add_argument("--mode", choices=["phase", "unitary"], help="default unitary")
    p.add_argument("--seed", type=int, help="default 0")
    add_output(p)

    p = sub.add_parser("det", help="determinant polynomial of a pencil")
    p.add_argument("--tuple", required=True)
    p.add_argument("--pencil", required=True, help="e.g. \"A1, A2 A2^H\"")
    p.add_argument("--vars", default=None, help="comma-separated variable names")
    add_output(p)

    p = sub.add_parser("lines", help="line decomposition of a pair spectrum")
    p.add_argument("--tuple", required=True)
    p.add_argument("--pencil", required=True)
    add_output(p, tol=True)

    p = sub.add_parser("compare", help="compare joint spectra of two tuples")
    p.add_argument("--tuple", required=True)
    p.add_argument("--tuple2", required=True)
    p.add_argument("--pencil", action="append", required=True,
                   help="repeatable; one comparison per pencil")
    add_output(p, tol=True)

    p = sub.add_parser("rigidity", help="verify hypotheses and reconstruct the witness")
    p.add_argument("--tuple", required=True)
    p.add_argument("--family", required=True, choices=["snu2", "sl2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=float)
    p.add_argument("--json", action="store_true", help="full JSON report")
    add_output(p, tol=True)

    p = sub.add_parser("exceptional", help="exceptional deformation parameters")
    p.add_argument("--n", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    add_output(p)

    p = sub.add_parser("relations", help="deformed commutation relation residuals")
    p.add_argument("--family", default="snu2", choices=["snu2", "limit", "fundamental"])
    p.add_argument("--n", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--orientation", default="paper", choices=["paper", "swapped"])
    add_output(p)

    p = sub.add_parser("counterexample", help="the 3x3 non-rigidity family demo")
    p.set_defaults(family="counterexample")
    for name in ("alpha", "beta", "gamma", "delta"):
        p.add_argument(f"--{name}", help=f"default {_DEFAULTS[name]}")
    add_output(p, tol=True)

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "det": _cmd_det,
    "lines": _cmd_lines,
    "compare": _cmd_compare,
    "rigidity": _cmd_rigidity,
    "exceptional": _cmd_exceptional,
    "relations": _cmd_relations,
    "counterexample": _cmd_counterexample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.tol = _tol(getattr(args, "tol", None))
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
