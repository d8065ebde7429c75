"""A seeded fuzz of the CLI grammar, run in-process through ``cli.main``.

Every subcommand is drawn in a valid form, then mutated: values replaced
by numbers that include inf, nan and 1e400, pencil strings made of stray
tokens, flags of other commands added, tokens dropped.  The tuple files
are the ladder triples or conjugates of them, valid or mutated (missing
keys, wrong types, ragged rows, non-finite entries, tampered entries).
Every run must return an exit code in 0..3 without raising,
RuntimeWarnings included; an exit 1 prints exactly one ``error:`` line on
stderr and any other exit prints nothing there.  Commands that build
matrices see n <= 12 and ``exceptional`` n <= 40.

Each example draws one ``random.Random`` from hypothesis (derandomized,
so the run is the same every time) and builds its case from it, so
every example is a distinct case, at the rates written below.
"""

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specrig.cli import main
from specrig.generators import (counterexample_tuple, sl2_generators, snu2_generators,
                                tuple_to_json)

from conftest import random_unitary

FUZZ = settings(derandomize=True, max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

JUNK = ["0", "-1", "inf", "-inf", "nan", "1e400", "-1e400", "1e-320",
        "1.5e308+1.5e308j", "2j", "abc", ""]
SIZES = ["2", "3", "5", "8", "12"]
NUS = ["0.3", "0.5", "-0.7", "0.05", "0.95", "1", "-1"]
COMPLEX = ["1", "2", "0.5", "4", "2j", "-1j", "1+1j"]
# counterexample parameters: pairs whose product is 2, and values that are
# not finite or whose products overflow
PAIRS = [("1", "2"), ("2", "1"), ("4", "0.5"), ("2j", "-1j"), ("1+1j", "1-1j")]
BAD_COMPLEX = ["inf", "-infj", "nan", "1e400", "1.5e308+1.5e308j", "0"]
TOLS = ["1e-9", "1e-6", "1e-3"]
PENCILS = ["A1, A2 A2^H", "A1, A2^H A2", "A1, A3 A3^H", "A1, A3^H A3", "A1, A2 A3",
           "H, E, F", "A1, A2", "E^H E, H", "A1, A2, A3, A1 A2"]
# junk pencils: stray tokens, an empty slot, or more slots than det_pencil takes
ATOMS = ["A1", "A2", "A3", "H", "E", "F", "^H", ",", " ", "x", "(", "A4", "^"]
BAD_PENCILS = ["", "A1, A2, A3, A1, A2", "A1,, A2"]
FOREIGN = ["--n", "--nu", "--c", "--alpha", "--tuple", "--pencil", "--family", "--json",
           "--csv", "--tol", "--seed", "--bogus", "-x"]
COMMANDS = ["gen", "det", "lines", "compare", "rigidity", "exceptional", "relations",
            "counterexample"]


class _Draw:
    """The choices of one case, from one seeded ``random.Random``."""

    def __init__(self, rnd):
        self.rnd = rnd

    def sometimes(self, odds):
        """True about one time in ``odds``."""
        return self.rnd.randrange(odds) == 0

    def pick(self, values):
        return self.rnd.choice(values)

    def value(self, valid, junk=JUNK):
        """A valid value, or, about one time in six, a junk one."""
        return self.pick(junk if self.sometimes(6) else valid)

    def maybe(self, flag, valid, junk=JUNK):
        return [flag, self.value(valid, junk)] if self.sometimes(2) else []

    def pencil(self, valid=PENCILS):
        if not self.sometimes(6):
            return self.pick(valid)
        if self.sometimes(2):
            return self.pick(BAD_PENCILS)
        return "".join(self.pick(ATOMS) for _ in range(self.rnd.randrange(9)))

    def family_flags(self, family, n, nu):
        """The flags of ``gen`` / ``relations`` that ``family`` reads."""
        n_flag = ["--n", self.value([str(n), *SIZES], ["-1", "0", "1", "x", "2.5"])]
        nu_flag = ["--nu", self.value(NUS if nu is None else [str(nu), *NUS])]
        if family == "snu2":
            return n_flag + nu_flag
        if family in ("sl2", "limit"):
            return n_flag + self.maybe("--nu", ["1", "-1"])
        if family == "fundamental":
            return nu_flag
        if family == "onedim":
            return nu_flag + self.maybe("--c", COMPLEX)
        flags = []  # counterexample: each pair left out, valid, or with a junk member
        for names in (("--alpha", "--gamma"), ("--beta", "--delta")):
            form, pair = self.pick(["default", "pair", "junk", "junk"]), self.pick(PAIRS)
            if form == "pair":
                flags += [names[0], pair[0], names[1], pair[1]]
            elif form == "junk":  # the other member given, or left at its default
                k = self.rnd.randrange(2)
                flags += [names[k], self.pick(BAD_COMPLEX)]
                flags += [names[1 - k], pair[1 - k]] if self.sometimes(2) else []
        return flags

    def argv(self, family, n, nu):
        """A command line, valid for the tuple file ``a.json`` of (family,
        n, nu) before its mutations."""
        command = self.pick(COMMANDS)
        tuple_ = ["--tuple", self.value(["a.json"], ["b.json", "missing.json", "."])]
        tol = self.maybe("--tol", TOLS)
        if command == "gen":
            fam = self.pick(["snu2", "sl2", "limit", "fundamental", "onedim", "counterexample",
                             "random-conjugate"])
            argv = ["--family", fam]
            if fam == "random-conjugate":
                base = self.pick(["snu2", "sl2", "limit", "fundamental"])
                argv += ["--base", base, *self.family_flags(base, n, nu),
                         *self.maybe("--mode", ["phase", "unitary"], ["other"]),
                         *self.maybe("--seed", ["0", "7"], ["-1", "x"])]
            else:
                argv += self.family_flags(fam, n, nu)
        elif command == "det":
            argv = tuple_ + ["--pencil", self.pencil()]
            argv += self.maybe("--vars", ["x,y", "x,y,z", "p,q,r,s"], ["x,x", "x,", "", "a b"])
        elif command == "lines":
            argv = tuple_ + ["--pencil", self.pencil(PENCILS[:5])] + tol
        elif command == "compare":
            argv = tuple_ + ["--tuple2", self.pick(["a.json", "b.json"])] + tol
            for _ in range(1 + self.rnd.randrange(3)):
                argv += ["--pencil", self.pencil()]
        elif command == "rigidity":
            fam = family if family in ("snu2", "sl2") else self.pick(["snu2", "sl2"])
            # the tuple's own n and nu, or one time in four any other value
            argv = tuple_ + ["--family", fam,
                             "--n", self.value(SIZES) if self.sometimes(4) else str(n)]
            if fam == "snu2":
                argv += ["--nu", self.value(NUS) if self.sometimes(4) or nu is None
                         else str(nu)]
            argv += tol + (["--json"] if self.sometimes(2) else [])
        elif command == "exceptional":
            argv = ["--n", self.value(["2", "4", "6", "12", "24", "40"], ["-1", "0", "1", "x"])]
            argv += self.pick([[], [], ["--json"], ["--csv"], ["--json", "--csv"]])
        elif command == "relations":
            fam = self.pick(["snu2", "limit", "fundamental"])
            argv = ["--family", fam, *self.family_flags(fam, n, nu)]
            argv += self.maybe("--orientation", ["paper", "swapped"], ["other"])
        else:
            argv = self.family_flags("counterexample", n, nu) + tol
        if self.sometimes(2):
            argv += ["-o", self.value(["out.txt"], [".", "missing/out.txt"])]
        argv = [command, *argv]
        if self.sometimes(10):  # a flag the command may not have, or one without its value
            argv.insert(1 + self.rnd.randrange(len(argv)), self.pick(FOREIGN))
        elif self.sometimes(10):
            argv.pop(self.rnd.randrange(len(argv)))
        return argv

    def tuple_text(self, family, n, nu):
        """The text of a tuple file: the (family, n, nu) triple or a unitary
        conjugate of it, valid or with one mutation."""
        base = (counterexample_tuple(1, 2, 2, 1) if family == "counterexample" else
                sl2_generators(n) if family == "sl2" else snu2_generators(n, nu))
        obj = tuple_to_json(base)
        if self.sometimes(2):
            w = random_unitary(np.random.default_rng(self.rnd.getrandbits(32)), base.n)
            obj["matrices"] = {
                key: {"n": base.n, "entries": (w @ m @ w.conj().T)[..., None].view(float).tolist()}
                for key, m in zip("HEF", base.matrices)}
        mats = obj["matrices"]
        slot = self.pick("HEF")
        row = self.pick(mats[slot]["entries"])
        j, part = self.rnd.randrange(len(row)), self.rnd.randrange(2)
        kind = "valid" if self.sometimes(2) else self.pick([
            "tamper", "drop", "drop_matrix", "type", "ragged", "nonfinite", "literal", "size",
            "text"])
        if kind == "tamper":
            row[j][part] += self.pick([1e-6, 1e-3, 1.0, 1e300])
        elif kind == "drop":
            del obj[self.pick(["matrices", "n", "nu", "family"])]
        elif kind == "drop_matrix":
            key = self.pick(["n", "entries", ""])
            del (mats[slot] if key else mats)[key or slot]
        elif kind == "type":
            value = self.pick(["1", None, True, [], {}, 1.5])
            target = self.pick(["n", "nu", "family", "matrices", "H", "entry"])
            if target == "H":
                mats["H"] = value
            elif target == "entry":
                row[j][part] = value
            else:
                obj[target] = value
        elif kind == "ragged":
            row.pop()
        elif kind == "nonfinite":  # json writes these as Infinity and NaN, and reads them back
            row[j][part] = self.pick([math.inf, -math.inf, math.nan])
        elif kind == "literal":  # a literal that reads as inf
            row[j][part] = "BIG"
            return json.dumps(obj).replace('"BIG"', "1e400")
        elif kind == "size":
            obj["n"] = self.pick([0, -1, base.n + 1, 1000])
        elif kind == "text":
            return self.pick(["", "{", "[]", "null", "1e400", '{"matrices": []}'])
        return json.dumps(obj)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(rnd=st.randoms(use_true_random=True))
def test_cli_exits_cleanly(work, rnd):
    draw = _Draw(rnd)
    family = draw.pick(["snu2", "snu2", "sl2", "counterexample"])
    n = 3 if family == "counterexample" else int(draw.pick(SIZES))
    nu = float(draw.pick(NUS)) if family == "snu2" else None
    argv = draw.argv(family, n, nu)
    (work / "a.json").write_text(draw.tuple_text(family, n, nu), encoding="utf-8")
    (work / "b.json").write_text(draw.tuple_text(family, n, nu), encoding="utf-8")
    env_tol = draw.pick(["1e-6", "nan", "0", "abc"]) if draw.sometimes(10) else None
    out, err = io.StringIO(), io.StringIO()
    saved, cwd = os.environ.pop("SPECRIG_TOL", None), os.getcwd()
    if env_tol is not None:
        os.environ["SPECRIG_TOL"] = env_tol
    try:
        os.chdir(work)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    finally:
        os.chdir(cwd)
        os.environ.pop("SPECRIG_TOL", None)
        if saved is not None:
            os.environ["SPECRIG_TOL"] = saved
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    else:
        assert lines == [], (argv, lines)
