import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specrig.cli import main
from specrig.exceptional import exceptional_set
from specrig.generators import snu2_generators, tuple_from_json, tuple_to_json
from specrig.linalg import hs_norm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_sl2_n3_matrices(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "sl2", "--n", "3")
        assert code == 0
        t = tuple_from_json(json.loads(out))
        assert np.array_equal(t.e, np.array([[0, 2, 0], [0, 0, 2], [0, 0, 0]],
                                            dtype=complex))
        assert np.array_equal(t.h, np.diag([2.0, 0.0, -2.0]))

    def test_snu2_requires_nu(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "snu2", "--n", "4")
        assert code == 1
        assert "requires --nu" in err

    def test_deterministic_output(self, capsys):
        args = ("gen", "--family", "random-conjugate", "--base", "snu2",
                "--n", "5", "--nu", "0.5", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_random_conjugate_phase_mode(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "random-conjugate",
                           "--base", "sl2", "--n", "4", "--mode", "phase", "--seed", "3")
        assert code == 0
        t = tuple_from_json(json.loads(out))
        # a phase conjugation leaves H untouched
        assert np.allclose(t.h, np.diag([3.0, 1.0, -1.0, -3.0]))

    def test_counterexample_family(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "counterexample",
                           "--alpha", "2", "--beta", "1", "--gamma", "1", "--delta", "2")
        assert code == 0
        t = tuple_from_json(json.loads(out))
        assert t.e[0, 1] == 2.0

    def test_underflowing_nu_named(self, capsys):
        # nu^2 rounds to 0 and h_2 = nu^-2 leaves float64
        code, out, err = run(capsys, "gen", "--family", "snu2", "--n", "3", "--nu", "1e-170")
        assert (code, out, err) == (1, "", "error: the ladder at n=3, nu=1e-170 overflows float64\n")

    def test_onedim_family(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "onedim", "--c", "2", "--nu", "0.5")
        assert code == 0
        assert tuple_from_json(json.loads(out)).n == 1
        code, out, err = run(capsys, "gen", "--family", "onedim")
        assert (code, out, err) == (1, "", "error: --family onedim requires --nu\n")


class TestDet:
    def test_affine_sl2_pencil(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(path))
        code, out, _ = run(capsys, "det", "--tuple", str(path),
                           "--pencil", "A1, A2, A3", "--vars", "x,y,z")
        assert code == 0
        blob = json.loads(out)
        terms = {tuple(t["exp"]): complex(t["re"], t["im"]) for t in blob["terms"]}
        # det(x H3 + y E3 + z F3 - I) = 4x^2 + 4yz - 1
        assert blob["vars"] == ["x", "y", "z"]
        assert terms[(2, 0, 0)] == pytest.approx(4.0, abs=1e-10)
        assert terms[(0, 1, 1)] == pytest.approx(4.0, abs=1e-10)
        assert terms[(0, 0, 0)] == pytest.approx(-1.0, abs=1e-10)

    def test_vars_must_name_every_slot(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(path))
        code, out, err = run(capsys, "det", "--tuple", str(path), "--pencil", "A1, A2",
                             "--vars", "x")
        assert (code, out, err) == (1, "", "error: --vars lists 1 names for 2 pencil slots\n")

    @pytest.mark.parametrize("names", ["x,x", "x,"])
    def test_vars_distinct_and_non_empty(self, capsys, tmp_path, names):
        # both exited 0 and wrote the names as given
        path = tmp_path / "t.json"
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(path))
        code, out, err = run(capsys, "det", "--tuple", str(path), "--pencil", "A1, A2 A3",
                             "--vars", names)
        second = names.split(",")[1]
        assert (code, out, err) == (1, "", "error: variable names must be distinct and "
                                           f"non-empty, got ['x', '{second}']\n")

    def test_missing_file_reported(self, capsys):
        code, _, err = run(capsys, "det", "--tuple", "/nonexistent.json",
                           "--pencil", "A1")
        assert code == 1
        assert "/nonexistent.json" in err

    def test_malformed_file_reported(self, capsys, tmp_path):
        # a missing matrix, an n that is no JSON integer or does not match
        # the matrices, a nu outside [-1, 1] \ {0}, an unknown family
        good = tuple_to_json(snu2_generators(2, 0.5))
        blobs = [{"matrices": {"H": {"n": 2, "entries": [[[1, 0]], [[0, 0]]]}}},
                 *({**good, key: value} for key, value in (
                     ("n", 2.5), ("n", "2"), ("n", True), ("n", 3), ("nu", "nan"),
                     ("nu", 1.5), ("nu", 0), ("family", "su3")))]
        path = tmp_path / "bad.json"
        for blob in blobs:
            path.write_text(json.dumps(blob))
            code, _, err = run(capsys, "det", "--tuple", str(path), "--pencil", "A1")
            assert code == 1, blob
            assert "bad.json" in err, blob
        path.write_text(json.dumps(good))
        assert run(capsys, "det", "--tuple", str(path), "--pencil", "A1")[0] == 0


class TestLines:
    def test_ladder_pair(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "gen", "--family", "snu2", "--n", "4", "--nu", "0.5",
            "-o", str(path))
        code, out, _ = run(capsys, "lines", "--tuple", str(path),
                           "--pencil", "A1, A2 A2^H")
        assert code == 0
        blob = json.loads(out)
        assert blob["certified"] is True
        assert sum(l["mult"] for l in blob["lines"]) == 4

    def test_three_slot_pencil_exits_one(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(path))
        code, out, err = run(capsys, "lines", "--tuple", str(path), "--pencil", "A1, A2, A3")
        assert (code, out) == (1, "")
        assert err == "error: lines requires a two-slot pencil, e.g. 'A1, A2 A3'\n"


class TestCompare:
    def test_counterexample_vs_sl2(self, capsys, tmp_path):
        p1 = tmp_path / "ce.json"
        p2 = tmp_path / "sl2.json"
        run(capsys, "gen", "--family", "counterexample", "-o", str(p1))
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(p2))
        code, out, _ = run(capsys, "compare", "--tuple", str(p1), "--tuple2", str(p2),
                           "--pencil", "A1, A2, A3", "--pencil", "A1, A2 A2^H")
        assert code == 0
        blob = json.loads(out)
        assert blob["equal"] == [True, False]


class TestRigidity:
    def test_roundtrip_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "random-conjugate", "--base", "snu2",
            "--n", "5", "--nu", "0.5", "--seed", "11", "-o", str(path))
        code, out, _ = run(capsys, "rigidity", "--tuple", str(path),
                           "--family", "snu2", "--n", "5", "--nu", "0.5",
                           "--tol", "1e-8", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["verdict"] == "equivalent"
        assert blob["witness"]["n"] == 5

    def test_sl2_conjugate_text_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "random-conjugate", "--base", "sl2",
            "--n", "5", "--seed", "4", "-o", str(path))
        code, out, _ = run(capsys, "rigidity", "--tuple", str(path),
                           "--family", "sl2", "--n", "5", "--tol", "1e-8")
        assert code == 0
        verdict, residual = out.splitlines()
        assert verdict == "verdict: equivalent"
        assert residual.startswith("residual: ") and float(residual.split()[1]) <= 1e-8

    def test_snu2_requires_nu(self, capsys, tmp_path):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "4", "--nu", "0.5", "-o", str(path))
        code, out, err = run(capsys, "rigidity", "--tuple", str(path),
                             "--family", "snu2", "--n", "4")
        assert (code, out, err) == (1, "", "error: --family snu2 requires --nu\n")

    def test_mixed_slot_shapes_exit_one(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        blob = tuple_to_json(snu2_generators(5, 0.5))
        blob["matrices"]["E"] = tuple_to_json(snu2_generators(4, 0.5))["matrices"]["E"]
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, "rigidity", "--tuple", str(path),
                             "--family", "snu2", "--n", "5", "--nu", "0.5")
        assert (code, out) == (1, "")
        assert err == (f"error: {path}: malformed tuple JSON (the three slots must share one "
                       "shape, got A1 5x5, A2 4x4, A3 5x5)\n")

    def test_wrong_reference_exit_two(self, capsys, tmp_path):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "5", "--nu", "0.5",
            "-o", str(path))
        code, out, _ = run(capsys, "rigidity", "--tuple", str(path),
                           "--family", "snu2", "--n", "5", "--nu", "0.7")
        assert code == 2
        assert "hypothesis_failed" in out

    def test_tampered_nonzero_exit(self, capsys, tmp_path):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "4", "--nu", "0.5",
            "-o", str(path))
        blob = json.loads(path.read_text())
        blob["matrices"]["E"]["entries"][0][1][0] += 1e-4
        path.write_text(json.dumps(blob))
        code, _, _ = run(capsys, "rigidity", "--tuple", str(path),
                         "--family", "snu2", "--n", "4", "--nu", "0.5")
        assert code in (2, 3)


    def test_small_nu_n64_reference_exit_zero(self, capsys, tmp_path):
        # ||H|| is about 2.1e161: its square overflowed into a traceback
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "64", "--nu", "0.05",
            "-o", str(path))
        code, out, err = run(capsys, "rigidity", "--tuple", str(path),
                             "--family", "snu2", "--n", "64", "--nu", "0.05", "--json")
        assert code == 0, err
        blob = json.loads(out)
        assert blob["verdict"] == "equivalent"
        assert blob["residual"] == 0.0


class TestExceptional:
    def test_n4_row(self, capsys):
        code, out, _ = run(capsys, "exceptional", "--n", "4", "--json")
        assert code == 0
        blob = json.loads(out)
        assert len(blob["roots"]) == 1
        r = blob["roots"][0]
        assert (r["i"], r["j"]) == (2, 3)
        assert abs(r["z"] - 0.7548776662) < 1e-9
        assert abs(r["nu"] - 0.8688369) < 1e-6

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "exceptional", "--n", "8")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == f"{'i':>3} {'j':>3} {'z':>20} {'nu':>20}"
        roots = exceptional_set(8)
        assert len(rows) == len(roots)
        for row, r in zip(rows, roots):
            i, j, z, nu = row.split()
            assert (int(i), int(j)) == (r.i, r.j)
            assert abs(float(z) - r.z) <= 1e-12 and abs(float(nu) - r.nu) <= 1e-12

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "exceptional", "--n", "5", "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,j,z,nu"
        assert len(lines) == 3  # header + two pairs

    def test_csv_n200_roots(self, capsys):
        n = 200
        code, out, _ = run(capsys, "exceptional", "--n", str(n), "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,j,z,nu"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9801
        worst = max(abs(1.0 + z**n - z ** (n - int(j)) - z ** (n - int(i)))
                    for i, j, z in ((i, j, float(z)) for i, j, z, _ in rows))
        assert worst <= 1e-11

    def test_json_and_csv_exclusive(self, capsys):
        # one output format per run: neither flag is dropped silently
        code, out, err = run(capsys, "exceptional", "--n", "3", "--json", "--csv")
        assert (code, out, err) == (1, "", "error: argument --csv: not allowed with "
                                           "argument --json\n")


class TestRelations:
    def test_snu2_swapped(self, capsys):
        code, out, _ = run(capsys, "relations", "--family", "snu2", "--n", "6",
                           "--nu", "0.5", "--orientation", "swapped")
        assert code == 0
        blob = json.loads(out)
        assert blob["max_relative"] <= 1e-12

    def test_fundamental_paper(self, capsys):
        code, out, _ = run(capsys, "relations", "--family", "fundamental",
                           "--nu", "-0.9", "--orientation", "paper")
        blob = json.loads(out)
        assert max(blob["r1"], blob["r2"], blob["r3"]) <= 1e-12

    @pytest.mark.parametrize("family,argv,message", [
        ("fundamental", (), "error: --family fundamental requires --nu\n"),
        ("limit", (), "error: --family limit requires --n\n"),
        ("snu2", ("--nu", "0.5"), "error: --family snu2 requires --n\n"),
        ("snu2", ("--n", "4"), "error: --family snu2 requires --nu\n"),
    ], ids=["fundamental", "limit", "snu2-no-n", "snu2-no-nu"])
    def test_missing_parameter_exits_one(self, capsys, family, argv, message):
        code, out, err = run(capsys, "relations", "--family", family, *argv)
        assert code == 1
        assert out == ""
        assert err == message

    def test_limit_defaults_to_nu_one(self, capsys):
        code, out, _ = run(capsys, "relations", "--family", "limit", "--n", "4")
        assert code == 0
        assert json.loads(out)["nu"] == 1.0


class TestCounterexampleCommand:
    def test_demo_payload(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--alpha", "1", "--beta", "2",
                           "--gamma", "2", "--delta", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["three_matrix_spectra_equal"] is True
        assert blob["commutator_minus_A1_hs"] >= 1.0

    def test_constraint_violation(self, capsys):
        code, _, err = run(capsys, "counterexample", "--alpha", "1", "--beta", "1",
                           "--gamma", "1", "--delta", "1")
        assert code == 1


class TestEnvTol:
    def test_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECRIG_TOL", "not-a-float")
        code, _, err = run(capsys, "exceptional", "--n", "4")
        assert code == 1
        assert "SPECRIG_TOL" in err

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "not-a-family")
        assert code == 1


class TestArgumentChecks:
    NU_NAN = "error: nu must lie in [-1, 1] excluding 0, got nan\n"

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "snu2", "--n", "4", "--nu", "nan"),
        ("relations", "--family", "snu2", "--n", "4", "--nu", "nan"),
        ("relations", "--family", "fundamental", "--nu", "nan"),
    ], ids=["gen", "relations", "fundamental"])
    def test_nan_nu_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", self.NU_NAN)

    def test_rigidity_nan_nu_exits_one(self, capsys, tmp_path):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "4", "--nu", "0.5", "-o", str(path))
        code, out, err = run(capsys, "rigidity", "--tuple", str(path), "--family", "snu2",
                             "--n", "4", "--nu", "nan")
        assert (code, out, err) == (1, "", self.NU_NAN)

    @pytest.fixture
    def random_triple(self, tmp_path):
        # a random real 4 x 4 triple: an infinite tolerance called it equivalent
        rng = np.random.default_rng(3)
        mats = {k: {"n": 4, "entries": [[[float(x), 0.0] for x in row]
                                        for row in rng.normal(size=(4, 4))]}
                for k in ("H", "E", "F")}
        path = tmp_path / "random.json"
        path.write_text(json.dumps({"family": "snu2", "n": 4, "nu": 0.5, "matrices": mats}))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "sl2", "--n", "3"),
        ("det", "--tuple", "unread.json", "--pencil", "A1, A2"),
        ("exceptional", "--n", "3"),
        ("relations", "--family", "snu2", "--n", "4", "--nu", "0.5"),
    ], ids=["gen", "det", "exceptional", "relations"])
    def test_tol_only_where_read(self, capsys, argv):
        # these commands read no tolerance, so --tol is not theirs to accept
        code, out, err = run(capsys, *argv, "--tol", "5")
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --tol 5\n")

    @pytest.mark.parametrize("argv,message", [
        (("gen", "--family", "limit", "--n", "3", "--nu", "0.5"),
         "--family limit reads only --nu 1 or -1, got 0.5"),
        (("gen", "--family", "sl2", "--n", "3", "--nu", "0.5"), "--family sl2 does not read --nu"),
        (("gen", "--family", "fundamental", "--n", "7", "--nu", "0.5"),
         "--family fundamental does not read --n"),
        (("relations", "--family", "fundamental", "--n", "9", "--nu", "0.5"),
         "--family fundamental does not read --n"),
        (("gen", "--family", "snu2", "--n", "3", "--nu", "0.5", "--c", "2"),
         "--family snu2 does not read --c"),
        (("gen", "--family", "random-conjugate", "--base", "limit", "--n", "3", "--nu", "0.5"),
         "--base limit reads only --nu 1 or -1, got 0.5"),
        (("gen", "--family", "random-conjugate", "--base", "sl2", "--n", "3", "--nu", "0.5"),
         "--base sl2 does not read --nu"),
        (("gen", "--family", "random-conjugate", "--base", "fundamental", "--n", "7",
          "--nu", "0.5"), "--base fundamental does not read --n"),
    ], ids=["gen-limit-nu", "gen-sl2-nu", "gen-fundamental-n", "relations-fundamental-n",
            "gen-snu2-c", "base-limit-nu", "base-sl2-nu", "base-fundamental-n"])
    def test_flag_a_family_never_reads(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_rigidity_sl2_reads_no_nu(self, capsys, tmp_path):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(path))
        code, out, err = run(capsys, "rigidity", "--tuple", str(path), "--family", "sl2",
                             "--n", "3", "--nu", "0.5")
        assert (code, out, err) == (1, "", "error: --family sl2 does not read --nu\n")

    @pytest.mark.parametrize("nu", ["1", "-1"])
    def test_limit_reads_unit_nu(self, capsys, nu):
        code, out, _ = run(capsys, "gen", "--family", "limit", "--n", "3", "--nu", nu)
        assert code == 0
        assert tuple_from_json(json.loads(out)).nu == float(nu)

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_option_exits_one(self, capsys, random_triple, tol):
        code, out, err = run(capsys, "rigidity", "--tuple", random_triple, "--family", "snu2",
                             "--n", "4", "--nu", "0.5", "--tol", tol)
        assert (code, out) == (1, "")
        assert err == f"error: --tol must be finite and positive, got {float(tol)!r}\n"

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_env_tol_exits_one(self, capsys, monkeypatch, random_triple, tol):
        monkeypatch.setenv("SPECRIG_TOL", tol)
        code, out, err = run(capsys, "rigidity", "--tuple", random_triple, "--family", "snu2",
                             "--n", "4", "--nu", "0.5")
        assert (code, out) == (1, "")
        assert err == f"error: SPECRIG_TOL must be finite and positive, got {float(tol)!r}\n"

    @staticmethod
    def _overflowing_fixture(capsys, tmp_path):
        """The n = 10, nu = 0.5 reference with 1e300 added to every A2
        entry: every entry is finite, A2 A2^H is not."""
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "10", "--nu", "0.5", "-o", str(path))
        blob = json.loads(path.read_text())
        for row in blob["matrices"]["E"]["entries"]:
            for pair in row:
                pair[0] += 1e300
        path.write_text(json.dumps(blob))
        return str(path)

    def test_overflowing_products_exit_one(self, capsys, tmp_path):
        path = self._overflowing_fixture(capsys, tmp_path)
        code, out, err = run(capsys, "rigidity", "--tuple", path, "--family", "snu2",
                             "--n", "10", "--nu", "0.5")
        assert (code, out, err) == (1, "", "error: the candidate's pencil products "
                                           "overflow float64\n")

    @pytest.mark.parametrize("family,n,key", [("sl2", 6, "F"), ("snu2", 10, "E"),
                                              ("snu2", 10, "F")])
    def test_overflowing_products_print_one_line(self, capsys, tmp_path, family, n, key):
        # a child process, so numpy's warnings would reach its stderr
        path = tmp_path / "fix.json"
        nu = ("--nu", "0.5") if family == "snu2" else ()
        assert run(capsys, "gen", "--family", family, "--n", str(n), *nu, "-o", str(path))[0] == 0
        blob = json.loads(path.read_text())
        for row in blob["matrices"][key]["entries"]:
            for pair in row:
                pair[0] += 1e300
        path.write_text(json.dumps(blob))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "specrig.cli", "rigidity", "--tuple",
                               str(path), "--family", family, "--n", str(n), *nu],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: the candidate's pencil products overflow float64\n")

    @pytest.mark.parametrize("where,value,message", [
        ("nu", "0.5", "'nu' must be a JSON number, got '0.5'"),
        ("entry", ["0.75", "0"], "entry (0,0) must be a pair of JSON numbers, "
                                 "got ['0.75', '0']"),
        ("entry", [10 ** 400, 0], "int too large to convert to float")])
    def test_non_number_json_exits_one(self, capsys, tmp_path, where, value, message):
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "3", "--nu", "0.5", "-o", str(path))
        blob = json.loads(path.read_text())
        if where == "nu":
            blob["nu"] = value
        else:
            blob["matrices"]["H"]["entries"][0][0] = value
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, "rigidity", "--tuple", str(path), "--family", "snu2",
                             "--n", "3", "--nu", "0.5")
        assert (code, out, err) == (1, "", f"error: {path}: malformed tuple JSON ({message})\n")

    def test_overflowing_pencil_product_named(self, capsys, tmp_path):
        path = self._overflowing_fixture(capsys, tmp_path)
        ref = tmp_path / "ref.json"
        run(capsys, "gen", "--family", "snu2", "--n", "10", "--nu", "0.5", "-o", str(ref))
        error = (1, "", "error: a pencil product of finite slots overflows float64\n")
        assert run(capsys, "det", "--tuple", path, "--pencil", "A1, A2 A2^H") == error
        assert run(capsys, "compare", "--tuple", str(ref), "--tuple2", path,
                   "--pencil", "A1, A2 A2^H") == error

    def test_generator_overflow_exits_one(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "gen", "--family", "snu2", "--n", "3", "--nu", "0.5", "-o", str(path))
        error = (1, "", "error: the ladder at n=60, nu=0.002 overflows float64\n")
        assert run(capsys, "gen", "--family", "snu2", "--n", "60", "--nu", "0.002") == error
        assert run(capsys, "rigidity", "--tuple", str(path), "--family", "snu2",
                   "--n", "60", "--nu", "0.002") == error

    def test_random_triple_fails_at_valid_tol(self, capsys, random_triple):
        code, out, _ = run(capsys, "rigidity", "--tuple", random_triple, "--family", "snu2",
                           "--n", "4", "--nu", "0.5", "--tol", "0.5")
        assert code in (2, 3)
        assert "verdict: equivalent" not in out


class TestConsoleEntry:
    def test_env_tol_applied(self, capsys, monkeypatch, tmp_path):
        # a huge tolerance from the environment lets a visibly scaled
        # tuple pass the spectra comparison
        path = tmp_path / "a.json"
        path2 = tmp_path / "b.json"
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(path))
        blob = json.loads(path.read_text())
        blob["matrices"]["E"]["entries"][0][1][0] *= 1.0001
        path2.write_text(json.dumps(blob))
        monkeypatch.setenv("SPECRIG_TOL", "0.1")
        code, out, _ = run(capsys, "compare", "--tuple", str(path),
                           "--tuple2", str(path2), "--pencil", "A1, A2 A2^H")
        assert json.loads(out)["equal"] == [True]
        monkeypatch.delenv("SPECRIG_TOL")
        code, out, _ = run(capsys, "compare", "--tuple", str(path),
                           "--tuple2", str(path2), "--pencil", "A1, A2 A2^H")
        assert json.loads(out)["equal"] == [False]
