import json

import numpy as np
import pytest

from specrig.cli import main
from specrig.generators import tuple_from_json
from specrig.linalg import hs_norm
from specrig.poly import poly_from_json


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


class TestDet:
    def test_affine_sl2_pencil(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "gen", "--family", "sl2", "--n", "3", "-o", str(path))
        code, out, _ = run(capsys, "det", "--tuple", str(path),
                           "--pencil", "A1, A2, A3", "--vars", "x,y,z")
        assert code == 0
        p = poly_from_json(json.loads(out))
        # det(x H3 + y E3 + z F3 - I) = 4x^2 + 4yz - 1
        assert p.vars == ("x", "y", "z")
        assert p.terms[(2, 0, 0)] == pytest.approx(4.0, abs=1e-10)
        assert p.terms[(0, 1, 1)] == pytest.approx(4.0, abs=1e-10)
        assert p.terms[(0, 0, 0)] == pytest.approx(-1.0, abs=1e-10)

    def test_missing_file_reported(self, capsys):
        code, _, err = run(capsys, "det", "--tuple", "/nonexistent.json",
                           "--pencil", "A1")
        assert code == 1
        assert "/nonexistent.json" in err

    def test_malformed_file_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"matrices": {"H": {"n": 2, "entries": [[[1,0]],[[0,0]]]}}}')
        code, _, err = run(capsys, "det", "--tuple", str(path), "--pencil", "A1")
        assert code == 1
        assert "bad.json" in err


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

    def test_overflowing_products_exit_one(self, capsys, tmp_path):
        # every entry is finite; the pencil products of the candidate are not
        path = tmp_path / "fix.json"
        run(capsys, "gen", "--family", "snu2", "--n", "10", "--nu", "0.5", "-o", str(path))
        blob = json.loads(path.read_text())
        for row in blob["matrices"]["E"]["entries"]:
            for pair in row:
                pair[0] += 1e300
        path.write_text(json.dumps(blob))
        with pytest.warns(RuntimeWarning):
            code, out, err = run(capsys, "rigidity", "--tuple", str(path), "--family", "snu2",
                                 "--n", "10", "--nu", "0.5")
        assert (code, out, err) == (1, "", "error: the candidate's pencil products "
                                           "overflow float64\n")

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
