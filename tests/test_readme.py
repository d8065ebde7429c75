"""The README's quickstart and command-line examples run as written."""

import pathlib
import re
import shlex
import shutil

import numpy as np

from specrig.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    text = README.read_text(encoding="utf-8")
    return text[text.index(f"\n## {title}\n"):]


def test_quickstart_runs():
    code = re.search(r"```python\n(.*?)```", _section("Quickstart"), re.S).group(1)
    np.random.seed(0)  # the quickstart draws a random unitary
    exec(compile(code, f"{README}:Quickstart", "exec"), {})


def test_command_line_runs(tmp_path, monkeypatch, capsys):
    # each `specrig ...` line in order, in one directory; the tuples a.json
    # and b.json that `compare` reads are copies of fix.json
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("specrig ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPECRIG_TOL", raising=False)
    for argv in commands:
        if "a.json" in argv:
            for name in ("a.json", "b.json"):
                shutil.copy("fix.json", name)
        assert main(argv) == 0, (argv, capsys.readouterr().err)
