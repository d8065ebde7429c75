"""The README's quickstart runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Quickstart\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    np.random.seed(0)  # the quickstart draws a random unitary
    exec(compile(code, f"{README}:Quickstart", "exec"), {})
