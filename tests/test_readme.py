"""README's CLI examples, run through cli.main.

Each ``padicore ...`` line in a ``sh`` block of README.md is one example.
When the line below it is a ``# ...`` comment, the example must print
exactly that; otherwise it must succeed.
"""

import io
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from padicore.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    lines = README.read_text().splitlines()
    examples = []
    in_sh = False
    for line, below in zip(lines, lines[1:] + [""]):
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("padicore "):
            expected = below[2:] + "\n" if below.startswith("# ") else None
            examples.append(pytest.param(shlex.split(line)[1:], expected, id=line))
    return examples


def test_readme_has_cli_examples():
    assert len(_examples()) >= 10


@pytest.mark.parametrize("argv, expected", _examples())
def test_readme_cli_example(argv, expected):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    if expected is not None:
        assert out.getvalue() == expected
