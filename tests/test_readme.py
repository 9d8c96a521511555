"""The README's examples run as written.

Every ``catsize ...`` line of the command-line block runs through the
process entry, and the library quick start runs as a script.  numpy is
loaded here before any command runs, so the entry leaves ``os.environ``
as it is.
"""

import re
import shlex
from pathlib import Path

import numpy  # noqa: F401
import pytest

from catsize.__main__ import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block_after(heading: str, lang: str) -> str:
    # the first fenced block of language lang after the heading
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, heading
    return match.group(1)


COMMANDS = [
    shlex.split(line)[1:]
    for line in block_after("## Command line", "sh").splitlines()
    if line.startswith("catsize ")
]


def test_readme_lists_every_command():
    assert sorted({argv[0] for argv in COMMANDS}) == [
        "decoherence-curve", "distill-sim", "effective-size", "loss-curve", "validate",
    ]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_runs(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and not err


def test_readme_quick_start_runs(capsys):
    exec(compile(block_after("## Library quick start", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


if __name__ == "__main__":
    # the commands one per line, for the CI console loop
    print(*map(" ".join, COMMANDS), sep="\n")
