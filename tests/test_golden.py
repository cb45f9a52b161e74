"""Shipped outputs pinned byte for byte.

Each file in ``tests/golden/`` holds one command's exit code on its first
line (``exit <code>``) and then every byte it prints on stdout.  A change
that moves a printed number fails here with a unified diff; a change meant
to move one replaces the file and says so in CHANGES.md.
"""

import difflib
from pathlib import Path

import pytest

from pathfunc.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def converge_upin(tmp_path):
    """The shipped up-and-in sweep at 20 000 paths, without timings."""
    text = (ROOT / "configs" / "converge_upin.cfg").read_text(encoding="utf-8")
    path = tmp_path / "converge_upin.cfg"
    path.write_text(text + "\nrun.n_paths = 20000\nrun.timing = off\n", encoding="utf-8")
    return ["converge", str(path)]


COMMANDS = {
    "converge_upin": converge_upin,
    "counterexample_bessel": lambda tmp_path: ["counterexample", "bessel"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, tmp_path, capsys):
    code = main(COMMANDS[name](tmp_path))
    got = f"exit {code}\n" + capsys.readouterr().out
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if got != want:
        pytest.fail("".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                                 f"golden/{name}.txt", "printed")))
