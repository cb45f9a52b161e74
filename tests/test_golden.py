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

from conftest import TREE_CFG, bench_workload

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOAD = bench_workload()


def shipped(command, name):
    """``command`` on the shipped config ``name`` as it stands."""
    return lambda tmp_path: [command, str(CONFIGS / name)]


def written(command, text):
    """``command`` on the config ``text``, written to a file."""
    def argv(tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return [command, str(path)]
    return argv


def skorohod_pair(seed, swapped):
    """``skorohod-dist`` on the diagnostics workload's pair of ``seed``,
    written as the benchmark writes it, in one argument order."""
    def argv(tmp_path):
        a, b, _ = WORKLOAD.skorohod_pair(seed)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        WORKLOAD._write_path(paths[0], *a)
        WORKLOAD._write_path(paths[1], *b)
        return ["skorohod-dist", *map(str, paths[::-1] if swapped else paths)]
    return argv


COMMANDS = {
    "check_bessel_cap": shipped("check", "check_bessel_cap.cfg"),
    "check_gbm": shipped("check", "check_gbm.cfg"),
    # the shipped up-and-in sweep at 20 000 paths, without timings
    "converge_upin": written("converge", (CONFIGS / "converge_upin.cfg").read_text(
        encoding="utf-8") + "\nrun.n_paths = 20000\nrun.timing = false\n"),
    "counterexample_bessel": lambda tmp_path: ["counterexample", "bessel"],
    "counterexample_strong": lambda tmp_path: ["counterexample", "strong"],
    "counterexample_tangency": lambda tmp_path: ["counterexample", "tangency"],
    "price_monthly_barrier": shipped("price", "monthly_barrier.cfg"),
    "price_tree_gate": written("price", TREE_CFG),
    # the variable_tree workload's price, without timings
    "price_variable_tree": written("price", WORKLOAD.TREE_CONFIG.format(n_paths=10000)
                                   + "run.timing = false\n"),
    **{f"skorohod_dist_{seed}{'_swapped' * swapped}": skorohod_pair(seed, swapped)
       for seed in (3, 7, 101) for swapped in (False, True)},
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, tmp_path, capsys):
    code = main(COMMANDS[name](tmp_path))
    got = f"exit {code}\n" + capsys.readouterr().out
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    if got != want:
        pytest.fail("".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True),
                                                 f"golden/{name}.txt", "printed")))


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)
