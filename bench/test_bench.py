"""Self-test of the benchmark at smoke size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload through ``bench/run.py`` untraced and traced, checks
that the result line carries exactly the metrics ``BENCHMARK.json``
declares, that a deliberately wrong reference value is counted as a failed
operation, and that the runner refuses to run without the source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    return res


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_is_correct_and_complete(name, trace):
    res = result(bench("--workload", name, "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--size", "smoke"))
    assert res["correct"] and res["failed"] == 0, res
    want = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrong_reference_is_counted_as_failed(name):
    res = result(bench("--workload", name, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--size", "smoke", "--wrong-reference"))
    assert not res["correct"]
    assert 1 <= res["failed"] <= res["attempted"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
