"""pathfunc benchmark: run one workload, check its answers, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in its own fresh, single-threaded Python process
(``workload.py``), so set-up time and peak memory are those a user of the
command line sees.  That process repeats the workload until ``--seconds``
have passed (always at least once) and ``wall_s`` is the median
repetition.  Set-up-only processes bring the set-up samples to three, and
``setup_s`` is their median.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
the untraced process is followed by one traced process that runs the
workload once with spans and then times each module's public functions
(``layers.py``); the span trace is written to ``.bench_work/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--size smoke`` and ``--wrong-reference`` exist for the
benchmark's own tests (``bench/test_bench.py``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import SIZES, WORK, WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """Environment pinned for reproducible single-threaded runs."""
    env = dict(os.environ)
    env.pop("PATHFUNC_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), args.workload,
           "--seed", str(args.seed), "--mode", mode, "--size", args.size, *extra]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "threads_per_process": 1}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--wrong-reference", action="store_true")
    args = p.parse_args()

    if not (ROOT / "src" / "pathfunc" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"bench: no pathfunc source tree under {ROOT}\n")
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  size {args.size}")
    print("machine " + json.dumps(machine()))

    if not (ROOT / "src" / "pathfunc" / "__pycache__").is_dir():
        run_child(args, "setup")  # warm-up: byte-compile the sources once
    run = run_child(args, "run", "--budget", repr(args.seconds))
    traced = run_child(args, "trace") if args.trace else None
    setups = [run["setup_s"]] + ([traced["setup_s"]] if traced else [])
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(args, "setup")["setup_s"])

    print("versions " + json.dumps(run["versions"]))
    print("iterations (s): " + " ".join(f"{w:.4f}" for w in run["walls"]))
    print("setups (s): " + " ".join(f"{x:.4f}" for x in setups))
    for c in run["commands"]:
        print(f"  {' '.join(c['argv'])}: exit {c['code']} {c['seconds']:.3f}s")
        if c["stderr"]:
            print("    stderr: " + c["stderr"].strip().replace("\n", "\n    "))

    checks = run["checks"] + (traced["checks"] if traced else [])
    attempted = len(checks)
    failures = [name for name, ok in checks if not ok]
    failed = len(failures)
    for name in sorted(set(failures)):
        print(f"FAILED check: {name}")

    wall = statistics.median(run["walls"])
    e2e = {"setup_s": statistics.median(setups), "wall_s": wall,
           "peak_rss_mb": run["peak_rss_mb"]}
    # reported for reading only; see bench/README.md
    info = {"ops_failed": (failed / attempted, "ratio")}
    if "path_steps" in run:
        info["path_steps_per_s"] = (run["path_steps"] / wall, "1/s")
    if "stderr" in run:
        info["time_to_se1e-3_s"] = (wall * (run["stderr"] / 1e-3) ** 2, "s")

    if args.trace:
        tr = traced["trace"]
        values = {**traced["layers"], **tr["counts"], "trace.wall_s": tr["wall_s"],
                  "trace.overhead_s": tr["wall_s"] - wall}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print("split (self time, traced run): " + "  ".join(
            f"{m} {x:.3f}s {100 * x / tr['wall_s']:.1f}%"
            for m, x in tr["self_s_by_module"].items()))
        trace_file = WORK / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "machine": machine(), "trace": tr,
                                          "layers": metrics}, indent=1))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:>16.6g} {m['unit']}")
    for k, (v, u) in info.items():
        print(f"{k:40s} {v:>16.6g} {u}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
