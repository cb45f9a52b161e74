"""Run one benchmark workload in this fresh process, check it, report it.

``run.py`` starts this script in a new process for each mode it needs, so
set-up pays the real start-up cost and peak memory is that of one
workload.  Usage:

    python3 bench/workload.py NAME --seed N --mode {setup,run,trace}
        --launched T [--budget S] [--size {full,smoke}] [--wrong-reference]

``--launched`` is the parent's ``time.monotonic()`` reading taken just
before it started this process.  On Linux that clock is shared by every
process, so ``setup_s`` includes interpreter start-up.  Modes:

* ``setup``: import, parse and build the inputs, then stop;
* ``run``: then run the workload's commands through ``pathfunc.cli.main``
  and check their outputs, repeating until ``--budget`` seconds have
  passed, so that the reported time is a median over warm repetitions;
* ``trace``: run the commands once with spans around every public call
  into the package, then time each module's public functions on this
  workload's inputs (see ``layers.py``).

The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_work"

WORKLOADS = ("flagship_barrier", "converge_sweep", "variable_tree", "diagnostics")

# Acceptance criterion 1 (tests/test_acceptance.py) and the CSV row the
# shipped flagship config prints at its shipped seed.
REFERENCE_CI = (0.2310, 0.2364)
POINT_RANGE = (0.222, 0.245)
FLAGSHIP_ROW = ("8.1380208333333329e-05,0.2320082791524801,"
                "0.0042945268614370188,0.22359100650406355,"
                "0.24042555180089664,5000,0.000")
# The same row at smoke size (300 priced paths, 300 gate paths).
FLAGSHIP_SMOKE_ROW = ("8.1380208333333329e-05,0.24595379745346946,"
                      "0.017776856388943513,0.21111115893114019,"
                      "0.28079643597579873,300,0.000")

# Path counts at each size.  Full sizes follow the shipped configs except
# converge_sweep, whose 200 000 paths take about half a minute per sweep.
# converge_sweep and variable_tree take about 3 s per repetition, so a run
# holds several repetitions and their median resists bursts of load.
SIZES = {
    "full": {"flagship_paths": None, "flagship_ui": None,
             "converge_paths": 20000, "tree_paths": 10000,
             "check_draws": None, "ui_paths": None,
             "strong_reps": None},
    "smoke": {"flagship_paths": 300, "flagship_ui": 300,
              "converge_paths": 2000, "tree_paths": 1000,
              "check_draws": 20000, "ui_paths": 2000,
              "strong_reps": 20},
}

# variable_tree prices this generated config: the only shipped route
# through the per-path loop (simulate_path -> binomial_variable_step).
TREE_CONFIG = """\
model.kind = gbm
model.r = 0.1
model.sigma = 0.3
model.x0 = 0.8
scheme.kind = binomial_variable
scheme.h = 2^-8
functional.payoff = terminal_call
functional.strike = 0.5
run.n_paths = {n_paths}
run.seed = 0
run.workers = 1
run.allow_linear = true
output.format = csv
"""


@dataclass
class Ctx:
    name: str
    seed: int
    size: str
    wrong: bool
    work: Path

    @property
    def sizes(self) -> dict:
        return SIZES[self.size]

    def ref(self, x: float) -> float:
        """A reference value, moved far off when testing the gate itself."""
        return x + 1.0 if self.wrong else x


@dataclass
class Inputs:
    commands: list                    # argv lists for pathfunc.cli.main
    configs: list                     # config files parsed during set-up
    path_steps: int | None = None     # chain path-steps, fixed grids only
    probe: dict = field(default_factory=dict)


@dataclass
class Ran:
    argv: list
    code: int | None
    out: str
    err: str
    seconds: float


def _derived_config(ctx: Ctx, shipped: str, extra: dict) -> Path:
    """The shipped config with some keys overridden (the last key wins)."""
    if not extra:
        return CONFIGS / shipped
    text = (CONFIGS / shipped).read_text(encoding="utf-8")
    text += "\n" + "".join(f"{k} = {v}\n" for k, v in extra.items())
    path = ctx.work / shipped
    path.write_text(text, encoding="utf-8")
    return path


def _fixed_steps(h: float) -> int:
    from pathfunc.schemes import fixed_time_grid
    return fixed_time_grid(h).size - 1


# --- inputs --------------------------------------------------------------

def inputs_flagship(ctx: Ctx) -> Inputs:
    s = ctx.sizes
    extra = {}
    if s["flagship_paths"]:
        extra = {"run.n_paths": s["flagship_paths"], "ui.n_paths": s["flagship_ui"]}
    cfg = _derived_config(ctx, "monthly_barrier.cfg", extra)
    from pathfunc.config import parse_config
    c = parse_config(str(cfg))
    h = c.require("scheme", "h")
    n_ui = c.get("ui", "n_paths")
    steps = (c.require("run", "n_paths") + n_ui) * _fixed_steps(h)
    return Inputs(commands=[["price", str(cfg), "--workers", "1"]],
                  configs=[cfg], path_steps=steps,
                  probe={"config": cfg, "h": h, "batch": 650, "ui_paths": n_ui,
                         "per_path": 3})


def inputs_converge(ctx: Ctx) -> Inputs:
    cfg = _derived_config(ctx, "converge_upin.cfg",
                          {"run.n_paths": ctx.sizes["converge_paths"],
                           "run.workers": 1})
    from pathfunc.config import parse_config
    c = parse_config(str(cfg))
    grid = c.require("run", "h_grid")
    steps = c.require("run", "n_paths") * sum(_fixed_steps(h) for h in grid)
    return Inputs(commands=[["converge", str(cfg), "--workers", "1"]],
                  configs=[cfg], path_steps=steps,
                  probe={"config": cfg, "h": grid[-1], "batch": 3904,
                         "ui_paths": 20000, "per_path": 20})


def inputs_tree(ctx: Ctx) -> Inputs:
    cfg = ctx.work / "variable_tree.cfg"
    cfg.write_text(TREE_CONFIG.format(n_paths=ctx.sizes["tree_paths"]), encoding="utf-8")
    return Inputs(commands=[["price", str(cfg), "--workers", "1"]],
                  configs=[cfg],
                  probe={"config": cfg, "h": 2**-8, "batch": 10000,
                         "ui_paths": 2000, "per_path": 200})


def _write_path(path: Path, times, values) -> None:
    lines = ["t,value"] + [f"{t:.17g},{v:.17g}" for t, v in zip(times, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def skorohod_pair(seed: int):
    """Two step paths, the second a time-shifted, slightly moved copy.

    Path a jumps at six random times; b jumps at the same times shifted by
    at most 0.02 (order kept) with values moved by at most 0.005, so the
    six-jump matching bounds their Skorohod distance by the larger shift.
    """
    import numpy as np
    rng = np.random.default_rng([seed, 7])
    jumps = np.sort(rng.uniform(0.1, 0.9, 6))
    while np.min(np.diff(jumps)) < 0.05:
        jumps = np.sort(rng.uniform(0.1, 0.9, 6))
    vals = np.cumsum(rng.choice([-1.0, 1.0], 7) * rng.uniform(0.2, 1.0, 7))
    shift = rng.uniform(-0.02, 0.02, 6)
    moved = vals + rng.uniform(-0.005, 0.005, 7)
    a = (np.concatenate([[0.0], jumps, [1.0]]), np.concatenate([vals, vals[-1:]]))
    b = (np.concatenate([[0.0], jumps + shift, [1.0]]), np.concatenate([moved, moved[-1:]]))
    bound = max(float(np.max(np.abs(shift))), float(np.max(np.abs(moved - vals))))
    return a, b, bound


def inputs_diagnostics(ctx: Ctx) -> Inputs:
    s = ctx.sizes
    extra = {}
    if s["check_draws"]:
        extra = {"check.n_draws": s["check_draws"], "ui.n_paths": s["ui_paths"]}
    gbm_cfg = _derived_config(ctx, "check_gbm.cfg", extra)
    cap_cfg = _derived_config(ctx, "check_bessel_cap.cfg",
                              {"ui.n_paths": s["ui_paths"]} if s["ui_paths"] else {})
    a, b, _ = skorohod_pair(ctx.seed)
    pa, pb = ctx.work / "path_a.csv", ctx.work / "path_b.csv"
    _write_path(pa, *a)
    _write_path(pb, *b)
    seed = str(ctx.seed)
    strong = ["counterexample", "strong", "--seed", seed]
    if s["strong_reps"]:
        strong += ["--paths", str(s["strong_reps"])]
    commands = [
        ["check", str(gbm_cfg), "--seed", seed, "--workers", "1"],
        ["check", str(cap_cfg), "--seed", seed, "--workers", "1"],
        ["counterexample", "tangency"],
        ["counterexample", "bessel"],
        strong,
        ["skorohod-dist", str(pa), str(pb)],
        ["skorohod-dist", str(pb), str(pa)],
    ]
    return Inputs(commands=commands, configs=[gbm_cfg, cap_cfg],
                  probe={"config": gbm_cfg, "h": 2**-8, "batch": 20000,
                         "ui_grid": [2**-4, 2**-6, 2**-8],
                         "ui_paths": s["ui_paths"] or 20000, "per_path": 20})


INPUTS = {"flagship_barrier": inputs_flagship, "converge_sweep": inputs_converge,
          "variable_tree": inputs_tree, "diagnostics": inputs_diagnostics}


# --- checks --------------------------------------------------------------

def _csv_row(out: str):
    """(row text, mean, stderr, ci_lo, ci_hi) of the last CSV row."""
    line = out.strip().splitlines()[-1]
    f = line.split(",")
    return line, float(f[1]), float(f[2]), float(f[3]), float(f[4])


def check_flagship(ctx: Ctx, ran: list, extra: dict) -> list:
    r = ran[0]
    lines = r.out.splitlines()
    row, mean, se, lo, hi = _csv_row(r.out)
    extra["stderr"] = se
    ref_lo, ref_hi = ctx.ref(REFERENCE_CI[0]), ctx.ref(REFERENCE_CI[1])
    out = [("exit code 0", r.code == 0),
           ("ui gate passes", lines[0].startswith("ui diagnostic: pass")),
           ("csv header", lines[1] == "h,mean,stderr,ci_lo,ci_hi,n,elapsed"),
           ("95% CI overlaps reference", lo <= ref_hi and hi >= ref_lo)]
    if ctx.size == "full":
        out += [("mean in point range",
                 ctx.ref(POINT_RANGE[0]) <= mean <= ctx.ref(POINT_RANGE[1])),
                ("row equals shipped bytes", row == FLAGSHIP_ROW)]
    else:
        out.append(("row equals smoke bytes", row == FLAGSHIP_SMOKE_ROW))
    return out


def check_converge(ctx: Ctx, ran: list, extra: dict) -> list:
    from pathfunc.oracles import up_and_in_call_price
    r = ran[0]
    lines = r.out.strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:5]]
    oracle = ctx.ref(up_and_in_call_price(0.8, 0.5, 1.0, 0.1, 0.3))
    hs = [float(x[0]) for x in rows]
    finest_mean, finest_se = float(rows[-1][1]), float(rows[-1][2])
    extra["stderr"] = finest_se
    printed = float(lines[5].split()[2])
    out = [("exit code 0", r.code == 0),
           ("h grid 2^-5..2^-11", hs == [2**-5, 2**-7, 2**-9, 2**-11]),
           ("oracle is the closed form", abs(printed - oracle) <= 1e-9)]
    flag = lines[-1]
    if ctx.size == "full":
        out.append(("non_convergence_flag = False", flag == "non_convergence_flag = False"))
    else:
        out.append(("finest row within 4 stderr + 0.1 sqrt(h) of oracle",
                    abs(finest_mean - oracle) <= 4 * finest_se + 0.1 * math.sqrt(hs[-1])))
    return out


def check_tree(ctx: Ctx, ran: list, extra: dict) -> list:
    from pathfunc.oracles import vanilla_call_price
    r = ran[0]
    _, mean, se, _, _ = _csv_row(r.out)
    extra["stderr"] = se
    oracle = ctx.ref(vanilla_call_price(0.8, 0.5, 0.1, 0.3))
    return [("exit code 0", r.code == 0),
            ("mean within 3 stderr of Black-Scholes", abs(mean - oracle) <= 3 * se)]


def _sup_distance(a, b) -> float:
    import numpy as np
    ts = np.union1d(a[0], b[0])
    va = a[1][np.searchsorted(a[0], ts, side="right") - 1]
    vb = b[1][np.searchsorted(b[0], ts, side="right") - 1]
    return float(np.max(np.abs(va - vb)))


def check_diagnostics(ctx: Ctx, ran: list, extra: dict) -> list:
    gbm, cap, tang, bes, strong, d_ab, d_ba = ran
    out = [("check_gbm exit 0", gbm.code == 0),
           ("check_bessel_cap exit 2", cap.code == 2),
           ("tangency exit 0", tang.code == 0),
           ("bessel exit 0", bes.code == 0),
           ("strong exit 0", strong.code == 0),
           ("skorohod-dist exit 0", d_ab.code == 0 and d_ba.code == 0)]
    out.append(("check_gbm: all three kernels and ui pass",
                all(f"scheme {k}: pass" in gbm.out
                    for k in ("euler", "binomial_fixed", "binomial_variable"))
                and "ui diagnostic: pass" in gbm.out))
    out.append(("check_bessel_cap: ui diagnostic fails", "ui diagnostic: FAIL" in cap.out))
    out.append(("tangency: exit times 0.5 then 1.0, class C4",
                "exit time of the grazing path: 0.5" in tang.out
                and tang.out.count("exit time 1.0") == 3
                and "classification of the grazing path: C4" in tang.out))
    rows = [ln.split() for ln in bes.out.splitlines()[1:4]]
    mean, se = float(rows[-1][2]), float(rows[-1][3])
    oracle = float(bes.out.split("oracle E[Z(1)] = ")[1].split()[0])
    out.append(("bessel: capped mean within 3 stderr of 1",
                abs(mean - ctx.ref(1.0)) <= 3 * se))
    out.append(("bessel: oracle 2 Phi(1) - 1",
                abs(oracle - ctx.ref(math.erf(1 / math.sqrt(2)))) <= 1e-6))
    scaled = [float(ln.split()[1]) for ln in strong.out.splitlines()[1:4]]
    out.append(("strong: scaled sup-errors strictly increasing",
                all(b > a for a, b in zip(scaled, scaled[1:]))))
    a, b, bound = skorohod_pair(ctx.seed)
    dab, dba = float(d_ab.out), float(d_ba.out)
    out.append(("skorohod: symmetric", dab == dba))
    out.append(("skorohod: within the matched shift", dab <= ctx.ref(bound) + 1e-12))
    out.append(("skorohod: at most the sup-norm distance", dab <= _sup_distance(a, b) + 1e-12))
    return out


CHECKS = {"flagship_barrier": check_flagship, "converge_sweep": check_converge,
          "variable_tree": check_tree, "diagnostics": check_diagnostics}


# --- running -------------------------------------------------------------

def run_command(argv: list) -> Ran:
    from pathfunc import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an exception escaping the CLI is a failed operation
        code = None
        err.write(traceback.format_exc())
    return Ran(argv, code, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def run_checks(ctx: Ctx, ran: list, extra: dict) -> list:
    if any(r.code is None for r in ran):
        return [("no exception", False)]
    try:
        return [(name, bool(ok)) for name, ok in CHECKS[ctx.name](ctx, ran, extra)]
    except (ValueError, IndexError) as e:  # output could not be parsed
        return [(f"output parses ({type(e).__name__}: {e})", False)]


def iteration(ctx: Ctx, inputs: Inputs) -> dict:
    """Run the workload's commands once and check what they printed."""
    t0 = time.perf_counter()
    ran = [run_command(argv) for argv in inputs.commands]
    wall_s = time.perf_counter() - t0
    extra = {}
    checks = run_checks(ctx, ran, extra)
    return {"wall_s": wall_s, "checks": checks, "ran": ran, **extra}


def run_iterations(ctx: Ctx, inputs: Inputs, budget: float) -> dict:
    """Repeat the workload until ``budget`` seconds have passed (at least once)."""
    walls, checks = [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < budget:
        it = iteration(ctx, inputs)
        walls.append(it["wall_s"])
        checks += it["checks"]
        if len(walls) == 1:  # peak memory of one run, not of the repetition
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"walls": walls, "checks": checks, "peak_rss_mb": peak_rss_mb,
           "commands": [{"argv": r.argv[:1] + [Path(a).name for a in r.argv[1:]],
                         "code": r.code, "seconds": r.seconds, "stderr": r.err[-2000:]}
                        for r in it["ran"]],
           "versions": versions()}
    if inputs.path_steps is not None:
        out["path_steps"] = inputs.path_steps
    if "stderr" in it:
        out["stderr"] = it["stderr"]
    return out


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("name", choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--budget", type=float, default=0.0,
                   help="run mode: repeat the workload for this many seconds")
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--wrong-reference", action="store_true")
    args = p.parse_args()

    t_import = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import pathfunc.cli as cli  # noqa: F401  (pulls in numpy and scipy.stats)
    from pathfunc.config import parse_config
    import_s = time.monotonic() - t_import

    work = WORK / f"{args.name}-{args.seed}-{args.mode}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = Ctx(args.name, args.seed, args.size, args.wrong_reference, work)
        inputs = INPUTS[args.name](ctx)
        for cfg in inputs.configs:
            c = parse_config(str(cfg))
            if c.has("model", "kind"):
                cli.build_model(c)
                cli.build_scheme(c)
                cli.build_spec(c)
        setup_s = time.monotonic() - args.launched
        result = {"setup_s": setup_s, "import_s": import_s}
        if args.mode == "run":
            result.update(run_iterations(ctx, inputs, args.budget))
        elif args.mode == "trace":
            import layers
            tracer = layers.Tracer()
            tracer.install()
            try:
                it = iteration(ctx, inputs)
            finally:
                tracer.uninstall()
            result.update(checks=it["checks"], trace=tracer.report(it["wall_s"]),
                          layers=layers.probe(ctx, inputs, import_s,
                                              skorohod_pair(ctx.seed)[:2]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
