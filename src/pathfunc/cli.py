"""Command-line front end.

Commands: ``price``, ``converge``, ``check``, ``counterexample``,
``skorohod-dist``.  Experiments are described by flat config files (see
:mod:`pathfunc.config`).  All but ``skorohod-dist`` take ``--seed``.  A
command may price its paths, probes or rows in one forked process per CPU,
each from its own key, and sums their values in one order, so its output
does not depend on the environment or the core count.  ``price``,
``converge`` and ``check`` accept only ``--workers 1``, which ``bench/`` passes.
``price`` and ``converge`` print their rows as CSV; ``converge`` also
reports them against the closed form its run has, if any.

Every scheme a command runs -- ``scheme.h``, each h of ``run.h_grid``, each
kind of ``check.kinds = all`` -- is ``replace(scheme, ...)`` of the scheme
:func:`build_scheme` configures; no chain is ever clamped.
``price`` and ``converge`` judge a linear payoff's uniform-integrability gate
on the payoff values they price, ``check`` on ``ui.n_paths`` fresh ones that
:func:`~pathfunc.estimator.estimate` prices in namespaces 1000 + k (the
reciprocal-Bessel family's are drawn from its exact law stopped at 1/h).
Exit codes: 0 ok, 1 runtime error (naming the failing stream), 2 diagnostic
failure (a probe with non-finite moments, or a checked kind the model cannot
run), 64 config error naming its section, key or flag (a value the parser
refuses: a non-finite number, a second spelling, a word not listed; a
``model`` or ``functional`` key the model kind or payoff does not read, a
seed outside [0, 2^64), a ``scheme.kind`` that cannot run the model, a probe
time outside [0, 1), a ``model.x0`` not below 1/h where ``check`` draws that
law, an unwritable ``output.path``, an input file that cannot be read).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

import numpy as np

from . import estimator, oracles
from .config import RunConfig, parse_config, read_input
from .errors import ConfigError, PathfuncError
from .functionals import (FunctionalSpec, constant_payoff, custom_terminal,
                          discrete_barrier_call, up_and_in_call)
from .models import SdeModel, gbm, inverse_bessel3, stoch_vol
from .paths import StepPath
from .schemes import SCHEME_KINDS, RngStream, SchemeConfig, check_local_consistency
from .skorohod import skorohod_distance_approx

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_DIAGNOSTIC = 2
EXIT_CONFIG = 64


@contextlib.contextmanager
def _refusals_as_config_errors(where: str):
    """Report a value a constructor refuses as a ConfigError naming where it
    came from: a section (``"scheme"``), a key (``"run.h_grid"``) or a flag."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        section, _, key = where.partition(".")
        named = where if where[0] == "-" else f"section {section!r}" + (key and f", key {where!r}")
        raise ConfigError(f"{named}: {e}") from e


@_refusals_as_config_errors("model")
def build_model(cfg: RunConfig) -> SdeModel:
    get = lambda key: cfg.get("model", key)
    kind = get("kind")
    if kind == "gbm":
        return gbm(get("r"), get("sigma"), get("x0"))
    if kind == "stoch_vol":
        return stoch_vol(get("r"), get("sigma"), get("x0"), rho=get("rho"), y0=get("y0"))
    if kind == "inverse_bessel3":
        return inverse_bessel3(get("x0"))
    raise ConfigError(f"unknown model kind {kind!r}")


def build_scheme(cfg: RunConfig, h_key: str = "scheme.h") -> tuple[SchemeConfig, list]:
    """The configured scheme at each step size under ``h_key`` (``scheme.h``,
    or the sweep ``run.h_grid``), as ``(first, sweep)``.

    The scheme is set one key at a time, from h = 1, so a refused value
    names its key; each step size is ``replace(scheme, h=h)``.  The first
    item is a :class:`SchemeConfig` (``bench/layers.py`` unpacks
    ``scheme, _ = build_scheme(cfg)``).
    """
    with _refusals_as_config_errors("scheme.kind"):
        scheme = SchemeConfig(kind=cfg.get("scheme", "kind"), h=1.0)
    hs = cfg.require(*h_key.split("."))
    with _refusals_as_config_errors(h_key):
        sweep = [replace(scheme, h=h) for h in (hs if isinstance(hs, list) else [hs])]
    return sweep[0], sweep


@_refusals_as_config_errors("scheme.kind")
def _refuse_unrunnable(model: SdeModel, schemes) -> None:
    """Refuse each scheme the command runs whose kernel cannot run the model."""
    for s in schemes:
        s.max_times(model)


@_refusals_as_config_errors("functional")
def build_spec(cfg: RunConfig) -> FunctionalSpec:
    payoff = cfg.get("functional", "payoff")
    get = lambda key: cfg.get("functional", key)
    if payoff == "constant":
        return constant_payoff(get("strike"))
    r = cfg.get("model", "r")  # every other payoff discounts by it
    if payoff == "terminal_identity":
        return custom_terminal("identity", r=r)
    if payoff == "terminal_call":
        return custom_terminal("call", strike=get("strike"), r=r)
    if payoff == "up_in_call":
        return up_and_in_call(get("strike"), get("barrier_level"), r)
    if payoff == "discrete_barrier_call":
        return discrete_barrier_call(get("strike"), get("barrier_level"), r, m=get("m"))
    raise ConfigError(f"unknown payoff kind {payoff!r}")


def _seed(args, cfg: RunConfig | None = None) -> int:
    """``--seed``, else ``run.seed`` (0 with no config).  Each one given is
    refused unless it keys a stream: a bad ``run.seed`` even under ``--seed``."""
    seed = cfg.get("run", "seed") if cfg else 0
    for where, value in (("--seed", args.seed), ("run.seed", seed)):
        if value is not None:
            with _refusals_as_config_errors(where):
                RngStream(value).key  # the one check of a seed's range
    return seed if args.seed is None else args.seed


def _emit(cfg: RunConfig, lines=()) -> None:
    """Write ``lines`` to ``output.path``, or to stdout when it is "-".
    With no lines, each command's check before it draws: a ``model`` or
    ``functional`` key the file sets and nothing read is refused, and the path
    is opened for append and closed, so a run that then fails truncates no file."""
    if not lines:
        for section, kind, noun in (("model", "kind", "model"), ("functional", "payoff", "payoff")):
            for key in cfg.unread(section):
                raise ConfigError(f"config key '{section}.{key}': "
                                  f"{noun} {cfg.get(section, kind)} does not read it")
    path = cfg.get("output", "path")
    text = "".join(line + "\n" for line in lines)
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w" if lines else "a", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise ConfigError(f"config key 'output.path': {e.strerror}: {path!r}") from e


def _estimate_lines(cfg: RunConfig, rows) -> list:
    """rows: list of Estimate, as CSV (the one output.format)."""
    timing = cfg.get("run", "timing")
    return [rows[0].csv_header()] + [e.csv_row(timing=timing) for e in rows]


def _ui_verdict(rep) -> str:  # the gate's verdict line: price, converge and check print it
    return (f"ui diagnostic: {'pass' if rep.passed else 'FAIL'} "
            f"(sup second moment {rep.sup_second_moment:.4g})")


def _ui_gate(cfg, spec, rows) -> tuple[bool, list]:
    """Judge the uniform-integrability gate a linear payoff requires on the
    payoff values of the paths priced at each h of the sweep (one
    :class:`~pathfunc.estimator.Estimate` each); no second sample is drawn."""
    if spec.bounded or cfg.get("run", "allow_linear"):
        return True, []
    rep = estimator.tail_report((e.h, None, e.values) for e in rows)
    lines = [_ui_verdict(rep)]
    if not rep.passed:
        lines.append("refusing to price a linear-growth payoff whose tails do not "
                     "vanish; set run.allow_linear = true to override")
    return rep.passed, lines


def cmd_price(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    scheme, sweep = build_scheme(cfg)
    _refuse_unrunnable(model, sweep)
    spec = build_spec(cfg)
    seed = _seed(args, cfg)
    _emit(cfg)
    est = estimator.estimate(model, scheme, spec, cfg.get("run", "n_paths"), seed)
    ok, lines = _ui_gate(cfg, spec, [est])
    _emit(cfg, lines + _estimate_lines(cfg, [est]) if ok else lines)
    return EXIT_OK if ok else EXIT_DIAGNOSTIC


def _oracle(cfg: RunConfig, model, spec) -> tuple[float | None, str]:
    """The closed form the run has, if any."""
    if spec.label == "up_in_call" and model.label == "gbm":
        v = oracles.up_and_in_call_price(
            cfg.get("model", "x0"), cfg.get("functional", "strike"),
            cfg.get("functional", "barrier_level"),
            cfg.get("model", "r"), cfg.get("model", "sigma"))
        return v, "reflection-principle closed form"
    return None, ""


def cmd_converge(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    scheme, sweep = build_scheme(cfg, "run.h_grid")
    with _refusals_as_config_errors("run.h_grid"):
        estimator.check_h_grid(s.h for s in sweep)
    _refuse_unrunnable(model, sweep)
    spec = build_spec(cfg)
    seed = _seed(args, cfg)
    oracle, note = _oracle(cfg, model, spec)
    _emit(cfg)
    rep = estimator.convergence_study(model, scheme, spec, [s.h for s in sweep],
                                      cfg.get("run", "n_paths"), seed,
                                      oracle=oracle)
    ok, lines = _ui_gate(cfg, spec, [e for _, e in rep.rows])
    if not ok:
        _emit(cfg, lines)
        return EXIT_DIAGNOSTIC
    lines += _estimate_lines(cfg, [e for _, e in rep.rows])
    if oracle is not None:
        lines.append(f"oracle = {oracle:.10g} ({note})")
        lines.append("errors: " + ", ".join(f"{e:.6g}" for e in rep.errors))
        if rep.trend_slope is not None:
            lines.append(f"trend slope (log err vs log h) = {rep.trend_slope:.3f}")
        lines.append(f"non_convergence_flag = {rep.non_convergence_flag}")
    _emit(cfg, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    scheme, _ = build_scheme(cfg)
    sweep = build_scheme(cfg, "run.h_grid")[1] if cfg.get("run", "h_grid") else [scheme]
    checked = ([scheme] if cfg.get("check", "kinds") == "config"
               else [replace(scheme, kind=k) for k in SCHEME_KINDS])
    _refuse_unrunnable(model, [scheme, *sweep])
    spec = build_spec(cfg)
    seed = _seed(args, cfg)
    probes_y, probes_t = cfg.get("check", "probes_y"), cfg.get("check", "probes_t")
    if not all(0.0 <= t < 1.0 for t in probes_t):
        raise ConfigError(f"check.probes_t = {', '.join(f'{t:g}' for t in probes_t)}: "
                          "every probe time must lie in [0, 1)")
    if not spec.bounded:  # refused before anything is drawn
        with _refusals_as_config_errors("model.x0"):
            estimator.stop_levels(model, [s.h for s in sweep])
    _emit(cfg)
    probes = [(y, t) for y in probes_y for t in probes_t]
    lines = []
    failed = False
    for one in checked:
        rep = check_local_consistency(model, one, probes)
        lines.append(f"scheme {one.kind}: {'pass' if rep.passed else 'FAIL'}")
        for r in rep.rows:  # every probe of a kernel is judged against its h
            verdict = (f"ERROR {r.note}" if r.note else
                       f"r1={r.r1:.3e} r2={r.r2:.3e} (tol {one.h:.3e}) dt/h={r.dt_ratio:.4g} "
                       f"{'ok' if r.passed else 'FAIL'}")
            lines.append(f"  probe y={r.y:g} t={r.t:g}: {verdict}")
        failed |= not rep.passed
    if spec.bounded:
        lines.append("ui diagnostic: skipped (bounded payoff)")
    else:
        ui = estimator.ui_diagnostic(model, scheme, spec, [s.h for s in sweep],
                                     n_paths=cfg.get("ui", "n_paths"), seed=seed)
        lines.append(_ui_verdict(ui))
        for h, cap, tail, m2 in ui.rows:
            cap_s = "none" if cap is None else f"{cap:g}"
            lines.append(f"  h={h:g} cap={cap_s}: tail@{estimator.TAIL_CUTOFF:g} = "
                         f"{tail:.4g}, E[g^2] = {m2:.4g}")
        failed |= not ui.passed
    _emit(cfg, lines)
    return EXIT_DIAGNOSTIC if failed else EXIT_OK


def cmd_counterexample(args) -> int:
    name, paths = args.name, args.paths
    for flag, value in (("--paths", paths), ("--seed", args.seed)):
        if name == "tangency" and value is not None:
            raise ConfigError(f"{flag} has no effect on tangency, which draws nothing")
    if paths is not None and paths < 2:
        raise ConfigError(f"--paths must be at least 2, got {paths}")
    seed = _seed(args)
    lines = []
    if name == "tangency":
        rep = estimator.counterexample_tangency()
        lines.append(f"exit time of the grazing path: {rep.tau}")
        for h, th in rep.tau_h.items():
            lines.append(f"  shifted down by h={h:g}: exit time {th}")
        lines.append(f"classification of the grazing path: {rep.c_class}")
        ok = rep.passed
    elif name == "bessel":
        rep = estimator.counterexample_bessel(
            seed=seed, **({} if paths is None else {"n_paths": paths}))
        lines.append(f"{'h':>12} {'cap':>10} {'capped_mean':>12} {'stderr':>10}")
        for h, cap, mean, se in rep.rows:
            lines.append(f"{h:12.6g} {cap:10.4g} {mean:12.6f} {se:10.6f}")
        lines.append(f"oracle E[Z(1)] = {rep.oracle:.6f} (closed form z0 (2 Phi(1/z0) - 1))")
        lines.append(f"capped mean within 3 stderr of 1: {rep.capped_mean_near_start}")
        lines.append(f"oracle below 1 by more than 5 stderr: {rep.gap_significant}")
        ok = rep.passed
    elif name == "strong":
        rep = estimator.counterexample_strong(
            seed=seed, **({} if paths is None else {"n_rep": paths}))
        lines.append(f"{'N':>8} {'sqrt(N)*sup_err':>16} {'stderr':>8} {'exact':>8} "
                     f"{'sqrt(2 log N)':>14}")
        for N, scaled, se, exact, ref in rep.rows:
            lines.append(f"{N:8d} {scaled:16.4f} {se:8.4f} {exact:8.4f} {ref:14.4f}")
        lines.append(f"strictly increasing: {rep.strictly_increasing}")
        ok = rep.passed
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_DIAGNOSTIC


def _read_path_csv(path: str) -> StepPath:
    """Rows of exactly ``t,value``, after an optional ``t,value`` header."""
    rows = {}  # time -> value
    for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or (line == "t,value" and not rows):
            continue
        try:
            t, v = (float(x) for x in line.split(","))  # two fields, no more
        except ValueError:
            t = v = np.nan
        if not np.isfinite([t, v]).all() or t in rows:
            raise ConfigError(f"{path}, line {lineno}: expected 't,value' with finite "
                              f"numbers and a time not seen before, got {line!r}")
        rows[t] = v
    times = np.array(sorted(rows))
    try:
        return StepPath(times, np.array([rows[t] for t in times]))
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def cmd_skorohod_dist(args) -> int:
    x = _read_path_csv(args.path_a)
    y = _read_path_csv(args.path_b)
    d = skorohod_distance_approx(x, y)
    sys.stdout.write(f"{d:.17g}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pathfunc",
                                description="Monte Carlo engine for "
                                            "path-dependent functionals")
    sub = p.add_subparsers(dest="command", required=True)

    for name, func, text in (("price", cmd_price, "estimate the functional once"),
                             ("converge", cmd_converge, "estimate across run.h_grid"),
                             ("check", cmd_check, "local consistency + uniform "
                                                  "integrability diagnostics")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("config")
        sp.add_argument("--seed", type=int, default=None, help="override run.seed")
        # kept only because the benchmark harness passes --workers 1
        sp.add_argument("--workers", type=int, choices=[1], default=1,
                        help="accepted only as 1: the process count comes from the CPUs")
        sp.set_defaults(func=func)

    sp = sub.add_parser("counterexample", help="run a named counter-example")
    sp.add_argument("name", choices=["tangency", "bessel", "strong"])
    sp.add_argument("--paths", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None, help="seed of the draws (default 0)")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("skorohod-dist",
                        help="Skorohod J1 distance of two CSV paths")
    sp.add_argument("path_a")
    sp.add_argument("path_b")
    sp.set_defaults(func=cmd_skorohod_dist)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    except PathfuncError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
