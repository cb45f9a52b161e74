"""Per-module split of a workload, measured from outside the package.

Two instruments, both applied from the benchmark's own code:

* :class:`Tracer` puts a span around every public function of every
  ``pathfunc`` module (and around the drift, diffusion and payoff
  callables the public factories return), by rebinding those names in the
  package's module namespaces for the duration of one workload run.  Each
  span adds its duration to its caller's child time, so a module's self
  time is its spans' time minus their children's.  Spans are aggregated in
  memory per function and per caller -> callee edge.  The wrappers also
  count the chain work that passes through the simulation entry points.
* :func:`probe` times each module's public functions directly on the
  workload's model, functional, step size and batch size, and reports per
  draw, per path-step or per path costs.

Neither instrument changes what the package computes.
"""

import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import replace


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            yield fn


class Tracer:
    """Spans around the package's public functions for one workload run."""

    def __init__(self):
        self.self_s = defaultdict(float)     # "module.function" -> self seconds
        self.calls = Counter()               # "module.function" -> calls
        self.edges = defaultdict(float)      # (caller, callee) -> callee seconds
        self.edge_calls = Counter()
        self.counts = Counter()
        self.noise_bytes = 0
        self.values_bytes = 0
        self._stack = []                     # [key, child seconds] per open span
        self._patched = []                   # (module, name, original)

    # -- spans --
    def _wrap(self, fn, key, hook=None):
        stack = self._stack

        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else "benchmark"
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[key] += dt - frame[1]
                self.calls[key] += 1
                self.edges[caller, key] += dt
                self.edge_calls[caller, key] += 1
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(args, result)
            return self._wrap_callables(result)

        span.traced = True
        return span

    def _wrap_callables(self, result):
        from pathfunc.functionals import FunctionalSpec
        from pathfunc.models import SdeModel
        if isinstance(result, FunctionalSpec) and not getattr(result.payoff, "traced", False):
            fields = {"payoff": self._wrap(result.payoff, "functionals.payoff")}
            if result.payoff_batch is not None:
                fields["payoff_batch"] = self._wrap(result.payoff_batch,
                                                    "functionals.payoff_batch")
            return replace(result, **fields)
        if isinstance(result, SdeModel) and not getattr(result.drift, "traced", False):
            return replace(result, drift=self._wrap(result.drift, "models.drift"),
                           diffusion=self._wrap(result.diffusion, "models.diffusion"))
        return result

    # -- counts of chain work, taken from the simulation entry points --
    def _count_batch(self, streams, n_steps, d1):
        self.counts["streams"] += len(streams)
        self.counts["path_steps"] += len(streams) * n_steps
        self.counts["batches"] += 1
        self.noise_bytes = max(self.noise_bytes, len(streams) * n_steps * d1 * 8)

    def _on_values(self, args, result):
        model, _, streams = args[:3]
        times, values = result
        self._count_batch(streams, times.size - 1, model.dim_noise)
        self.values_bytes = max(self.values_bytes, values.nbytes)

    def _on_terminals(self, args, result):
        from pathfunc.schemes import fixed_time_grid
        model, config, streams = args[:3]
        if config.kind != "binomial_variable":  # else simulate_path counts
            self._count_batch(streams, fixed_time_grid(config.h).size - 1, model.dim_noise)

    def _on_path(self, args, result):
        self.counts["streams"] += 1
        self.counts["path_steps"] += result.times.size - 1

    def install(self):
        import pathfunc.cli  # noqa: F401  (loads every module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pathfunc" or n.startswith("pathfunc.")) and m is not None]
        hooks = {"simulate_values": self._on_values,
                 "simulate_terminals": self._on_terminals,
                 "simulate_path": self._on_path}
        wrapped = {}
        for m in modules:
            for fn in _public_functions(m):
                key = f"{m.__name__.split('.')[-1]}.{fn.__name__}"
                wrapped[fn] = self._wrap(fn, key, hooks.get(fn.__name__))
        for m in modules:
            for name, obj in list(vars(m).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patched.append((m, name, obj))
                    setattr(m, name, wrapped[obj])

    def uninstall(self):
        for m, name, obj in reversed(self._patched):
            setattr(m, name, obj)
        self._patched.clear()

    def report(self, wall_s: float) -> dict:
        by_module = defaultdict(float)
        for key, s in self.self_s.items():
            by_module[key.split(".")[0]] += s
        by_module["benchmark"] = wall_s - sum(by_module.values())
        paths = self.counts["streams"]
        return {
            "wall_s": wall_s,
            "self_s_by_module": dict(sorted(by_module.items(), key=lambda kv: -kv[1])),
            "self_s_by_function": dict(sorted(self.self_s.items(), key=lambda kv: -kv[1])),
            "calls": dict(self.calls),
            "edges": [{"caller": a, "callee": b, "calls": self.edge_calls[a, b], "s": s}
                      for (a, b), s in sorted(self.edges.items(), key=lambda kv: -kv[1])],
            "counts": {
                "count.path_steps": self.counts["path_steps"],
                "count.streams": paths,
                "count.batches": self.counts["batches"],
                "count.noise_bytes_per_batch": self.noise_bytes,
                "count.values_bytes_per_batch": self.values_bytes,
                "count.mean_steps_per_path": self.counts["path_steps"] / paths if paths else 0.0,
            },
        }


# --- probes ----------------------------------------------------------------

def _seconds(fn, reps: int, inner: int = 1) -> float:
    """Median wall time of ``inner`` back-to-back calls, over ``reps`` samples."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


class _Timed:
    """Callable wrapper accumulating the time spent in ``fn``."""

    def __init__(self, fn):
        self.fn = fn
        self.s = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.s += time.perf_counter() - t0


def _estimator_self(model, scheme, spec, n_paths, seed) -> float:
    """estimate() minus its calls into schemes and functionals, per path."""
    from pathfunc import estimator
    names = ("simulate_values", "observe_args_batch", "simulate_path", "evaluate")
    timed = {n: _Timed(getattr(estimator, n)) for n in names}
    payoff = _Timed(spec.payoff_batch)
    originals = {n: getattr(estimator, n) for n in names}
    try:
        for n, t in timed.items():
            setattr(estimator, n, t)
        t0 = time.perf_counter()
        estimator.estimate(model, scheme, replace(spec, payoff_batch=payoff), n_paths,
                           seed, workers=1, ui_override=True)
        total = time.perf_counter() - t0
    finally:
        for n, f in originals.items():
            setattr(estimator, n, f)
    children = payoff.s + sum(t.s for t in timed.values())
    return (total - children) / n_paths * 1e9


def probe(ctx, inputs, import_s: float, skorohod_paths) -> dict:
    """Time each module's public functions on this workload's inputs.

    ``skorohod_paths`` is the (times, values) pair the diagnostics workload
    writes as CSV for ``skorohod-dist``.
    """
    import numpy as np
    from pathfunc import cli, estimator
    from pathfunc.config import parse_config
    from pathfunc.functionals import evaluate, observe_args_batch
    from pathfunc.paths import StepPath
    from pathfunc.schemes import (RngStream, SchemeConfig, check_local_consistency,
                                  fixed_time_grid, simulate_path, simulate_terminals,
                                  simulate_values)
    from pathfunc.skorohod import skorohod_distance_approx

    smoke = ctx.size == "smoke"
    p = inputs.probe
    cfg = parse_config(str(p["config"]))
    model = cli.build_model(cfg)
    scheme, _ = cli.build_scheme(cfg)
    spec = cli.build_spec(cfg)
    seed = cfg.get("run", "seed")
    h = p["h"]
    # fixed-grid layers run the workload's kernel, or Euler for the tree
    fixed_kind = "euler" if scheme.kind == "binomial_variable" else scheme.kind
    fixed = SchemeConfig(kind=fixed_kind, h=h, cap=scheme.cap)
    own = SchemeConfig(kind=scheme.kind, h=h, cap=scheme.cap)
    B = min(p["batch"], 200) if smoke else p["batch"]
    n = fixed_time_grid(h).size - 1
    d1 = model.dim_noise
    out = {"setup.import_s": import_s}

    out["config.parse_ms"] = 1e3 * _seconds(
        lambda: [parse_config(str(c)) for c in inputs.configs], 5, 20)

    streams = [RngStream(seed, i) for i in range(B)]
    t = _seconds(lambda: [s.generator() for s in streams], 3)
    out["schemes.keying_ns_per_stream"] = t / B * 1e9
    gens = [s.generator() for s in streams]
    t = _seconds(lambda: [g.standard_normal((n, d1)) for g in gens], 3)
    out["schemes.noise_ns"] = t / (B * n * d1) * 1e9
    del gens

    t = _seconds(lambda: simulate_terminals(model, fixed, streams), 3)
    out["schemes.simulate_terminals_ns"] = t / (B * n) * 1e9
    t = _seconds(lambda: simulate_values(model, fixed, streams), 3)
    out["schemes.simulate_values_ns"] = t / (B * n) * 1e9
    out["schemes.step_ns"] = out["schemes.simulate_terminals_ns"] - out["schemes.noise_ns"]
    out["schemes.store_ns"] = (out["schemes.simulate_values_ns"]
                               - out["schemes.simulate_terminals_ns"])

    times, values = simulate_values(model, fixed, streams)
    y = np.ascontiguousarray(values[:, n // 2])
    t = _seconds(lambda: (model.drift(y, 0.5), model.diffusion(y, 0.5)), 5, 50)
    out["models.coeff_ns"] = t / B * 1e9
    t = _seconds(lambda: observe_args_batch(times, values, spec), 3)
    out["functionals.observe_ns"] = t / (B * n) * 1e9
    args = observe_args_batch(times, values, spec)
    del values
    t = _seconds(lambda: spec.payoff_batch(args), 5, 20)
    out["functionals.payoff_ns_per_path"] = t / B * 1e9

    if scheme.kind == "binomial_variable":
        n_est = 100 if smoke else 1000
        out["estimator.self_ns"] = statistics.median(
            _estimator_self(model, own, spec, n_est, seed) for _ in range(3))
    else:
        out["estimator.self_ns"] = statistics.median(
            _estimator_self(model, fixed, spec, B, seed) for _ in range(3))

    k = 2 if smoke else p["per_path"]
    pstreams = [RngStream(seed, i) for i in range(k)]
    t = _seconds(lambda: [simulate_path(model, own, s) for s in pstreams], 3)
    out["schemes.simulate_path_us_per_path"] = t / k * 1e6
    paths = [simulate_path(model, own, s) for s in pstreams]
    t = _seconds(lambda: [evaluate(q, spec) for q in paths], 3)
    out["functionals.evaluate_us_per_path"] = t / k * 1e6

    ui_grid = p.get("ui_grid", [h])
    n_ui = min(p["ui_paths"], 500) if smoke else p["ui_paths"]
    out["estimator.ui_diagnostic_s"] = _seconds(
        lambda: estimator.ui_diagnostic(model, own, spec, ui_grid, n_paths=n_ui, seed=seed), 1)

    probes_yt = [(yv, tv) for yv in (0.5, 1.0, 2.0) for tv in (0.0, 0.5)]
    n_draws = 20000 if smoke else 200000
    t = _seconds(lambda: check_local_consistency(model, SchemeConfig("euler", h=h),
                                                 probes_yt, n_draws=n_draws, seed=seed), 3)
    out["schemes.consistency_ns_per_draw"] = t / (len(probes_yt) * n_draws) * 1e9

    out["estimator.counterexample_strong_s"] = _seconds(
        lambda: estimator.counterexample_strong(seed=ctx.seed, n_rep=20 if smoke else 200), 1)
    out["estimator.counterexample_bessel_s"] = _seconds(
        lambda: estimator.counterexample_bessel(seed=0, n_paths=20000 if smoke else 200000), 1)

    pa, pb = (StepPath(*q) for q in skorohod_paths)
    out["skorohod.distance_ms"] = 1e3 * _seconds(lambda: skorohod_distance_approx(pa, pb), 5)
    return out
