"""Monte Carlo estimation of path functionals with reproducible streams.

Path i always draws from the stream keyed (seed, namespace, i), so its draws
depend neither on batching nor on which process prices it (``schemes._priced``
splits the paths, and the reciprocal-Bessel counter-example's rows).  The
estimate sums in one order: contiguous groups of ``_batch_size`` paths, one
``np.sum`` per group, from path 0 up, so it prints the same bytes on any core
count.
Every batch takes one route: ``schemes._grid_states`` -> ``fold_args_batch`` ->
``payoff_values``, the tree's included.  The fold's keep rule
(``keeps_whole_paths``) sets the batch size: a range is cut into equal
batches of at most ``_FOLD_ROWS`` rows when only the sampled instants are
kept, and of at most one group when whole paths are.

``estimate`` prices whatever payoff it is given and keeps each path's
payoff value.  g(X^h) => g(X) moves the expectations only when the family
{g(X^h)} is uniformly integrable (Billingsley 1999, Thm 3.5), so the
commands judge that gate (:func:`tail_report`) on those values: ``price``
and ``converge`` on the paths they price, ``check`` on fresh paths priced
in namespaces 1000 + k (:func:`ui_diagnostic`).  The reciprocal-Bessel
harness below shows what goes wrong otherwise.  The
strong counter-example draws each repetition's largest interval error from
its exact law, one uniform each, and prints that law's exact mean beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EstimationError, EvaluationError, PreconditionError, SimulationError
# evaluate, observe_args_batch, simulate_path and simulate_values go unused
# here; the benchmark tracer reads them by name
from .functionals import (FunctionalSpec, evaluate, fold_args_batch, keeps_whole_paths,
                          observe_args_batch, payoff_values)
from .models import (SdeModel, inverse_bessel3, sample_reciprocal_bessel3_stopped,
                     sample_sup_abs_bm_max)
from .oracles import reciprocal_bessel3_mean, sup_abs_bm_max_mean
from .paths import BarrierPair, StepPath, classify_c_partition, hitting_time
from .schemes import (_FORK_DRAWS, RngStream, SchemeConfig, _grid_states, _priced,
                      _seated_rows, _stream_keys, simulate_path, simulate_values)

__all__ = [
    "Estimate",
    "ConvergenceReport",
    "UiReport",
    "estimate",
    "ui_diagnostic",
    "tail_report",
    "stop_levels",
    "check_h_grid",
    "convergence_study",
    "counterexample_tangency",
    "counterexample_bessel",
    "counterexample_strong",
]

# Most rows stepped together when only the sampled instants are kept: enough to
# spread numpy's per-call cost of each step.  A range is cut into equal batches,
# so 10 000 paths step as 2 x 5000 and a 512-step grid draws in one noise block.
_FOLD_ROWS = 8192

_BATCH_ELEMENTS = 8_000_000  # float64s of a stored whole-path batch: sizes the groups, so the bytes

_MIN_RANGE = 1024  # fewest paths a forked range prices: a fork 3-7 ms, 1024 32-step paths 6 ms

# The uniform-integrability gate (tail_report): E[|g|; |g| > TAIL_CUTOFF] <= TAIL_TOL.
TAIL_CUTOFF = 32.0
TAIL_TOL = 0.05

# A convergence sweep's oracle is covered when the smallest-h 99% interval,
# widened by this constant times sqrt(h) for the chain's O(sqrt(h)) barrier
# bias, contains it (_convergence_flags).
_BIAS_ALLOWANCE = 0.35


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo value with its normal-approximation uncertainty."""

    mean: float
    stderr: float
    ci95: tuple[float, float]
    n_paths: int
    h: float
    elapsed: float
    values: np.ndarray = field(compare=False, repr=False)  # each priced path's payoff value

    def csv_row(self, timing: bool = True) -> str:
        t = f"{self.elapsed:.3f}" if timing else "0.000"
        return (f"{self.h:.17g},{self.mean:.17g},{self.stderr:.17g},"
                f"{self.ci95[0]:.17g},{self.ci95[1]:.17g},{self.n_paths},{t}")

    @staticmethod
    def csv_header() -> str:
        return "h,mean,stderr,ci_lo,ci_hi,n,elapsed"


def _finalize(values: np.ndarray, group: int, h: float, t0: float) -> Estimate:
    n = len(values)
    total = total_sq = 0.0
    for g in range(0, n, group):
        part = values[g:g + group]
        total += float(np.sum(part))
        total_sq += float(np.sum(part * part))
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    stderr = float(np.sqrt(var / n))
    return Estimate(
        mean=float(mean),
        stderr=stderr,
        ci95=(float(mean - 1.96 * stderr), float(mean + 1.96 * stderr)),
        n_paths=n,
        h=h,
        elapsed=time.perf_counter() - t0,
        values=values,
    )


def _batch_size(config: SchemeConfig, model: SdeModel) -> int:
    """Paths per reduction group: a stored batch of its longest rows
    (``config.max_times``) fits ``_BATCH_ELEMENTS``.  A batch that keeps whole
    paths is at most one group, a streamed one at most ``_FOLD_ROWS`` rows.  The
    estimate sums each group on its own, so the group size fixes its bytes."""
    per_path = max(1, config.max_times(model) * model.dim_state)
    return max(16, min(16384, _BATCH_ELEMENTS // per_path))


def estimate(model: SdeModel, config: SchemeConfig, spec: FunctionalSpec,
             n_paths: int, seed: int, workers: int = 1, namespace: int = 0,
             ui_override: bool = True) -> Estimate:
    """Sample mean of the functional over n_paths independent chain paths.

    Deterministic given (seed, namespace, n_paths), however :func:`_priced`
    splits the paths.  A failed simulation or payoff evaluation aborts with an
    error that names the failing stream.  ``workers`` is accepted only as 1
    and ``ui_override`` only as True, the values the benchmark harness passes.
    Any payoff is priced, keeping each path's payoff value: the commands
    judge the uniform-integrability gate (:func:`tail_report`) on them.
    """
    if n_paths < 2:
        raise PreconditionError("need at least two paths for a standard error")
    if workers != 1:
        raise PreconditionError(f"workers must be 1 (got {workers!r}): "
                                "the estimate sets its process count from the CPUs")
    if ui_override is not True:
        raise PreconditionError(f"ui_override must be True (got {ui_override!r}): "
                                "the commands judge the uniform-integrability gate")
    t0 = time.perf_counter()
    bsz = _batch_size(config, model)
    per_batch = bsz if keeps_whole_paths(spec) else _FOLD_ROWS
    def price(start, stop):  # payoff values of paths start..stop-1, in equal batches
        n = stop - start
        nb, vals = -(-n // per_batch), np.empty(n)
        cuts = [n * j // nb for j in range(nb + 1)]  # from start
        for a, b in zip(cuts, cuts[1:]):
            keys = _stream_keys(seed, namespace, start + a, start + b)
            try:
                args = fold_args_batch(*_grid_states(model, config, keys), spec)
                vals[a:b] = payoff_values(spec, args)
            except (SimulationError, EvaluationError) as e:
                sid = start + a + e.batch_index
                raise EstimationError(f"stream {sid}: path simulation failed: {e}",
                                      stream_id=sid) from e
        return vals
    return _finalize(np.concatenate(_priced(price, n_paths, _MIN_RANGE)), bsz, config.h, t0)


@dataclass
class UiReport:
    """The uniform-integrability gate's verdict on a sweep, one row per h."""

    passed: bool
    rows: list  # (h, stop level or None, tail at TAIL_CUTOFF, second moment of the values)
    sup_second_moment: float


def stop_levels(model: SdeModel, h_grid) -> list:
    """The level the tail sample at each h is stopped (absorbed) at: 1/h for
    the reciprocal-Bessel(3) family, drawn from its exact stopped law since
    its grid chains diverge in moments, and None for a chain, which is priced
    and never clamped.  A start value at or above some 1/h is refused."""
    if model.label != "inverse_bessel3":
        return [None for _ in h_grid]
    levels = [1.0 / h for h in h_grid]
    if not min(levels) > model.y0[0]:
        raise PreconditionError(f"start value {model.y0[0]:g} is not below 1/h = {min(levels):g}")
    return levels


def tail_report(samples) -> UiReport:
    """The tail expectation E[|g| ; |g| > A] at A = ``TAIL_CUTOFF``, and the
    second moment E[g^2], of each sample ``(h, level, payoff values g)``, as
    one row ``(h, level, tail, second moment)``: ``level`` is where the
    sample was stopped, None for a chain.

    Passes iff the tail is at most ``TAIL_TOL`` for every h, so a NaN tail
    fails (tails must vanish uniformly for expectations of linear-growth
    payoffs to transfer through weak convergence).  A bounded supremum of
    the second moment over h is the practical p = 2 sufficient condition.
    """
    rows = []
    for h, level, g in samples:
        g = np.abs(g)
        rows.append((h, level, float(np.mean(g * (g > TAIL_CUTOFF))), float(np.mean(g * g))))
    return UiReport(passed=all(r[2] <= TAIL_TOL for r in rows), rows=rows,  # NaN fails
                    sup_second_moment=float(np.max([r[3] for r in rows], initial=0.0)))


def ui_diagnostic(model: SdeModel, config: SchemeConfig, spec: FunctionalSpec,
                  h_grid, n_paths: int = 20000, seed: int = 0) -> UiReport:
    """:func:`tail_report` of the payoff values of n_paths fresh paths at
    each h, priced by :func:`estimate` in namespace 1000 + k under
    ``replace(config, h=h)``; a failing path is named by its stream.  The
    reciprocal-Bessel family is drawn from its exact law stopped at
    :func:`stop_levels`, which refuses a start value before anything is
    drawn.  Those draws are Z(1): the payoff values only for
    ``check_bessel_cap.cfg``'s ``terminal_identity`` at r = 0, and ROADMAP
    item 18 deletes this branch."""
    sweep = [replace(config, h=h) for h in h_grid]
    if not sweep:
        raise PreconditionError("h_grid must be nonempty")
    levels = stop_levels(model, [s.h for s in sweep])

    def sample(k, s, level):  # payoff values in namespace 1000 + k
        if level is None:
            return estimate(model, s, spec, n_paths, seed, namespace=1000 + k).values
        gen = RngStream(seed, 0, 1000 + k).generator()
        return sample_reciprocal_bessel3_stopped(float(model.y0[0]), level, n_paths, gen)
    return tail_report((s.h, level, sample(k, s, level))
                       for k, (s, level) in enumerate(zip(sweep, levels)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-h estimates against an optional independent reference value."""

    rows: list  # (h, Estimate), h decreasing
    oracle: float | None = None
    errors: list = field(default_factory=list)
    trend_slope: float | None = None
    errors_nonincreasing: bool | None = None
    oracle_covered: bool | None = None

    @property
    def non_convergence_flag(self) -> bool:
        if self.oracle is None:
            return False
        return not (self.errors_nonincreasing and self.oracle_covered)


def _convergence_flags(rows: list, oracle: float | None) -> dict:
    """The :class:`ConvergenceReport` fields that judge ``rows`` against ``oracle``."""
    if oracle is None:
        return {}
    errs = [abs(est.mean - oracle) for _, est in rows]
    inversions = sum(1 for a, b in zip(errs, errs[1:]) if b > a * (1.0 + 1e-12))
    h_last, est_last = rows[-1]
    allowance = 2.576 * est_last.stderr + _BIAS_ALLOWANCE * np.sqrt(h_last)
    slope = None
    if all(e > 0.0 for e in errs):
        slope = float(np.polyfit(np.log([h for h, _ in rows]), np.log(errs), 1)[0])
    return dict(errors=errs, trend_slope=slope, errors_nonincreasing=inversions <= 1,
                oracle_covered=errs[-1] <= allowance)


def check_h_grid(h_grid) -> list:
    """A convergence sweep's step sizes as a list: three or more, strictly decreasing."""
    h_grid = list(h_grid)
    if len(h_grid) < 3:
        raise PreconditionError("h_grid needs at least three entries")
    if any(b >= a for a, b in zip(h_grid, h_grid[1:])):
        raise PreconditionError("h_grid must be strictly decreasing")
    return h_grid


def convergence_study(model: SdeModel, config: SchemeConfig, spec: FunctionalSpec,
                      h_grid, n_paths: int, seed: int,
                      oracle: float | None = None) -> ConvergenceReport:
    """Run the estimator across a decreasing grid of step parameters, on
    ``replace(config, h=h)`` at each h, as :func:`ui_diagnostic` sweeps.
    A linear payoff's uniform-integrability gate is the caller's to judge on
    the rows' payoff values (``pathfunc converge`` does).

    When an oracle is supplied the report carries |mean - oracle| per row,
    whether the errors are nonincreasing (one statistical inversion is
    tolerated), and whether the smallest-h 99% interval widened by
    ``_BIAS_ALLOWANCE`` * sqrt(h) covers the oracle.
    """
    rows = []
    for k, h in enumerate(check_h_grid(h_grid)):
        est = estimate(model, replace(config, h=h), spec, n_paths, seed, namespace=100 + k)
        rows.append((h, est))
    return ConvergenceReport(rows=rows, oracle=oracle, **_convergence_flags(rows, oracle))


@dataclass
class TangencyReport:
    tau: float
    tau_h: dict
    c_class: str

    @property
    def passed(self) -> bool:
        return (self.tau == 0.5 and self.c_class == "C4"
                and all(v == 1.0 for v in self.tau_h.values()))


def counterexample_tangency() -> TangencyReport:
    """The tangency pathology: a path grazing the barrier has exit time 1/2,
    every uniformly-close lower path has exit time 1.

    Uses the deterministic parabola 1 - (s - 1/2)^2 against the band
    (-inf, 1) on the 2000-step grid, which contains 1/2, and shifts it down
    by h = 0.1, 0.01 and 0.001.  The grazing path falls in class C4,
    where the exit-time functional is discontinuous, so no approximation
    scheme converging merely weakly can recover tau.
    """
    times = np.arange(2001) / 2000
    base = 1.0 - (times - 0.5) ** 2
    band = BarrierPair(-np.inf, 1.0)
    x = StepPath(times, base)
    tau = hitting_time(x, band)
    tau_h = {}
    for h in (0.1, 0.01, 0.001):
        tau_h[h] = hitting_time(StepPath(times, base - h), band)
    return TangencyReport(tau=tau, tau_h=tau_h,
                          c_class=classify_c_partition(x, band))


@dataclass
class BesselReport:
    rows: list  # (h, cap, mean, stderr)
    oracle: float
    capped_mean_near_start: bool
    gap_significant: bool

    @property
    def passed(self) -> bool:
        return self.capped_mean_near_start and self.gap_significant


def counterexample_bessel(n_paths: int = 200000, seed: int = 0) -> BesselReport:
    """Uniform-integrability failure for the reciprocal Bessel(3) process.

    For each h = 2^-4, 2^-6, 2^-8 the process is stopped at the cap 1/h of
    :func:`stop_levels`, the level ``check`` draws its tail sample at;
    each stopped variable is a bounded martingale, so the capped terminal
    mean equals z0 = 1 for every h even though the family converges weakly
    to the uncapped value Z(1), whose mean -- the closed-form oracle -- is
    strictly below 1.  The capped family carries mass about (1 - E[Z(1)])
    at height 1/h, which is exactly the non-vanishing tail the UI diagnostic
    flags.

    Sampling uses the exact stopped law (absorption probability from the
    reflection principle, terminal density by rejection); grid chains of
    this quadratic-volatility SDE have exploding moments and would bury the
    effect in noise.
    """
    z0 = 1.0
    hs = (2**-4, 2**-6, 2**-8)
    caps = stop_levels(inverse_bessel3(z0), hs)

    def row(k):  # (h, cap, mean, stderr), drawn in namespace 500 + k
        gen = RngStream(seed, 0, namespace=500 + k).generator()
        z = sample_reciprocal_bessel3_stopped(z0, caps[k], n_paths, gen)
        return hs[k], caps[k], float(np.mean(z)), float(np.std(z, ddof=1) / np.sqrt(n_paths))
    # nearly every stopped draw takes five: a uniform, then three normals and a uniform
    parts = _priced(lambda a, b: [row(k) for k in range(a, b)], len(hs),
                    -(-_FORK_DRAWS // (5 * n_paths)))
    rows = [r for part in parts for r in part]
    oracle = reciprocal_bessel3_mean(z0)
    _, _, m_last, se_last = rows[-1]
    return BesselReport(
        rows=rows,
        oracle=oracle,
        capped_mean_near_start=abs(m_last - z0) <= 3.0 * se_last,
        gap_significant=(z0 - oracle) > 5.0 * se_last,
    )


@dataclass
class StrongReport:
    rows: list  # (N, mean of M_N, its stderr, exact E[M_N], reference sqrt(2 log N))
    strictly_increasing: bool

    @property
    def passed(self) -> bool:
        return self.strictly_increasing


def counterexample_strong(n_rep: int = 200, seed: int = 0) -> StrongReport:
    """No strong convergence: sqrt(N)-scaled sup-error of the piecewise
    constant interpolation of Brownian motion grows with N.

    W(t) - W(i/N) on interval i is a Brownian motion of its own, so
    sqrt(N) sup_t |W(t) - W(floor(Nt)/N)| is M_N, the largest of N iid
    copies of S = sup_[0,1] |B|.  Repetition r of row k draws it exactly from
    one uniform of ``RngStream(seed, r, 600 + k)``; a row holds the mean,
    its standard error and the exact E[M_N].  They grow like sqrt(2 log N),
    so a strong (pathwise) rate cannot hold.
    """
    rows = []
    for k, N in enumerate((100, 1000, 10000)):
        with _seated_rows(1) as seat:  # one generator, reseated repetition by repetition
            u = [seat(0, key).random() for key in _stream_keys(seed, 600 + k, 0, n_rep)]
        sup = sample_sup_abs_bm_max(N, u)
        rows.append((N, float(np.mean(sup)), float(np.std(sup, ddof=1) / np.sqrt(n_rep)),
                     sup_abs_bm_max_mean(N), float(np.sqrt(2.0 * np.log(N)))))
    return StrongReport(rows=rows, strictly_increasing=all(np.diff([r[1] for r in rows]) > 0))
