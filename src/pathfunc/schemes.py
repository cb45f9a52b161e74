"""Markov chain approximation schemes and the local-consistency checker.

Three scheme kinds are provided:

* ``euler``: increment b(y,t) h + sigma(y,t) sqrt(h) N with standard normal
  draws (the Euler scheme as a chain);
* ``binomial_fixed``: increment b(y,t) h +/- sigma(y,t) sqrt(h) with equal
  probabilities, scalar models only;
* ``binomial_variable``: state-dependent step dt = h / sigma(y,t)^2 with
  spatial jumps b dt +/- sqrt(h), admissible only while sigma stays inside a
  declared band eps < |sigma| < 1/eps.

The fixed-step kinds share one batched update that differs only in its
draws (normals or +/-1 signs), and a single path is a batch of one; the
variable-step tree steps each path with :func:`binomial_variable_step`.  The
consistency checker measures these same two kernels.  All kinds truncate the
final step so the grid lands exactly on t = 1, and ``simulate_path`` emits
the realized grid as a :class:`StepPath`.  Paths are reproducible: every path
owns a counter-based RNG stream keyed by (seed, namespace, stream id), so
results do not depend on batching or on how paths are scheduled across
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError, SimulationError
from .models import SdeModel
from .paths import StepPath

__all__ = [
    "SchemeConfig",
    "RngStream",
    "binomial_variable_step",
    "simulate_path",
    "simulate_values",
    "simulate_terminals",
    "check_local_consistency",
    "ConsistencyReport",
]

SCHEME_KINDS = ("euler", "binomial_fixed", "binomial_variable")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, namespace, stream_id).

    The triple is packed into a distinct 128-bit Philox key, so identical
    keys reproduce identical draws and distinct stream ids give independent
    streams by construction.  The namespace separates independent uses (one
    per convergence row, diagnostic, ...) without seed arithmetic.
    """

    seed: int
    stream_id: int = 0
    namespace: int = 0

    def generator(self) -> np.random.Generator:
        if not (0 <= self.stream_id < 1 << 48 and 0 <= self.namespace < 1 << 16):
            raise ValueError("stream_id must fit 48 bits and namespace 16 bits")
        key = ((self.seed % (1 << 64)) << 64) | (self.namespace << 48) | self.stream_id
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: kernel kind, step parameter, optional state cap.

    ``qu_bounds = (lo, hi)`` declares the quasi-uniformity band
    lo * h <= dt <= hi * h; when omitted it is derived from the kind (exact
    (1, 1) for fixed-step kernels, (eps^2, 1/eps^2) from the model's declared
    sigma band for the variable-step tree).  ``cap`` truncates the state to
    min(y, cap) after every step.
    """

    kind: str
    h: float
    cap: float | None = None
    qu_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not (0.0 < self.h <= 1.0):
            raise ValueError("step parameter h must lie in (0, 1]")
        if self.cap is not None and not np.isfinite(self.cap):
            object.__setattr__(self, "cap", None)

    def resolved_qu_bounds(self, model: SdeModel) -> tuple[float, float]:
        """Quasi-uniformity band on ``model``.  Every simulation entry and the
        consistency checker resolve it first, so it also refuses models the
        kernel cannot run."""
        if self.kind != "euler" and (model.dim_state, model.dim_noise) != (1, 1):
            raise PreconditionError("binomial kernels require d = d1 = 1")
        if self.qu_bounds is not None:
            return self.qu_bounds
        if self.kind == "binomial_variable":
            eps = _require_sigma_band(model)
            return (eps * eps, 1.0 / (eps * eps))
        return (1.0, 1.0)


def _require_sigma_band(model: SdeModel) -> float:
    if model.sigma_eps is None:
        raise PreconditionError(
            f"model {model.label!r} declares no sigma band; "
            "binomial_variable needs eps with eps < |sigma| < 1/eps"
        )
    return float(model.sigma_eps)


def _raise_at_first_bad_row(message, rows_ok, y, t):
    """Raise SimulationError at the first row not ok, recorded as ``batch_index``."""
    bad = int(np.argmin(rows_ok))
    e = SimulationError(message, state=y[bad], t=t)
    e.batch_index = bad
    raise e


def _check_finite_coeffs(b, s, y, t):
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(s))):
        rows_ok = np.isfinite(b).all(axis=-1) & np.isfinite(s).all(axis=(-2, -1))
        _raise_at_first_bad_row("non-finite drift/diffusion evaluation", rows_ok, y, t)


def _mix_noise(s, xi):
    """sum_j sigma[..., j] * xi[..., j], accumulated in fixed column order."""
    acc = s[..., 0] * xi[..., 0, None]
    for j in range(1, s.shape[-1]):
        acc = acc + s[..., j] * xi[..., j, None]
    return acc


def _fixed_update(model, y, t, dt, xi):
    """Shared update y + b dt + sqrt(dt) * (sigma @ xi) for a (B, d) batch.

    A single (1, d) state broadcasts against (B, d1) draws, so the
    coefficients are evaluated once for all of them.
    """
    b = model.drift(y, t)
    s = model.diffusion(y, t)
    _check_finite_coeffs(b, s, y, t)
    return y + b * dt + np.sqrt(dt) * _mix_noise(s, xi)


def _truncated_dt(t: float, h: float) -> float:
    return h if t + h <= 1.0 else 1.0 - t


def binomial_variable_step(model: SdeModel, y, t: float, h: float, rng, *, sign=None):
    """One variable-step binomial transition: dt = h / sigma^2, jump +/- sqrt(h).

    Returns ``(dt, y_next)``.  The jump is written sigma * sqrt(dt) so that a
    truncated final step keeps the conditional variance equal to sigma^2 dt
    exactly.
    """
    eps = _require_sigma_band(model)
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (1,):
        raise PreconditionError(f"state shape {y.shape} does not match dim_state 1")
    b = float(model.drift(y[None, :], t)[0, 0])
    sig = float(model.diffusion(y[None, :], t)[0, 0, 0])
    if not (np.isfinite(b) and np.isfinite(sig)):
        raise SimulationError("non-finite drift/diffusion evaluation", state=y, t=t)
    a = abs(sig)
    if not (a > eps and a < 1.0 / eps):
        raise PreconditionError(
            f"sigma({float(y[0])!r}, {t!r}) = {sig!r} outside the declared band "
            f"({eps}, {1.0 / eps})"
        )
    dt = h / (sig * sig)
    dt = min(dt, 1.0 - t)
    if dt <= 0.0:
        raise PreconditionError("step starts at or beyond the horizon")
    if sign is None:
        rng = rng.generator() if isinstance(rng, RngStream) else rng
        sign = float(rng.integers(0, 2) * 2 - 1)
    jump = sig * np.sqrt(dt)
    return dt, np.array([float(y[0]) + b * dt + jump * float(sign)])


def fixed_time_grid(h: float) -> np.ndarray:
    """Grid 0, h, 2h, ..., 1 with the final step truncated to land on 1."""
    inv = 1.0 / h
    n = int(round(inv)) if abs(inv - round(inv)) < 1e-9 else int(np.ceil(inv))
    t = np.arange(n + 1) * h
    t[-1] = 1.0
    if t.size >= 2 and t[-2] >= 1.0:
        t = np.delete(t, -2)
    return t


def _draw_fixed_noise(gen: np.random.Generator, kind: str, n_steps: int, d1: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty((n_steps, d1))
    if kind == "euler":
        gen.standard_normal(out=out)
    else:
        gen.random(out=out)
        np.copysign(1.0, out - 0.5, out=out)  # uniform draw -> +/-1 sign
    return out


_FINITE_CHECK_STRIDE = 32


def _run_fixed_batch(model: SdeModel, config: SchemeConfig, noise: np.ndarray,
                     times: np.ndarray, keep_path: bool):
    """Advance a (B, d) batch along a shared fixed grid.

    ``noise`` has shape (B, n_steps, d1).  Returns the full (B, n+1, d)
    value array when keep_path is true, else just the terminal states.
    The arithmetic is elementwise, so a batch of one reproduces a single
    simulation bit for bit.
    """
    config.resolved_qu_bounds(model)  # refuses binomial kernels on vector models
    B = noise.shape[0]
    d = model.dim_state
    y = np.repeat(model.y0[None, :], B, axis=0)
    values = np.empty((B, times.size, d)) if keep_path else None
    if keep_path:
        values[:, 0] = y
    cap = config.cap
    n_steps = times.size - 1

    def assert_finite(n):
        if not np.all(np.isfinite(y)):
            _raise_at_first_bad_row("non-finite state during simulation",
                                    np.isfinite(y).all(axis=1), y, float(times[n + 1]))

    for n in range(n_steps):
        y = _fixed_update(model, y, times[n], times[n + 1] - times[n], noise[:, n])
        if cap is not None:
            y = np.minimum(y, cap)
        if n % _FINITE_CHECK_STRIDE == _FINITE_CHECK_STRIDE - 1:
            assert_finite(n)
        if keep_path:
            values[:, n + 1] = y
    assert_finite(n_steps - 1)
    return values if keep_path else y


def _simulate_variable(model: SdeModel, config: SchemeConfig, gen: np.random.Generator,
                       signs=None) -> StepPath:
    """Per-path loop for the variable-step binomial tree."""
    lo, hi = config.resolved_qu_bounds(model)
    h = config.h
    t = 0.0
    y = float(model.y0[0])
    ts = [0.0]
    ys = [y]
    k = 0
    while t < 1.0:
        sign = None if signs is None else signs[k]
        dt, y_next = binomial_variable_step(model, np.array([y]), t, h, gen, sign=sign)
        t_next = t + dt
        trunc = t_next >= 1.0 - 1e-15
        ratio = dt / h
        if not trunc and not (lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)):
            raise SimulationError(
                f"quasi-uniformity violated: dt/h = {ratio!r} outside [{lo}, {hi}]",
                state=np.array([y]), t=t)
        y = float(y_next[0])
        if config.cap is not None:
            y = min(y, config.cap)
        t = 1.0 if trunc else t_next
        ts.append(t)
        ys.append(y)
        k += 1
    return StepPath(np.asarray(ts), np.asarray(ys))


def simulate_path(model: SdeModel, config: SchemeConfig, rng, *, forced_noise=None) -> StepPath:
    """Simulate one chain path from the model's initial state to t = 1.

    ``rng`` is an :class:`RngStream` or a ready generator.  ``forced_noise``
    substitutes the per-step draws (normals for euler, +/-1 signs for the
    binomial kernels) and is the hook tests use to pin noise across models.
    Scalar models yield flat-valued paths.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    if config.kind == "binomial_variable":
        return _simulate_variable(model, config, gen, signs=forced_noise)
    times = fixed_time_grid(config.h)
    n_steps = times.size - 1
    if forced_noise is None:
        forced_noise = _draw_fixed_noise(gen, config.kind, n_steps, model.dim_noise)
    noise = np.asarray(forced_noise, dtype=np.float64)
    if noise.shape != (n_steps, model.dim_noise):
        raise ValueError(f"forced noise must have shape {(n_steps, model.dim_noise)}")
    values = _run_fixed_batch(model, config, noise[None], times, keep_path=True)[0]
    if model.dim_state == 1:
        values = values[:, 0]
    return StepPath(times, values)


class _PhiloxPool:
    """Reseats one Philox bit generator across stream keys.

    Produces draw-for-draw the same output as a fresh ``Philox(key=...)``
    per stream (the test suite pins this) while skipping per-stream
    construction cost.  Purely a batch-local optimization; not shared
    across threads.
    """

    def __init__(self):
        self._bg = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bg)
        self._st = self._bg.state

    def generator_for(self, stream: RngStream) -> np.random.Generator:
        st = self._st
        st["state"]["key"][0] = (stream.namespace << 48) | stream.stream_id
        st["state"]["key"][1] = stream.seed % (1 << 64)
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4  # discard buffered blocks from the previous key
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self._gen


def _batch_noise(streams: Sequence[RngStream], kind: str, n_steps: int, d1: int) -> np.ndarray:
    out = np.empty((len(streams), n_steps, d1))
    pool = _PhiloxPool()
    for i, s in enumerate(streams):
        _draw_fixed_noise(pool.generator_for(s), kind, n_steps, d1, out=out[i])
    return out


def simulate_values(model: SdeModel, config: SchemeConfig, streams: Sequence[RngStream]):
    """Vectorized batch simulation on the shared fixed grid.

    Returns (times, values) with values of shape (B, n+1, d).  Only the
    fixed-step kernels share a grid; the variable-step tree goes through
    :func:`simulate_path` one path at a time.
    """
    if config.kind == "binomial_variable":
        raise PreconditionError("variable-step paths do not share a grid; "
                                "use simulate_path per stream")
    times = fixed_time_grid(config.h)
    noise = _batch_noise(streams, config.kind, times.size - 1, model.dim_noise)
    values = _run_fixed_batch(model, config, noise, times, keep_path=True)
    return times, values


def simulate_terminals(model: SdeModel, config: SchemeConfig, streams: Sequence[RngStream]) -> np.ndarray:
    """Terminal states only, shape (B, d); avoids storing whole paths."""
    if config.kind == "binomial_variable":  # scalar models only
        return np.array([simulate_path(model, config, s).values[-1:] for s in streams])
    times = fixed_time_grid(config.h)
    noise = _batch_noise(streams, config.kind, times.size - 1, model.dim_noise)
    return _run_fixed_batch(model, config, noise, times, keep_path=False)


@dataclass
class ConsistencyRow:
    y: float
    t: float
    method: str
    r1: float
    r2: float
    tol1: float
    tol2: float
    dt_ratio: float
    qu_ok: bool
    passed: bool
    note: str = ""


@dataclass
class ConsistencyReport:
    kind: str
    h: float
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def check_local_consistency(model: SdeModel, config: SchemeConfig,
                            probes: Iterable, n_draws: int = 10**6,
                            seed: int = 0, c_const: float = 1.0,
                            reference: SdeModel | None = None) -> ConsistencyReport:
    """Empirical check of the local-consistency moment conditions.

    At each probe (y, t) the kernel's one-step conditional mean and variance
    are measured -- exactly, by enumerating the two outcomes, for the
    binomial kernels, and by Monte Carlo with ``n_draws`` samples for the
    Euler kernel.  Residuals are

        r1 = (E[dY] - E[dt] b(y,t)) / E[dt]
        r2 = (var[dY] - E[dt] sigma sigma'(y,t)) / E[dt]

    and a probe passes when |r| <= c_const * h + 4 standard errors and the
    realized dt stays inside the declared quasi-uniformity band.  Passing a
    separate ``reference`` model measures the kernel of ``model`` against
    the reference coefficients (used to demonstrate detection of a
    sabotaged kernel).
    """
    ref = reference if reference is not None else model
    report = ConsistencyReport(kind=config.kind, h=config.h)

    def fail(y, t, e):
        report.rows.append(ConsistencyRow(
            y=y, t=t, method="n/a", r1=np.nan, r2=np.nan, tol1=0.0, tol2=0.0,
            dt_ratio=np.nan, qu_ok=False, passed=False, note=str(e)))

    try:
        lo, hi = config.resolved_qu_bounds(model)
    except PreconditionError as e:
        fail(np.nan, np.nan, e)
        return report
    gen = RngStream(seed, 0, namespace=977).generator()
    for y_p, t_p in probes:
        y = np.atleast_1d(np.asarray(y_p, dtype=np.float64))
        t = float(t_p)
        b_ref = ref.drift(y[None, :], t)[0]
        s_ref = ref.diffusion(y[None, :], t)[0]
        a_ref = s_ref @ s_ref.T
        try:
            if config.kind == "binomial_variable":
                dt, up = binomial_variable_step(model, y, t, config.h, None, sign=1.0)
                _, dn = binomial_variable_step(model, y, t, config.h, None, sign=-1.0)
                dy = np.array([up, dn]) - y
            else:
                dt = _truncated_dt(t, config.h)
                xi = (gen.standard_normal((n_draws, model.dim_noise))
                      if config.kind == "euler" else np.array([[1.0], [-1.0]]))
                dy = _fixed_update(model, y[None, :], t, dt, xi) - y
        except (PreconditionError, SimulationError) as e:
            fail(float(y[0]), t, e)
            continue
        if config.kind == "euler":
            mean = dy.mean(axis=0)
            cov = np.atleast_2d(np.cov(dy, rowvar=False, ddof=1))
            se1 = dy.std(axis=0, ddof=1) / np.sqrt(n_draws)
            se2 = cov * np.sqrt(2.0 / (n_draws - 1))
            method = "monte_carlo"
        else:  # the two equally likely outcomes give the moments exactly
            mean = 0.5 * dy[0] + 0.5 * dy[1]
            cov = np.atleast_2d(0.5 * dy[0] * dy[0] + 0.5 * dy[1] * dy[1] - mean * mean)
            se1 = np.zeros_like(mean)
            se2 = np.zeros_like(cov)
            method = "enumeration"
        r1_vec = (mean - dt * b_ref) / dt
        r2_mat = (cov - dt * a_ref) / dt
        r1 = float(np.max(np.abs(r1_vec)))
        r2 = float(np.max(np.abs(r2_mat)))
        tol1 = c_const * config.h + float(np.max(4.0 * se1 / dt))
        tol2 = c_const * config.h + float(np.max(4.0 * np.abs(se2) / dt))
        ratio = dt / config.h
        qu_ok = lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)
        ok = (r1 <= tol1) and (r2 <= tol2) and qu_ok
        report.rows.append(ConsistencyRow(
            y=float(y[0]), t=t, method=method, r1=r1, r2=r2,
            tol1=tol1, tol2=tol2, dt_ratio=ratio, qu_ok=qu_ok, passed=ok))
    return report
