"""Payoff specifications and the full path-functional assembly.

For one scalar path x (state column 0) with exit time tau against the
configured barriers, the engine evaluates

    g(Pi(x, tau nu1), Pi(x, nu2), Pi(M(x), tau nu3), Pi(M(x), nu4), tau)

where Pi projects onto sampling instants and M is the running maximum.  A
payoff g always takes the flat argument vector of length 4m + 1, laid out as
[z1 | z2 | z3 | z4 | tau]; in the option payoffs below the terminal price is
argument 2m (the last entry of z2, with nu2 = (1/m, ..., 1)) and the terminal
running maximum is argument 4m.

Paths are observed a batch at a time by one observer, :func:`fold_args_batch`:
it folds a batch's columns as they are stepped, on a shared grid or the
tree's grids per row, and keeps column 0 and its running maximum where
the payoff can read them (:func:`keeps_whole_paths`);
:func:`observe_args_batch` feeds it stored paths.  tau and the samples follow
the exit and sampling rules of :mod:`pathfunc.paths` (``exit_times`` and
``grid_columns``), the same rules the per-path operators and the continuity
classification use.

Payoffs declare whether they are bounded (the commands judge a linear
payoff's uniform-integrability gate), and each built-in payoff declares the
distance to its discontinuity locus so the almost-sure-continuity condition
can be monitored empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, PreconditionError
from .paths import BarrierPair, SampleVector, StepPath, exit_times, grid_columns

__all__ = [
    "FunctionalSpec",
    "evaluate",
    "observe_args_batch",
    "fold_args_batch",
    "keeps_whole_paths",
    "payoff_values",
    "up_and_in_call",
    "discrete_barrier_call",
    "custom_terminal",
    "constant_payoff",
    "discontinuity_mass_estimate",
]


@dataclass(frozen=True)
class FunctionalSpec:
    """The four sampling vectors, barriers, and payoff of one functional.

    ``payoff_batch``, the one form of the payoff, maps an (N, 4m+1) block of
    argument vectors to (N,) values; one vector is a block of one row.
    ``locus_distance`` maps such a block to each row's distance from the
    payoff's discontinuity set.  ``bounded`` is False for a payoff of linear
    growth.  The barriers and payoff read column 0 of the state.  No code
    reads ``payoff``; it stays for the benchmark's tracer, which rebinds it.
    """

    m: int
    nu1: SampleVector
    nu2: SampleVector
    nu3: SampleVector
    nu4: SampleVector
    payoff_batch: Callable[[np.ndarray], np.ndarray]
    bounded: bool
    barriers: BarrierPair
    payoff: Callable | None = None
    locus_distance: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = "custom"

    def __post_init__(self):
        for nu in (self.nu1, self.nu2, self.nu3, self.nu4):
            if len(nu) != self.m:
                raise ValueError("all four sampling vectors must have length m")


def keeps_whole_paths(spec: FunctionalSpec) -> bool:
    """The keep rule of :func:`fold_args_batch`: whether the payoff can read
    any column.  Only an unbounded band (tau = 1) pins the sampled instants,
    so only then are the other columns dropped."""
    return not spec.barriers.is_unbounded


def fold_args_batch(times: np.ndarray | None, states, spec: FunctionalSpec) -> np.ndarray:
    """Argument vectors for a batch of paths, folded over their states.

    ``states`` yields each column in order: the (B, d) state on ``times``, a
    shared (n+1,) grid or stored (B, n+1) grids per row, or with ``times``
    None the tree's (B, 1) times and (B, d) state (``schemes._grid_states``),
    on grids per row that may end by repeating t = 1.  Column 0 and its
    running maximum are kept where the payoff can read them
    (:func:`keeps_whole_paths`); on streamed grids per row an instant s takes
    the last column with t <= s by overwriting.  tau and the samples then
    follow the exit and sampling rules on the kept times.  Returns the
    (B, 4m+1) block [z1 | z2 | z3 | z4 | tau]; each row reads only its path.
    """
    nus = (spec.nu1, spec.nu2, spec.nu3, spec.nu4)
    if times is None and keeps_whole_paths(spec):  # store the rows' grids
        ts, states = zip(*((t.copy(), y.copy()) for t, y in states))
        times = np.hstack(ts)
    if times is None:  # the instants, as tau = 1
        kept = np.unique(np.concatenate([nu.entries for nu in nus]))
    elif keeps_whole_paths(spec) or times.ndim == 2:  # stored grids per row are whole
        kept = np.arange(times.shape[-1])
    else:
        kept = np.unique(np.concatenate([grid_columns(times, nu.entries) for nu in nus]))
    slot = {int(c): j for j, c in enumerate(kept)}
    M = None
    for col, y in enumerate(states):
        if times is None:
            t, y = y
        v = y[:, 0]
        if M is None:
            M = v.copy()
            V_at, M_at = np.empty((M.size, kept.size)), np.empty((M.size, kept.size))
        else:
            np.maximum(M, v, out=M)
        if times is None:
            at = t <= kept
            np.copyto(V_at, v[:, None], where=at)
            np.copyto(M_at, M[:, None], where=at)
            continue
        j = slot.get(col)
        if j is not None:
            V_at[:, j] = v
            M_at[:, j] = M
    t = kept if times is None else times[..., kept]
    tau = exit_times(t, V_at, spec.barriers)[:, None]
    one = np.ones_like(tau)
    z = [np.take_along_axis(A, grid_columns(t, s * nu.entries), axis=1)
         for A, s, nu in zip((V_at, V_at, M_at, M_at), (tau, one, tau, one), nus)]
    return np.concatenate(z + [tau], axis=1)


def observe_args_batch(times: np.ndarray, values: np.ndarray,
                       spec: FunctionalSpec) -> np.ndarray:
    """:func:`fold_args_batch` of stored paths: ``values`` is a (B, n+1, d)
    or a (B, n+1) block."""
    if values.ndim == 2:
        values = values[:, :, None]
    return fold_args_batch(times, values.swapaxes(0, 1), spec)


def payoff_values(spec: FunctionalSpec, args: np.ndarray) -> np.ndarray:
    """The spec's ``payoff_batch`` of an (N, 4m+1) argument block.

    Raises :class:`EvaluationError` on the first non-finite value and
    records its row as ``batch_index``.
    """
    vals = np.asarray(spec.payoff_batch(args), dtype=np.float64)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = int(np.argmin(finite))
        e = EvaluationError("payoff returned a non-finite value")
        e.batch_index = bad
        raise e
    return vals


def evaluate(path: StepPath, spec: FunctionalSpec) -> float:
    """Payoff of one path, evaluated as a batch of one; a multi-dimensional
    path is read in column 0."""
    return float(payoff_values(spec, observe_args_batch(path.times, path.values[None], spec))[0])


def _uniform_spec(m: int) -> dict:
    nu = SampleVector.uniform(m)
    return dict(m=m, nu1=nu, nu2=nu, nu3=nu, nu4=nu)


def _knock_in_call(strike: float, barrier_level: float, r: float, m: int,
                   label: str, knock_level) -> FunctionalSpec:
    """e^{-r} (x_{2m} - K)^+ knocked in when ``knock_level`` of the (N, 4m+1)
    argument block reaches the barrier level; linear growth, discontinuous
    on {knock_level = barrier}.  The band stays unbounded, so tau = 1."""
    if m < 1:
        raise ValueError("need at least one monitoring date")
    if barrier_level <= 0.0:
        raise ValueError("barrier level must be positive")
    disc = float(np.exp(-r))
    k = float(strike)
    b = float(barrier_level)

    def payoff_batch(x):
        hit = knock_level(x) >= b
        return disc * np.maximum(x[:, 2 * m - 1] - k, 0.0) * hit

    def locus_distance(x):
        return np.abs(knock_level(x) - b)

    return FunctionalSpec(
        **_uniform_spec(m),
        payoff_batch=payoff_batch,
        locus_distance=locus_distance,
        bounded=False,
        barriers=BarrierPair.unbounded(),
        label=label,
    )


def up_and_in_call(strike: float, barrier_level: float, r: float) -> FunctionalSpec:
    """Up-and-in call: e^{-r} (X(1) - K)^+ activated when the running maximum
    M(1), argument 4 of the spec that samples t = 1 alone, reaches the barrier."""
    return _knock_in_call(strike, barrier_level, r, 1, "up_in_call", lambda x: x[:, 3])


def discrete_barrier_call(strike: float, barrier_level: float, r: float,
                          m: int) -> FunctionalSpec:
    """Up-and-in call with the barrier monitored at the m instants i/m.

    The knock-in condition reads the maximum of the monitored path values
    (arguments m+1 .. 2m); the call leg reads the terminal value (argument
    2m).
    """
    return _knock_in_call(strike, barrier_level, r, m, "discrete_barrier_call",
                          lambda x: np.max(x[:, m:2 * m], axis=1))


def custom_terminal(kind: str, strike: float = 0.0, r: float = 0.0) -> FunctionalSpec:
    """Payoffs of the terminal value only: identity or call.

    ``identity`` returns the discounted terminal value itself and is the
    payoff used by the martingale sanity checks.
    """
    disc = float(np.exp(-r))
    k = float(strike)
    if kind == "identity":
        payoff_batch = lambda x: disc * x[:, 1]
    elif kind == "call":
        payoff_batch = lambda x: disc * np.maximum(x[:, 1] - k, 0.0)
    else:
        raise ValueError(f"unknown terminal payoff kind {kind!r}")
    return FunctionalSpec(
        **_uniform_spec(1),
        payoff_batch=payoff_batch,
        locus_distance=None,
        bounded=False,
        barriers=BarrierPair.unbounded(),
        label=f"terminal_{kind}",
    )


def constant_payoff(c: float) -> FunctionalSpec:
    """g identically c; handy for exactness tests (stderr must be 0)."""
    c = float(c)
    payoff_batch = lambda x: np.full(x.shape[0], c)
    return FunctionalSpec(
        **_uniform_spec(1),
        payoff_batch=payoff_batch,
        locus_distance=None,
        bounded=True,
        barriers=BarrierPair.unbounded(),
        label="constant",
    )


def discontinuity_mass_estimate(spec: FunctionalSpec, args: np.ndarray, delta: float) -> float:
    """Fraction of the rows of an (N, 4m+1) argument block that fall within
    delta of the payoff's discontinuity locus.

    A diagnostic for almost-sure continuity: the frequency should be small
    and shrink with delta.  Payoffs with no declared locus report 0.
    """
    if delta <= 0.0:
        raise PreconditionError("delta must be positive")
    if len(args) == 0:
        raise PreconditionError("need at least one argument row")
    if spec.locus_distance is None:
        return 0.0
    return float(np.mean(spec.locus_distance(args) < delta))
