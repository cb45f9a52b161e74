"""Payoff specifications and the full path-functional assembly.

For one scalar path x with exit time tau against the configured barriers,
the engine evaluates

    g(Pi(x, tau nu1), Pi(x, nu2), Pi(M(x), tau nu3), Pi(M(x), nu4), tau)

where Pi projects onto sampling instants and M is the running maximum.  A
payoff g always takes the flat argument vector of length 4m + 1, laid out as
[z1 | z2 | z3 | z4 | tau]; in the option payoffs below the terminal price is
argument 2m (the last entry of z2, with nu2 = (1/m, ..., 1)) and the terminal
running maximum is argument 4m.

Paths are observed a batch at a time: :func:`observe_args_batch` reads
stored paths, :func:`fold_args_batch` folds a batch's states as it steps.
Both take tau and the sampled columns from the exit and sampling rules of
:mod:`pathfunc.paths` (``exit_times`` and ``grid_columns``), the same rules
the per-path operators and the continuity classification use.

Payoffs declare a growth class: linear-growth payoffs are only trusted after
a uniform-integrability diagnostic (see the estimator module), and each
built-in payoff declares the distance to its discontinuity locus so the
almost-sure-continuity condition can be monitored empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, PreconditionError
from .paths import BarrierPair, SampleVector, StepPath, exit_times, grid_columns

__all__ = [
    "Growth",
    "FunctionalSpec",
    "evaluate",
    "observe_args_batch",
    "fold_args_batch",
    "payoff_values",
    "up_and_in_call",
    "discrete_barrier_call",
    "custom_terminal",
    "constant_payoff",
    "discontinuity_mass_estimate",
]


@dataclass(frozen=True)
class Growth:
    """Growth class of a payoff: bounded, or linear growth."""

    kind: str  # "bounded" | "linear"

    @classmethod
    def bounded(cls) -> "Growth":
        return cls("bounded")

    @classmethod
    def linear(cls) -> "Growth":
        return cls("linear")


@dataclass(frozen=True)
class FunctionalSpec:
    """The four sampling vectors, barriers, and payoff of one functional.

    ``payoff_batch`` maps an (N, 4m+1) block of argument vectors to (N,)
    values; ``payoff`` maps one flat (4m+1,) vector to a float.  The
    built-in payoffs write their formula once, as ``payoff_batch``, and
    derive ``payoff`` from it.  A custom payoff may give ``payoff`` alone;
    :func:`payoff_values` then applies it row by row.  ``locus_distance`` maps
    argument vectors to the distance from the payoff's discontinuity set
    (vectorized over a leading axis).  ``coordinate`` picks the scalar state
    component the barriers and payoff read on multi-dimensional models.
    """

    m: int
    nu1: SampleVector
    nu2: SampleVector
    nu3: SampleVector
    nu4: SampleVector
    payoff: Callable[[np.ndarray], float]
    growth: Growth
    barriers: BarrierPair
    coordinate: int = 0
    payoff_batch: Callable[[np.ndarray], np.ndarray] | None = None
    locus_distance: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = "custom"

    def __post_init__(self):
        for nu in (self.nu1, self.nu2, self.nu3, self.nu4):
            if len(nu) != self.m:
                raise ValueError("all four sampling vectors must have length m")


def observe_args_batch(times: np.ndarray, values: np.ndarray,
                       spec: FunctionalSpec) -> np.ndarray:
    """Argument vectors for a batch of paths.

    ``values`` has shape (B, n+1, d), or (B, n+1) for scalar paths, on a
    shared (n+1,) grid ``times`` or on a (B, n+1) grid per row, which may end
    by repeating t = 1.  Returns the (B, 4m+1) block laid out as
    [z1 | z2 | z3 | z4 | tau]; each row depends only on its own path.
    """
    V = values[:, :, spec.coordinate] if values.ndim == 3 else values
    B = V.shape[0]
    tau = exit_times(times, V, spec.barriers)
    M = np.maximum.accumulate(V, axis=1)

    def sample(A, instants):
        """A at the last grid time <= each of the (B, k) instants."""
        return np.take_along_axis(A, grid_columns(times, instants), axis=1)

    fixed = np.ones((B, 1))
    z1 = sample(V, tau[:, None] * spec.nu1.entries)
    z2 = sample(V, fixed * spec.nu2.entries)
    z3 = sample(M, tau[:, None] * spec.nu3.entries)
    z4 = sample(M, fixed * spec.nu4.entries)
    return np.concatenate([z1, z2, z3, z4, tau[:, None]], axis=1)


def fold_args_batch(times: np.ndarray, states, spec: FunctionalSpec) -> np.ndarray:
    """:func:`observe_args_batch` folded over a batch's states as they arrive.

    ``states`` yields the (B, d) state at each column of the shared grid
    ``times`` in order, as returned by ``schemes.simulate_states``.  The spec's band
    must be unbounded: then tau = 1 exactly and every sampled instant is a
    fixed column, so only the running maximum and the states at those columns
    are kept.  Equals ``observe_args_batch`` of the stored paths bit for bit.
    """
    if not spec.barriers.is_unbounded:
        raise PreconditionError("a finite barrier makes the sampled instants depend "
                                "on tau; observe stored paths instead")
    cols = [grid_columns(times, nu.entries) for nu in (spec.nu1, spec.nu2, spec.nu3, spec.nu4)]
    kept = np.unique(np.concatenate(cols))
    slot = {int(c): j for j, c in enumerate(kept)}
    M = None
    for col, y in enumerate(states):
        v = y[:, spec.coordinate]
        if M is None:
            M = v.copy()
            V_at, M_at = np.empty((M.size, kept.size)), np.empty((M.size, kept.size))
        else:
            np.maximum(M, v, out=M)
        j = slot.get(col)
        if j is not None:
            V_at[:, j] = v
            M_at[:, j] = M
    z = [A[:, np.searchsorted(kept, c)] for A, c in zip((V_at, V_at, M_at, M_at), cols)]
    return np.concatenate(z + [np.ones((M.size, 1))], axis=1)


def payoff_values(spec: FunctionalSpec, args: np.ndarray) -> np.ndarray:
    """The spec's payoff applied to each row of an (N, 4m+1) argument block.

    Uses ``payoff_batch`` when the spec has one, else ``payoff`` row by row.
    Raises :class:`EvaluationError` on the first non-finite value and
    records its row as ``batch_index``.
    """
    if spec.payoff_batch is not None:
        vals = np.asarray(spec.payoff_batch(args), dtype=np.float64)
    else:
        vals = np.array([float(spec.payoff(a)) for a in args])
    finite = np.isfinite(vals)
    if not finite.all():
        bad = int(np.argmin(finite))
        e = EvaluationError("payoff returned a non-finite value", observables=args[bad])
        e.batch_index = bad
        raise e
    return vals


def evaluate(path: StepPath, spec: FunctionalSpec) -> float:
    """Payoff of one path, evaluated as a batch of one.

    Multi-dimensional paths are read through the configured coordinate.
    """
    return float(payoff_values(spec, observe_args_batch(path.times, path.values[None], spec))[0])


def _scalar(payoff_batch):
    """The one-vector form of a batch payoff."""
    return lambda x: float(payoff_batch(np.asarray(x, dtype=np.float64)[None, :])[0])


def _uniform_spec(m: int) -> dict:
    nu = SampleVector.uniform(m)
    return dict(m=m, nu1=nu, nu2=nu, nu3=nu, nu4=nu)


def _knock_in_call(strike: float, barrier_level: float, r: float, m: int,
                   coordinate: int, label: str, knock_level) -> FunctionalSpec:
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
        return np.abs(knock_level(np.atleast_2d(x)) - b)

    return FunctionalSpec(
        **_uniform_spec(m),
        payoff=_scalar(payoff_batch),
        payoff_batch=payoff_batch,
        locus_distance=locus_distance,
        growth=Growth.linear(),
        barriers=BarrierPair.unbounded(),
        coordinate=coordinate,
        label=label,
    )


def up_and_in_call(strike: float, barrier_level: float, r: float, m: int = 1,
                   coordinate: int = 0) -> FunctionalSpec:
    """Up-and-in call: e^{-r} (X(1) - K)^+ activated when the running
    maximum reaches the barrier level.

    The knock-in condition reads the terminal running maximum (argument 4m).
    """
    return _knock_in_call(strike, barrier_level, r, m, coordinate, "up_in_call",
                          lambda x: x[:, 4 * m - 1])


def discrete_barrier_call(strike: float, barrier_level: float, r: float,
                          m: int, coordinate: int = 0) -> FunctionalSpec:
    """Up-and-in call with the barrier monitored at the m instants i/m.

    The knock-in condition reads the maximum of the monitored path values
    (arguments m+1 .. 2m); the call leg reads the terminal value (argument
    2m).
    """
    return _knock_in_call(strike, barrier_level, r, m, coordinate, "discrete_barrier_call",
                          lambda x: np.max(x[:, m:2 * m], axis=1))


def custom_terminal(kind: str, strike: float = 0.0, r: float = 0.0,
                    coordinate: int = 0) -> FunctionalSpec:
    """Payoffs of the terminal value only: identity, call or put.

    ``identity`` returns the discounted terminal value itself and is the
    payoff used by the martingale sanity checks.
    """
    disc = float(np.exp(-r))
    k = float(strike)
    if kind == "identity":
        payoff_batch = lambda x: disc * x[:, 1]
    elif kind == "call":
        payoff_batch = lambda x: disc * np.maximum(x[:, 1] - k, 0.0)
    elif kind == "put":
        payoff_batch = lambda x: disc * np.maximum(k - x[:, 1], 0.0)
    else:
        raise ValueError(f"unknown terminal payoff kind {kind!r}")
    return FunctionalSpec(
        **_uniform_spec(1),
        payoff=_scalar(payoff_batch),
        payoff_batch=payoff_batch,
        locus_distance=None,
        growth=Growth.linear(),
        barriers=BarrierPair.unbounded(),
        coordinate=coordinate,
        label=f"terminal_{kind}",
    )


def constant_payoff(c: float) -> FunctionalSpec:
    """g identically c; handy for exactness tests (stderr must be 0)."""
    c = float(c)
    payoff_batch = lambda x: np.full(x.shape[0], c)
    return FunctionalSpec(
        **_uniform_spec(1),
        payoff=_scalar(payoff_batch),
        payoff_batch=payoff_batch,
        locus_distance=None,
        growth=Growth.bounded(),
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
