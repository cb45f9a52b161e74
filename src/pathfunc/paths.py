"""Discrete right-continuous step paths on [0, 1], bands and the path rules.

A :class:`StepPath` holds a strictly increasing time grid starting at 0 and
ending at 1 together with one state value per grid time; the path value at
any t is the value at the greatest grid time <= t.  A :class:`BarrierPair`
is a band between two constant levels.  The first exit time from it is
detected at grid times only; the discrete path carries no information
between grid points.

The sampling rule (:func:`grid_columns`) and the exit rule
(:func:`exit_times`) are written once, for a batch of paths on a shared grid
or on one grid per row.  The engine's batch observation, :meth:`StepPath.at`,
:func:`hitting_time` and the continuity classification all call them, so a
single path is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "StepPath",
    "BarrierPair",
    "SampleVector",
    "grid_columns",
    "exit_times",
    "hitting_time",
    "classify_c_partition",
]

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def grid_columns(times: np.ndarray, instants: np.ndarray) -> np.ndarray:
    """Column of the last grid time <= each instant: the sampling rule.

    ``times`` is a shared (n+1,) grid, with instants of any shape, or a
    (B, n+1) grid per row with (B, k) instants.
    """
    if times.ndim == 1:
        return np.searchsorted(times, instants, side="right") - 1
    return np.stack([(times <= c[:, None]).sum(axis=1) for c in instants.T], axis=1) - 1


def exit_times(times: np.ndarray, V: np.ndarray, barriers: BarrierPair) -> np.ndarray:
    """First grid time at which each row of V leaves the open band: the exit rule.

    ``V`` is a (B, n+1) block of scalar paths on the shared (n+1,) grid
    ``times`` or on a (B, n+1) grid per row; a value at or beyond either
    level has left.  A row that never exits gets 1, so every finite row does
    on an unbounded band.
    """
    out = (V <= barriers.lower) | (V >= barriers.upper)
    first = np.broadcast_to(times, V.shape)[np.arange(V.shape[0]), np.argmax(out, axis=1)]
    return np.where(out.any(axis=1), first, 1.0)


@dataclass(frozen=True)
class StepPath:
    """Piecewise constant RCLL sample path on the unit interval.

    ``times`` must be strictly increasing with ``times[0] == 0`` and
    ``times[-1] == 1``; ``values`` holds one row per grid time (scalar paths
    use a flat vector).  Instances are immutable and safe to share.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _freeze(np.asarray(self.times))
        values = np.asarray(self.values, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least the two endpoint grid times")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        if values.shape[0] != times.shape[0]:
            raise ValueError("one value row per grid time required")
        if values.ndim not in (1, 2):
            raise ValueError("values must be a vector or a (time, dim) array")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", _freeze(values))

    @property
    def is_scalar(self) -> bool:
        return self.values.ndim == 1

    def index_at(self, t):
        """Grid index covering time t (vectorized)."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise PreconditionError("evaluation time outside [0, 1]")
        return grid_columns(self.times, t)

    def at(self, t):
        """Path value at time t: the value at the covering grid point."""
        return self.values[self.index_at(t)]


@dataclass(frozen=True)
class BarrierPair:
    """The band between two constant levels, ``lower < upper``.

    Either level may be infinite, and an infinite one is never reached;
    NaN is refused, since it compares neither way.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"lower level must lie strictly below upper "
                             f"(got {self.lower!r}, {self.upper!r})")

    @classmethod
    def unbounded(cls) -> "BarrierPair":
        return cls(-np.inf, np.inf)

    @property
    def is_unbounded(self) -> bool:
        """Both levels infinite: no finite path ever exits, so tau = 1."""
        return self.lower == -np.inf and self.upper == np.inf


@dataclass(frozen=True)
class SampleVector:
    """Nondecreasing vector of sampling instants in [0, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        e = _freeze(np.atleast_1d(np.asarray(self.entries)))
        if e.ndim != 1 or e.size < 1:
            raise ValueError("need at least one sampling instant")
        if np.any(e < 0.0) or np.any(e > 1.0):
            raise ValueError("sampling instants must lie in [0, 1]")
        if np.any(np.diff(e) < 0.0):
            raise ValueError("sampling instants must be nondecreasing")
        object.__setattr__(self, "entries", e)

    def __len__(self):
        return self.entries.size

    @classmethod
    def uniform(cls, m: int) -> "SampleVector":
        """The vector (1/m, 2/m, ..., 1)."""
        return cls(np.arange(1, m + 1) / m)


def hitting_time(path: StepPath, barriers: BarrierPair) -> float:
    """First grid time at which the path leaves the open band, capped at 1.

    Returns 1.0 when the path never exits on its grid.
    """
    if not path.is_scalar:
        raise PreconditionError("hitting_time is defined for scalar paths")
    return float(exit_times(path.times, path.values[None], barriers)[0])


def classify_c_partition(path: StepPath, barriers: BarrierPair) -> str:
    """Regularity class of a path relative to the band: C1/C2/C3/C4.

    C3: never exits (exit time 1).  C1 (resp. C2): at the exit time the path
    is at or beyond the upper (resp. lower) level and sits strictly beyond
    it immediately after -- either it already jumped strictly past, so the
    step value stays beyond throughout the next interval, or the next grid
    value is strictly beyond.  Everything else is C4, the tangency class on
    which the exit time is a discontinuous functional.  "At" and "strictly"
    allow a tolerance of 1e-12 times max(1, sup |path|).
    """
    if not path.is_scalar:
        raise PreconditionError("classification is defined for scalar paths")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(path.values))))
    tau = hitting_time(path, barriers)
    if tau >= 1.0:
        return "C3"
    i = int(np.searchsorted(path.times, tau))
    v = path.values[i:i + 2]  # the exit column and the next
    for cls, d in (("C1", v - barriers.upper), ("C2", barriers.lower - v)):
        # d: how far past the level; at or past it at the exit column, the
        # path must be strictly past it there (the step value persists) or next
        if d[0] >= -tol:
            return cls if (d > tol).any() else "C4"
    return "C4"
