"""Discrete right-continuous step paths on [0, 1] and the path operators.

A :class:`StepPath` holds a strictly increasing time grid starting at 0 and
ending at 1 together with one state value per grid time; the path value at
any t is the value at the greatest grid time <= t.  On top of that sit the
three operators used throughout the engine: the running maximum, projection
onto a vector of sampling instants, and the first exit time from a band
between two continuous barriers.  Exit is detected at grid times only; the
discrete path carries no information between grid points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError

__all__ = [
    "StepPath",
    "Barrier",
    "BarrierPair",
    "SampleVector",
    "running_max",
    "project",
    "hitting_time",
    "classify_c_partition",
]

# Barriers are validated on this grid (plus their own knots) at construction.
_REFERENCE_GRID = np.linspace(0.0, 1.0, 1001)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


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
            raise DomainError("evaluation time outside [0, 1]")
        idx = np.searchsorted(self.times, t, side="right") - 1
        return idx

    def at(self, t):
        """Path value at time t: the value at the covering grid point."""
        return self.values[self.index_at(t)]


class Barrier:
    """One barrier: a constant level, a piecewise-linear interpolant of
    sampled (t, level) knots, or +/- infinity.

    Constants and interpolants are continuous by construction.
    """

    __slots__ = ("kind", "level", "knot_t", "knot_v")

    def __init__(self, kind, level=None, knot_t=None, knot_v=None):
        self.kind = kind
        self.level = level
        self.knot_t = knot_t
        self.knot_v = knot_v

    @classmethod
    def constant(cls, level: float) -> "Barrier":
        level = float(level)
        if not np.isfinite(level):
            raise ValueError("constant barrier level must be finite")
        return cls("constant", level=level)

    @classmethod
    def sampled(cls, t, v) -> "Barrier":
        t = _freeze(np.asarray(t))
        v = _freeze(np.asarray(v))
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("sampled barrier needs matching t and level vectors")
        if t[0] > 0.0 or t[-1] < 1.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("sampled barrier knots must increase and cover [0, 1]")
        if not np.all(np.isfinite(v)):
            raise ValueError("sampled barrier levels must be finite")
        return cls("sampled", knot_t=t, knot_v=v)

    @classmethod
    def minus_infinity(cls) -> "Barrier":
        return cls("minus_inf")

    @classmethod
    def plus_infinity(cls) -> "Barrier":
        return cls("plus_inf")

    @property
    def is_infinite(self) -> bool:
        return self.kind in ("minus_inf", "plus_inf")

    def values_on(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        if self.kind == "constant":
            return np.full(times.shape, self.level)
        if self.kind == "sampled":
            return np.interp(times, self.knot_t, self.knot_v)
        fill = -np.inf if self.kind == "minus_inf" else np.inf
        return np.full(times.shape, fill)

    def __repr__(self):
        if self.kind == "constant":
            return f"Barrier.constant({self.level})"
        if self.kind == "sampled":
            return f"Barrier.sampled(<{self.knot_t.size} knots>)"
        return f"Barrier.{self.kind}"


class BarrierPair:
    """Lower and upper barrier functions with lower < upper everywhere.

    The ordering is checked at construction on a reference grid joined with
    any sampled knots.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Barrier, upper: Barrier):
        grid = [_REFERENCE_GRID]
        for b in (lower, upper):
            if b.kind == "sampled":
                grid.append(b.knot_t)
        grid = np.unique(np.concatenate(grid))
        lo = lower.values_on(grid)
        hi = upper.values_on(grid)
        if not np.all(lo < hi):
            raise ValueError("lower barrier must stay strictly below upper barrier")
        self.lower = lower
        self.upper = upper

    @classmethod
    def unbounded(cls) -> "BarrierPair":
        return cls(Barrier.minus_infinity(), Barrier.plus_infinity())

    @property
    def is_unbounded(self) -> bool:
        """Both barriers infinite: no finite path ever exits, so tau = 1."""
        return self.lower.is_infinite and self.upper.is_infinite

    @classmethod
    def levels(cls, lower: float, upper: float) -> "BarrierPair":
        lo = Barrier.minus_infinity() if lower == -np.inf else Barrier.constant(lower)
        hi = Barrier.plus_infinity() if upper == np.inf else Barrier.constant(upper)
        return cls(lo, hi)

    def __repr__(self):
        return f"BarrierPair({self.lower!r}, {self.upper!r})"


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

    def scaled(self, factor: float) -> np.ndarray:
        """Entries multiplied by a factor in [0, 1] (stay inside [0, 1])."""
        return self.entries * factor


def running_max(path: StepPath) -> StepPath:
    """Prefix maximum of a scalar path on the same grid."""
    if not path.is_scalar:
        raise PreconditionError("running_max is defined for scalar paths")
    return StepPath(path.times, np.maximum.accumulate(path.values))


def project(path: StepPath, nu) -> np.ndarray:
    """Sample the path at the instants of nu, returning an m-vector."""
    entries = nu.entries if isinstance(nu, SampleVector) else np.asarray(nu, dtype=np.float64)
    return np.asarray(path.at(entries))


def _band_on_grid(path: StepPath, barriers: BarrierPair):
    lo = barriers.lower.values_on(path.times)
    hi = barriers.upper.values_on(path.times)
    return lo, hi


def hitting_time(path: StepPath, barriers: BarrierPair) -> float:
    """First grid time at which the path leaves the open band, capped at 1.

    Returns 1.0 when the path never exits on its grid.
    """
    if not path.is_scalar:
        raise PreconditionError("hitting_time is defined for scalar paths")
    lo, hi = _band_on_grid(path, barriers)
    out = (path.values <= lo) | (path.values >= hi)
    if not out.any():
        return 1.0
    return float(path.times[int(np.argmax(out))])


def classify_c_partition(path: StepPath, barriers: BarrierPair, tol: float | None = None) -> str:
    """Regularity class of a path relative to the band: C1/C2/C3/C4.

    C3: never exits (exit time 1).  C1 (resp. C2): at the exit time the path
    is at or beyond the upper (resp. lower) barrier and sits strictly beyond
    it immediately after -- either it already jumped strictly past, so the
    step value stays beyond throughout the next interval, or the next grid
    value is strictly beyond.  Everything else is C4, the tangency class on
    which the exit time is a discontinuous functional.
    """
    if not path.is_scalar:
        raise PreconditionError("classification is defined for scalar paths")
    if tol is None:
        scale = max(1.0, float(np.max(np.abs(path.values))))
        tol = 1e-12 * scale
    tau = hitting_time(path, barriers)
    if tau >= 1.0:
        return "C3"
    i = int(np.searchsorted(path.times, tau))
    lo, hi = _band_on_grid(path, barriers)
    v = path.values

    def exits(side_vals, beyond):
        # beyond(i) is True when v[i] lies strictly past the barrier at i
        if beyond(i, tol):
            return True  # RCLL: the value persists past the barrier after tau
        touches = abs(v[i] - side_vals[i]) <= tol
        return touches and i + 1 < v.size and beyond(i + 1, tol)

    if v[i] >= hi[i] - tol:
        if exits(hi, lambda j, e: v[j] > hi[j] + e):
            return "C1"
        return "C4"
    if v[i] <= lo[i] + tol:
        if exits(lo, lambda j, e: v[j] < lo[j] - e):
            return "C2"
        return "C4"
    return "C4"
