"""Approximate Skorohod distance between step paths and continuity probes.

The distance between RCLL paths is the infimum over continuous increasing
time changes lambda (pinned at 0 and 1) of

    max( sup |lambda(t) - t| , sup |x(lambda(t)) - y(t)| ).

The true infimum over all time changes is combinatorial; here it is
approximated from above by searching a finite candidate family: the
identity plus piecewise-linear time changes matching up to ``budget`` jump
times of one path to nearby jump times of the other.  The result is always
a certified upper bound, exact enough for the continuity probes: it never
exceeds the plain sup-norm distance, and equals it when no matching helps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .paths import BarrierPair, StepPath, classify_c_partition, hitting_time, running_max

__all__ = [
    "TimeChange",
    "skorohod_distance_approx",
    "skorohod_distance_with_time_change",
    "continuity_probe_max",
    "continuity_probe_hitting",
    "projection_continuity_probe",
]


@dataclass(frozen=True)
class TimeChange:
    """Piecewise-linear increasing bijection of [0, 1] given by its knots."""

    knots_t: np.ndarray
    knots_v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.knots_t, dtype=np.float64)
        v = np.asarray(self.knots_v, dtype=np.float64)
        if t[0] != 0.0 or t[-1] != 1.0 or v[0] != 0.0 or v[-1] != 1.0:
            raise ValueError("time change must pin 0 to 0 and 1 to 1")
        if np.any(np.diff(t) <= 0.0) or np.any(np.diff(v) <= 0.0):
            raise ValueError("time change must be strictly increasing")
        object.__setattr__(self, "knots_t", t)
        object.__setattr__(self, "knots_v", v)

    @classmethod
    def identity(cls) -> "TimeChange":
        return cls(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def __call__(self, t):
        return np.interp(t, self.knots_t, self.knots_v)

    def inverse(self, v):
        return np.interp(v, self.knots_v, self.knots_t)

    def deviation(self) -> float:
        """sup |lambda(t) - t|; attained at a knot since the rest is linear."""
        return float(np.max(np.abs(self.knots_v - self.knots_t)))


def _jump_indices(path: StepPath) -> np.ndarray:
    """Index i of each jump, from values[i] to values[i + 1]."""
    return np.flatnonzero(np.diff(path.values) != 0.0)


def _jump_times(path: StepPath) -> np.ndarray:
    return path.times[_jump_indices(path) + 1]


def _sup_time_changed_diff(x: StepPath, y: StepPath, lam: TimeChange) -> float:
    """sup over t of |x(lambda(t)) - y(t)| for step paths, computed exactly.

    Both compositions are step functions whose breakpoints are y's jump
    times together with the preimages of x's jump times; sampling at the
    breakpoints and between them covers every constant piece.
    """
    crit = np.concatenate([
        np.array([0.0, 1.0]),
        _jump_times(y),
        lam.inverse(_jump_times(x)),
    ])
    crit = np.unique(np.clip(crit, 0.0, 1.0))
    mids = 0.5 * (crit[:-1] + crit[1:])
    ts = np.concatenate([crit, mids])
    return float(np.max(np.abs(x.at(lam(ts)) - y.at(ts))))


def _candidate_value(x, y, lam) -> float:
    return max(lam.deviation(), _sup_time_changed_diff(x, y, lam))


def _directed_best(x: StepPath, y: StepPath, budget: int) -> tuple[float, TimeChange]:
    """Best candidate time change applied to x, compared against y, over at
    most 3000 candidates besides the identity."""
    ident = TimeChange.identity()
    best = _candidate_value(x, y, ident)
    best_lam = ident
    if budget <= 0:
        return best, best_lam

    def top_jumps(path):
        times = _jump_times(path)
        sizes = np.abs(np.diff(path.values))[_jump_indices(path)]
        if times.size > budget:
            keep = np.sort(np.argsort(sizes)[-budget:])
            times = times[keep]
        return [t for t in times if 0.0 < t < 1.0]

    jx = top_jumps(x)
    jy = top_jumps(y)
    # pairs (s, u): lambda maps the time s (where y jumps) to u (where x jumps)
    pairs = sorted((s, u) for s in jy for u in jx if abs(u - s) < best)
    evals = 0

    def search(start, chosen):
        nonlocal best, best_lam, evals
        for k in range(start, len(pairs)):
            s, u = pairs[k]
            if abs(u - s) >= best:
                continue
            if chosen and (s <= chosen[-1][0] or u <= chosen[-1][1]):
                continue
            if evals >= 3000 or len(chosen) >= budget:
                return
            sel = chosen + [(s, u)]
            kt = np.array([0.0] + [p[0] for p in sel] + [1.0])
            kv = np.array([0.0] + [p[1] for p in sel] + [1.0])
            if np.any(np.diff(kv) <= 0.0):
                continue
            lam = TimeChange(kt, kv)
            evals += 1
            val = _candidate_value(x, y, lam)
            if val < best:
                best = val
                best_lam = lam
            search(k + 1, sel)

    search(0, [])
    return best, best_lam


def skorohod_distance_with_time_change(x: StepPath, y: StepPath, budget: int = 6):
    """Approximate distance plus the time change achieving it.

    The returned value is an upper bound on the true infimum and never
    exceeds the sup-norm distance (the identity is always a candidate).
    Both matching directions are searched, which keeps the approximation
    symmetric on its candidate family; the reported time change applies to
    the first argument.
    """
    if not (x.is_scalar and y.is_scalar):
        raise PreconditionError("distance is defined for scalar paths")
    d_xy, lam_xy = _directed_best(x, y, budget)
    d_yx, lam_yx = _directed_best(y, x, budget)
    if d_xy <= d_yx:
        return d_xy, lam_xy
    # invert the winning reverse-direction change so it applies to x
    return d_yx, TimeChange(lam_yx.knots_v, lam_yx.knots_t)


def skorohod_distance_approx(x: StepPath, y: StepPath, budget: int = 6) -> float:
    d, _ = skorohod_distance_with_time_change(x, y, budget)
    return d


@dataclass
class ProbeReport:
    rows: list
    passed: bool
    note: str = ""
    applicable: bool = True


def continuity_probe_max(x: StepPath, perturbations, budget: int = 6) -> ProbeReport:
    """Check that the running-maximum map is nonexpansive in the
    approximate distance along a perturbation sequence.

    Rows hold (d(x_n, x), d(M x_n, M x)); each must satisfy the second
    <= first + 1e-9.
    """
    mx = running_max(x)
    rows = []
    ok = True
    for xn in perturbations:
        d = skorohod_distance_approx(xn, x, budget)
        dm = skorohod_distance_approx(running_max(xn), mx, budget)
        good = dm <= d + 1e-9
        ok &= good
        rows.append((d, dm, good))
    return ProbeReport(rows=rows, passed=ok)


def continuity_probe_hitting(x: StepPath, barriers: BarrierPair, perturbations,
                             tol: float = 1e-6) -> ProbeReport:
    """Check convergence of exit times along a perturbation sequence.

    Only meaningful on paths of class C1/C2/C3; on a C4 (tangency) input the
    probe reports not-applicable instead, since the exit-time map is
    genuinely discontinuous there.  Passing requires the absolute exit-time
    errors to be nonincreasing over the last three perturbations and the
    final error to fall below tol.
    """
    cls = classify_c_partition(x, barriers)
    if cls == "C4":
        return ProbeReport(rows=[], passed=False, applicable=False,
                           note="not applicable: C4 (tangency class)")
    tau = hitting_time(x, barriers)
    rows = []
    for xn in perturbations:
        rows.append(abs(hitting_time(xn, barriers) - tau))
    ok = len(rows) >= 1 and rows[-1] <= tol
    if len(rows) >= 3:
        ok &= rows[-3] >= rows[-2] >= rows[-1]
    return ProbeReport(rows=rows, passed=ok, note=f"class {cls}")


def projection_continuity_probe(x: StepPath, perturbations, nu,
                                budget: int = 6) -> ProbeReport:
    """Check the projection continuity bound along a perturbation sequence.

    For each x_n, with lambda the time change realizing the approximate
    distance of (x, x_n), the projection difference is bounded by

        sum_i |x_n(nu_i) - x(nu_i)|
            <= m * sup|x(lambda(t)) - x_n(t)| + sum_i |x(lambda(nu_i)) - x(nu_i)|

    which is checked directly, up to 1e-9 (rows carry both sides).
    """
    entries = np.asarray(nu.entries if hasattr(nu, "entries") else nu, dtype=np.float64)
    m = entries.size
    rows = []
    ok = True
    for xn in perturbations:
        _, lam = skorohod_distance_with_time_change(x, xn, budget)
        sup_term = _sup_time_changed_diff(x, xn, lam)
        lhs = float(np.sum(np.abs(xn.at(entries) - x.at(entries))))
        modulus = float(np.sum(np.abs(x.at(lam(entries)) - x.at(entries))))
        rhs = m * sup_term + modulus
        good = lhs <= rhs + 1e-9
        ok &= good
        rows.append((lhs, rhs, good))
    return ProbeReport(rows=rows, passed=ok)
