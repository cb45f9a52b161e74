import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfunc.paths import BarrierPair, StepPath, classify_c_partition, hitting_time
from pathfunc.skorohod import (TimeChange, _sup_time_changed_diff,
                               skorohod_distance_approx,
                               skorohod_distance_with_time_change)

from conftest import step_path_pairs_same_grid, step_paths


def indicator_step(at, height=1.0, grid=None):
    """0 before ``at`` then ``height``, on a grid containing ``at``."""
    times = np.unique(np.concatenate([[0.0, 1.0], [at], grid or []]))
    return StepPath(times, np.where(times >= at, height, 0.0))


def sup_distance(x, y):
    grid = np.unique(np.concatenate([x.times, y.times]))
    pts = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
    return float(np.max(np.abs(x.at(pts) - y.at(pts))))


def single_knot_grid_search(x, y, n=60):
    """Independent brute-force oracle: exhaustive single-knot time changes.

    The knot grid joins a uniform grid with both paths' jump times; the
    objective is discontinuous off the jump-alignment set, so the jump
    coordinates must be candidate knots for the search to be exhaustive.
    """
    best = sup_distance(x, y)
    jumps = [t for p in (x, y) for t in p.times[1:-1]]
    ss = np.unique(np.concatenate([np.linspace(0.01, 0.99, n), jumps]))
    us = ss
    for s in ss:
        for u in us:
            lam = TimeChange(np.array([0.0, s, 1.0]), np.array([0.0, u, 1.0]))
            dev = lam.deviation()
            if dev >= best:
                continue
            crit = np.unique(np.concatenate([x.times, y.times, lam.inverse(x.times)]))
            pts = np.concatenate([crit, 0.5 * (crit[:-1] + crit[1:])])
            sup = np.max(np.abs(x.at(np.clip(lam(pts), 0, 1)) - y.at(pts)))
            best = min(best, max(dev, sup))
    return best


class TestTimeChange:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeChange(np.array([0.0, 1.0]), np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            TimeChange(np.array([0.0, 0.5, 0.4, 1.0]), np.array([0.0, 0.2, 0.3, 1.0]))

    def test_identity_and_inverse(self):
        lam = TimeChange(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.6, 1.0]))
        assert lam(0.5) == 0.6
        assert lam.inverse(0.6) == pytest.approx(0.5)
        assert lam.deviation() == pytest.approx(0.1)


class TestDistance:
    def test_identical_paths(self):
        x = indicator_step(0.5)
        assert skorohod_distance_approx(x, x) == 0.0

    def test_shifted_indicator_costs_the_shift(self):
        # the classic example: matching jump times beats the sup norm
        delta = 0.01
        x = indicator_step(0.5)
        y = indicator_step(0.5 + delta)
        d = skorohod_distance_approx(x, y)
        assert d == pytest.approx(delta, abs=1e-12)
        # independent oracle: exhaustive grid search over single-knot changes
        assert single_knot_grid_search(x, y) == pytest.approx(delta, abs=1e-12)

    def test_never_exceeds_sup_norm(self):
        x = indicator_step(0.5)
        y = indicator_step(0.52, height=1.1)
        assert skorohod_distance_approx(x, y) <= sup_distance(x, y) + 1e-15

    @given(step_path_pairs_same_grid(max_interior=6))
    @settings(max_examples=60)
    def test_upper_bound_property(self, pair):
        x, y = pair
        assert skorohod_distance_approx(x, y, budget=3) <= sup_distance(x, y) + 1e-12

    @given(step_path_pairs_same_grid(max_interior=5))
    @settings(max_examples=40)
    def test_symmetric(self, pair):
        x, y = pair
        assert skorohod_distance_approx(x, y, budget=3) == pytest.approx(
            skorohod_distance_approx(y, x, budget=3), abs=1e-12)

    @given(step_paths(max_interior=5))
    @settings(max_examples=40)
    def test_zero_iff_equal_on_merged_grid(self, x):
        assert skorohod_distance_approx(x, x, budget=2) == 0.0
        bumped = StepPath(x.times, x.values + 0.25)
        assert skorohod_distance_approx(x, bumped, budget=2) >= 0.2

    def test_triangle_inequality_within_factor_two(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            times = np.unique(np.concatenate([[0, 1], rng.uniform(0, 1, 4)]))
            paths = [StepPath(times, rng.uniform(-2, 2, times.size))
                     for _ in range(3)]
            x, y, z = paths
            dxz = skorohod_distance_approx(x, z, budget=3)
            dxy = skorohod_distance_approx(x, y, budget=3)
            dyz = skorohod_distance_approx(y, z, budget=3)
            assert dxz <= 2.0 * (dxy + dyz) + 1e-9

    def test_returned_time_change_achieves_the_value(self):
        x = indicator_step(0.5)
        y = indicator_step(0.53)
        d, lam = skorohod_distance_with_time_change(x, y)
        assert d == pytest.approx(0.03, abs=1e-12)
        assert lam.deviation() <= d + 1e-12


class TestMaxContinuity:
    """The running maximum is nonexpansive: d(M xn, M x) <= d(xn, x)."""

    def test_identical_sequence(self):
        x = indicator_step(0.4)
        mx = StepPath(x.times, np.maximum.accumulate(x.values))
        for xn in (x, x):
            mxn = StepPath(xn.times, np.maximum.accumulate(xn.values))
            assert skorohod_distance_approx(xn, x) == 0.0
            assert skorohod_distance_approx(mxn, mx) == 0.0

    def test_vertical_shifts_commute_with_max(self):
        x = indicator_step(0.4, height=2.0)
        mx = StepPath(x.times, np.maximum.accumulate(x.values))
        for n in (2, 4, 8, 16):
            xn = StepPath(x.times, x.values + 1.0 / n)
            mxn = StepPath(xn.times, np.maximum.accumulate(xn.values))
            d = skorohod_distance_approx(xn, x)
            dm = skorohod_distance_approx(mxn, mx)
            assert dm <= d + 1e-9
            assert dm == pytest.approx(d, abs=1e-12)

    @given(step_paths(max_interior=5), st.integers(1, 30))
    @settings(max_examples=40)
    def test_random_perturbations_nonexpansive(self, x, k):
        rng = np.random.default_rng(k)
        mx = StepPath(x.times, np.maximum.accumulate(x.values))
        for n in (k, 2 * k, 4 * k):
            xn = StepPath(x.times, x.values + rng.uniform(-1.0, 1.0, x.times.size) / n)
            mxn = StepPath(xn.times, np.maximum.accumulate(xn.values))
            d = skorohod_distance_approx(xn, x, budget=3)
            assert skorohod_distance_approx(mxn, mx, budget=3) <= d + 1e-9


class TestHittingContinuity:
    """Off the tangency class C4, exit times converge along a perturbation
    sequence: the errors do not increase and the last one is within tol."""

    def test_transversal_crossing_converges(self):
        times = np.linspace(0.0, 1.0, 101)
        base = 2.0 * times  # crosses level 1 transversally at t = 0.5
        band = BarrierPair(-np.inf, 1.0)
        x = StepPath(times, base)
        assert classify_c_partition(x, band) != "C4"
        tau = hitting_time(x, band)
        errs = [abs(hitting_time(StepPath(times, base - 0.5 / n), band) - tau)
                for n in (4, 8, 16, 64)]
        assert errs[-3] >= errs[-2] >= errs[-1]
        assert errs[-1] <= 0.05

    def test_never_exiting_path_is_stable(self):
        times = np.linspace(0.0, 1.0, 51)
        band = BarrierPair(-1.0, 1.0)
        x = StepPath(times, np.zeros_like(times))
        assert classify_c_partition(x, band) != "C4"
        tau = hitting_time(x, band)
        errs = [abs(hitting_time(StepPath(times, np.full_like(times, 0.5 / n)), band) - tau)
                for n in (2, 4, 8)]
        assert errs == [0.0, 0.0, 0.0]

    def test_tangent_path_not_applicable(self):
        # the exit-time map is discontinuous on C4, so no convergence is owed
        t = np.arange(2001) / 2000
        x = StepPath(t, 1.0 - (t - 0.5) ** 2)
        assert classify_c_partition(x, BarrierPair(-np.inf, 1.0)) == "C4"


class TestProjectionContinuity:
    """With lambda the time change realizing the approximate distance of
    (x, xn), the projection difference is bounded by

        sum_i |xn(nu_i) - x(nu_i)|
            <= m * sup|x(lambda(t)) - xn(t)| + sum_i |x(lambda(nu_i)) - x(nu_i)|
    """

    def test_bound_holds_on_shifts(self):
        x = indicator_step(0.5)
        nu = np.array([0.25, 0.75, 1.0])
        for n in (4, 16, 64):
            xn = StepPath(x.times, x.values + 1.0 / n)
            _, lam = skorohod_distance_with_time_change(x, xn)
            lhs = np.sum(np.abs(xn.at(nu) - x.at(nu)))
            modulus = np.sum(np.abs(x.at(lam(nu)) - x.at(nu)))
            assert lhs <= nu.size * _sup_time_changed_diff(x, xn, lam) + modulus + 1e-9

    @given(step_paths(max_interior=4), st.integers(1, 50))
    @settings(max_examples=30)
    def test_bound_holds_on_random_perturbations(self, x, k):
        rng = np.random.default_rng(k)
        xn = StepPath(x.times, x.values + rng.uniform(-1, 1, x.times.size) / (4 * k))
        nu = np.sort(rng.uniform(0.0, 1.0, 3))
        _, lam = skorohod_distance_with_time_change(x, xn, budget=3)
        lhs = np.sum(np.abs(xn.at(nu) - x.at(nu)))
        modulus = np.sum(np.abs(x.at(lam(nu)) - x.at(nu)))
        assert lhs <= nu.size * _sup_time_changed_diff(x, xn, lam) + modulus + 1e-9
