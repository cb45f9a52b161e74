import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathfunc.paths import BarrierPair, StepPath, classify_c_partition, hitting_time
from pathfunc.skorohod import skorohod_distance_approx

from conftest import step_path_pairs_same_grid, step_paths, value_at


def indicator_step(at, height=1.0, grid=None):
    """0 before ``at`` then ``height``, on a grid containing ``at``."""
    times = np.unique(np.concatenate([[0.0, 1.0], [at], grid or []]))
    return StepPath(times, np.where(times >= at, height, 0.0))


def sup_distance(x, y):
    grid = np.unique(np.concatenate([x.times, y.times]))
    pts = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
    return float(np.max(np.abs(value_at(x, pts) - value_at(y, pts))))


def discrete_frechet(x, y, n):
    """Independent brute-force oracle: the best monotone coupling of the
    samples at k / n, k < n, plus the pair at 1 alone (lambda(1) = 1).

    A pair (p, q) costs max(|p - q| / n, |x(p/n) - y(q/n)|), and a coupling
    steps by (1, 0), (0, 1) or (1, 1).  With every jump time of both paths
    on the grid 2 / n, it equals the J1 distance.
    """
    s = np.arange(n) / n
    cost = np.maximum(np.abs(np.subtract.outer(s, s)),
                      np.abs(np.subtract.outer(value_at(x, s), value_at(y, s))))
    c = np.full((n, n), np.inf)
    for p in range(n):
        for q in range(n):
            before = min(c[p - 1, q] if p else np.inf, c[p, q - 1] if q else np.inf,
                         c[p - 1, q - 1] if p and q else np.inf)
            c[p, q] = max(0.0 if p == q == 0 else before, cost[p, q])
    return max(c[-1, -1], abs(x.values[-1] - y.values[-1]))


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
        assert discrete_frechet(x, y, 100) == pytest.approx(delta, abs=1e-12)

    def test_equals_discrete_frechet_on_a_shared_grid(self):
        rng = np.random.default_rng(40)

        def grid_path():
            times = np.unique(np.r_[0, 40, rng.integers(1, 40, rng.integers(0, 9))]) / 40
            return StepPath(times, rng.uniform(-1.0, 1.0, times.size))

        for _ in range(40):
            x, y = grid_path(), grid_path()
            d = skorohod_distance_approx(x, y)
            assert d == pytest.approx(discrete_frechet(x, y, 80), abs=1e-12)

    def test_never_exceeds_sup_norm(self):
        x = indicator_step(0.5)
        y = indicator_step(0.52, height=1.1)
        assert skorohod_distance_approx(x, y) <= sup_distance(x, y) + 1e-15

    @given(step_path_pairs_same_grid(max_interior=6))
    def test_upper_bound_property(self, pair):
        x, y = pair
        assert skorohod_distance_approx(x, y) <= sup_distance(x, y) + 1e-12

    @given(step_paths(max_interior=5), step_paths(max_interior=5))
    def test_symmetric(self, x, y):
        assert skorohod_distance_approx(x, y) == skorohod_distance_approx(y, x)

    @given(step_paths(max_interior=5))
    def test_zero_iff_equal_on_merged_grid(self, x):
        assert skorohod_distance_approx(x, x) == 0.0
        bumped = StepPath(x.times, x.values + 0.25)
        assert skorohod_distance_approx(x, bumped) >= 0.2

    def test_triangle_inequality(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            times = np.unique(np.concatenate([[0, 1], rng.uniform(0, 1, 4)]))
            paths = [StepPath(times, rng.uniform(-2, 2, times.size))
                     for _ in range(3)]
            x, y, z = paths
            dxz = skorohod_distance_approx(x, z)
            dxy = skorohod_distance_approx(x, y)
            dyz = skorohod_distance_approx(y, z)
            assert dxz <= dxy + dyz + 1e-12


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
    def test_random_perturbations_nonexpansive(self, x, k):
        rng = np.random.default_rng(k)
        mx = StepPath(x.times, np.maximum.accumulate(x.values))
        for n in (k, 2 * k, 4 * k):
            xn = StepPath(x.times, x.values + rng.uniform(-1.0, 1.0, x.times.size) / n)
            mxn = StepPath(xn.times, np.maximum.accumulate(xn.values))
            d = skorohod_distance_approx(xn, x)
            assert skorohod_distance_approx(mxn, mx) <= d + 1e-9


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
    """The projection at nu is continuous where x does not jump: with
    d = d(x, xn), every nu < 1 farther than d from each jump of x has

        |xn(nu) - x(nu)| <= d,

    since a time change lambda within d + eps of the identity keeps
    lambda(nu) on the piece of x that nu lies on."""

    @staticmethod
    def assert_bound(x, xn):
        d = skorohod_distance_approx(x, xn)
        jumps = x.times[1:][np.diff(x.values) != 0.0]
        nu = np.unique(np.concatenate([np.arange(1000) / 1000, x.times[:-1], xn.times[:-1]]))
        far = nu[np.all(np.abs(nu[:, None] - jumps[None, :]) > d + 1e-12, axis=1)]
        assert np.all(np.abs(value_at(xn, far) - value_at(x, far)) <= d + 1e-12)

    def test_bound_holds_on_shifts(self):
        x = indicator_step(0.5)
        for n in (4, 16, 64):
            self.assert_bound(x, StepPath(x.times, x.values + 1.0 / n))

    def test_bound_holds_on_a_shifted_indicator(self):
        x = indicator_step(0.5)
        for n in (4, 16, 64):
            self.assert_bound(x, indicator_step(0.5 + 1.0 / n, height=1.0 + 1.0 / n))

    @given(step_paths(max_interior=4), st.integers(1, 50))
    def test_bound_holds_on_random_perturbations(self, x, k):
        # interior times move by under half the 1/64 spacing, keeping order
        rng = np.random.default_rng(k)
        times = x.times + np.r_[0.0, rng.uniform(-1, 1, x.times.size - 2) / (256 * k), 0.0]
        self.assert_bound(x, StepPath(times, x.values + rng.uniform(-1, 1, x.times.size) / (4 * k)))
