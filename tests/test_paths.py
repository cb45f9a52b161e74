import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathfunc.errors import DomainError, PreconditionError
from pathfunc.paths import (Barrier, BarrierPair, SampleVector, StepPath,
                            classify_c_partition, exit_times, hitting_time,
                            project, running_max)

from conftest import barrier_pairs, step_path_pairs_same_grid, step_paths


def make_path(times, values):
    return StepPath(np.asarray(times, dtype=float), np.asarray(values, dtype=float))


def parabola_path(n=2000, shift=0.0):
    t = np.arange(n + 1) / n
    return StepPath(t, 1.0 - (t - 0.5) ** 2 - shift)


UPPER_ONE = BarrierPair.levels(-np.inf, 1.0)


class TestEval:
    def test_between_grid_points(self):
        p = make_path([0, 0.5, 1], [1, 2, 3])
        assert p.at(0.7) == 2.0

    def test_left_endpoint(self):
        p = make_path([0, 0.5, 1], [1, 2, 3])
        assert p.at(0.0) == 1.0

    def test_right_continuity_on_grid_point(self):
        p = make_path([0, 0.5, 1], [1, 2, 3])
        assert p.at(0.5) == 2.0
        assert p.at(1.0) == 3.0

    def test_out_of_range_rejected(self):
        p = make_path([0, 1], [1, 1])
        with pytest.raises(DomainError):
            p.at(1.5)
        with pytest.raises(DomainError):
            p.at(-0.1)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_path([0, 0.5, 0.9], [1, 2, 3])  # must end at 1
        with pytest.raises(ValueError):
            make_path([0.1, 0.5, 1], [1, 2, 3])  # must start at 0
        with pytest.raises(ValueError):
            make_path([0, 0.5, 0.5, 1], [1, 2, 3, 4])  # strictly increasing
        with pytest.raises(ValueError):
            make_path([0, 1], [1, np.inf])  # finite values

    def test_values_immutable(self):
        p = make_path([0, 1], [1, 2])
        with pytest.raises(ValueError):
            p.values[0] = 5.0


class TestRunningMax:
    def test_prefix_maximum(self):
        p = make_path([0, 0.5, 1], [0.2, -0.1, 0.5])
        npt.assert_array_equal(running_max(p).values, [0.2, 0.2, 0.5])

    def test_parabola_peak_attained(self):
        # dense sampling of 1 - (s - 1/2)^2 on a grid containing 1/2
        assert running_max(parabola_path()).values[-1] == 1.0

    def test_monotone_fixed_point(self):
        p = make_path([0, 0.3, 1], [1, 2, 3])
        npt.assert_array_equal(running_max(p).values, p.values)

    def test_rejects_vector_paths(self):
        p = StepPath(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(PreconditionError):
            running_max(p)

    @given(step_paths())
    def test_dominates_and_nondecreasing(self, p):
        m = running_max(p)
        assert np.all(m.values >= p.values)
        assert np.all(np.diff(m.values) >= 0.0)

    @given(step_paths())
    def test_idempotent(self, p):
        m = running_max(p)
        npt.assert_array_equal(running_max(m).values, m.values)

    @given(step_path_pairs_same_grid())
    def test_nonexpansive_sup_norm(self, pair):
        x, y = pair
        lhs = np.max(np.abs(running_max(x).values - running_max(y).values))
        rhs = np.max(np.abs(x.values - y.values))
        assert lhs <= rhs + 1e-15


class TestProject:
    def test_terminal_projection(self):
        p = make_path([0, 0.5, 1], [1, 2, 3])
        npt.assert_array_equal(project(p, SampleVector([1.0])), [3.0])

    def test_between_grid_points_uses_left_value(self):
        p = make_path([0, 0.5, 1], [1, 2, 3])
        npt.assert_array_equal(project(p, SampleVector([0.25, 0.75])), [1.0, 2.0])

    def test_monthly_monitoring_values(self):
        # twelve monitoring instants on a grid that contains them
        t = np.arange(121) / 120
        p = StepPath(t, np.sin(7 * t) + 2.0)
        nu = SampleVector.uniform(12)
        got = project(p, nu)
        npt.assert_array_equal(got, [p.at(i / 12) for i in range(1, 13)])

    @given(step_paths(), st.integers(0, 2**32))
    def test_invariant_under_grid_refinement(self, p, seed):
        rng = np.random.default_rng(seed)
        extra = rng.uniform(0.0, 1.0, size=5)
        new_times = np.unique(np.concatenate([p.times, extra]))
        refined = StepPath(new_times, p.at(new_times))
        nu = SampleVector(np.sort(rng.uniform(0.0, 1.0, size=4)))
        npt.assert_array_equal(project(p, nu), project(refined, nu))

    def test_sample_vector_invariants(self):
        with pytest.raises(ValueError):
            SampleVector([0.5, 0.2])  # decreasing
        with pytest.raises(ValueError):
            SampleVector([1.2])  # outside [0, 1]
        with pytest.raises(ValueError):
            SampleVector([])


class TestHittingTime:
    def test_parabola_grazes_at_half(self):
        assert hitting_time(parabola_path(), UPPER_ONE) == 0.5

    def test_shifted_parabola_never_exits(self):
        for h in (0.1, 0.01, 0.001):
            assert hitting_time(parabola_path(shift=h), UPPER_ONE) == 1.0

    def test_constant_inside_band(self):
        p = make_path([0, 1], [0, 0])
        assert hitting_time(p, BarrierPair.levels(-1.0, 1.0)) == 1.0

    def test_starts_outside(self):
        p = make_path([0, 1], [2.0, 0.0])
        assert hitting_time(p, BarrierPair.levels(-1.0, 1.0)) == 0.0

    def test_time_dependent_barrier(self):
        up = Barrier([0.0, 1.0], [2.0, 0.5])  # descending line
        band = BarrierPair(Barrier.minus_infinity(), up)
        p = make_path([0, 0.25, 0.5, 0.75, 1], [1.0, 1.0, 1.0, 1.0, 1.0])
        # upper barrier crosses level 1 at t = 2/3; first grid time after is 0.75
        assert hitting_time(p, band) == 0.75

    @given(step_paths(), barrier_pairs())
    def test_unbounded_band_never_exits(self, p, band):
        assert hitting_time(p, BarrierPair.unbounded()) == 1.0

    @given(step_paths(), barrier_pairs(), st.floats(0.0, 3.0, allow_nan=False))
    def test_monotone_under_widening(self, p, band, widen):
        def widened(b, sign):
            return Barrier(b.knot_t, b.knot_v + sign * widen)  # infinities stay

        wider = BarrierPair(widened(band.lower, -1.0), widened(band.upper, +1.0))
        assert hitting_time(p, wider) >= hitting_time(p, band)


def full_exit_times(times, V, band):
    """The exit rule evaluated on every grid time, whatever the band."""
    out = (V <= band.lower.values_on(times)) | (V >= band.upper.values_on(times))
    first = np.broadcast_to(times, V.shape)[np.arange(V.shape[0]), np.argmax(out, axis=1)]
    return np.where(out.any(axis=1), first, 1.0)


@pytest.mark.parametrize("per_row", [False, True])
def test_exit_times_on_unbounded_band_is_the_full_evaluation(per_row):
    rng = np.random.default_rng(4)
    steps = rng.uniform(0.01, 1.0, size=(5, 40))
    times = np.concatenate([np.zeros((5, 1)), np.cumsum(steps, axis=1)], axis=1)
    times /= times[:, -1:]
    times = times if per_row else times[0]
    V = rng.standard_normal((5, 41)) * np.logspace(0, 300, 41)
    band = BarrierPair.unbounded()
    got = exit_times(times, V, band)
    npt.assert_array_equal(got, full_exit_times(times, V, band))
    assert got.shape == (5,) and got.dtype == np.float64


def reference_class(p, band, tol):
    """The C1-C4 definition read off plainly, one grid time at a time."""
    lo, hi = band.lower.values_on(p.times), band.upper.values_on(p.times)
    v = p.values
    i = next((j for j in range(v.size) if v[j] <= lo[j] or v[j] >= hi[j]), None)
    if i is None or p.times[i] >= 1.0:
        return "C3"
    nxt = range(i, min(i + 2, v.size))
    if v[i] >= hi[i] - tol:
        return "C1" if any(v[j] > hi[j] + tol for j in nxt) else "C4"
    if v[i] <= lo[i] + tol:
        return "C2" if any(v[j] < lo[j] - tol for j in nxt) else "C4"
    return "C4"


class TestClassification:
    @given(step_paths(), barrier_pairs())
    def test_matches_definition(self, p, band):
        tol = 1e-12 * max(1.0, float(np.max(np.abs(p.values))))
        assert classify_c_partition(p, band) == reference_class(p, band, tol)

    def test_non_exiting_is_c3(self):
        p = make_path([0, 1], [0, 0])
        assert classify_c_partition(p, BarrierPair.levels(-1, 1)) == "C3"

    def test_transversal_crossing_is_c1(self):
        p = make_path([0, 0.5, 1], [0.0, 1.5, 2.0])
        assert classify_c_partition(p, UPPER_ONE) == "C1"

    def test_transversal_lower_crossing_is_c2(self):
        p = make_path([0, 0.5, 1], [0.0, -1.5, -2.0])
        assert classify_c_partition(p, BarrierPair.levels(-1.0, np.inf)) == "C2"

    def test_tangency_is_c4(self):
        assert classify_c_partition(parabola_path(), UPPER_ONE) == "C4"

    def test_touch_then_cross_is_c1(self):
        p = make_path([0, 0.25, 0.5, 1], [0.0, 1.0, 1.5, 1.5])
        assert classify_c_partition(p, UPPER_ONE) == "C1"

    def test_exit_exactly_at_one_is_c3(self):
        p = make_path([0, 0.5, 1], [0.0, 0.5, 2.0])
        assert classify_c_partition(p, UPPER_ONE) == "C3"


class TestBarriers:
    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            BarrierPair(Barrier.constant(1.0), Barrier.constant(0.0))
        with pytest.raises(ValueError):
            BarrierPair(Barrier.constant(0.0), Barrier([0, 1], [1.0, -1.0]))

    def test_sampled_interpolates(self):
        b = Barrier([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        npt.assert_allclose(b.values_on([0.25, 0.5, 0.75]), [0.5, 1.0, 0.5])

    @pytest.mark.parametrize("barrier", [Barrier.minus_infinity(), Barrier.constant(-2.5),
                                         Barrier.constant(1 / 3), Barrier.plus_infinity()])
    def test_flat_barrier_is_exactly_its_level(self, barrier):
        # np.interp returns the level of a flat segment exactly, infinite or
        # not, on a shared (n+1,) grid and on a (B, K+1) grid per row
        rows = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, (4, 9)), axis=1)
        rows[:, 0], rows[:, -1] = 0.0, 1.0
        for grid in (np.arange(13) / 12, rows):
            got = barrier.values_on(grid)
            assert got.shape == grid.shape
            assert np.all(got == barrier.knot_v[0])

    def test_infinite_fills(self):
        assert np.all(np.isneginf(Barrier.minus_infinity().values_on([0.0, 1.0])))
        assert np.all(np.isposinf(Barrier.plus_infinity().values_on([0.0, 1.0])))
