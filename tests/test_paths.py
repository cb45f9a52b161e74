import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathfunc.errors import PreconditionError
from pathfunc.paths import (BarrierPair, SampleVector, StepPath,
                            classify_c_partition, exit_times, grid_columns,
                            hitting_time)

from conftest import barrier_pairs, step_path_pairs_same_grid, step_paths


def make_path(times, values):
    return StepPath(np.asarray(times, dtype=float), np.asarray(values, dtype=float))


def parabola_path(n=2000, shift=0.0):
    t = np.arange(n + 1) / n
    return StepPath(t, 1.0 - (t - 0.5) ** 2 - shift)


UPPER_ONE = BarrierPair(-np.inf, 1.0)


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
        with pytest.raises(PreconditionError):
            p.at(1.5)
        with pytest.raises(PreconditionError):
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
    # the engine's running maximum is np.maximum.accumulate along the grid
    def test_prefix_maximum(self):
        npt.assert_array_equal(np.maximum.accumulate([0.2, -0.1, 0.5]), [0.2, 0.2, 0.5])

    def test_parabola_peak_attained(self):
        # dense sampling of 1 - (s - 1/2)^2 on a grid containing 1/2
        assert np.maximum.accumulate(parabola_path().values)[-1] == 1.0

    def test_monotone_fixed_point(self):
        v = np.array([1.0, 2.0, 3.0])
        npt.assert_array_equal(np.maximum.accumulate(v), v)

    @given(step_paths())
    def test_dominates_and_nondecreasing(self, p):
        m = np.maximum.accumulate(p.values)
        assert np.all(m >= p.values)
        assert np.all(np.diff(m) >= 0.0)

    @given(step_paths())
    def test_idempotent(self, p):
        m = np.maximum.accumulate(p.values)
        npt.assert_array_equal(np.maximum.accumulate(m), m)

    @given(step_path_pairs_same_grid())
    def test_nonexpansive_sup_norm(self, pair):
        x, y = pair
        lhs = np.max(np.abs(np.maximum.accumulate(x.values) - np.maximum.accumulate(y.values)))
        rhs = np.max(np.abs(x.values - y.values))
        assert lhs <= rhs + 1e-15


class TestProject:
    # projection onto nu is the sampling rule: StepPath.at, i.e. grid_columns
    def test_terminal_projection(self):
        p = make_path([0, 0.5, 1], [1, 2, 3])
        npt.assert_array_equal(p.at(SampleVector([1.0]).entries), [3.0])

    def test_between_grid_points_uses_left_value(self):
        p = make_path([0, 0.5, 1], [1, 2, 3])
        npt.assert_array_equal(p.at(SampleVector([0.25, 0.75]).entries), [1.0, 2.0])

    def test_monthly_monitoring_values(self):
        # twelve monitoring instants on a grid that contains them
        t = np.arange(121) / 120
        p = StepPath(t, np.sin(7 * t) + 2.0)
        nu = SampleVector.uniform(12)
        npt.assert_array_equal(grid_columns(p.times, nu.entries), np.arange(10, 121, 10))
        npt.assert_array_equal(p.at(nu.entries), [p.at(i / 12) for i in range(1, 13)])

    @given(step_paths(), st.integers(0, 2**32))
    def test_invariant_under_grid_refinement(self, p, seed):
        rng = np.random.default_rng(seed)
        extra = rng.uniform(0.0, 1.0, size=5)
        new_times = np.unique(np.concatenate([p.times, extra]))
        refined = StepPath(new_times, p.at(new_times))
        nu = SampleVector(np.sort(rng.uniform(0.0, 1.0, size=4)))
        npt.assert_array_equal(p.at(nu.entries), refined.at(nu.entries))

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
        assert hitting_time(p, BarrierPair(-1.0, 1.0)) == 1.0

    def test_starts_outside(self):
        p = make_path([0, 1], [2.0, 0.0])
        assert hitting_time(p, BarrierPair(-1.0, 1.0)) == 0.0

    @given(step_paths(), barrier_pairs())
    def test_unbounded_band_never_exits(self, p, band):
        assert hitting_time(p, BarrierPair.unbounded()) == 1.0

    @given(step_paths(), barrier_pairs(), st.floats(0.0, 3.0, allow_nan=False))
    def test_monotone_under_widening(self, p, band, widen):
        wider = BarrierPair(band.lower - widen, band.upper + widen)  # infinities stay
        assert hitting_time(p, wider) >= hitting_time(p, band)


def full_exit_times(times, V, band):
    """The exit rule read off plainly, one grid time of one row at a time."""
    rows = np.broadcast_to(times, V.shape)
    return np.array([next((t for t, v in zip(ts, vs) if v <= band.lower or v >= band.upper), 1.0)
                     for ts, vs in zip(rows, V)])


@given(step_path_pairs_same_grid(), barrier_pairs())
def test_exit_times_match_reference(pair, band):
    # two rows on the shared grid and on that grid repeated per row
    x, y = pair
    V = np.stack([x.values, y.values])
    for times in (x.times, np.stack([x.times, x.times])):
        got = exit_times(times, V, band)
        assert got.shape == (2,) and got.dtype == np.float64
        npt.assert_array_equal(got, full_exit_times(times, V, band))


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
    lo, hi = band.lower, band.upper
    v = p.values
    i = next((j for j in range(v.size) if v[j] <= lo or v[j] >= hi), None)
    if i is None or p.times[i] >= 1.0:
        return "C3"
    nxt = range(i, min(i + 2, v.size))
    if v[i] >= hi - tol:
        return "C1" if any(v[j] > hi + tol for j in nxt) else "C4"
    if v[i] <= lo + tol:
        return "C2" if any(v[j] < lo - tol for j in nxt) else "C4"
    return "C4"


class TestClassification:
    @given(step_paths(), barrier_pairs())
    def test_matches_definition(self, p, band):
        tol = 1e-12 * max(1.0, float(np.max(np.abs(p.values))))
        assert classify_c_partition(p, band) == reference_class(p, band, tol)

    def test_non_exiting_is_c3(self):
        p = make_path([0, 1], [0, 0])
        assert classify_c_partition(p, BarrierPair(-1, 1)) == "C3"

    def test_transversal_crossing_is_c1(self):
        p = make_path([0, 0.5, 1], [0.0, 1.5, 2.0])
        assert classify_c_partition(p, UPPER_ONE) == "C1"

    def test_transversal_lower_crossing_is_c2(self):
        p = make_path([0, 0.5, 1], [0.0, -1.5, -2.0])
        assert classify_c_partition(p, BarrierPair(-1.0, np.inf)) == "C2"

    def test_tangency_is_c4(self):
        assert classify_c_partition(parabola_path(), UPPER_ONE) == "C4"

    def test_touch_then_cross_is_c1(self):
        p = make_path([0, 0.25, 0.5, 1], [0.0, 1.0, 1.5, 1.5])
        assert classify_c_partition(p, UPPER_ONE) == "C1"

    def test_exit_exactly_at_one_is_c3(self):
        p = make_path([0, 0.5, 1], [0.0, 0.5, 2.0])
        assert classify_c_partition(p, UPPER_ONE) == "C3"


class TestBarriers:
    @pytest.mark.parametrize("lower, upper", [(1.0, 0.0), (1.0, 1.0), (np.nan, 1.0),
                                              (0.0, np.nan), (np.inf, np.inf)])
    def test_ordering_validated(self, lower, upper):
        with pytest.raises(ValueError):
            BarrierPair(lower, upper)
