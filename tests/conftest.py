import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from pathfunc.paths import Barrier, BarrierPair, StepPath

# Property suites run 200 derandomized cases per property; the acceptance
# criteria require at least that many under a fixed master randomness.
settings.register_profile(
    "acceptance",
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("acceptance")

MASTER_SEED = 20240601


@pytest.fixture(scope="session")
def master_seed():
    return MASTER_SEED


# ---------------------------------------------------------------------------
# strategies


@st.composite
def step_paths(draw, max_interior=12, value_range=(-5.0, 5.0), grid_denom=64):
    """Scalar step paths on a dyadic grid: well-spaced times, finite values."""
    k = draw(st.integers(0, max_interior))
    interior = draw(
        st.lists(st.integers(1, grid_denom - 1), min_size=k, max_size=k, unique=True)
    )
    times = np.array(sorted([0, grid_denom] + interior)) / grid_denom
    vals = draw(
        st.lists(
            st.floats(*value_range, allow_nan=False, allow_infinity=False, width=32),
            min_size=times.size,
            max_size=times.size,
        )
    )
    return StepPath(times, np.asarray(vals, dtype=np.float64))


@st.composite
def step_path_pairs_same_grid(draw, **kwargs):
    x = draw(step_paths(**kwargs))
    vals = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False, width=32),
            min_size=x.times.size,
            max_size=x.times.size,
        )
    )
    return x, StepPath(x.times, np.asarray(vals, dtype=np.float64))


@st.composite
def barrier_pairs(draw):
    """Bands whose barriers are infinite, constant or sampled (time-varying)."""

    def curve(lo, hi):
        # a constant, or the interpolant of 2-5 knots on a dyadic grid
        if draw(st.booleans()):
            return Barrier.constant(draw(st.floats(lo, hi)))
        inner = draw(st.lists(st.integers(1, 63), max_size=3, unique=True))
        t = np.array(sorted([0, 64] + inner)) / 64
        return Barrier(t, draw(st.lists(st.floats(lo, hi), min_size=t.size,
                                                max_size=t.size)))

    lower = curve(-6.0, 0.0)
    width = curve(0.5, 8.0)
    t = np.union1d(lower.knot_t, width.knot_t)
    upper = Barrier(t, lower.values_on(t) + width.values_on(t))
    if draw(st.booleans()):
        lower = Barrier.minus_infinity()
    if draw(st.booleans()):
        upper = Barrier.plus_infinity()
    return BarrierPair(lower, upper)
