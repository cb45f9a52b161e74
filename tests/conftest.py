import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from pathfunc.paths import BarrierPair, StepPath

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
    """Bands of two finite levels, each side independently made infinite."""
    lower = draw(st.floats(-6.0, 0.0))
    upper = lower + draw(st.floats(0.5, 8.0))
    if draw(st.booleans()):
        lower = -np.inf
    if draw(st.booleans()):
        upper = np.inf
    return BarrierPair(lower, upper)
