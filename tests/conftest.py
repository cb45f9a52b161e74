import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from pathfunc.paths import BarrierPair, StepPath, grid_columns

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


def value_at(path, t):
    """The path's value at each time t: its value at the last grid time <= t."""
    return path.values[grid_columns(path.times, np.asarray(t, dtype=np.float64))]


# A small price on the variable-step tree: 300 paths at h = 2^-6, with the
# gate line of a linear payoff.
TREE_CFG = """
model.kind = gbm
model.r = 0.1
model.sigma = 0.3
model.x0 = 0.8
scheme.kind = binomial_variable
scheme.h = 2^-6
functional.payoff = terminal_call
functional.strike = 0.5
run.n_paths = 300
run.seed = 5
output.format = csv
run.timing = off
"""


def set_cpus(monkeypatch, n):
    """Make this process see n usable CPUs, as ``estimate`` counts them."""
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(n), raising=False)


def bench_workload():
    """bench/workload.py, loaded as a module: the benchmark's own inputs."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "workload.py"
    spec = importlib.util.spec_from_file_location("bench_workload", path)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    return workload


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
