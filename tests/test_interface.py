"""The package names the benchmark harness reads.

The benchmark tracer looks functions up with ``getattr(module, name, None)``,
so a stale ``__all__`` entry or a renamed function silently drops out of the
per-module split instead of failing.  These checks make such a change fail
here.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import pathfunc

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathfunc.__path__))

# module -> names bench/layers.py and bench/workload.py read from it
BENCHMARK_NAMES = {
    "cli": ["build_model", "build_scheme", "build_spec", "main"],
    "config": ["parse_config"],
    "estimator": ["estimate", "ui_diagnostic", "counterexample_strong",
                  "counterexample_bessel", "simulate_values", "observe_args_batch",
                  "simulate_path", "evaluate"],
    "functionals": ["FunctionalSpec", "evaluate", "observe_args_batch"],
    "models": ["SdeModel"],
    "oracles": ["up_and_in_call_price", "vanilla_call_price"],
    "paths": ["StepPath"],
    "schemes": ["RngStream", "SchemeConfig", "check_local_consistency",
                "fixed_time_grid", "simulate_path", "simulate_terminals",
                "simulate_values"],
    "skorohod": ["skorohod_distance_approx"],
}


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"pathfunc.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
def test_benchmark_names_exist(name):
    module = importlib.import_module(f"pathfunc.{name}")
    missing = [n for n in BENCHMARK_NAMES[name] if not callable(getattr(module, n, None))]
    assert missing == []


def test_functional_spec_payoff_fields():
    # the tracer rebinds both payoff forms with dataclasses.replace
    from pathfunc.functionals import FunctionalSpec
    fields = {f.name for f in dataclasses.fields(FunctionalSpec) if f.init}
    assert {"payoff", "payoff_batch"} <= fields
