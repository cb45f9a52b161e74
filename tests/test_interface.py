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

from conftest import bench_workload

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


def test_run_config_has():
    # bench/workload.py builds a config's model only when the file sets model.kind
    from pathfunc.config import parse_config_text
    cfg = parse_config_text("model.kind = gbm\n")
    assert cfg.has("model", "kind") and not cfg.has("scheme", "h")


def test_require_names_only_keys_without_a_default():
    # RunConfig.require refuses a key the file leaves unset; on a key with a
    # default it can never refuse, so such a call is a get.  build_scheme
    # requires the step-size key it is given, scheme.h unless told otherwise.
    import ast
    import inspect
    from pathlib import Path

    from pathfunc.cli import build_scheme
    from pathfunc.config import _KEYS
    named = [inspect.signature(build_scheme).parameters["h_key"].default]
    for f in sorted((Path(__file__).resolve().parents[1] / "src" / "pathfunc").glob("*.py")):
        for call in ast.walk(ast.parse(f.read_text())):
            if not isinstance(call, ast.Call):
                continue
            fn = getattr(call.func, "attr", None) or getattr(call.func, "id", None)
            literal = [a.value for a in call.args if isinstance(a, ast.Constant)]
            if fn == "require" and len(literal) == 2:
                named.append(".".join(literal))
            elif fn == "build_scheme" and len(literal) == 1:
                named.append(literal[0])
    assert {"scheme.h", "run.h_grid"} <= set(named)  # the scan sees the calls
    defaulted = [k for k in named if _KEYS[k.split(".")[0]][k.split(".")[1]][1] is not None]
    assert defaulted == []


def test_build_scheme_pair():
    # bench/layers.py unpacks `scheme, _ = cli.build_scheme(cfg)` and reads the
    # first item's kind and cap, which is None (see the next test)
    from pathfunc.cli import build_scheme
    from pathfunc.config import parse_config_text
    from pathfunc.schemes import SchemeConfig
    scheme, _ = build_scheme(parse_config_text("scheme.kind = euler\nscheme.h = 0.25\n"))
    assert isinstance(scheme, SchemeConfig) and (scheme.kind, scheme.h) == ("euler", 0.25)
    assert scheme.cap is None


def test_scheme_cap_accepts_only_none():
    # no chain is clamped; the field stays only because bench/layers.py passes
    # `SchemeConfig(..., cap=scheme.cap)`
    import math
    from pathfunc.schemes import SchemeConfig
    assert SchemeConfig("euler", h=0.5, cap=None).cap is None
    for value in (2.0, 0.0, math.inf, math.nan, "1/h", "none"):
        with pytest.raises(ValueError):
            SchemeConfig("euler", h=0.5, cap=value)


def test_functional_spec_payoff_fields():
    # the tracer rebinds both fields with dataclasses.replace, though only
    # payoff_batch is a payoff form (see the next test)
    from pathfunc.functionals import FunctionalSpec
    fields = {f.name for f in dataclasses.fields(FunctionalSpec) if f.init}
    assert {"payoff", "payoff_batch"} <= fields


def test_no_module_reads_payoff():
    # payoff_batch is the one payoff form: no code in the package reads the
    # payoff field, which stays for the tracer alone
    import ast
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src" / "pathfunc"
    reads = [f"{f.name}:{n.lineno}" for f in sorted(src.glob("*.py"))
             for n in ast.walk(ast.parse(f.read_text()))
             if isinstance(n, ast.Attribute) and n.attr == "payoff"]
    assert reads == []


# The benchmark harness still passes a worker count on three surfaces; each
# accepts exactly 1, so a stale value fails loudly instead of being ignored.
BENCH_CFG = """\
model.kind = gbm
scheme.kind = euler
scheme.h = 0.25
functional.payoff = constant
functional.strike = 1.0
run.n_paths = 16
run.workers = 1
run.timing = off
output.format = csv
"""


@pytest.mark.parametrize("command", ["price", "converge", "check"])
def test_cli_workers_flag_accepts_only_one(command):
    from pathfunc.cli import _build_parser
    parser = _build_parser()
    assert parser.parse_args([command, "c.cfg", "--workers", "1"]).workers == 1
    for value in ("0", "2", "4"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "c.cfg", "--workers", value])
        assert exc.value.code == 2


def test_config_workers_accepts_only_one():
    from pathfunc.config import parse_config_text
    from pathfunc.errors import ConfigError
    assert parse_config_text(BENCH_CFG).get("run", "workers") == 1
    for value in ("0", "2", "4", "1.5"):
        with pytest.raises(ConfigError):
            parse_config_text(BENCH_CFG.replace("run.workers = 1", f"run.workers = {value}"))


def test_estimate_workers_accepts_only_one():
    from pathfunc.errors import PreconditionError
    from pathfunc.estimator import estimate
    from pathfunc.functionals import constant_payoff
    from pathfunc.models import gbm
    from pathfunc.schemes import SchemeConfig
    args = (gbm(0.0, 0.2, 1.0), SchemeConfig("euler", h=0.25), constant_payoff(1.0), 16)
    assert estimate(*args, seed=0, workers=1).mean == 1.0
    for value in (0, 2, 4):
        with pytest.raises(PreconditionError):
            estimate(*args, seed=0, workers=value)


def test_estimate_ui_override_accepts_only_true():
    # the commands judge the uniform-integrability gate; estimate prices what
    # it is given and keeps the flag only because the harness passes True
    from pathfunc.errors import PreconditionError
    from pathfunc.estimator import estimate
    from pathfunc.functionals import custom_terminal
    from pathfunc.models import gbm
    from pathfunc.schemes import SchemeConfig
    args = (gbm(0.0, 0.2, 1.0), SchemeConfig("euler", h=0.25), custom_terminal("identity"), 16)
    assert estimate(*args, seed=0, ui_override=True).n_paths == 16
    for value in (False, None, 1):
        with pytest.raises(PreconditionError):
            estimate(*args, seed=0, ui_override=value)


# Defaulted parameters that only tests set, each kept for a stated reason.
SET_BY_TESTS_ALLOWED = {
    # the test seam of forced draws
    ("schemes", "simulate_path", "forced_noise"),
    # the stochastic-volatility factor no config key sets yet (ROADMAP item 5)
    ("models", "stoch_vol", "vol_of_vol"),
}


def test_every_defaulted_parameter_has_a_caller():
    # A parameter with a default that no program call sets is a knob nobody
    # turns: its default belongs in the function body.  Scans every
    # top-level function of the package against every call in src and
    # bench, matching calls by function name, by keyword or by position; a
    # test setting a value does not make it a knob.
    import ast
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    defaulted = {}  # (module, function, parameter) -> position, None if keyword-only
    for f in sorted((root / "src" / "pathfunc").glob("*.py")):
        for node in ast.parse(f.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                a = node.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                for i, p in enumerate(pos[first:], start=first):
                    defaulted[f.stem, node.name, p.arg] = i
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        defaulted[f.stem, node.name, p.arg] = None
    passed = set()  # (function name, parameter)
    for d in ("src", "bench"):
        for f in sorted((root / d).rglob("*.py")):
            for call in ast.walk(ast.parse(f.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                fn = call.func
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                n_pos = sum(not isinstance(x, ast.Starred) for x in call.args)
                passed.update((name, kw.arg) for kw in call.keywords if kw.arg)
                passed.update((name, p) for (_, f_name, p), i in defaulted.items()
                              if f_name == name and i is not None and i < n_pos)
    unset = {key for key in defaulted if key[1:] not in passed}
    assert sorted(SET_BY_TESTS_ALLOWED - unset) == []  # a stale entry goes
    assert sorted(unset - SET_BY_TESTS_ALLOWED) == []


# Definitions no command reaches, each kept for a stated reason.
UNREACHED_ALLOWED = {
    # the frozen benchmark reads these by name (BENCHMARK_NAMES); estimate
    # streams the tree since it stopped storing it through simulate_values,
    # and check's tail sample is priced by estimate since it stopped drawing
    # it through simulate_terminals
    ("functionals", "evaluate"),
    ("schemes", "simulate_path"),
    ("schemes", "simulate_terminals"),
    ("schemes", "simulate_values"),
    # bench/workload.py builds a config's model only when the file sets
    # model.kind; no command asks, since each reads the keys it uses
    ("config", "RunConfig.has"),
    # awaits the discontinuity-mass report of `check` (ROADMAP item 8)
    ("functionals", "discontinuity_mass_estimate"),
}


def test_every_definition_is_reached_from_a_command():
    # Static call graph over the package's top-level defs and classes and
    # their methods and properties.  A definition reaches every top-level
    # definition whose name it mentions as a name or an attribute, and every
    # method it names as an attribute (`x.name`).  A class's own mentions
    # leave out its non-dunder method bodies, which run only when reached.
    # Whatever cli.main does not reach is code that no command runs; it must
    # be deleted or allowlisted above with a reason.
    import ast
    from pathlib import Path
    names, attrs = {}, {}  # definition -> the names, the attributes its body mentions

    def record(key, nodes):
        walked = [n for node in nodes for n in ast.walk(node)]
        names[key] = {n.id for n in walked if isinstance(n, ast.Name)}
        attrs[key] = {n.attr for n in walked if isinstance(n, ast.Attribute)}

    for f in sorted((Path(__file__).resolve().parents[1] / "src" / "pathfunc").glob("*.py")):
        for node in ast.parse(f.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                record((f.stem, node.name), [node])
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")]
                for m in methods:
                    record((f.stem, f"{node.name}.{m.name}"), [m])
                record((f.stem, node.name), [*node.bases, *node.decorator_list,
                                             *(n for n in node.body if n not in methods)])

    def reaches(key, d):
        _, dot, name = d[1].rpartition(".")
        return name in attrs[key] if dot else name in names[key] | attrs[key]

    def reached(roots):
        seen, todo = set(), list(roots)
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo += [d for d in names if reaches(key, d)]
        return seen

    from_main = reached([("cli", "main")])
    assert sorted(UNREACHED_ALLOWED & from_main) == []  # a stale entry goes
    assert sorted(set(names) - reached([("cli", "main"), *UNREACHED_ALLOWED])) == []


# Imports a module never uses, each kept for a stated reason.
UNUSED_IMPORTS_ALLOWED = {
    # the frozen benchmark times estimate minus its calls to these, looked up
    # on the estimator module by name (bench/layers.py::_estimator_self)
    ("estimator", "evaluate"),
    ("estimator", "observe_args_batch"),
    ("estimator", "simulate_path"),
    ("estimator", "simulate_values"),
}


def test_every_import_is_used():
    # A name a module imports but never mentions is a dependency nothing
    # needs.  __init__.py imports to re-export, so it is exempt.
    import ast
    from pathlib import Path
    unused = set()
    for f in sorted((Path(__file__).resolve().parents[1] / "src" / "pathfunc").glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text())
        imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {(f.stem, name) for name in imported - used}
    assert sorted(UNUSED_IMPORTS_ALLOWED - unused) == []  # a stale entry goes
    assert sorted(unused - UNUSED_IMPORTS_ALLOWED) == []


# Config keys no shipped config and no benchmark input sets, each kept for a
# stated reason.  Every other key, and every command-line option, must have
# a setter there: a value nothing sets is a knob nobody turns.
UNSET_ALLOWED = {
    # the stochastic-volatility barrier config of ROADMAP item 5 sets these
    "model.y0", "model.rho",
    # where a deployment writes a run's output; every run here prints it
    "output.path",
}


def _benchmark_runs(tmp_path):
    """The config files and command lines of every benchmark workload, at
    both sizes, as the benchmark builds them."""
    workload = bench_workload()
    configs, commands = [], []
    for name in workload.WORKLOADS:
        for size in workload.SIZES:
            work = tmp_path / f"{name}-{size}"
            work.mkdir()
            inputs = workload.INPUTS[name](workload.Ctx(name, 0, size, False, work))
            configs += inputs.configs
            commands += inputs.commands
    return configs, commands


def test_every_config_key_and_option_has_a_setter(tmp_path):
    from pathlib import Path

    from pathfunc.cli import _build_parser
    from pathfunc.config import _KEYS, parse_config
    configs, commands = _benchmark_runs(tmp_path)
    configs += sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    set_keys = {f"{section}.{key}" for c in configs
                for section, keys in parse_config(str(c)).values.items() for key in keys}
    keys = {f"{section}.{key}" for section in _KEYS for key in _KEYS[section]}
    assert sorted(UNSET_ALLOWED & set_keys) == []  # a stale entry goes
    assert sorted(keys - set_keys - UNSET_ALLOWED) == []
    passed = {arg for argv in commands for arg in argv if arg.startswith("--")}
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    options = {opt for sp in subparsers.choices.values() for a in sp._actions
               for opt in a.option_strings if opt not in ("-h", "--help")}
    assert sorted(options - passed) == []


# The command that runs each shipped config, as tests/test_golden.py runs it.
SHIPPED_COMMANDS = {"check_bessel_cap.cfg": "check", "check_gbm.cfg": "check",
                    "converge_upin.cfg": "converge", "monthly_barrier.cfg": "price"}


def test_every_config_sets_only_keys_its_command_reads(tmp_path, monkeypatch, capsys):
    # price, converge and check refuse a model or functional key that the file
    # sets and the run does not read, at the _emit with no lines each makes
    # before it draws.  Each benchmark input and shipped config runs its
    # command up to that call and stops there.
    from pathlib import Path

    from pathfunc import cli
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(SHIPPED_COMMANDS) == sorted(c.name for c in configs.glob("*.cfg"))
    runs = [argv for argv in _benchmark_runs(tmp_path)[1] if argv[0] in SHIPPED_COMMANDS.values()]
    runs += [[command, str(configs / name)] for name, command in SHIPPED_COMMANDS.items()]
    assert {argv[0] for argv in runs} == {"price", "converge", "check"}
    emit = cli._emit

    class Checked(Exception):
        pass

    def stop(cfg, lines=()):
        emit(cfg, lines)
        raise Checked
    monkeypatch.setattr(cli, "_emit", stop)
    refused = []
    for argv in runs:
        try:
            refused.append((argv, cli.main(argv), capsys.readouterr().err))
        except Checked:
            pass
    assert refused == []
