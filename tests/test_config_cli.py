import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pathfunc import oracles
from pathfunc.cli import main
from pathfunc.config import parse_config_text
from pathfunc.errors import ConfigError

from conftest import TREE_CFG, set_cpus

CONSTANT_CFG = """
model.kind = gbm
model.r = 0.0
model.sigma = 0.2
model.x0 = 1.0
scheme.kind = euler
scheme.h = 0.125
functional.payoff = constant
functional.strike = 2.5
run.n_paths = 64
run.seed = 3
run.workers = 1
output.format = csv
run.timing = false
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CAP_DEMO = CONFIGS / "check_bessel_cap.cfg"

def small_barrier(tmp_path):
    """The shipped monthly barrier config at 200 paths, written to a file."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "monthly_barrier.cfg"), encoding="utf-8") as f:
        text = f.read().replace("run.n_paths = 5000", "run.n_paths = 200")
    return write(tmp_path, "barrier.cfg", text)


def no_second_sample(monkeypatch):
    """Make any simulation of a gate-only sample raise."""
    from pathfunc import estimator

    def refuse(*args, **kwargs):
        raise AssertionError("the gate drew a second sample")
    monkeypatch.setattr(estimator, "ui_diagnostic", refuse)
    monkeypatch.setattr(estimator, "sample_reciprocal_bessel3_stopped", refuse)


class TestConfigParsing:
    def test_number_forms(self):
        cfg = parse_config_text("scheme.h = 1/12288\nrun.h_grid = 2^-5, 2^-7\n"
                                "run.seed = -2^53\nrun.n_paths = 1e3\n")
        assert cfg.get("scheme", "h") == pytest.approx(1.0 / 12288)
        assert cfg.get("run", "h_grid") == [2**-5, 2**-7]
        assert (cfg.get("run", "seed"), cfg.get("run", "n_paths")) == (-2**53, 1000)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("scheme.stepsize = 0.1\n")
        with pytest.raises(ConfigError):
            parse_config_text("grid.h = 0.1\n")
        for key in ("model.mu", "model.b_vol", "ui.cutoff_max",  # read by nothing
                    "functional.coordinate", "check.c_const", "ui.tail_tol",
                    "scheme.cap",  # no chain is clamped
                    "run.oracle"):  # converge reports any closed form its run has
            with pytest.raises(ConfigError):
                parse_config_text(f"{key} = 0.5\n")

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nmodel.kind = gbm  # trailing\n")
        assert cfg.get("model", "kind") == "gbm"

    def test_missing_required_key(self):
        cfg = parse_config_text("model.kind = gbm\n")
        with pytest.raises(ConfigError):
            cfg.require("scheme", "h")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config_text("scheme.h = fast\n")

    def test_blank_inside_a_number_refused(self):
        # "2 ^ -5" and "1 / 8" once parsed as 2^-5 and 1/8: a second spelling
        for text in ("2 ^ -5", "2^ -5", "2 ^-5", "1 / 8", "1/ 8", "1 /8", "1 e3"):
            msg = f"'scheme.h': cannot parse number '{text}'"
            with pytest.raises(ConfigError, match=re.escape(msg)):
                parse_config_text(f"scheme.h = {text}\n")
        with pytest.raises(ConfigError, match=r"'run.h_grid': cannot parse number '2\^ -4'"):
            parse_config_text("run.h_grid = 1/8, 2^ -4\n")

    @pytest.mark.parametrize("grid, item", [("2^-4, , 2^-6", 2), ("2^-4,,2^-5", 2),
                                            ("2^-4, 2^-5,", 3), (", 2^-5", 1)])
    def test_empty_list_item_named_by_position(self, grid, item):
        # once only "cannot parse number ''", naming neither the list nor the item
        with pytest.raises(ConfigError, match=f"'run.h_grid': list item {item} is empty"):
            parse_config_text(f"run.h_grid = {grid}\n")

    @pytest.mark.parametrize("command, key", [("price", "run.n_paths"),
                                              ("check", "ui.n_paths"),
                                              ("check", "check.n_draws")])
    def test_sample_size_below_two_refused(self, tmp_path, capsys, command, key):
        # the shipped failure demo with an empty sample once passed its gate
        # on NaN tails; one draw gave NaN residuals or a stderr of 0/0
        for value in ("0", "1"):
            text = CAP_DEMO.read_text(encoding="utf-8") + f"{key} = {value}\n"
            assert main([command, write(tmp_path, "c.cfg", text)]) == 64
            assert f"{key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("run.n_paths", "inf"), ("run.n_paths", "nan"),
                                            ("run.seed", "inf"), ("run.n_paths", "1e400"),
                                            ("run.workers", "-inf"), ("run.seed", "2^2000"),
                                            ("run.seed", "2^60"), ("run.seed", "1e17")])
    def test_non_finite_integer_refused(self, tmp_path, capsys, key, value):
        # int() of these once escaped as an OverflowError or ValueError traceback.
        # A power or exponent is read through a float, so beyond 2^53 it is
        # refused even where the float is exact (2^60, 1e17): plain digits are
        # the one spelling of a larger integer
        assert main(["price", write(tmp_path, "c.cfg", CONSTANT_CFG + f"{key} = {value}\n")]) == 64
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"config error: config key {key!r}: ")

    @pytest.mark.parametrize("command, key, value", [
        ("price", "model.r", "nan"), ("price", "model.r", "inf"), ("price", "model.sigma", "nan"),
        ("price", "functional.strike", "nan"), ("price", "functional.barrier_level", "nan"),
        ("price", "scheme.h", "-inf"), ("converge", "run.h_grid", "2^-3, 1e400, 2^-5"),
        ("check", "check.probes_y", "nan"), ("check", "check.probes_y", "0.5, -inf"),
        ("price", "scheme.h", "-2^0.5")])
    def test_non_finite_number_refused(self, tmp_path, capsys, command, key, value):
        # barrier_level = nan once priced an up-and-in call at 0 with exit 0,
        # model.r = nan failed stream 0 with exit 1, probes_y = nan printed
        # ERROR rows with exit 2, and the complex power -2^0.5 ended in a
        # TypeError traceback
        assert main([command, write(tmp_path, "c.cfg", CONSTANT_CFG + f"{key} = {value}\n")]) == 64
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"config error: config key {key!r}: ")

    @pytest.mark.parametrize("command, key, value", [
        ("check", "check.kinds", "euler"),
        ("check", "run.h_grid", ""), ("converge", "run.h_grid", "")])
    def test_one_spelling_per_value(self, tmp_path, capsys, command, key, value):
        # check.kinds is `config` or `all`; an empty h grid once let `check`
        # judge the gate at scheme.h alone with exit 0, while `converge`
        # refused it
        assert main([command, write(tmp_path, "c.cfg", CONSTANT_CFG + f"{key} = {value}\n")]) == 64
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"config error: config key {key!r}: ")


    @pytest.mark.parametrize("line", [
        "run.allow_linear = on", "run.timing = off", "run.allow_linear = yes",
        "run.timing = True", "run.timing = 1", "run.h_grid = 2^-4,,2^-5",
        "run.h_grid = 2^-4, 2^-5,", "run.n_paths = 1_000", "run.n_paths = \u0661\u0660\u0660",
        "run.workers = 1.0", "output.path =", "model.z0 = 1", "scheme.h = 2 ^ -5",
        "run.h_grid = 1 / 8, 2^ -4"])
    @pytest.mark.parametrize("command", ["price", "converge", "check"])
    def test_second_spelling_refused(self, tmp_path, capsys, command, line):
        # each once read as another spelling of a value: on, off, yes, True
        # and 1 as bools, an empty list item as none, 1_000 and Arabic-Indic
        # digits as 1000 and 100, 1.0 as the worker count 1, an empty path as
        # stdout, model.z0 as the start value model.x0 now sets for every model,
        # and numbers with blanks inside as 2^-5, 1/8 and 2^-4
        text = CONSTANT_CFG + f"run.h_grid = 0.5, 0.25, 0.125\n{line}\n"
        assert main([command, write(tmp_path, "c.cfg", text)]) == 64
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: ")
        assert repr(line.split(" =")[0]) in out.err

    @pytest.mark.parametrize("command", ["price", "converge", "check"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, command):
        # a directory, or a file that is not UTF-8, once ended in an
        # IsADirectoryError or UnicodeDecodeError traceback with exit 1
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(CONSTANT_CFG.encode() + b"\xff\n")
        for path in (tmp_path, binary):
            assert main([command, str(path)]) == 64
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith(f"config error: {path}: cannot read it: ")


class TestCliPrice:
    def test_constant_payoff_exact(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", CONSTANT_CFG)
        assert main(["price", path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "h,mean,stderr,ci_lo,ci_hi,n,elapsed"
        fields = out[1].split(",")
        assert float(fields[1]) == 2.5 and float(fields[2]) == 0.0

    def test_output_is_csv_and_only_csv(self, tmp_path, capsys):
        # the default prints the CSV rows; any other format is refused
        text = CONSTANT_CFG.replace("output.format = csv\n", "")
        assert main(["price", write(tmp_path, "c.cfg", text)]) == 0
        assert capsys.readouterr().out.startswith("h,mean,stderr,ci_lo,ci_hi,n,elapsed\n")
        for fmt in ("table", "json"):
            text = CONSTANT_CFG.replace("output.format = csv", f"output.format = {fmt}")
            assert main(["price", write(tmp_path, "c.cfg", text)]) == 64
            assert "'output.format'" in capsys.readouterr().err

    def test_missing_h_is_config_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cfg", "model.kind = gbm\nmodel.x0 = 1\nrun.n_paths = 16\n")
        assert main(["price", path]) == 64

    def test_unknown_key_is_config_error(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "scheme.stepsize = 0.5\n")
        assert main(["price", path]) == 64

    def test_missing_file_is_config_error(self):
        assert main(["price", "/nonexistent/nowhere.cfg"]) == 64

    @pytest.mark.parametrize("payoff, key", [
        ("terminal_identity", "strike"), ("terminal_call", "m"),
        ("terminal_call", "barrier_level"), ("constant", "m"), ("up_in_call", "m")])
    @pytest.mark.parametrize("command", ["price", "converge", "check"])
    def test_functional_key_the_payoff_does_not_read_is_refused(self, tmp_path, capsys,
                                                                payoff, key, command):
        # functional.m = 4 on a terminal_call once printed the unchanged row
        text = (CONSTANT_CFG.replace("functional.payoff = constant", f"functional.payoff = {payoff}")
                .replace("functional.strike = 2.5\n", "")
                + f"functional.{key} = 4\nrun.h_grid = 2^-3, 2^-4, 2^-5\n")
        assert main([command, write(tmp_path, "c.cfg", text)]) == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"config error: config key 'functional.{key}': payoff {payoff}")

    def test_functional_keys_the_payoff_reads_are_accepted(self, tmp_path, capsys):
        # each payoff with every key it reads set, and the unset keys at their defaults
        reads = {"terminal_identity": "", "terminal_call": "strike", "constant": "strike",
                 "up_in_call": "strike barrier_level",
                 "discrete_barrier_call": "strike barrier_level m"}
        values = {"strike": "0.9", "barrier_level": "1.1", "m": "4"}
        for payoff, keys in reads.items():
            text = (CONSTANT_CFG.replace("functional.payoff = constant",
                                         f"functional.payoff = {payoff}")
                    .replace("functional.strike = 2.5\n", "")
                    + "".join(f"functional.{k} = {values[k]}\n" for k in keys.split())
                    + "run.allow_linear = true\n")
            assert main(["price", write(tmp_path, "c.cfg", text)]) == 0, payoff
            assert capsys.readouterr().out.startswith("h,mean,stderr")

    def test_deterministic_bytes_with_timing_off(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", CONSTANT_CFG)
        main(["price", path])
        first = capsys.readouterr().out
        main(["price", path])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_override_changes_result(self, tmp_path, capsys):
        cfg = CONSTANT_CFG.replace("functional.payoff = constant",
                                   "functional.payoff = terminal_call")
        cfg = cfg.replace("functional.strike = 2.5", "functional.strike = 0.9")
        cfg = cfg.replace("run.n_paths = 64", "run.n_paths = 512\nrun.allow_linear = true")
        path = write(tmp_path, "c.cfg", cfg)
        main(["price", path, "--seed", "1"])
        a = capsys.readouterr().out
        main(["price", path, "--seed", "2"])
        b = capsys.readouterr().out
        assert a != b

    def test_config_seed_reads_as_the_seed_flag(self, tmp_path, capsys):
        # run.seed = 2^53 + 1 once read back through a float as 2^53 and
        # priced other streams than the same --seed
        cfg = CONSTANT_CFG.replace("functional.payoff = constant",
                                   "functional.payoff = terminal_call")
        cfg = cfg.replace("functional.strike = 2.5", "functional.strike = 0.9")
        cfg = cfg.replace("run.n_paths = 64", "run.n_paths = 100\nrun.allow_linear = true")
        rows = []
        for seed in (2**53 + 1, 2**53):
            assert main(["price", write(tmp_path, "s.cfg", cfg.replace(
                "run.seed = 3", f"run.seed = {seed}"))]) == 0
            from_config = capsys.readouterr().out
            assert main(["price", write(tmp_path, "c.cfg", cfg), "--seed", str(seed)]) == 0
            assert from_config == capsys.readouterr().out
            rows.append(from_config)
        assert rows[0] != rows[1]

    @pytest.mark.parametrize("kind", ["euler", "binomial_fixed", "binomial_variable"])
    def test_bytes_ignore_the_process_split(self, kind, tmp_path, capsys, monkeypatch):
        # one summation order: pricing in 1, 2 or 3 processes moves no byte of
        # price's and converge's rows or check's lines.  Ranges of 50 paths
        # split each 301-path run, and 3 processes may exceed the CPU count
        from pathfunc import estimator
        real, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        monkeypatch.setattr(estimator, "_MIN_RANGE", 50)
        path = write(tmp_path, "c.cfg", (
            "model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            f"scheme.kind = {kind}\nscheme.h = 2^-6\nfunctional.payoff = up_in_call\n"
            "functional.strike = 0.5\nfunctional.barrier_level = 1.0\n"
            "run.n_paths = 301\nrun.seed = 4\nrun.h_grid = 2^-4, 2^-5, 2^-6\n"
            "run.allow_linear = true\nrun.timing = false\ncheck.probes_y = 0.8\n"
            "check.probes_t = 0.0\ncheck.n_draws = 1000\nui.n_paths = 301\n"))
        outputs = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            forks.clear()
            for command in ("price", "converge", "check"):
                assert main([command, path]) == 0, command
            outputs.append(capsys.readouterr().out)
            assert len(forks) == (cpus - 1) * (1 + 3 + 3)  # price, converge, check's UI rows
        assert "ui diagnostic: pass" in outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_check_probes_ignore_the_process_split(self, tmp_path, capsys, monkeypatch):
        # each kernel's moments are computed, not drawn, and the bounded
        # payoff draws no tail sample: on 1, 2 or 3 CPUs `check` forks
        # nothing and prints the same bytes
        real, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        path = write(tmp_path, "c.cfg", (
            "model.kind = gbm\nmodel.sigma = 0.3\nmodel.x0 = 0.8\nscheme.kind = euler\n"
            "scheme.h = 2^-6\nfunctional.payoff = constant\ncheck.kinds = all\nrun.seed = 8\n"))
        outputs = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            assert main(["check", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert forks == []
        assert outputs[0].count(" ok\n") == 18
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_unwritable_output_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a directory once ended the run in an IsADirectoryError traceback,
        # and only after the whole run: now each command refuses the path
        # before drawing, and a run that fails after the check leaves an
        # existing file as it was
        from pathfunc import cli, estimator
        from pathfunc.errors import SimulationError

        def fail(*args, **kwargs):
            raise SimulationError("drawn")
        for name in ("estimate", "convergence_study"):
            monkeypatch.setattr(estimator, name, fail)
        monkeypatch.setattr(cli, "check_local_consistency", fail)
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier run\n")
        for command in ("price", "converge", "check"):
            for target in (tmp_path, tmp_path / "missing" / "out.csv", kept):
                text = CONSTANT_CFG + f"run.h_grid = 0.5, 0.25, 0.125\noutput.path = {target}\n"
                code = main([command, write(tmp_path, "c.cfg", text)])
                out = capsys.readouterr()
                assert out.out == ""
                if target == kept:
                    assert (code, out.err) == (1, "error: drawn\n")
                else:
                    assert code == 64
                    assert out.err.startswith("config error: config key 'output.path': ")
        assert kept.read_text() == "earlier run\n"

    @pytest.mark.parametrize("key, value", [("scheme.h", "2"), ("model.sigma", "-1")])
    def test_refused_value_is_config_error(self, tmp_path, capsys, key, value):
        path = write(tmp_path, "c.cfg", CONSTANT_CFG + f"{key} = {value}\n")
        assert main(["price", path]) == 64
        assert f"section {key.split('.')[0]!r}" in capsys.readouterr().err

    def test_price_simulates_each_path_once(self, tmp_path, capsys, monkeypatch):
        # the gate reads the priced paths: no second sample is simulated
        from pathfunc.cli import build_model, build_scheme, build_spec
        from pathfunc.config import parse_config
        from pathfunc.estimator import estimate
        path = small_barrier(tmp_path)
        cfg = parse_config(path)
        expected = estimate(build_model(cfg), build_scheme(cfg)[0], build_spec(cfg), 200,
                            12061).csv_row(timing=False)
        no_second_sample(monkeypatch)
        assert main(["price", path]) == 0
        gate, header, row = capsys.readouterr().out.splitlines()
        assert gate.startswith("ui diagnostic: pass") and row == expected

    @pytest.mark.parametrize("route", ["folded", "stored"])
    def test_gate_reads_the_priced_sample(self, tmp_path, capsys, route):
        # the printed second moment is that of the priced paths' payoff
        # values, when the fold keeps the sampled columns (the flagship) and
        # when it keeps every column of a stored batch (the tree), against
        # the stored paths observed afresh
        from pathfunc.cli import build_model, build_scheme, build_spec
        from pathfunc.config import parse_config
        from pathfunc.functionals import observe_args_batch, payoff_values
        from pathfunc.schemes import RngStream, simulate_values
        path = small_barrier(tmp_path) if route == "folded" else write(tmp_path, "t.cfg",
                                                                       TREE_CFG)
        cfg = parse_config(path)
        n, seed, spec = cfg.get("run", "n_paths"), cfg.get("run", "seed"), build_spec(cfg)
        paths = simulate_values(build_model(cfg), build_scheme(cfg)[0],
                                [RngStream(seed, i, 0) for i in range(n)])
        g = payoff_values(spec, observe_args_batch(*paths, spec))
        assert main(["price", path]) == 0
        gate = capsys.readouterr().out.splitlines()[0]
        assert gate == f"ui diagnostic: pass (sup second moment {np.mean(g * g):.4g})"

    def test_gate_reads_what_the_payoff_reads(self, tmp_path, capsys, monkeypatch):
        # 40 times the running maximum (argument 4m) under an unbounded band:
        # each value is at least 40 x0 = 32, so the tail at 32 is far above
        # TAIL_TOL, while every X^h(1) of the priced paths stays below 32
        from pathfunc import cli
        from pathfunc.config import parse_config
        from pathfunc.estimator import estimate
        from pathfunc.functionals import custom_terminal
        text = ("model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
                "scheme.kind = euler\nscheme.h = 2^-4\n"
                "functional.payoff = terminal_identity\nrun.n_paths = 400\n")
        path = write(tmp_path, "c.cfg", text)
        cfg = parse_config(path)
        model, scheme = cli.build_model(cfg), cli.build_scheme(cfg)[0]
        ends = estimate(model, scheme, custom_terminal("identity"), 400, 0).values  # X^h(1)
        assert 0.0 < ends.max() < 32.0
        real = cli.build_spec
        monkeypatch.setattr(cli, "build_spec",
                            lambda cfg: replace(real(cfg), payoff_batch=lambda x: 40.0 * x[:, 3]))
        assert main(["price", path]) == 2
        out = capsys.readouterr().out
        assert out.startswith("ui diagnostic: FAIL") and "refusing to price" in out
        assert "mean" not in out

    def test_linear_payoff_refused_by_ui_gate(self, tmp_path, capsys):
        # the price twin of the converge refusal: on the Euler chain of gbm
        # with sigma = 2 the tail at the gate's largest cutoff, 32, stays
        # above TAIL_TOL
        text = (
            "model.kind = gbm\nmodel.sigma = 2\n"
            "scheme.kind = euler\nscheme.h = 2^-4\n"
            "functional.payoff = terminal_identity\nrun.n_paths = 400\n"
        )
        assert main(["price", write(tmp_path, "c.cfg", text)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("ui diagnostic: FAIL") and "refusing to price" in out
        assert "mean" not in out

    def test_exploding_chain_names_its_stream(self, tmp_path, capsys):
        # the Euler chain of the reciprocal Bessel process leaves the reals
        # on 38 of 2000 streams, 15 and 32 first: a runtime error that names
        # the lowest stream that fails when simulated alone
        from pathfunc.cli import build_model, build_scheme
        from pathfunc.config import parse_config
        from pathfunc.errors import SimulationError
        from pathfunc.schemes import RngStream, simulate_terminals
        text = (
            "model.kind = inverse_bessel3\nmodel.x0 = 1\n"
            "scheme.kind = euler\nscheme.h = 2^-6\n"
            "functional.payoff = terminal_identity\nrun.n_paths = 2000\nrun.seed = 0\n"
        )
        path = write(tmp_path, "c.cfg", text)
        cfg = parse_config(path)
        model, scheme = build_model(cfg), build_scheme(cfg)[0]
        failing = []
        for i in range(16):
            try:
                simulate_terminals(model, scheme, [RngStream(0, i)])
            except SimulationError:
                failing.append(i)
        assert failing == [15]
        assert main(["price", path]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: stream 15: path simulation failed: "
                           "non-finite drift/diffusion evaluation\n")


class TestCliCheck:
    def test_gbm_all_schemes_pass(self, tmp_path, capsys):
        text = (
            "model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            "scheme.kind = euler\nscheme.h = 2^-6\n"
            "functional.payoff = terminal_identity\n"
            "check.kinds = all\ncheck.n_draws = 100000\nrun.seed = 5\n"
        )
        path = write(tmp_path, "check.cfg", text)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 3

    def test_capped_reciprocal_bessel_fails_with_exit_2(self, tmp_path, capsys):
        # the tail sample is the family's exact law stopped at the cap 1/h
        text = (
            "model.kind = inverse_bessel3\nmodel.x0 = 1.0\n"
            "scheme.kind = euler\nscheme.h = 2^-6\n"
            "functional.payoff = terminal_identity\n"
            "check.kinds = config\nrun.seed = 5\nrun.h_grid = 2^-4, 2^-6\n"
            "ui.n_paths = 5000\n"
        )
        path = write(tmp_path, "check.cfg", text)
        assert main(["check", path]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_overflowing_moments_are_error_rows(self, tmp_path, capsys):
        # sigma = 1e200 overflows the coefficients' products: each probe is an
        # ERROR row, not a residual against an infinite tolerance, and no
        # numpy warning escapes
        text = ("model.kind = gbm\nmodel.sigma = 1e200\nscheme.kind = euler\n"
                "scheme.h = 2^-6\nfunctional.payoff = constant\ncheck.kinds = config\n"
                "check.n_draws = 1000\n")
        assert main(["check", write(tmp_path, "c.cfg", text)]) == 2
        error = "ERROR non-finite moment residual"
        assert capsys.readouterr().out.splitlines() == (
            ["scheme euler: FAIL"]
            + [f"  probe y={y} t={t}: {error}" for y in ("0.5", "1", "2") for t in ("0", "0.5")]
            + ["ui diagnostic: skipped (bounded payoff)"])

    def test_stoch_vol_probes_its_first_coordinate(self, tmp_path, capsys):
        # each probe state is model.y0 with its first coordinate set to y; a
        # scalar probe state once ended `check` on stoch_vol with an
        # IndexError traceback
        text = ("model.kind = stoch_vol\nmodel.sigma = 0.2\nmodel.rho = 0.5\n"
                "scheme.kind = euler\nscheme.h = 2^-6\nfunctional.payoff = constant\n"
                "check.n_draws = 100000\nrun.seed = 5\n")
        assert main(["check", write(tmp_path, "c.cfg", text + "check.kinds = config\n")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "scheme euler: pass"
        assert len([line for line in out if line.endswith(" dt/h=1 ok")]) == 6
        assert main(["check", write(tmp_path, "c.cfg", text + "check.kinds = all\n")]) == 2
        out_all = capsys.readouterr().out.splitlines()
        assert out_all[:7] == out[:7]
        for kind in ("binomial_fixed", "binomial_variable"):
            i = out_all.index(f"scheme {kind}: FAIL")
            assert out_all[i + 1] == ("  probe y=nan t=nan: "
                                      "ERROR binomial kernels require d = d1 = 1")

    def test_bounded_payoff_skips_ui_diagnostic(self, tmp_path, capsys, monkeypatch):
        # the command decides the skip: no tail sample is drawn
        no_second_sample(monkeypatch)
        assert main(["check", write(tmp_path, "c.cfg", CONSTANT_CFG)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "scheme euler: pass"
        assert out[-1] == "ui diagnostic: skipped (bounded payoff)"

    @pytest.mark.parametrize("x0, h_grid", [("1.0", "1, 2^-3"), ("3.0", "2^-3, 2^-1")])
    def test_cap_at_or_below_start_value_refused(self, tmp_path, capsys, monkeypatch, x0, h_grid):
        # the tail sample is stopped at the cap 1/h, which must exceed x0 at
        # every h of the sweep: 1/1 = 1 is not above 1, nor 1/2^-1 = 2 above
        # 3.  The refusal comes before any draw, and only where the stopped
        # law is drawn: a bounded payoff draws no tail sample
        text = (
            f"model.kind = inverse_bessel3\nmodel.x0 = {x0}\n"
            "scheme.kind = euler\nscheme.h = 2^-3\n"
            f"check.kinds = config\ncheck.n_draws = 1000\nrun.h_grid = {h_grid}\n"
            "ui.n_paths = 500\n"
        )
        path = write(tmp_path, "check.cfg", text + "functional.payoff = terminal_identity\n")
        with monkeypatch.context() as m:
            m.setattr("pathfunc.cli.check_local_consistency", lambda *a, **k: 1 / 0)
            assert main(["check", path]) == 64
        err = capsys.readouterr().err
        assert err.startswith("config error: section 'model', key 'model.x0': ")
        path = write(tmp_path, "check.cfg", text + "functional.payoff = constant\n")
        assert main(["check", path]) != 64
        assert "model.x0" not in capsys.readouterr().err

    def test_band_violation_surfaces(self, tmp_path, capsys):
        text = (
            "model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            "scheme.kind = binomial_variable\nscheme.h = 2^-6\n"
            "functional.payoff = terminal_identity\n"
            "check.kinds = config\ncheck.probes_y = 0.01\ncheck.probes_t = 0.0\n"
            "run.seed = 5\n"
        )
        path = write(tmp_path, "check.cfg", text)
        assert main(["check", path]) == 2
        assert "band" in capsys.readouterr().out

    @pytest.mark.parametrize("probes_t", ["0.5, 1.0", "1.5", "-0.5", "nan"])
    def test_probe_time_outside_unit_interval_refused(self, tmp_path, capsys, probes_t):
        # t = 1 once printed r1 = nan FAIL rows and t = -0.5 passed as ok
        text = (
            "model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            "scheme.kind = euler\nscheme.h = 2^-6\n"
            "functional.payoff = terminal_identity\n"
            f"check.kinds = all\ncheck.probes_t = {probes_t}\ncheck.n_draws = 1000\n"
            "ui.n_paths = 200\nrun.seed = 5\n"
        )
        assert main(["check", write(tmp_path, "check.cfg", text)]) == 64
        assert "check.probes_t" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["check.probes_y", "check.probes_t"])
    def test_empty_probe_list_refused(self, tmp_path, capsys, key):
        # an empty list once printed `scheme ...: pass` for every kernel
        # without measuring one moment; the parser refuses it
        text = CONSTANT_CFG + f"check.kinds = all\ncheck.n_draws = 1000\n{key} =\n"
        assert main(["check", write(tmp_path, "check.cfg", text)]) == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"config error: config key {key!r}: "
                           "expected at least one number, got ''\n")

    @pytest.mark.parametrize("kinds", [",", ""])
    def test_empty_scheme_list_refused(self, tmp_path, capsys, kinds):
        # an empty list once checked no scheme and exited 0; check.kinds is
        # now a word, so the parser refuses it
        text = CONSTANT_CFG + f"check.n_draws = 1000\ncheck.kinds = {kinds}\n"
        assert main(["check", write(tmp_path, "check.cfg", text)]) == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("config error: config key 'check.kinds': expected one of config, all, "
                           f"got {kinds!r}\n")

    def test_truncated_final_step_passes(self, tmp_path, capsys):
        # at t = 0.99 the last step is 0.01 = 0.64 h: a probe passes on its
        # moment residuals, and dt / h is reported, not judged
        text = (
            "model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            "scheme.kind = euler\nscheme.h = 2^-6\nfunctional.payoff = constant\n"
            "check.kinds = all\ncheck.probes_t = 0.99\ncheck.n_draws = 100000\n"
            "run.seed = 52\n"
        )
        assert main(["check", write(tmp_path, "check.cfg", text)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("scheme")] == [
            "scheme euler: pass", "scheme binomial_fixed: pass",
            "scheme binomial_variable: pass"]
        probes = [line for line in out if line.startswith("  probe")]
        assert len(probes) == 9
        assert all(line.endswith("dt/h=0.64 ok") for line in probes)
        # the tolerance h, printed once a line, and no tag
        assert all(line.count("(tol 1.562e-02)") == 1 and "[" not in line for line in probes)

    def test_ui_sample_failure_names_its_stream(self, tmp_path, capsys):
        # check's fresh tail sample reports a failed path as price does
        text = (
            "model.kind = gbm\nmodel.sigma = 1e120\nmodel.x0 = 1\n"
            "scheme.kind = euler\nscheme.h = 2^-6\n"
            "functional.payoff = terminal_identity\nrun.allow_linear = true\n"
            "check.n_draws = 1000\nui.n_paths = 100\nrun.n_paths = 100\n"
        )
        path = write(tmp_path, "c.cfg", text)
        expected = ("error: stream 0: path simulation failed: "
                    "non-finite drift/diffusion evaluation\n")
        for command in ("price", "check"):
            assert main([command, path]) == 1
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", expected)


class TestCliCounterexample:
    def test_bessel(self, capsys):
        assert main(["counterexample", "bessel", "--paths", "40000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "0.68" in out

    @pytest.mark.parametrize("flag, value", [("--paths", "7"), ("--seed", "3")])
    def test_tangency_refuses_draw_flags(self, capsys, flag, value):
        # tangency draws nothing, so both flags used to be ignored with exit 0
        assert main(["counterexample", "tangency", flag, value]) == 64
        assert flag in capsys.readouterr().err

    def test_strong_small(self, capsys):
        # --paths sets the repetitions: the rows are those of n_rep = 10
        from pathfunc.estimator import counterexample_strong
        assert main(["counterexample", "strong", "--paths", "10"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:4]
        assert rows == [f"{n:8d} {scaled:16.4f} {se:8.4f} {exact:8.4f} {ref:14.4f}"
                        for n, scaled, se, exact, ref in counterexample_strong(n_rep=10).rows]

    @pytest.mark.parametrize("name, paths", [("bessel", "0"), ("bessel", "-5"),
                                             ("bessel", "1"), ("strong", "-3"),
                                             ("strong", "0")])
    def test_paths_below_two_refused(self, capsys, name, paths):
        # 0 used to run the default, -5 to raise a traceback, 1 and -3 to
        # print NaN or -0.0000 rows
        assert main(["counterexample", name, "--paths", paths]) == 64
        assert "--paths" in capsys.readouterr().err

    def test_workers_refused(self):
        # counter-examples run in one process and never read a worker count
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "tangency", "--workers", "2"])
        assert exc.value.code == 2


class TestCliConverge:
    def test_grid_minimum_enforced(self, tmp_path, capsys, monkeypatch):
        # a refused grid exits 64 before the uniform-integrability gate simulates
        from pathfunc import estimator
        monkeypatch.setattr(estimator, "ui_diagnostic", None)
        for payoff, grid in (("constant", "0.1, 0.05"), ("terminal_identity", "2^-6, 2^-8"),
                             ("terminal_identity", "0.1, 0.05, 0.05")):
            text = (
                "model.kind = gbm\nmodel.r = 0.0\nmodel.sigma = 0.2\nmodel.x0 = 1.0\n"
                "scheme.kind = euler\nscheme.h = 0.1\n"
                f"functional.payoff = {payoff}\nfunctional.strike = 1.0\n"
                f"run.n_paths = 16\nrun.h_grid = {grid}\n"
            )
            path = write(tmp_path, "c.cfg", text)
            assert main(["converge", path]) == 64
            assert "run.h_grid" in capsys.readouterr().err

    def test_small_convergence_run_with_oracle(self, tmp_path, capsys):
        text = (
            "model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            "scheme.kind = euler\nscheme.h = 2^-4\n"
            "functional.payoff = up_in_call\nfunctional.strike = 0.5\n"
            "functional.barrier_level = 1.0\n"
            "run.n_paths = 2000\nrun.seed = 4\nrun.h_grid = 2^-4, 2^-5, 2^-6\n"
            "run.allow_linear = true\noutput.format = csv\n"
        )
        path = write(tmp_path, "c.cfg", text)
        assert main(["converge", path]) == 0
        out = capsys.readouterr().out
        assert "oracle = 0.2629996714" in out

    @pytest.mark.parametrize("x0, oracle", [("0.95", "0.497581291"), ("0.8", "0")])
    def test_zero_volatility_oracle(self, tmp_path, capsys, x0, oracle):
        # the path x0 e^{rt} knocks in at barrier 1 from 0.95 but not from
        # 0.8; the closed form once divided by sigma = 0 in a traceback
        text = (
            f"model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0\nmodel.x0 = {x0}\n"
            "scheme.kind = euler\nfunctional.payoff = up_in_call\n"
            "functional.strike = 0.5\nfunctional.barrier_level = 1.0\n"
            "run.n_paths = 16\nrun.h_grid = 2^-4, 2^-5, 2^-6\n"
        )
        assert main(["converge", write(tmp_path, "c.cfg", text)]) == 0
        assert f"oracle = {oracle} (reflection-principle closed form)" in capsys.readouterr().out

    @pytest.mark.parametrize("x0", ["1.0", "0.8"])
    def test_unset_strike_has_an_oracle(self, tmp_path, capsys, x0):
        # functional.strike defaults to 0, where the closed form once divided
        # by zero in a traceback; from x0 = 1 the call is knocked in at the start
        text = (
            f"model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = {x0}\n"
            "scheme.kind = euler\nfunctional.payoff = up_in_call\n"
            "functional.barrier_level = 1.0\n"
            "run.n_paths = 200\nrun.h_grid = 2^-3, 2^-4, 2^-5\nrun.allow_linear = true\n"
        )
        assert main(["converge", write(tmp_path, "c.cfg", text)]) == 0
        oracle = oracles.up_and_in_call_price(float(x0), 0.0, 1.0, 0.1, 0.3)
        assert np.isfinite(oracle)
        assert f"oracle = {oracle:.10g} (reflection-principle closed form)" in \
            capsys.readouterr().out

    def test_converge_simulates_each_path_once(self, tmp_path, capsys, monkeypatch):
        # a linear payoff's gate reads the sweep's rows: no second sample
        from pathfunc.estimator import convergence_study
        from pathfunc.functionals import custom_terminal
        from pathfunc.models import gbm
        from pathfunc.schemes import SchemeConfig
        text = (
            "model.kind = gbm\nmodel.r = 0.0\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            "scheme.kind = euler\nfunctional.payoff = terminal_identity\n"
            "run.n_paths = 400\nrun.seed = 4\nrun.h_grid = 2^-3, 2^-4, 2^-5\n"
            "output.format = csv\nrun.timing = false\n"
        )
        rep = convergence_study(gbm(0.0, 0.3, 0.8), SchemeConfig("euler", h=2**-3),
                                custom_terminal("identity"), [2**-3, 2**-4, 2**-5], 400, 4)
        no_second_sample(monkeypatch)
        assert main(["converge", write(tmp_path, "c.cfg", text)]) == 0
        gate, header, *rows = capsys.readouterr().out.splitlines()
        assert gate.startswith("ui diagnostic: pass")
        assert rows == [e.csv_row(timing=False) for _, e in rep.rows]

    def test_linear_payoff_clears_ui_gate(self, tmp_path, capsys):
        # as price does: on the Euler chains of gbm with sigma = 2 the tail
        # at the gate's largest cutoff, 32, stays above TAIL_TOL at every h,
        # so no row is priced
        text = (
            "model.kind = gbm\nmodel.sigma = 2\nscheme.kind = euler\n"
            "functional.payoff = terminal_identity\n"
            "run.n_paths = 400\nrun.h_grid = 2^-4, 2^-6, 2^-8\n"
        )
        assert main(["converge", write(tmp_path, "c.cfg", text)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("ui diagnostic: FAIL") and "refusing to price" in out
        assert "mean" not in out


REFUSAL_CFG = """
model.kind = gbm
model.x0 = 0.8
scheme.kind = euler
scheme.h = 2^-3
functional.payoff = terminal_identity
run.n_paths = 16
run.h_grid = 2^-3, 2^-4, 2^-5
check.n_draws = 1000
ui.n_paths = 100
"""


@pytest.mark.parametrize("command, line, key", [
    ("converge", "scheme.kind = bogus", "scheme.kind"),
    ("converge", "run.h_grid = 2, 1, 0.5", "run.h_grid"),
    ("check", "run.h_grid = 2, 0.5", "run.h_grid"),
    ("check", "check.kinds = euler, bogus", "check.kinds"),
])
def test_refused_scheme_value_names_its_key(tmp_path, capsys, command, line, key):
    # every scheme a command runs is built, and refused, before any work
    path = write(tmp_path, "c.cfg", REFUSAL_CFG + line + "\n")
    assert main([command, path]) == 64
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, model, kind, reason", [
    ("price", "inverse_bessel3", "binomial_variable", "declares no sigma band"),
    ("converge", "stoch_vol", "binomial_fixed", "binomial kernels require d = d1 = 1"),
    ("check", "inverse_bessel3", "binomial_variable", "declares no sigma band"),
])
def test_kernel_the_model_cannot_run_names_scheme_kind(tmp_path, capsys, command, model,
                                                       kind, reason):
    # these once exited 1 with `error: ...`, naming no key
    text = (REFUSAL_CFG.replace("model.kind = gbm", f"model.kind = {model}")
            .replace("scheme.kind = euler", f"scheme.kind = {kind}"))
    assert main([command, write(tmp_path, "c.cfg", text)]) == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("config error: section 'scheme', key 'scheme.kind': ")
    assert reason in out.err


def test_check_kind_the_model_cannot_run_is_an_error_row(tmp_path, capsys):
    # a check.kinds entry is measured, not refused: its probe is an ERROR row;
    # inverse_bessel3 starts at the default x0 = 1
    text = (REFUSAL_CFG.replace("model.kind = gbm\nmodel.x0 = 0.8", "model.kind = inverse_bessel3")
            .replace("functional.payoff = terminal_identity", "functional.payoff = constant")
            + "check.kinds = all\n")
    assert main(["check", write(tmp_path, "c.cfg", text)]) == 2
    out = capsys.readouterr().out.splitlines()
    i = out.index("scheme binomial_variable: FAIL")
    assert out[i + 1].startswith("  probe y=nan t=nan: ERROR model 'inverse_bessel3' "
                                 "declares no sigma band")


@pytest.mark.parametrize("kind, payoff, line, refused", [
    ("gbm", "terminal_call", "model.rho = 0.9", True),
    ("gbm", "terminal_call", "model.y0 = 3", True),
    ("inverse_bessel3", "terminal_identity", "model.y0 = 3", True),
    ("inverse_bessel3", "terminal_identity", "model.rho = 0.9", True),
    ("inverse_bessel3", "terminal_identity", "model.sigma = 0.3", True),
    ("inverse_bessel3", "terminal_identity", "model.x0 = 0.8", False),  # its start value
    ("inverse_bessel3", "constant", "model.r = 0.05", True),
    ("inverse_bessel3", "terminal_identity", "model.r = 0.05", False),  # discounts by it
])
@pytest.mark.parametrize("command", ["price", "converge", "check"])
def test_model_key_the_run_does_not_read_is_refused(tmp_path, capsys, command, kind, payoff,
                                                    line, refused):
    # model.rho = 0.9 on a gbm terminal_call once printed the unchanged row
    text = (REFUSAL_CFG.replace("model.kind = gbm\nmodel.x0 = 0.8", f"model.kind = {kind}")
            .replace("functional.payoff = terminal_identity", f"functional.payoff = {payoff}")
            + f"{line}\nrun.allow_linear = true\n")
    code = main([command, write(tmp_path, "c.cfg", text)])
    out = capsys.readouterr()
    key = line.split(" =")[0]
    if refused:
        assert (code, out.out) == (64, "")
        assert out.err == f"config error: config key {key!r}: model {kind} does not read it\n"
    else:  # the run goes on: its Euler chains may yet explode (exit 1)
        assert code != 64 and "config error" not in out.err


@pytest.mark.parametrize("argv", [["price", "{cfg}"], ["converge", "{cfg}"], ["check", "{cfg}"],
                                  ["price", "{cfg}", "--seed", "{seed}"],
                                  ["check", "{cfg}", "--seed", "{seed}"],
                                  ["counterexample", "strong", "--seed", "{seed}"],
                                  ["counterexample", "bessel", "--seed", "{seed}"]])
def test_seed_outside_64_bits_refused(tmp_path, capsys, argv):
    # seeds were reduced modulo 2^64: -1 printed the rows of 2^64 - 1, and
    # 2^64 those of 0
    where = "--seed" if "--seed" in argv else "section 'run', key 'run.seed'"
    for seed in (-1, 2**64):
        cfg = write(tmp_path, "c.cfg", REFUSAL_CFG + f"run.seed = {seed}\n")
        assert main([a.format(cfg=cfg, seed=seed) for a in argv]) == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"config error: {where}: a seed must lie in [0, 2^64), got {seed}\n"


CALL_CFG = (REFUSAL_CFG.replace("terminal_identity", "terminal_call")
            + "functional.strike = 0.5\nrun.timing = false\n")


@pytest.mark.parametrize("command", ["price", "converge", "check"])
def test_bad_run_seed_refused_under_the_seed_flag(tmp_path, capsys, command):
    # --seed once replaced run.seed before it was checked, so a file with
    # run.seed = -1 ran under --seed 5 and failed without it
    cfg = write(tmp_path, "c.cfg", CALL_CFG + "run.seed = -1\n")
    assert main([command, cfg, "--seed", "5"]) == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("config error: section 'run', key 'run.seed': "
                       "a seed must lie in [0, 2^64), got -1\n")


def test_seed_flag_overrides_a_valid_run_seed(tmp_path, capsys):
    assert main(["price", write(tmp_path, "c.cfg", CALL_CFG + "run.seed = 3\n"), "--seed", "5"]) == 0
    flag = capsys.readouterr().out
    assert main(["price", write(tmp_path, "c.cfg", CALL_CFG + "run.seed = 5\n")]) == 0
    assert capsys.readouterr().out == flag
    assert main(["price", write(tmp_path, "c.cfg", CALL_CFG + "run.seed = 3\n")]) == 0
    assert capsys.readouterr().out != flag


def test_largest_seed_prices(tmp_path, capsys):
    # 2^64 - 1 is the last seed a stream takes, from the flag as from the file
    cfg = REFUSAL_CFG + "run.allow_linear = true\nrun.timing = false\n"
    assert main(["price", write(tmp_path, "c.cfg", cfg), "--seed", str(2**64 - 1)]) == 0
    flag = capsys.readouterr().out
    assert main(["price", write(tmp_path, "c.cfg", cfg + f"run.seed = {2**64 - 1}\n")]) == 0
    assert capsys.readouterr().out == flag


class TestCliSkorohodDist:
    def test_distance_of_shifted_steps(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "t,value\n0,0\n0.5,1\n1,1\n")
        b = write(tmp_path, "b.csv", "0,0\n0.51,1\n1,1\n")
        assert main(["skorohod-dist", a, b]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.01, abs=1e-12)

    @pytest.mark.parametrize("bad_line", ["0.5,x", "0.5", "0,2", "0.5,nan", "inf,1",
                                          "0.5,1,junk", "T,junk", "t,value"])
    def test_malformed_csv_is_config_error(self, tmp_path, capsys, bad_line):
        # a row is exactly t,value and the header comes before the first row:
        # 0.5,1,junk once read as (0.5, 1), and T,junk was skipped as a header
        a = write(tmp_path, "a.csv", "t,value\n0,0\n1,1\n")
        b = write(tmp_path, "b.csv", f"t,value\n0,0\n{bad_line}\n1,1\n")
        assert main(["skorohod-dist", a, b]) == 64
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{b}, line 3" in err

    def test_unreadable_csv_is_config_error(self, tmp_path, capsys):
        # as for a config: a directory or a file that is not UTF-8 once ended
        # in a traceback with exit 1
        a = write(tmp_path, "a.csv", "t,value\n0,0\n1,1\n")
        binary = tmp_path / "b.csv"
        binary.write_bytes(b"t,value\n0,0\n\xff,1\n")
        for path in (tmp_path, binary):
            for argv in ([a, str(path)], [str(path), a]):
                assert main(["skorohod-dist", *argv]) == 64
                out = capsys.readouterr()
                assert out.out == "" and out.err.startswith(f"config error: {path}: cannot read it: ")

class TestStartupImports:
    """scipy serves only the oracles and the exact samplers (reciprocal
    Bessel, the largest of n suprema of |B|), so a fresh interpreter loads it
    only when one of them runs, and no command loads ``scipy.integrate``.
    ``price`` starts no thread and loads no ``concurrent.futures``, even when
    ``estimate`` splits its paths across forked processes."""

    SCRIPT = """
import contextlib, io, json, os, sys, threading
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = {}
import pathfunc, pathfunc.cli as cli
seen["import"] = loaded()
seen["threads"] = [threading.active_count()]
os.sched_getaffinity, cli.estimator._MIN_RANGE = (lambda pid: range(2)), 2  # price forks
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["price", sys.argv[1]]) == 0
seen["price"] = loaded()
seen["threads"].append(threading.active_count())
seen["futures"] = "concurrent.futures" in sys.modules  # scipy.special loads it later
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["counterexample", "strong", "--paths", "20"]) == 0
assert "strictly increasing: " in out.getvalue()
seen["strong"] = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["converge", sys.argv[2]]) == 0
assert "oracle = " in out.getvalue()
seen["converge"] = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out:
    cli.main(["counterexample", "bessel", "--paths", "2000"])
assert "oracle E[Z(1)] = 0.682689" in out.getvalue()
seen["bessel"] = loaded()
print(json.dumps(seen))
"""

    def test_scipy_loads_only_when_an_oracle_runs(self, tmp_path):
        import json
        import subprocess
        import sys
        here = os.path.dirname(__file__)
        with open(os.path.join(here, os.pardir, "configs", "monthly_barrier.cfg")) as f:
            barrier = f.read().replace("run.n_paths = 5000", "run.n_paths = 200")
        assert barrier.count(" = 200\n") == 1
        converge = (
            "model.kind = gbm\nmodel.r = 0.1\nmodel.sigma = 0.3\nmodel.x0 = 0.8\n"
            "scheme.kind = euler\nfunctional.payoff = up_in_call\n"
            "functional.strike = 0.5\nfunctional.barrier_level = 1.0\n"
            "run.n_paths = 200\nrun.h_grid = 2^-3, 2^-4, 2^-5\n"
            "run.allow_linear = true\nui.n_paths = 200\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, write(tmp_path, "b.cfg", barrier),
             write(tmp_path, "c.cfg", converge)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["import"] == []
        assert seen["threads"] == [1, 1] and seen["futures"] is False
        assert seen["price"] == []
        # the law of sup |B| needs the normal CDF, and its mean a fixed rule
        assert "scipy.special" in seen["strong"]
        assert not [m for m in seen["strong"] if m.startswith(("scipy.integrate", "scipy.stats"))]
        assert "scipy.special" in seen["converge"]
        assert not [m for m in seen["converge"] if m.startswith("scipy.stats")]
        assert not [m for m in seen["bessel"] if m.startswith("scipy.integrate")]
