import json
import os
import signal
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import set_cpus
from pathfunc.errors import EstimationError, PreconditionError, SimulationError
from pathfunc.estimator import (convergence_study, counterexample_bessel,
                                counterexample_strong, counterexample_tangency,
                                estimate, tail_report, ui_diagnostic)
from pathfunc.functionals import (FunctionalSpec, constant_payoff,
                                  custom_terminal, discrete_barrier_call, evaluate,
                                  observe_args_batch, payoff_values)
from pathfunc.models import SdeModel, gbm, inverse_bessel3
from pathfunc.oracles import reciprocal_bessel3_mean
from pathfunc.paths import BarrierPair, SampleVector
from pathfunc.schemes import (RngStream, SchemeConfig, simulate_path,
                              simulate_terminals, simulate_values)

GBM = gbm(0.1, 0.3, 0.8)
CFG = SchemeConfig("euler", h=2**-6)


def terminal_spec(payoff_batch):
    """A payoff of the terminal value (argument 1 of each row)."""
    nu = SampleVector.uniform(1)
    return FunctionalSpec(m=1, nu1=nu, nu2=nu, nu3=nu, nu4=nu, payoff_batch=payoff_batch,
                          bounded=False, barriers=BarrierPair.unbounded())


class TestEstimate:
    def test_constant_payoff_exact(self):
        est = estimate(GBM, CFG, constant_payoff(2.5), 100, seed=0)
        assert est.mean == 2.5 and est.stderr == 0.0
        assert est.ci95 == (2.5, 2.5)

    def test_driftless_terminal_matches_start(self):
        m = gbm(0.0, 0.3, 0.8)
        est = estimate(m, CFG, custom_terminal("identity"), 20000, seed=1)
        assert abs(est.mean - 0.8) <= 3 * est.stderr

    def test_bitwise_reproducibility(self):
        a = estimate(GBM, CFG, custom_terminal("call", strike=0.5), 5000, seed=9)
        b = estimate(GBM, CFG, custom_terminal("call", strike=0.5), 5000, seed=9)
        assert a.mean == b.mean and a.stderr == b.stderr

    @pytest.mark.parametrize("workers", [0, 2, 4, 7])
    def test_workers_other_than_one_refused(self, workers):
        # the process count comes from the CPUs; workers sets nothing
        with pytest.raises(PreconditionError):
            estimate(GBM, CFG, custom_terminal("call", strike=0.5), 64, seed=9,
                     workers=workers)

    def test_stderr_scaling_with_sample_size(self):
        spec = custom_terminal("call", strike=0.5)
        ratios = []
        for seed in (11, 12, 13, 14):
            small = estimate(GBM, CFG, spec, 4000, seed=seed)
            big = estimate(GBM, CFG, spec, 16000, seed=seed)
            ratios.append(big.stderr / small.stderr)
        # quadrupling the sample roughly halves the standard error
        assert 0.4 <= float(np.mean(ratios)) <= 0.6

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            estimate(GBM, CFG, constant_payoff(1.0), 1, seed=0)
        with pytest.raises(PreconditionError):
            estimate(GBM, CFG, constant_payoff(1.0), 10, seed=0, workers=0)

    def test_simulation_failure_carries_stream_id(self):
        exploding = SdeModel(
            "exploding", 1, 1,
            drift=lambda y, t: np.where(t > 0.5, np.inf, 0.0) * np.ones_like(y),
            diffusion=lambda y, t: np.zeros_like(y)[..., None],
            y0=np.array([1.0]))
        with pytest.raises(EstimationError) as exc:
            estimate(exploding, CFG, constant_payoff(1.0), 8, seed=0)
        assert exc.value.stream_id == 0  # every path explodes; the first is named

    def test_tree_simulation_failure_names_stream(self):
        # the drift turns infinite once a path climbs above 2
        m = SdeModel("blowup", 1, 1,
                     drift=lambda y, t: np.where(y > 2.0, np.inf, 0.0),
                     diffusion=lambda y, t: np.ones_like(y)[..., None],
                     y0=np.array([1.0]), sigma_eps=0.5)
        cfg = SchemeConfig("binomial_variable", h=2**-6)

        def fails(i):
            try:
                simulate_path(m, cfg, RngStream(0, i))
            except SimulationError:
                return True
            return False

        first_bad = next(i for i in range(100) if fails(i))
        assert first_bad > 0
        with pytest.raises(EstimationError) as exc:
            estimate(m, cfg, constant_payoff(1.0), 100, seed=0)
        assert exc.value.stream_id == first_bad

    def test_tree_band_violation_names_stream(self):
        # sigma jumps to 5, outside the band (0.5, 2), once a path climbs
        # above 2; with sigma = 1 below, every step is h and jumps 1/8
        m = SdeModel("jumpvol", 1, 1,
                     drift=lambda y, t: np.zeros_like(y),
                     diffusion=lambda y, t: np.where(y > 2.0, 5.0, 1.0)[..., None],
                     y0=np.array([1.0]), sigma_eps=0.5)
        h = 2**-6

        def leaves_band(i):
            gen = RngStream(0, i).generator()
            y, t = 1.0, 0.0
            while t < 1.0:
                if y > 2.0:
                    return True
                y += np.sqrt(h) * float(gen.integers(0, 2) * 2 - 1)
                t += h
            return False

        first_bad = next(i for i in range(100) if leaves_band(i))
        assert first_bad > 0
        with pytest.raises(EstimationError, match="outside the declared band") as exc:
            estimate(m, SchemeConfig("binomial_variable", h=h), constant_payoff(1.0),
                     100, seed=0)
        assert exc.value.stream_id == first_bad

    def test_nan_batch_payoff_raises_with_first_bad_stream(self):
        # NaN wherever the terminal value ends above 1
        cfg = SchemeConfig("euler", h=2**-4)
        spec = terminal_spec(lambda x: np.where(x[:, 1] <= 1.0, x[:, 1], np.nan))
        _, values = simulate_values(GBM, cfg, [RngStream(0, i) for i in range(100)])
        first_bad = int(np.argmax(values[:, -1, 0] > 1.0))
        assert first_bad > 0
        with pytest.raises(EstimationError) as exc:
            estimate(GBM, cfg, spec, 100, seed=0)
        assert exc.value.stream_id == first_bad

    @pytest.mark.parametrize("kind", ["euler", "binomial_variable"])
    def test_scalar_payoff_failure_names_stream(self, kind):
        # a payoff written for one path and mapped over the rows of the
        # block, NaN above 1 on some paths
        cfg = SchemeConfig(kind, h={"euler": 2**-4, "binomial_variable": 2**-8}[kind])
        spec = terminal_spec(lambda x: np.array(
            [row[1] if row[1] <= 1.0 else float("nan") for row in x]))
        terminals = [simulate_path(GBM, cfg, RngStream(0, i)).values[-1] for i in range(100)]
        first_bad = int(np.argmax(np.array(terminals) > 1.0))
        assert first_bad > 0
        with pytest.raises(EstimationError) as exc:
            estimate(GBM, cfg, spec, 100, seed=0)
        assert exc.value.stream_id == first_bad

    def test_folded_batches_keep_group_sums(self, monkeypatch):
        # groups of 8 paths, 512 groups to a folded batch: the sums are still
        # taken group by group, in order, as when each group was its own batch
        from pathfunc import estimator
        monkeypatch.setattr(estimator, "_batch_size", lambda config, model: 8)
        spec = discrete_barrier_call(0.5, 1.0, 0.1, 4)
        n = 100
        est = estimate(GBM, CFG, spec, n, seed=5)
        total = total_sq = 0.0
        for start in range(0, n, 8):
            streams = [RngStream(5, i) for i in range(start, min(start + 8, n))]
            vals = payoff_values(spec, observe_args_batch(*simulate_values(GBM, CFG, streams),
                                                          spec))
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
        mean = total / n
        assert est.mean == mean
        assert est.stderr == float(np.sqrt((total_sq - n * mean * mean) / (n - 1) / n))

    def test_failure_in_later_group_names_failing_stream(self, monkeypatch):
        # 25 groups of 8 paths in one folded batch; the drift turns infinite
        # once a path climbs above 1.75, which first happens in group 2
        from pathfunc import estimator
        monkeypatch.setattr(estimator, "_batch_size", lambda config, model: 8)
        m = SdeModel("blowup", 1, 1,
                     drift=lambda y, t: np.where(y > 1.75, np.inf, 0.0),
                     diffusion=lambda y, t: np.full_like(y, 0.3)[..., None],
                     y0=np.array([1.0]))

        def fails(i):
            try:
                simulate_path(m, CFG, RngStream(0, i))
            except SimulationError:
                return True
            return False

        bad = [i for i in range(200) if fails(i)]
        assert bad and bad[0] >= 8
        with pytest.raises(EstimationError) as exc:
            estimate(m, CFG, constant_payoff(1.0), 200, seed=0)
        assert exc.value.stream_id in bad

    def test_finite_band_matches_per_path_reference(self):
        # a band the paths leave, and a payoff of tau-scaled z1 and z3 and
        # tau: the batched fold, which keeps every column, against evaluate
        # of each single path
        m = 2
        spec = FunctionalSpec(m=m, nu1=SampleVector([0.5, 1.0]), nu2=SampleVector([0.5, 1.0]),
                              nu3=SampleVector([0.25, 1.0]), nu4=SampleVector([0.5, 1.0]),
                              payoff_batch=lambda x: x[:, 0] + 2.0 * x[:, 2 * m] + x[:, 4 * m],
                              bounded=False, barriers=BarrierPair(0.6, 1.1))
        n = 300
        vals = np.array([evaluate(simulate_path(GBM, CFG, RngStream(3, i)), spec)
                         for i in range(n)])
        taus = observe_args_batch(*simulate_values(GBM, CFG, [RngStream(3, i) for i in range(n)]),
                                  spec)[:, -1]
        assert 0 < np.count_nonzero(taus < 1.0) < n
        est = estimate(GBM, CFG, spec, n, seed=3)
        mean = float(np.sum(vals)) / n
        assert est.mean == mean
        assert est.stderr == float(np.sqrt((float(np.sum(vals * vals)) - n * mean * mean)
                                           / (n - 1) / n))

    def test_csv_row_format(self):
        est = estimate(GBM, CFG, constant_payoff(1.0), 16, seed=0)
        header = est.csv_header()
        row = est.csv_row(timing=False)
        assert header == "h,mean,stderr,ci_lo,ci_hi,n,elapsed"
        assert row.split(",")[1] == "1" and row.endswith("0.000")
        assert len(row.split(",")) == len(header.split(","))


TREE = SchemeConfig("binomial_variable", h=2**-8)  # the variable-step tree of the benchmark
TREE_SPECS = [custom_terminal("call", strike=0.5, r=0.1), discrete_barrier_call(0.5, 1.0, 0.1, 12)]


class TestTreeStream:
    def test_workload_row_pinned(self):
        # 10 000 paths in two streamed batches of 26 groups of 312 paths
        est = estimate(GBM, TREE, TREE_SPECS[0], 10000, seed=0)
        assert (est.mean, est.stderr) == (0.34973352838473992, 0.0024002647720187164)

    @pytest.mark.parametrize("spec", TREE_SPECS, ids=["terminal_call", "discrete_barrier_call"])
    def test_no_byte_depends_on_the_batch(self, spec, monkeypatch):
        # one group a batch (33 batches), the default 26 groups (2 batches),
        # or every path in one batch: the same sums, group by group; with
        # m = 12 each row is sampled at 12 instants of its own grid
        from pathfunc import estimator
        runs = []
        for rows in (1, estimator._FOLD_ROWS, 10**6):
            monkeypatch.setattr(estimator, "_FOLD_ROWS", rows)
            runs.append(estimate(GBM, TREE, spec, 10000, seed=0))
        for est in runs[1:]:
            assert replace(est, elapsed=0.0) == replace(runs[0], elapsed=0.0)
            np.testing.assert_array_equal(est.values, runs[0].values)
        if spec.m == 12:
            assert (runs[0].mean, runs[0].stderr) == (0.23481639625549955, 0.0030503342993871063)

    def test_memory_does_not_grow_with_the_steps(self, monkeypatch):
        # an unbounded band streams 2000 rows at once: a row keeps its state,
        # its samples and 32 words of signs, not its path (about 36 steps at
        # h = 2^-6, 570 at h = 2^-10, where its path would take 18 MB).
        # One process, so tracemalloc sees every row
        set_cpus(monkeypatch, 1)
        bounded = SdeModel("bounded_vol", 1, 1, drift=lambda y, t: 0.05 * np.ones_like(y),
                           diffusion=lambda y, t: (0.5 + 0.3 * np.sin(y))[..., None],
                           y0=np.array([1.0]), sigma_eps=0.15)
        spec = TREE_SPECS[1]
        estimate(bounded, replace(TREE, h=2**-6), spec, 16, seed=0)  # one-time set-up
        peaks = []
        for h in (2**-6, 2**-10):
            tracemalloc.start()
            try:
                estimate(bounded, replace(TREE, h=h), spec, 2000, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_finite_band_is_one_group_a_batch(self, monkeypatch):
        # a finite band keeps whole paths, so a batch is one stored group of
        # 1249 paths at h = 2^-6; an unbounded band streams them all at once.
        # One process, so the spy sees every batch
        from pathfunc import estimator
        set_cpus(monkeypatch, 1)
        sizes, states = [], estimator._grid_states
        monkeypatch.setattr(estimator, "_grid_states",
                            lambda m, c, keys: sizes.append(len(keys)) or states(m, c, keys))
        nu = SampleVector.uniform(1)
        band = FunctionalSpec(m=1, nu1=nu, nu2=nu, nu3=nu, nu4=nu, bounded=True,
                              payoff_batch=lambda x: x[:, -1], barriers=BarrierPair(0.5, 1.2))
        cfg = replace(TREE, h=2**-6)
        assert estimate(GBM, cfg, band, 3000, seed=0).mean < 1.0
        assert sizes == [1249, 1249, 502]
        sizes.clear()
        estimate(GBM, cfg, TREE_SPECS[0], 3000, seed=0)
        assert sizes == [3000]


def raise_unpicklable():
    class Local(Exception):
        pass
    raise Local("odd")


class TestProcessSplit:
    """``estimate`` prices ranges of 2 or more paths in up to 3 processes,
    however many CPUs there are; every failure raises in the caller, and
    no child outlives the call."""

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch):
        from pathfunc import estimator
        monkeypatch.setattr(estimator, "_MIN_RANGE", 2)
        set_cpus(monkeypatch, 3)
        yield estimator
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)

    def test_values_ignore_the_split(self, split, monkeypatch):
        runs = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            runs.append(estimate(GBM, CFG, custom_terminal("call", strike=0.5), 1001, seed=9))
        for est in runs[1:]:
            assert replace(est, elapsed=0.0) == replace(runs[0], elapsed=0.0)
            np.testing.assert_array_equal(est.values, runs[0].values)

    def test_each_range_sends_one_value_per_path(self, split, monkeypatch):
        # a range pipes back its payoff values alone: one float64 per path
        parts, real = [], split._priced

        def spy(price, n, min_range):
            parts.extend(real(price, n, min_range))
            return parts
        monkeypatch.setattr(split, "_priced", spy)
        est = estimate(GBM, CFG, custom_terminal("call", strike=0.5), 1001, seed=9)
        assert [(type(p), p.dtype, p.shape) for p in parts] == [
            (np.ndarray, np.float64, (333,)), (np.ndarray, np.float64, (334,)),
            (np.ndarray, np.float64, (334,))]
        np.testing.assert_array_equal(est.values, np.concatenate(parts))

    def test_lowest_failing_stream_over_ranges(self, split, monkeypatch):
        # the drift turns infinite once a path climbs above 1.8: in three
        # ranges of the first failing stream's length, the caller's range
        # has no failure and both children's have some
        m = SdeModel("blowup", 1, 1, drift=lambda y, t: np.where(y > 1.8, np.inf, 0.0),
                     diffusion=lambda y, t: 0.5 * np.ones_like(y)[..., None],
                     y0=np.array([1.0]))
        cfg = SchemeConfig("euler", h=2**-4)

        def fails(i):
            try:
                simulate_path(m, cfg, RngStream(1, i))
            except SimulationError:
                return True
            return False
        bad = [i for i in range(200) if fails(i)]
        n = 3 * bad[0]
        assert bad[0] > 0 and any(2 * bad[0] <= i < n for i in bad)
        errors = []
        for cpus in (1, 3):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(EstimationError) as exc:
                estimate(m, cfg, constant_payoff(1.0), n, seed=1)
            errors.append((exc.value.stream_id, str(exc.value)))
        assert errors[1] == errors[0] == (bad[0], f"stream {bad[0]}: path simulation failed: "
                                                  "non-finite drift/diffusion evaluation")

    @pytest.mark.parametrize("end, error, match", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), EstimationError, "0 bytes, status -9"),
        (lambda: os._exit(3), EstimationError, "0 bytes, status 3"),
        (lambda: os._exit(0), EstimationError, "0 bytes, status 0"),
        (lambda: {}["unexpected"], KeyError, "unexpected"),
        (raise_unpicklable, RuntimeError, "Local: odd"),
    ], ids=["killed", "exit_3", "no_payload", "exception", "unpicklable"])
    def test_a_failing_child_raises(self, split, monkeypatch, end, error, match):
        real = split._grid_states

        def states(model, config, keys):
            if keys[0][0] > 0:  # a child's range: stream ids from 1 up, namespace 0
                end()
            return real(model, config, keys)
        monkeypatch.setattr(split, "_grid_states", states)
        with pytest.raises(error, match=match):
            estimate(GBM, CFG, constant_payoff(1.0), 300, seed=0)

    def test_interrupt_kills_the_children(self, split, monkeypatch):
        import time
        real = split._grid_states

        def states(model, config, keys):
            if keys[0][0] == 0:  # the caller's range: stream 0 of namespace 0
                raise KeyboardInterrupt
            time.sleep(60)
            return real(model, config, keys)
        monkeypatch.setattr(split, "_grid_states", states)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            estimate(GBM, CFG, constant_payoff(1.0), 300, seed=0)
        assert time.perf_counter() - t0 < 30

    def test_unflushed_stdout_is_written_once(self, tmp_path):
        # a child ends by os._exit, so it never flushes the stdout it inherits
        import subprocess
        import sys
        from conftest import TREE_CFG
        script = ("import os, sys\nfrom pathfunc import cli, estimator\n"
                  "os.sched_getaffinity = lambda pid: range(2)\nestimator._MIN_RANGE = 2\n"
                  "print('unflushed line')\nsys.exit(cli.main(['price', sys.argv[1]]))\n")
        cfg, out = tmp_path / "tree.cfg", tmp_path / "out.txt"
        cfg.write_text(TREE_CFG)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # block-buffered
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        with open(out, "w") as f:
            proc = subprocess.run([sys.executable, "-c", script, str(cfg)], stdout=f,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        assert text.count("unflushed line") == 1 and text.count("h,mean") == 1


    def test_bessel_rows_ignore_the_process_split(self, split, monkeypatch):
        # each row draws from its own key (seed, 0, 500 + k): one row per
        # process moves no byte
        real, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        monkeypatch.setattr(split, "_FORK_DRAWS", 1)
        reports = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            forks.clear()
            reports.append(counterexample_bessel(n_paths=2000, seed=4))
            assert len(forks) == cpus - 1
        assert reports[1] == reports[0] and reports[2] == reports[0]


class TestUiDiagnostic:
    def test_gbm_linear_passes(self):
        spec = custom_terminal("identity")
        rep = ui_diagnostic(GBM, CFG, spec, [2**-4, 2**-6], n_paths=4000, seed=0)
        assert rep.passed
        assert rep.sup_second_moment < 2.0

    def test_capped_reciprocal_bessel_fails(self):
        spec = custom_terminal("identity")
        rep = ui_diagnostic(inverse_bessel3(1.0), SchemeConfig("euler", h=2**-6),
                            spec, [2**-4, 2**-6, 2**-8], n_paths=20000, seed=0)
        assert not rep.passed
        # mass of about (1 - E[Z(1)]) sits at the cap and does not vanish
        tail_gap = 1.0 - reciprocal_bessel3_mean(1.0)
        worst = max(tails[-1] for _, _, tails, _ in rep.rows)
        assert worst > 0.5 * tail_gap
        assert [cap for _, cap, _, _ in rep.rows] == [2.0**4, 2.0**6, 2.0**8]

    def test_flagship_gate_rows_unchanged(self):
        # the shipped barrier config's gate: 4000 paths x 12288 steps, in
        # noise blocks rather than one 393 MB array, with the same rows
        spec = discrete_barrier_call(0.5, 1.0, 0.1, 12)
        cfg = SchemeConfig("euler", h=1 / 12288)
        rep = ui_diagnostic(GBM, cfg, spec, [cfg.h], n_paths=4000, seed=12061)
        assert rep.rows == [(cfg.h, None, [0.0, 0.0, 0.0, 0.0, 0.0], 0.14255244664658584)]

    def test_empty_grid_rejected(self):
        with pytest.raises(PreconditionError):
            ui_diagnostic(GBM, CFG, custom_terminal("identity"), [], seed=0)

    @pytest.mark.parametrize("config, n", [
        (SchemeConfig("euler", h=2**-6), 20000),  # two estimate batches at h = 2^-8
        (SchemeConfig("binomial_variable", h=2**-6), 2000),
    ], ids=["euler", "tree"])
    def test_rows_are_those_of_the_terminal_kernel(self, config, n):
        # estimate prices the sample in namespace 1000 + k; the identity at
        # r = 0 gives each X^h(1) as its value, and the kernel is elementwise,
        # so its batches give the one-block terminals bit for bit
        hs = [2**-6, 2**-8]
        rep = ui_diagnostic(GBM, config, custom_terminal("identity"), hs, n_paths=n, seed=3)
        schemes = [replace(config, h=h) for h in hs]
        want = tail_report(
            (s.h, None,
             simulate_terminals(GBM, s, [RngStream(3, i, 1000 + k) for i in range(n)])[:, 0])
            for k, s in enumerate(schemes))
        assert rep.rows == want.rows

    @pytest.mark.parametrize("config, band", [
        (SchemeConfig("euler", h=2**-6), BarrierPair.unbounded()),     # sampled columns
        (SchemeConfig("euler", h=2**-6), BarrierPair(-np.inf, 1.2)),  # every column
        (SchemeConfig("binomial_variable", h=2**-6), BarrierPair.unbounded()),
    ])
    def test_estimate_keeps_the_priced_values(self, config, band):
        # every priced path's payoff value, bit for bit, against the stored
        # paths observed afresh
        spec = replace(discrete_barrier_call(0.5, 1.0, 0.1, 4), barriers=band)
        est = estimate(GBM, config, spec, 300, seed=7, namespace=3)
        streams = [RngStream(7, i, 3) for i in range(300)]
        g = payoff_values(spec, observe_args_batch(*simulate_values(GBM, config, streams), spec))
        assert 0 < np.count_nonzero(g) < 300 and np.array_equal(est.values, g)
        rep = tail_report([(config.h, None, est.values)])
        assert rep.rows[0][3] == float(np.mean(g ** 2))

    def test_nan_row_fails_the_gate(self):
        # a NaN tail is not at most TAIL_TOL, wherever its row falls
        fine, nan = np.array([0.5, 1.0]), np.array([np.nan, 1.0])
        for values in ([nan, fine], [fine, nan]):
            rep = tail_report(zip([CFG.h, 2**-7], [None, None], values))
            assert not rep.passed and np.isnan(rep.sup_second_moment)
        assert tail_report([(CFG.h, None, fine)]).passed


class TestConvergenceStudy:
    def test_deterministic_model_hits_oracle_exactly(self):
        frozen = SdeModel("frozen", 1, 1,
                          drift=lambda y, t: np.zeros_like(y),
                          diffusion=lambda y, t: np.zeros_like(y)[..., None],
                          y0=np.array([1.0]))
        rep = convergence_study(frozen, CFG, constant_payoff(4.0),
                                [2**-3, 2**-4, 2**-5], n_paths=50, seed=0,
                                oracle=4.0)
        assert all(est.mean == 4.0 for _, est in rep.rows)
        assert rep.errors == [0.0, 0.0, 0.0]
        assert not rep.non_convergence_flag

    def test_grid_validation(self):
        with pytest.raises(PreconditionError):
            convergence_study(GBM, CFG, constant_payoff(1.0), [0.1, 0.2, 0.05],
                              n_paths=10, seed=0)
        with pytest.raises(PreconditionError):
            convergence_study(GBM, CFG, constant_payoff(1.0), [0.1, 0.05],
                              n_paths=10, seed=0)

    def test_rows_keep_grid_order(self):
        rep = convergence_study(GBM, CFG, constant_payoff(1.0),
                                [2**-3, 2**-4, 2**-5], n_paths=16, seed=0)
        assert [h for h, _ in rep.rows] == [2**-3, 2**-4, 2**-5]


class TestCounterexamples:
    def test_tangency_exact_values(self):
        rep = counterexample_tangency()
        assert rep.tau == 0.5
        assert rep.c_class == "C4"
        assert all(v == 1.0 for v in rep.tau_h.values())
        assert rep.passed

    def test_bessel_capped_mean_vs_oracle(self):
        rep = counterexample_bessel(n_paths=60000, seed=4)
        assert rep.oracle == pytest.approx(reciprocal_bessel3_mean(1.0), rel=1e-9)
        h, cap, mean, se = rep.rows[-1]
        assert cap == 2**8
        assert abs(mean - 1.0) <= 3 * se
        assert rep.gap_significant
        assert rep.passed

    def test_strong_error_grows(self):
        rep = counterexample_strong(n_rep=20, seed=5)
        assert rep.strictly_increasing
        assert [row[0] for row in rep.rows] == [100, 1000, 10000]
        # magnitudes track sqrt(2 log N) within a loose band
        for _, scaled, _, exact, ref in rep.rows:
            assert 0.7 * ref <= scaled <= 1.1 * ref
            assert 0.7 * ref <= exact <= ref

    def test_strong_report_is_json(self):
        rep = counterexample_strong(n_rep=2, seed=1)
        assert type(rep.strictly_increasing) is bool
        json.dumps({"rows": rep.rows, "strictly_increasing": rep.strictly_increasing})

    def test_strong_repetitions_replay_from_their_keys(self):
        # repetition r of row k is the first uniform of stream (4, r, 600 + k),
        # mapped alone through the exact quantile of M_N
        from pathfunc.models import sample_sup_abs_bm_max
        from pathfunc.oracles import sup_abs_bm_max_mean
        rep = counterexample_strong(n_rep=3, seed=4)
        for k, (N, scaled, se, exact, ref) in enumerate(rep.rows):
            sup = [float(sample_sup_abs_bm_max(N, RngStream(4, r, 600 + k).generator().random()))
                   for r in range(3)]
            assert scaled == float(np.mean(sup))
            assert se == float(np.std(sup, ddof=1) / np.sqrt(3))
            assert (exact, ref) == (sup_abs_bm_max_mean(N), float(np.sqrt(2.0 * np.log(N))))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_strong_rows_lie_near_their_exact_mean(self, seed):
        # the draws are exact, so no discretisation bias separates the two
        # columns: 4 stderr holds each row with probability 0.99994
        for _, scaled, se, exact, _ in counterexample_strong(n_rep=200, seed=seed).rows:
            assert abs(scaled - exact) <= 4.0 * se


class TestDiscreteBarrierSmoke:
    def test_estimate_in_plausible_band(self):
        spec = discrete_barrier_call(0.5, 1.0, 0.1, 12)
        cfg = SchemeConfig("euler", h=1 / 1536)
        est = estimate(GBM, cfg, spec, 4000, seed=8)
        # coarse run stays in the neighbourhood of the fine-step value
        assert 0.20 <= est.mean <= 0.27


class TestBoundedMeanStaysInBand:
    def test_mean_of_bounded_payoff_within_bound(self):
        from pathfunc.functionals import FunctionalSpec
        from pathfunc.paths import BarrierPair, SampleVector
        nu = SampleVector([1.0])
        spec = FunctionalSpec(
            m=1, nu1=nu, nu2=nu, nu3=nu, nu4=nu,
            payoff_batch=lambda x: np.tanh(x[:, 1]),
            bounded=True, barriers=BarrierPair.unbounded())
        est = estimate(GBM, CFG, spec, 2000, seed=17)
        assert -1.0 <= est.mean <= 1.0
        assert est.ci95[0] <= est.mean <= est.ci95[1]
