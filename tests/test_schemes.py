import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import set_cpus
from pathfunc.errors import PreconditionError, SimulationError
from pathfunc.models import SdeModel, gbm, stoch_vol
from pathfunc.schemes import (SCHEME_KINDS, RngStream, SchemeConfig, _grid_states,
                              binomial_variable_step, check_local_consistency,
                              fixed_time_grid, simulate_path, simulate_terminals,
                              simulate_values)

PROBES = [(y, t) for y in (0.5, 1.0, 2.0) for t in (0.0, 0.5)]


def frozen_model():
    return SdeModel("frozen", 1, 1,
                    drift=lambda y, t: np.zeros_like(y),
                    diffusion=lambda y, t: np.zeros_like(y)[..., None],
                    y0=np.array([1.0]))


def bounded_vol_model(y0=1.0):
    """sigma in [0.2, 0.8] everywhere: safe band for the variable-step tree."""
    return SdeModel(
        "bounded_vol", 1, 1,
        drift=lambda y, t: 0.05 * np.ones_like(y),
        diffusion=lambda y, t: (0.5 + 0.3 * np.sin(y))[..., None],
        y0=np.array([y0]),
        sigma_eps=0.15,
    )


def sign_block(streams, n):
    """The tree's first n signs of every stream, as a (B, n) block."""
    from pathfunc.schemes import _stream_signs
    sign, rows = _stream_signs([s.key for s in streams]), np.arange(len(streams))
    return np.hstack([sign(k, rows) for k in range(n)])


class TestRngStream:
    def test_reproducible_and_distinct(self):
        a = RngStream(1, 0).generator().standard_normal(8)
        b = RngStream(1, 0).generator().standard_normal(8)
        c = RngStream(1, 1).generator().standard_normal(8)
        d = RngStream(2, 0).generator().standard_normal(8)
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_namespace_separates(self):
        a = RngStream(1, 0, namespace=0).generator().standard_normal(8)
        b = RngStream(1, 0, namespace=1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_pool_matches_fresh_generators(self, monkeypatch):
        # 7 streams x 2 noise columns in blocks of 3 steps (the budget holds
        # a block and its tile): every stream keeps its own reseated row
        # from block to block; a grid of one block seats one row per stream
        from pathfunc import schemes
        monkeypatch.setattr(schemes, "_BATCH_ELEMENTS", 2 * 7 * 2 * 3)
        streams = [RngStream(9, i, namespace=3) for i in range(7)]
        for n_steps, sizes in ((11, [3, 3, 3, 2]), (3, [3])):
            blocks = [b.copy() for b in
                      schemes._noise_blocks([s.key for s in streams], "euler", n_steps, 2)]
            assert [b.shape[0] for b in blocks] == sizes
            noise = np.concatenate(blocks)  # time-major (n_steps, 7, 2)
            for i, s in enumerate(streams):
                npt.assert_array_equal(noise[:, i], s.generator().standard_normal((n_steps, 2)))

    def test_pool_falls_back_to_fresh_generators(self, monkeypatch):
        # a reseat onto the wrong key fails the self-check, and the draws
        # then come from fresh generators, unchanged
        from pathfunc import schemes
        orig = schemes._reseat
        monkeypatch.setattr(schemes, "_reseat", lambda gen, key, st: orig(
            gen, (key[0] + 1, key[1]), st))
        monkeypatch.setattr(schemes, "_BATCH_ELEMENTS", 5 * 4)
        schemes._reseat_is_exact.cache_clear()
        try:
            assert not schemes._reseat_is_exact()
            streams = [RngStream(9, i, namespace=3) for i in range(5)]
            keys = [s.key for s in streams]
            noise = np.concatenate([b.copy() for b in
                                    schemes._noise_blocks(keys, "binomial_fixed", 10, 1)])
            signs = sign_block(streams, 130)  # three windows of raw words
            for i, s in enumerate(streams):
                npt.assert_array_equal(noise[:, i, 0],
                                       np.copysign(1.0, s.generator().random(10) - 0.5))
                npt.assert_array_equal(signs[i], s.generator().integers(0, 2, size=130) * 2.0 - 1)
        finally:
            schemes._reseat_is_exact.cache_clear()

    def test_changed_state_layout_falls_back(self, monkeypatch):
        # a Philox state with other fields than the reseat writes is refused
        # before any reseat, and the draws come from fresh generators
        from pathfunc import schemes
        orig = schemes._int_state
        monkeypatch.setattr(schemes, "_int_state", lambda: {**orig(), "generation": 0})
        schemes._reseat_is_exact.cache_clear()
        try:
            assert not schemes._reseat_is_exact()
            s = RngStream(9, 1, 3)
            noise = next(schemes._noise_blocks([s.key], "euler", 5, 1))
            npt.assert_array_equal(noise[:, 0, 0], s.generator().standard_normal(5))
        finally:
            schemes._reseat_is_exact.cache_clear()

    def test_interleaved_iterators_match_fresh_generators(self, monkeypatch):
        # two live state streams on a grid of several noise blocks hold
        # disjoint rows, and give them back when they end or are closed
        import gc
        from pathfunc import schemes
        gc.collect()  # rows held by earlier failures' tracebacks go back now, not mid-test
        monkeypatch.setattr(schemes, "_BATCH_ELEMENTS", 2 * 3 * 4)  # blocks of 4 steps
        m, cfg = gbm(0.1, 0.3, 1.0), SchemeConfig("euler", h=0.1)
        groups = [[RngStream(5, i, namespace=k) for i in range(3)] for k in (1, 2)]
        free = len(schemes._FREE_ROWS)
        runs = [_grid_states(m, cfg, [s.key for s in g])[1] for g in groups]
        got = [[], []]
        for pair in zip(*runs):
            for k, y in enumerate(pair):
                got[k].append(y.copy())
        for run in runs:
            assert next(run, None) is None
        assert len(schemes._FREE_ROWS) == max(free, 6)
        for k, g in enumerate(groups):
            for i, s in enumerate(g):
                p = simulate_path(m, cfg, None, forced_noise=s.generator().standard_normal((10, 1)))
                npt.assert_array_equal(np.stack(got[k])[:, i, 0], p.values)
        states = _grid_states(m, cfg, [s.key for s in groups[0]])[1]
        next(states), next(states)
        assert len(schemes._FREE_ROWS) == max(free, 6) - 3
        states.close()
        assert len(schemes._FREE_ROWS) == max(free, 6)

    def test_reseat_is_exact_on_this_numpy(self):
        # the reseat writes numpy's private Philox state layout: a numpy that
        # changes it fails here, not silently at 10-18 us a fresh generator
        from pathfunc import schemes
        schemes._reseat_is_exact.cache_clear()
        assert schemes._reseat_is_exact()

    def test_key_range_is_checked_on_every_route(self):
        # a stream id past 48 bits would spill into the namespace word: the
        # public entries' keys and estimate's batch keys refuse it as
        # generator() does, before any row is seated
        import gc
        from pathfunc import schemes
        from pathfunc.estimator import estimate
        from pathfunc.functionals import constant_payoff
        gc.collect()
        m, tree = gbm(0.1, 0.3, 1.0), bounded_vol_model()
        spec = constant_payoff(1.0)
        for bad in (RngStream(3, 2**48 + 5, 0), RngStream(3, 5, namespace=2**16),
                    RngStream(-1, 5, 1), RngStream(2**64, 5, 1)):
            with pytest.raises(ValueError):
                bad.generator()
            streams = [RngStream(3, i) for i in range(300)]
            streams[200] = bad  # in tile 1
            free = len(schemes._FREE_ROWS)
            for model, kind in ((m, "euler"), (m, "binomial_fixed"), (tree, "binomial_variable")):
                cfg = SchemeConfig(kind, h=0.1)
                for entry in (simulate_values, simulate_terminals):
                    with pytest.raises(ValueError):
                        entry(model, cfg, streams)
                with pytest.raises(ValueError):
                    simulate_path(model, cfg, bad)
            assert len(schemes._FREE_ROWS) == free
        for seed, ns, start, stop in ((3, 0, 2**48 - 1, 2**48 + 1), (3, 2**16, 0, 5),
                                      (-1, 1, 0, 5), (2**64, 1, 0, 5)):
            with pytest.raises(ValueError):
                schemes._stream_keys(seed, ns, start, stop)
            if start == 0:
                with pytest.raises(ValueError):
                    estimate(m, SchemeConfig("euler", h=0.1), spec, 10, seed, namespace=ns)
        for seed in (-1, 2**64):  # once reduced modulo 2^64, so -1 aliased 2^64 - 1
            with pytest.raises(ValueError, match="seed"):
                RngStream(seed, 5, 1).key
        assert RngStream(2**64 - 1, 5, 1).key == ((1 << 48) | 5, 2**64 - 1)

    @pytest.mark.parametrize("kind", ["euler", "binomial_fixed", "signs"])
    def test_edge_keys_draw_what_their_streams_draw(self, kind, monkeypatch):
        # the largest seed, namespace and stream ids: estimate's batch keys are
        # the RngStream list's, and draw as its fresh generators do, on one
        # noise block and on several, across the tile boundary (rows 127, 128)
        from pathfunc import schemes
        seed, ns, ids = 2**64 - 1, 2**16 - 1, range(2**48 - 200, 2**48)
        streams = [RngStream(seed, i, ns) for i in ids]
        keys = schemes._stream_keys(seed, ns, ids.start, ids.stop)
        assert keys == [s.key for s in streams]
        rows = (0, 127, 128, 199)
        if kind == "signs":
            block = sign_block(streams, 130)  # three windows of raw words
            for i in rows:
                want = streams[i].generator().integers(0, 2, size=130) * 2.0 - 1
                npt.assert_array_equal(block[i], want)
            return
        for budget, n_blocks in ((schemes._BATCH_ELEMENTS, 1), ((200 + 128) * 20, 4)):
            monkeypatch.setattr(schemes, "_BATCH_ELEMENTS", budget)
            blocks = [b.copy() for b in schemes._noise_blocks(keys, kind, 70, 1)]
            assert len(blocks) == n_blocks
            noise = np.concatenate(blocks)[:, :, 0]
            for i in rows:
                gen = streams[i].generator()
                want = (gen.standard_normal(70) if kind == "euler"
                        else np.copysign(1.0, gen.random(70) - 0.5))
                npt.assert_array_equal(noise[:, i], want)

    @pytest.mark.parametrize("kind", ["euler", "binomial_fixed"])
    def test_block_size_moves_no_byte(self, kind, monkeypatch):
        # 300 streams (two full tiles and a part) with d1 = 2 on one block and
        # on blocks of 150 steps, whose last is shorter
        from pathfunc import schemes
        streams = [RngStream(4, i, namespace=7) for i in range(300)]
        whole = schemes._BATCH_ELEMENTS
        for n_steps in (200, 1000):
            got = []
            for budget, sizes in ((whole, [n_steps]),
                                  ((300 + 128) * 2 * 150, [150] * (n_steps // 150) + [n_steps % 150])):
                monkeypatch.setattr(schemes, "_BATCH_ELEMENTS", budget)
                blocks = [b.copy() for b in
                          schemes._noise_blocks([s.key for s in streams], kind, n_steps, 2)]
                assert [b.shape[0] for b in blocks] == sizes
                got.append(np.concatenate(blocks))
            npt.assert_array_equal(got[0], got[1])
            for i in (0, 129, 299):
                gen = streams[i].generator()
                want = (gen.standard_normal((n_steps, 2)) if kind == "euler"
                        else np.copysign(1.0, gen.random((n_steps, 2)) - 0.5))
                npt.assert_array_equal(got[0][:, i], want)

    def test_concurrent_seats_share_no_state(self):
        # callers on several threads reseat rows at once, each through a state
        # dict of its own: four threads, switching as often as the interpreter allows
        import sys
        import threading
        from pathfunc import schemes
        groups = [[RngStream(5, i, namespace=w) for i in range(1500)] for w in range(4)]
        wrong = []

        def reseat(streams):
            with schemes._seated_rows(1) as seat:
                for s in streams:
                    if tuple(seat(0, s.key).bit_generator.state["state"]["key"]) != s.key:
                        wrong.append(s)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reseat, args=(g,)) for g in groups]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []

    def test_closed_stream_returns_its_rows(self, monkeypatch):
        # a half-read batch of several noise blocks gives back every row on close
        import gc
        from pathfunc import schemes
        gc.collect()
        monkeypatch.setattr(schemes, "_BATCH_ELEMENTS", (300 + 128) * 300)  # 300-step blocks
        m, cfg = gbm(0.1, 0.3, 1.0), SchemeConfig("euler", h=2**-10)
        streams = [RngStream(6, i) for i in range(300)]
        free = len(schemes._FREE_ROWS)
        states = _grid_states(m, cfg, [s.key for s in streams])[1]
        for _ in range(400):  # into the second block
            next(states)
        assert len(schemes._FREE_ROWS) == max(free, 300) - 300
        states.close()
        assert len(schemes._FREE_ROWS) == max(free, 300)


class TestSchemeConfig:
    def test_fields(self):
        import dataclasses
        assert [f.name for f in dataclasses.fields(SchemeConfig)] == ["kind", "h", "cap"]



class TestGrid:
    def test_exact_divisor(self):
        g = fixed_time_grid(0.25)
        npt.assert_allclose(g, [0, 0.25, 0.5, 0.75, 1.0])

    def test_truncated_final_step(self):
        g = fixed_time_grid(0.3)
        npt.assert_allclose(g, [0, 0.3, 0.6, 0.9, 1.0])
        assert g[-1] == 1.0

    def test_dyadic(self):
        g = fixed_time_grid(2**-10)
        assert g.size == 1025 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)


class TestEulerStep:
    def test_frozen_dynamics(self):
        p = simulate_path(frozen_model(), SchemeConfig("euler", h=0.01), RngStream(0))
        assert p.values[1] == 1.0 and p.times[1] == 0.01

    def test_forced_zero_noise_is_pure_drift(self):
        m = gbm(0.1, 0.3, 1.0)
        p = simulate_path(m, SchemeConfig("euler", h=0.01), None,
                          forced_noise=np.zeros((100, 1)))
        assert p.values[1] == pytest.approx(1.0 + 0.01 * 0.1, abs=1e-15)

    def test_final_step_truncates(self):
        # grid 0, 0.95, 1: the last step is cut to 0.05
        m = gbm(0.1, 0.3, 1.0)
        p = simulate_path(m, SchemeConfig("euler", h=0.95), None,
                          forced_noise=np.zeros((2, 1)))
        assert p.times[-1] == 1.0
        assert p.times[-1] - p.times[-2] == pytest.approx(0.05)
        assert p.values[-1] == pytest.approx(1.095 * (1.0 + 0.1 * 0.05), rel=1e-15)

    def test_moments_match_drift_and_diffusion(self):
        # one Euler step of length 1 from y = 2: dY = 0.2 + 0.6 N, so mean
        # b h = 0.2 and variance sigma^2 h = 0.36, within 4 standard errors
        m = gbm(0.1, 0.3, 2.0)
        n = 20000
        *_, last = _grid_states(m, SchemeConfig("euler", h=1.0),
                                [RngStream(31, i).key for i in range(n)])[1]
        dy = last[:, 0] - 2.0
        se_mean = dy.std(ddof=1) / np.sqrt(n)
        assert abs(dy.mean() - 0.2) <= 4 * se_mean
        var = dy.var(ddof=1)
        se_var = var * np.sqrt(2.0 / (n - 1))
        assert abs(var - 0.36) <= 4 * se_var

    def test_nonfinite_coefficients_raise(self):
        bad = SdeModel("bad", 1, 1,
                       drift=lambda y, t: np.full_like(y, np.inf),
                       diffusion=lambda y, t: np.ones_like(y)[..., None],
                       y0=np.array([1.0]))
        with pytest.raises(SimulationError):
            simulate_path(bad, SchemeConfig("euler", h=0.01), RngStream(0))

    def test_capped_infinite_drift_names_stream(self):
        # the error names the lowest failing row, though a higher row fails
        # on an earlier step
        g = gbm(0.1, 0.3, 1.0)
        bad = SdeModel("bad", 1, 1, diffusion=g.diffusion, y0=g.y0,
                       drift=lambda y, t: np.where((t >= 0.5) & (y > 1.0), np.inf, g.drift(y, t)))
        cfg = SchemeConfig("euler", h=2**-3)
        streams = [RngStream(1, i) for i in range(8)]
        values = simulate_values(g, cfg, streams)[1]
        fails = values[:, 4:-1, 0] > 1.0  # the states stepped from at t >= 1/2
        first = int(np.argmax(fails.any(axis=1)))
        col = 4 + int(np.argmax(fails[first]))
        assert first > 0 and col > 4 and fails[first + 1:, 0].any()
        with pytest.raises(SimulationError, match="non-finite drift/diffusion evaluation") as exc:
            for _ in _grid_states(bad, cfg, [s.key for s in streams])[1]:
                pass
        assert exc.value.batch_index == first

    def test_lowest_failing_row_is_named_when_it_fails_last(self):
        # forced noise: row 2 fails on its coefficients on the first step,
        # row 1 on its state on the second, row 0 on its coefficients on the
        # last; the batch names row 0 as row 0 alone fails, and the failed
        # rows' restarts leave row 3 as it is alone
        from pathfunc import schemes
        m = SdeModel("blowup", 1, 1, drift=lambda y, t: np.where(y > 2.0, np.inf, 0.0),
                     diffusion=lambda y, t: np.ones_like(y)[..., None], y0=np.array([1.0]))
        cfg = SchemeConfig("euler", h=0.25)
        noise = np.zeros((4, 4, 1))
        noise[:3, :, 0] = [[0, 0, 4, 0], [0, np.inf, 0, 0], [4, 0, 0, 0]]
        noise[3, :, 0] = [1, -1, 0.5, 0.5]
        states = schemes._grid_states(m, cfg, [None] * 4, noise)[1]
        got = []
        with pytest.raises(SimulationError) as exc:
            for y in states:
                got.append(y[3, 0])
        with pytest.raises(SimulationError) as alone:
            simulate_path(m, cfg, None, forced_noise=noise[0])
        assert exc.value.batch_index == 0 and len(got) == 5
        assert str(exc.value) == str(alone.value) == "non-finite drift/diffusion evaluation"
        npt.assert_array_equal(got, simulate_path(m, cfg, None, forced_noise=noise[3]).values)

    def test_finite_state_whose_sum_overflows_runs_on(self):
        # the screen's sum overflows; the exact check passes, silently
        import warnings
        huge = SdeModel("huge", 1, 1, drift=lambda y, t: np.zeros_like(y),
                        diffusion=lambda y, t: np.zeros_like(y)[..., None],
                        y0=np.array([1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            term = simulate_terminals(huge, SchemeConfig("euler", h=0.25),
                                      [RngStream(0, i) for i in range(4)])
        npt.assert_array_equal(term, 1e308)

    def test_overflow_is_named_without_a_warning(self):
        # drift 1e308 from 1e308 with h = 2^-7: the state first leaves the
        # floats on the step to t = 103/128, long before the last step.  The
        # error names the overflow and its row; numpy warns of nothing.
        import warnings
        steep = SdeModel("steep", 1, 1, drift=lambda y, t: np.full_like(y, 1e308),
                         diffusion=lambda y, t: np.zeros_like(y)[..., None],
                         y0=np.array([1e308]))
        streams = [RngStream(0, i) for i in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match="non-finite state") as exc:
                simulate_terminals(steep, SchemeConfig("euler", h=2**-7), streams)
            assert exc.value.batch_index == 0

    def test_terminal_mean_matches_exponential_growth(self):
        # E[X(1)] = x0 (1 + r h)^(1/h) for the Euler chain of GBM; at
        # h = 2^-6 that is within 1e-4 of x0 exp(r), far below 3.5 stderr
        n = 4000
        m = gbm(0.1, 0.3, 0.8)
        term = simulate_terminals(m, SchemeConfig("euler", h=2**-6),
                                  [RngStream(8, i, namespace=1) for i in range(n)])[:, 0]
        se = term.std(ddof=1) / np.sqrt(n)
        assert abs(term.mean() - 0.8 * np.exp(0.1)) <= 3.5 * se


def two_point_increments(model, h):
    """First-step increments of a binomial_fixed path under sign +1 and -1."""
    n_steps = fixed_time_grid(h).size - 1
    cfg = SchemeConfig("binomial_fixed", h=h)
    return [simulate_path(model, cfg, None, forced_noise=np.full((n_steps, 1), sign)).values[1]
            - model.y0[0] for sign in (1.0, -1.0)]


class TestBinomialFixed:
    def test_exact_conditional_moments(self):
        y, h = 1.5, 2**-5
        up, dn = two_point_increments(gbm(0.1, 0.3, y), h)
        mean = 0.5 * (up + dn)
        var = 0.5 * (up**2 + dn**2) - mean**2
        assert mean == pytest.approx(0.1 * y * h, rel=1e-12)
        assert var == pytest.approx((0.3 * y) ** 2 * h, rel=1e-12)

    def test_zero_volatility_deterministic(self):
        up, dn = two_point_increments(gbm(0.1, 0.0, 1.0), 0.01)
        assert up == dn == pytest.approx(0.1 * 0.01, rel=1e-12)

    def test_requires_scalar_model(self):
        # every simulation entry refuses a binomial kernel on a 2-d model
        m2 = stoch_vol(0.1, 0.3, 1.0)
        cfg = SchemeConfig("binomial_fixed", h=2**-4)
        streams = [RngStream(0, i) for i in range(3)]
        with pytest.raises(PreconditionError, match="d = d1 = 1"):
            simulate_values(m2, cfg, streams)
        with pytest.raises(PreconditionError, match="d = d1 = 1"):
            simulate_path(m2, cfg, streams[0])
        with pytest.raises(PreconditionError, match="d = d1 = 1"):
            simulate_terminals(m2, cfg, streams)
        rep = check_local_consistency(m2, cfg, [((1.0, 1.0), 0.0)], seed=0)
        assert not rep.passed and "d = d1 = 1" in rep.rows[0].note


def tree_step(model, y, t, h, sign):
    """One variable-step transition of a single state, as a batch of one."""
    dt, y_next = binomial_variable_step(model, np.array([[y]]), t, h, np.array([[sign]]))
    return float(dt[0, 0]), float(y_next[0, 0])


class TestBinomialVariable:
    def test_unit_volatility_reduces_to_fixed(self):
        m = SdeModel("unitvol", 1, 1,
                     drift=lambda y, t: 0.1 * np.ones_like(y),
                     diffusion=lambda y, t: np.ones_like(y)[..., None],
                     y0=np.array([1.0]), sigma_eps=0.5)
        h = 2**-5
        dt, y_next = tree_step(m, 1.0, 0.0, h, +1.0)
        assert dt == pytest.approx(h)
        assert y_next - 1.0 == pytest.approx(0.1 * h + np.sqrt(h))

    def test_variance_exactly_h(self):
        m = bounded_vol_model()
        h = 2**-6
        up = tree_step(m, 1.3, 0.2, h, +1.0)[1] - 1.3
        dn = tree_step(m, 1.3, 0.2, h, -1.0)[1] - 1.3
        mean = 0.5 * (up + dn)
        var = 0.5 * (up**2 + dn**2) - mean**2
        assert var == pytest.approx(h, rel=1e-12)

    def test_dt_within_quasi_uniform_band(self):
        m = bounded_vol_model()
        eps = m.sigma_eps
        h = 2**-6
        for y in (-2.0, 0.1, 1.0, 3.0):
            dt, _ = tree_step(m, y, 0.0, h, +1.0)
            assert h * eps**2 <= dt <= h / eps**2

    def test_band_violation_raises(self):
        m = gbm(0.1, 0.3, 1.0)  # declares eps = 0.1; sigma(0.01) = 0.003
        with pytest.raises(PreconditionError):
            tree_step(m, 0.01, 0.0, 2**-6, +1.0)

    def test_undeclared_band_refused(self):
        m = bessel_like = SdeModel("nodecl", 1, 1,
                                   drift=lambda y, t: np.zeros_like(y),
                                   diffusion=lambda y, t: np.ones_like(y)[..., None],
                                   y0=np.array([1.0]))
        with pytest.raises(PreconditionError):
            tree_step(m, 1.0, 0.0, 2**-6, +1.0)


def tree_reference(model, h, stream):
    """Plain-Python variable-step path: step k uses the stream's k-th scalar
    integers(0, 2) draw, dt = min(h / sigma^2, 1 - t), and lands on t = 1."""
    gen = stream.generator()
    t, y = 0.0, float(model.y0[0])
    ts, ys = [t], [y]
    while t < 1.0:
        b = float(model.drift(np.array([[y]]), t)[0, 0])
        sig = float(model.diffusion(np.array([[y]]), t)[0, 0, 0])
        dt = min(h / (sig * sig), 1.0 - t)
        y = y + b * dt + sig * math.sqrt(dt) * float(gen.integers(0, 2) * 2 - 1)
        t = 1.0 if t + dt >= 1.0 - 1e-15 else t + dt
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys)


class TestTreeBatch:
    def test_sign_block_equals_scalar_draws(self):
        # sign k is the stream's k-th scalar integers(0, 2) draw, read from
        # raw words in windows of 64, also when only some rows ask for it
        from pathfunc.schemes import _stream_signs
        streams = [RngStream(4, i, namespace=9) for i in range(5)]
        block = sign_block(streams, 200)
        expected = []
        for s in streams:
            gen = s.generator()
            expected.append([float(gen.integers(0, 2) * 2 - 1) for _ in range(200)])
        npt.assert_array_equal(block, expected)
        sign = _stream_signs([s.key for s in streams])
        for k in range(200):  # rows 0 and 3 leave after steps 70 and 130
            rows = np.array([i for i, end in enumerate((70, 200, 200, 130, 200)) if k < end])
            npt.assert_array_equal(sign(k, rows)[:, 0], block[rows, k])

    def test_batch_row_equals_single_path(self):
        m = bounded_vol_model()
        cfg = SchemeConfig("binomial_variable", h=2**-6)
        streams = [RngStream(42, i) for i in range(9)]
        times, values = simulate_values(m, cfg, streams)
        assert times.shape == values.shape[:2] and values.shape[2] == 1
        for i, s in enumerate(streams):
            p = simulate_path(m, cfg, s)
            n = p.times.size
            npt.assert_array_equal(times[i, :n], p.times)
            npt.assert_array_equal(values[i, :n, 0], p.values)
            assert np.all(times[i, n:] == 1.0)
            assert np.all(values[i, n:, 0] == p.values[-1])
        npt.assert_array_equal(simulate_terminals(m, cfg, streams), values[:, -1])

    def test_single_path_is_its_row_cut_at_its_first_t1(self):
        # a batch of one row stops at its own t = 1, so simulate_path needs
        # no padding strip; a shorter row of the 3-row batch is padded
        m = bounded_vol_model()
        cfg = SchemeConfig("binomial_variable", h=2**-6)
        streams = [RngStream(42, i) for i in range(3)]
        times, values = simulate_values(m, cfg, streams)
        ends = [int(np.argmax(row == 1.0)) + 1 for row in times]
        assert min(ends) < times.shape[1]
        for s, row_t, row_y, end in zip(streams, times, values, ends):
            p = simulate_path(m, cfg, s)
            npt.assert_array_equal(p.times, row_t[:end])
            npt.assert_array_equal(p.values, row_y[:end, 0])

    def test_time_dependent_sigma_matches_python_reference(self):
        # sigma grows with t, so each row must see its own time column
        m = SdeModel("timevol", 1, 1,
                     drift=lambda y, t: 0.1 * y,
                     diffusion=lambda y, t: (0.4 + 0.5 * t + 0.1 * np.sin(y))[..., None],
                     y0=np.array([1.0]), sigma_eps=0.25)
        h = 2**-5
        cfg = SchemeConfig("binomial_variable", h=h)
        streams = [RngStream(6, i) for i in range(12)]
        times, values = simulate_values(m, cfg, streams)
        lengths = set()
        for i, s in enumerate(streams):
            ts, ys = tree_reference(m, h, s)
            n = ts.size
            lengths.add(n)
            npt.assert_array_equal(times[i, :n], ts)
            npt.assert_array_equal(values[i, :n, 0], ys)
            assert np.all(times[i, n:] == 1.0) and np.all(values[i, n:, 0] == ys[-1])
        assert len(lengths) > 1  # the rows really have different grids

    def test_band_violation_names_lowest_row(self):
        # sigma jumps to 5, outside the band (0.5, 2), once a path climbs above 2
        m = SdeModel("jumpvol", 1, 1,
                     drift=lambda y, t: np.zeros_like(y),
                     diffusion=lambda y, t: np.where(y > 2.0, 5.0, 1.0)[..., None],
                     y0=np.array([1.0]), sigma_eps=0.5)
        cfg = SchemeConfig("binomial_variable", h=2**-6)
        streams = [RngStream(0, i) for i in range(40)]
        bad = []
        for i, s in enumerate(streams):
            try:
                simulate_path(m, cfg, s)
            except SimulationError as e:
                assert "outside the declared band" in str(e)
                bad.append(i)
        assert bad and bad[0] > 0
        with pytest.raises(SimulationError, match="outside the declared band") as exc:
            simulate_values(m, cfg, streams)
        assert exc.value.batch_index == bad[0]


class TestSimulatePath:
    def test_zero_dynamics_constant_path(self):
        p = simulate_path(frozen_model(), SchemeConfig("euler", h=0.125), RngStream(0))
        assert p.times.size == 9
        npt.assert_array_equal(p.values, np.ones(9))

    def test_bitwise_determinism(self):
        m = gbm(0.05, 0.2, 1.0)
        cfg = SchemeConfig("euler", h=2**-7)
        a = simulate_path(m, cfg, RngStream(42, 13, 2))
        b = simulate_path(m, cfg, RngStream(42, 13, 2))
        npt.assert_array_equal(a.values, b.values)

    def test_single_path_equals_batch_row(self):
        m = gbm(0.05, 0.2, 1.0)
        cfg = SchemeConfig("euler", h=2**-7)
        streams = [RngStream(42, i) for i in range(6)]
        times, vals = simulate_values(m, cfg, streams)
        for i in (0, 3, 5):
            p = simulate_path(m, cfg, streams[i])
            npt.assert_array_equal(p.values, vals[i, :, 0])
            npt.assert_array_equal(p.times, times)

    def test_binomial_paths_deterministic(self):
        m = bounded_vol_model()
        for kind in ("binomial_fixed", "binomial_variable"):
            cfg = SchemeConfig(kind, h=2**-6)
            a = simulate_path(m, cfg, RngStream(7, 3))
            b = simulate_path(m, cfg, RngStream(7, 3))
            npt.assert_array_equal(a.values, b.values)
            assert a.times[-1] == 1.0

    def test_variable_step_grid_lands_on_one(self):
        m = bounded_vol_model()
        p = simulate_path(m, SchemeConfig("binomial_variable", h=2**-6), RngStream(11, 5))
        assert p.times[0] == 0.0 and p.times[-1] == 1.0
        assert np.all(np.diff(p.times) > 0)

    @given(st.integers(0, 200))
    def test_quasi_uniformity_along_variable_paths(self, sid):
        m = bounded_vol_model()
        h = 2**-5
        p = simulate_path(m, SchemeConfig("binomial_variable", h=h), RngStream(77, sid))
        dts = np.diff(p.times)
        eps = m.sigma_eps
        # all interior steps obey the band; the final step may truncate
        assert np.all(dts[:-1] <= h / eps**2 * (1 + 1e-9))
        assert np.all(dts[:-1] >= h * eps**2 * (1 - 1e-9))
        assert dts[-1] <= h / eps**2 * (1 + 1e-9)

    def test_grid_count_bounded_by_quasi_uniformity(self):
        # step counts by time t stay within the declared K t / h budget
        m = bounded_vol_model()
        h = 2**-5
        K = 1.0 / m.sigma_eps**2
        for sid in range(20):
            p = simulate_path(m, SchemeConfig("binomial_variable", h=h),
                              RngStream(55, sid))
            for t_probe in (0.25, 0.5, 1.0):
                n_steps = int(np.searchsorted(p.times, t_probe, side="right")) - 1
                assert n_steps <= K * t_probe / h + 1

    @pytest.mark.parametrize("kind", ["euler", "binomial_fixed", "binomial_variable"])
    def test_rows_fit_max_times(self, kind):
        # the estimator sizes its batches by the longest row a scheme admits
        m, cfg = bounded_vol_model(), SchemeConfig(kind, h=2**-5)
        times, _ = simulate_values(m, cfg, [RngStream(55, sid) for sid in range(20)])
        assert times.shape[-1] <= cfg.max_times(m)
        if kind != "binomial_variable":  # every fixed-grid row is the longest
            assert times.shape[-1] == cfg.max_times(m)


class TestStreaming:
    @pytest.mark.parametrize("kind,model", [("euler", gbm(0.05, 0.2, 1.0)),
                                            ("binomial_fixed", gbm(0.05, 0.2, 1.0)),
                                            ("euler", stoch_vol(0.1, 0.3, 1.0))])
    def test_block_carry_matches_batch_of_one(self, kind, model, monkeypatch):
        # on a grid of 13 noise blocks, each batch row equals the stream run
        # alone in a single block, and terminals equal the stored paths' ends
        from pathfunc import schemes
        cfg = SchemeConfig(kind, h=2**-9)
        streams = [RngStream(21, i, namespace=4) for i in range(7)]
        alone = np.concatenate([simulate_terminals(model, cfg, [s]) for s in streams])
        monkeypatch.setattr(schemes, "_BATCH_ELEMENTS", 2 * 7 * model.dim_noise * 40)
        term = simulate_terminals(model, cfg, streams)
        _, values = simulate_values(model, cfg, streams)
        npt.assert_array_equal(term, alone)
        npt.assert_array_equal(values[:, -1], alone)
        states = [y.copy() for y in _grid_states(model, cfg, [s.key for s in streams])[1]]
        npt.assert_array_equal(np.stack(states, axis=1), values)

    def test_noise_memory_is_one_block(self, monkeypatch):
        # 1000 streams x 16384 steps would be 131 MB of noise at once; the
        # blocks keep it to 64 MB (block and tile) whatever the grid length.
        # One process: tracemalloc sees no forked child
        import tracemalloc
        from pathfunc.schemes import _BATCH_ELEMENTS
        set_cpus(monkeypatch, 1)
        B, h = 1000, 2**-14
        n_steps = fixed_time_grid(h).size - 1
        streams = [RngStream(3, i) for i in range(B)]
        tracemalloc.start()
        try:
            simulate_terminals(gbm(0.1, 0.3, 0.8), SchemeConfig("euler", h=h), streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert B * n_steps > _BATCH_ELEMENTS
        assert peak < 1.1 * 8 * _BATCH_ELEMENTS < 8 * B * n_steps

    def test_empty_batch_is_empty(self):
        # an empty batch draws nothing and steps nothing
        m, cfg = gbm(0.1, 0.3, 0.8), SchemeConfig("euler", h=0.25)
        assert simulate_terminals(m, cfg, []).shape == (0, 1)
        assert simulate_values(m, cfg, [])[1].shape == (0, 5, 1)

    def test_tree_states_stack_to_stored_batch(self):
        # the tree's stream stacks to its stored batch: per-row grids, padded after t = 1
        model, cfg = bounded_vol_model(), SchemeConfig("binomial_variable", h=2**-6)
        streams = [RngStream(8, i) for i in range(9)]
        times, values = simulate_values(model, cfg, streams)
        s_times, states = _grid_states(model, cfg, [s.key for s in streams])
        assert s_times is None  # each column brings its rows' times
        ts, ys = zip(*((t.copy(), y.copy()) for t, y in states))
        npt.assert_array_equal(np.hstack(ts), times)
        assert times.shape == values.shape[:2] and len(set(np.argmax(times == 1.0, axis=1))) > 1
        npt.assert_array_equal(np.stack(ys, axis=1), values)
        npt.assert_array_equal(simulate_terminals(model, cfg, streams), values[:, -1])


class TestSecondMomentStability:
    def test_bounded_across_h(self):
        # sample means of |Y^h(t)|^2 and of the squared running sup of the
        # increment sums stay bounded over a step-size sweep
        m = gbm(0.1, 0.3, 0.8)
        worst = 0.0
        worst_sup = 0.0
        for k, h in enumerate((2**-4, 2**-5, 2**-6, 2**-7, 2**-8)):
            cfg = SchemeConfig("euler", h=h)
            streams = [RngStream(13, i, namespace=20 + k) for i in range(10**4)]
            times, vals = simulate_values(m, cfg, streams)
            for t_probe in (0.25, 0.5, 1.0):
                idx = np.searchsorted(times, t_probe, side="right") - 1
                worst = max(worst, float(np.mean(vals[:, idx, 0] ** 2)))
                sup2 = np.max(np.abs(vals[:, : idx + 1, 0] - 0.8), axis=1) ** 2
                worst_sup = max(worst_sup, float(np.mean(sup2)))
        # E[X_t^2] <= 0.64 exp(0.29) ~ 0.857; generous fixed bounds
        assert worst < 2.0
        assert worst_sup < 3.0


class TestLocalConsistency:
    def test_euler_gbm_passes(self):
        rep = check_local_consistency(gbm(0.1, 0.3, 0.8), SchemeConfig("euler", h=2**-6), PROBES)
        assert rep.passed
        assert all(r.method == "enumeration" for r in rep.rows)
        assert max(max(r.r1, r.r2) for r in rep.rows) <= 1e-12

    def test_binomial_kernels_exact(self):
        for kind in ("binomial_fixed", "binomial_variable"):
            rep = check_local_consistency(gbm(0.1, 0.3, 0.8),
                                          SchemeConfig(kind, h=2**-6),
                                          PROBES, seed=3)
            assert rep.passed
            assert all(r.method == "enumeration" for r in rep.rows)
            assert max(r.r1 for r in rep.rows) <= 1e-12
            assert max(r.r2 for r in rep.rows) <= 1e-12

    def test_stoch_vol_cross_term_exact(self):
        # d1 = 2: the four points +/-sqrt(2) e_j give the correlated
        # covariance, its off-diagonal entry included, to rounding
        m = stoch_vol(0.1, 0.3, 0.8, rho=-0.6, vol_of_vol=0.4)
        rep = check_local_consistency(m, SchemeConfig("euler", h=2**-6), PROBES)
        assert rep.passed and len(rep.rows) == len(PROBES)
        assert max(max(r.r1, r.r2) for r in rep.rows) <= 1e-12

    def test_draw_parameters_are_inert(self):
        # n_draws and seed stay only because the benchmark passes them
        m = gbm(0.1, 0.3, 0.8)
        for kind in SCHEME_KINDS:
            cfg = SchemeConfig(kind, h=2**-6)
            rows = check_local_consistency(m, cfg, PROBES).rows
            for n_draws, seed in ((2, 0), (1000, 7), (10**6, 2**64 - 1)):
                assert check_local_consistency(m, cfg, PROBES, n_draws=n_draws,
                                               seed=seed).rows == rows

    def test_sabotaged_drift_flagged(self, monkeypatch):
        # a kernel whose step adds 0.1 y dt to the drift the model declares
        from pathfunc import schemes
        real = schemes._fixed_update

        def biased(model, y, t, dt, xi, out, mix):
            bad = real(model, y, t, dt, xi, out, mix)
            out += 0.1 * y * dt
            return bad
        monkeypatch.setattr(schemes, "_fixed_update", biased)
        rep = check_local_consistency(gbm(0.1, 0.3, 0.8), SchemeConfig("euler", h=2**-6),
                                      [(1.0, 0.0)])
        assert not rep.passed
        assert rep.rows[0].r1 == pytest.approx(0.1, abs=1e-12)

    def test_band_violation_surfaces_as_failed_row(self):
        rep = check_local_consistency(gbm(0.1, 0.3, 0.8),
                                      SchemeConfig("binomial_variable", h=2**-6),
                                      [(0.01, 0.0)], seed=3)
        assert not rep.passed
        assert "band" in rep.rows[0].note
