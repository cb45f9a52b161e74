import numpy as np
import numpy.testing as npt
import pytest

from pathfunc.models import (gbm, inverse_bessel3, sample_reciprocal_bessel3_stopped,
                             stoch_vol)
from pathfunc.oracles import reciprocal_bessel3_mean
from pathfunc.schemes import RngStream, SchemeConfig, simulate_path


class TestGbm:
    def test_coefficients(self):
        m = gbm(0.1, 0.3, 0.8)
        y = np.array([[2.0]])
        assert m.drift(y, 0.0)[0, 0] == pytest.approx(0.2)
        assert m.diffusion(y, 0.0)[0, 0, 0] == pytest.approx(0.6)

    def test_construction_errors(self):
        with pytest.raises(ValueError):
            gbm(0.1, -0.3, 0.8)
        with pytest.raises(ValueError):
            gbm(0.1, 0.3, 0.0)

    def test_zero_dynamics_special_case(self):
        m = gbm(0.0, 0.0, 1.0)
        p = simulate_path(m, SchemeConfig("euler", h=0.25), RngStream(0))
        npt.assert_array_equal(p.values, np.ones(5))

    def test_driftless_is_martingale(self):
        m = gbm(0.0, 0.4, 0.7)
        streams = [RngStream(5, i) for i in range(4000)]
        from pathfunc.schemes import simulate_terminals
        term = simulate_terminals(m, SchemeConfig("euler", h=2**-7), streams)[:, 0]
        se = term.std(ddof=1) / np.sqrt(term.size)
        assert abs(term.mean() - 0.7) <= 3 * se


class TestLipschitz:
    def test_gbm_ratio_bounded_by_max_r_sigma(self):
        # |phi(y1,t1) - phi(y2,t2)| / (|y1-y2| + |t1-t2|^(1/2)) for drift and
        # diffusion on random pairs in [0, 10] x [0, 1] stays within max(|r|, sigma)
        m = gbm(0.1, 0.3, 0.8)
        rng = np.random.default_rng(1)
        y1, y2 = rng.uniform(0.0, 10.0, (2, 800, 1))
        t1, t2 = rng.uniform(0.0, 1.0, (2, 800, 1))  # one time per row
        den = np.abs(y1 - y2) + np.sqrt(np.abs(t1 - t2))
        for phi in (m.drift, m.diffusion):
            num = np.abs(phi(y1, t1) - phi(y2, t2)).reshape(den.shape)
            assert np.max(num / den) <= max(0.1, 0.3) + 1e-9


class TestInverseBessel3:
    def test_driftless_quadratic_volatility(self):
        m = inverse_bessel3(1.0)
        y = np.array([[3.0]])
        assert m.drift(y, 0.0)[0, 0] == 0.0
        assert abs(m.diffusion(y, 0.0)[0, 0, 0]) == pytest.approx(9.0)


class TestStochVol:
    def test_invariants(self):
        for bad in (dict(x0=-1.0), dict(x0=0.0), dict(y0=0.0), dict(y0=-1.0),
                    dict(rho=1.5), dict(rho=-1.01), dict(sigma=0.0), dict(sigma=-0.3)):
            with pytest.raises(ValueError):
                stoch_vol(**{"r": 0.1, "sigma": 0.3, "x0": 1.0, **bad})
        stoch_vol(0.1, 0.3, 1.0, rho=-1.0, y0=1e-3, vol_of_vol=0.2)  # the edges are allowed

    def test_degenerate_reduces_to_gbm_bitwise(self):
        # same normal draws: the stock coordinate reproduces gbm exactly
        sv = stoch_vol(r=0.1, sigma=0.3, x0=0.8, rho=0.5)
        g = gbm(0.1, 0.3, 0.8)
        cfg = SchemeConfig("euler", h=2**-6)
        noise = RngStream(11, 0).generator().standard_normal((64, 2))
        p_sv = simulate_path(sv, cfg, None, forced_noise=noise)
        p_g = simulate_path(g, cfg, None, forced_noise=noise[:, :1])
        npt.assert_array_equal(p_sv.values[:, 0], p_g.values)
        assert np.all(p_sv.values[:, 1] == 1.0)

    def test_correlation_mixing_rho_one(self):
        m = stoch_vol(r=0.0, sigma=0.3, x0=1.0, rho=1.0, vol_of_vol=0.2)
        s = m.diffusion(np.array([[1.0, 1.0]]), 0.0)[0]
        # with rho = 1 the factor row loads only on the first noise column
        assert s[1, 0] == pytest.approx(0.2)
        assert s[1, 1] == 0.0

    def test_zero_correlation_of_driver_increments(self):
        # sample-correlation oracle over 1e6 increment pairs
        m = stoch_vol(r=0.0, sigma=0.3, x0=1.0, vol_of_vol=0.2)
        n = 10**6
        xi = RngStream(21, 0).generator().standard_normal((n, 2))
        s = m.diffusion(np.ones((1, 2)), 0.0)[0]
        dW = s[0, 0] * xi[:, 0] + s[0, 1] * xi[:, 1]
        dB = s[1, 0] * xi[:, 0] + s[1, 1] * xi[:, 1]
        corr = np.corrcoef(dW, dB)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(n)


class TestStoppedReciprocalBessel:
    def test_mean_is_initial_value(self):
        # bounded martingale: expectation exactly z0 for any cap
        gen = RngStream(3, 0, namespace=7).generator()
        draws = sample_reciprocal_bessel3_stopped(1.0, 64.0, 200000, gen)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 3 * se
        assert np.all(draws <= 64.0) and np.all(draws > 0.0)

    def test_uncapped_mean_matches_oracle(self):
        gen = RngStream(4, 0, namespace=7).generator()
        draws = sample_reciprocal_bessel3_stopped(1.0, None, 200000, gen)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - reciprocal_bessel3_mean(1.0)) <= 3.5 * se

    def test_absorption_mass_near_reflection_formula(self):
        cap = 16.0
        gen = RngStream(5, 0, namespace=7).generator()
        draws = sample_reciprocal_bessel3_stopped(1.0, cap, 200000, gen)
        from scipy.stats import norm
        p_hit = (1.0 / cap) * 2.0 * norm.cdf(1.0 / cap - 1.0)
        frac = np.mean(draws == cap)
        se = np.sqrt(p_hit * (1 - p_hit) / draws.size)
        assert abs(frac - p_hit) <= 4 * se

    def test_cap_must_exceed_start(self):
        gen = RngStream(6, 0).generator()
        with pytest.raises(ValueError):
            sample_reciprocal_bessel3_stopped(1.0, 0.5, 10, gen)
