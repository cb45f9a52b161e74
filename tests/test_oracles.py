import numpy as np
import pytest

from pathfunc import oracles


class TestUpAndInCall:
    @pytest.mark.parametrize("s0,k,hb,r,sigma", [
        (0.8, 0.5, 1.0, 0.1, 0.3),
        (0.9, 0.7, 1.1, 0.05, 0.2),
        (0.5, 0.4, 1.5, 0.0, 0.5),
        (0.95, 0.2, 1.05, 0.02, 0.4),
    ])
    def test_closed_form_matches_quadrature(self, s0, k, hb, r, sigma):
        cf = oracles.up_and_in_call_price(s0, k, hb, r, sigma)
        qd = oracles.up_and_in_call_price_quadrature(s0, k, hb, r, sigma)
        assert cf == pytest.approx(qd, rel=1e-9, abs=1e-12)

    def test_dominated_by_vanilla(self):
        cf = oracles.up_and_in_call_price(0.8, 0.5, 1.0, 0.1, 0.3)
        assert 0.0 < cf < oracles.vanilla_call_price(0.8, 0.5, 0.1, 0.3)

    def test_monotone_in_barrier(self):
        lo = oracles.up_and_in_call_price(0.8, 0.5, 1.0, 0.1, 0.3)
        hi = oracles.up_and_in_call_price(0.8, 0.5, 1.2, 0.1, 0.3)
        assert hi < lo  # higher barrier: harder to knock in

    def test_barrier_below_strike_equals_vanilla(self):
        cf = oracles.up_and_in_call_price(0.8, 1.2, 1.0, 0.1, 0.3)
        assert cf == pytest.approx(oracles.vanilla_call_price(0.8, 1.2, 0.1, 0.3))

    def test_spot_at_barrier_knocked_in(self):
        cf = oracles.up_and_in_call_price(1.0, 0.5, 1.0, 0.1, 0.3)
        assert cf == pytest.approx(oracles.vanilla_call_price(1.0, 0.5, 0.1, 0.3))


class TestVanillaCall:
    def test_known_value(self):
        # spot 0.8, strike 0.5, r 0.1, sigma 0.3: standard lognormal integral
        v = oracles.vanilla_call_price(0.8, 0.5, 0.1, 0.3)
        mu = np.log(0.8) + 0.1 - 0.045
        # brute lognormal quadrature
        from scipy.integrate import quad
        f = lambda w: max(np.exp(mu + 0.3 * w) - 0.5, 0) * np.exp(-w * w / 2) / np.sqrt(2 * np.pi)
        ref = np.exp(-0.1) * quad(f, -10, 10)[0]
        assert v == pytest.approx(ref, rel=1e-9)

    def test_zero_volatility(self):
        assert oracles.vanilla_call_price(1.0, 0.5, 0.0, 0.0) == pytest.approx(0.5)


class TestBesselOracles:
    def test_reciprocal_mean_closed_matches_quadrature(self):
        for z0 in (0.5, 1.0, 2.0):
            cf = oracles.reciprocal_bessel3_mean(z0)
            qd = oracles.reciprocal_bessel3_mean_quadrature(z0)
            assert cf == pytest.approx(qd, rel=1e-9)

    def test_strict_local_martingale_gap(self):
        # started at 1 the mean after one unit of time is strictly below 1
        assert oracles.reciprocal_bessel3_mean(1.0) < 1.0
        assert oracles.reciprocal_bessel3_mean(1.0) == pytest.approx(0.6826894921, abs=1e-9)

    def test_density_normalizes(self):
        from scipy.integrate import quad
        from pathfunc.oracles import _bessel3_density
        total = quad(lambda y: _bessel3_density(y, 1.0), 0, 50, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-9)


class TestNormalCdf:
    """The oracles' normal CDF is ``scipy.special.ndtr``, which is what
    ``scipy.stats.norm.cdf`` evaluates; the shipped oracle values rest on it."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, np.nan]

    @staticmethod
    def assert_same_bits(got, want):
        assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_equals_scipy_stats_bit_for_bit(self):
        from scipy.stats import norm
        from pathfunc.models import _norm_cdf
        x = np.concatenate([np.random.default_rng(9).standard_normal(100_000) * 3.0,
                            self.SPECIAL])
        self.assert_same_bits(_norm_cdf(x), norm.cdf(x))
        for v in list(x[:200]) + self.SPECIAL:
            self.assert_same_bits(_norm_cdf(float(v)), norm.cdf(float(v)))

    def test_shipped_oracle_values_exact(self):
        # an erfc-based CDF moves these in the last digits
        assert oracles.up_and_in_call_price(0.8, 0.5, 1.0, 0.1, 0.3) == 0.2629996713973059
        assert oracles.vanilla_call_price(0.8, 0.5, 0.1, 0.3) == 0.3495590306909906
        assert oracles.reciprocal_bessel3_mean(1.0) == 0.6826894921370859
        assert oracles.reciprocal_bessel3_mean_quadrature(1.0) == 0.682689492137086
