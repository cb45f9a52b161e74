import numpy as np
import pytest

from pathfunc import oracles


def up_and_in_call_price_quadrature(s0: float, strike: float, barrier: float,
                                    r: float, sigma: float) -> float:
    """``oracles.up_and_in_call_price`` by integrating the joint law of the
    terminal value and the running maximum of the driving drifted Brownian
    motion.

    With W_hat = mu s + W, the event {max exceeds b} restricted to
    {W_hat(1) = w < b} has density exp(mu w - mu^2 / 2) phi(2b - w); for
    w >= b it is implied.  Kept deliberately independent of the closed form
    so the two can check each other.
    """
    from scipy.integrate import quad
    if s0 >= barrier:
        raise ValueError("quadrature form assumes the spot starts below the barrier")
    mu = (r - 0.5 * sigma * sigma) / sigma
    b = np.log(barrier / s0) / sigma
    k = np.log(strike / s0) / sigma if strike > 0 else -np.inf

    def phi(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    def payoff(w):
        return s0 * np.exp(sigma * w) - strike

    def upper(w):  # w >= max(k, b): plain marginal of the drifted motion
        return payoff(w) * phi(w - mu)

    def reflected(w):  # k <= w < b: crossed the barrier and came back
        return payoff(w) * np.exp(mu * w - 0.5 * mu * mu) * phi(2.0 * b - w)

    hi = max(b, k if np.isfinite(k) else b) + 40.0
    total, _ = quad(upper, max(b, k), hi, limit=200)
    if k < b:
        part, _ = quad(reflected, k, b, limit=200)
        total += part
    return float(np.exp(-r) * total)


def _bessel3_density(y, x0):
    """Time-1 transition density of the Bessel(3) process started at x0 > 0."""

    def phi(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    return (y / x0) * (phi(y - x0) - phi(y + x0))


def reciprocal_bessel3_mean_quadrature(z0: float = 1.0) -> float:
    """E[Z(1)] for the reciprocal Bessel(3) from z0, by quadrature of the
    Bessel(3) transition density: integral of (1/y) p_1(x0, y) dy."""
    from scipy.integrate import quad
    x0 = 1.0 / z0
    val, _ = quad(lambda y: _bessel3_density(y, x0) / y, 0.0, x0 + 40.0, limit=200)
    return float(val)


class TestUpAndInCall:
    @pytest.mark.parametrize("s0,k,hb,r,sigma", [
        (0.8, 0.5, 1.0, 0.1, 0.3),
        (0.9, 0.7, 1.1, 0.05, 0.2),
        (0.5, 0.4, 1.5, 0.0, 0.5),
        (0.95, 0.2, 1.05, 0.02, 0.4),
        (0.8, 0.0, 1.0, 0.1, 0.3),  # K <= 0: the call is exercised on every path
        (0.9, -0.3, 1.1, 0.05, 0.2),
    ])
    def test_closed_form_matches_quadrature(self, s0, k, hb, r, sigma):
        cf = oracles.up_and_in_call_price(s0, k, hb, r, sigma)
        qd = up_and_in_call_price_quadrature(s0, k, hb, r, sigma)
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

    @pytest.mark.parametrize("s0, r, knocks_in", [(0.95, 0.1, True), (0.8, 0.1, False),
                                                  (0.95, -0.1, False)])
    def test_zero_volatility_is_the_deterministic_path(self, s0, r, knocks_in):
        # the path s0 e^{rt} knocks in iff s0 max(1, e^r) >= 1, then pays
        # (s0 - K e^{-r})^+
        cf = oracles.up_and_in_call_price(s0, 0.5, 1.0, r, 0.0)
        assert cf == (max(0.0, s0 - 0.5 * np.exp(-r)) if knocks_in else 0.0)


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

    @pytest.mark.parametrize("strike", [0.0, -0.4])
    def test_nonpositive_strike_is_the_forward(self, strike):
        # X(1) > 0, so (X(1) - K)^+ = X(1) - K, priced s0 - K e^{-r}
        v = oracles.vanilla_call_price(0.8, strike, 0.1, 0.3)
        assert v == pytest.approx(0.8 - strike * np.exp(-0.1), rel=1e-15)


class TestBesselOracles:
    def test_reciprocal_mean_closed_matches_quadrature(self):
        for z0 in (0.5, 1.0, 2.0):
            cf = oracles.reciprocal_bessel3_mean(z0)
            qd = reciprocal_bessel3_mean_quadrature(z0)
            assert cf == pytest.approx(qd, rel=1e-9)

    def test_strict_local_martingale_gap(self):
        # started at 1 the mean after one unit of time is strictly below 1
        assert oracles.reciprocal_bessel3_mean(1.0) < 1.0
        assert oracles.reciprocal_bessel3_mean(1.0) == pytest.approx(0.6826894921, abs=1e-9)

    def test_density_normalizes(self):
        from scipy.integrate import quad
        total = quad(lambda y: _bessel3_density(y, 1.0), 0, 50, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSupAbsBrownian:
    """The law of S = sup_[0,1] |B| and of M_n, the largest of n iid copies,
    which the strong counter-example samples and prints the mean of."""

    @staticmethod
    def tail(n):  # P(M_n > x) = 1 - (1 - s(x))^n
        from pathfunc.models import sup_abs_bm_survival

        def f(x):
            with np.errstate(divide="ignore"):  # s = 1 near 0
                return -np.expm1(n * np.log1p(-sup_abs_bm_survival(x)))
        return f

    def test_reflection_and_theta_series_agree(self):
        from pathfunc.models import _sup_abs_series
        theta, reflection = _sup_abs_series(np.linspace(0.3, 3.0, 2701))
        assert np.max(np.abs(theta - reflection)) <= 1e-12
        assert 0.0 < reflection.min() and theta.max() < 1.0

    def test_mean_of_s_is_sqrt_pi_over_2(self):
        # E[sup_[0,1] |B|] = sqrt(pi/2)
        assert abs(oracles.sup_abs_bm_max_mean(1) - np.sqrt(np.pi / 2.0)) <= 1e-12

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_gauss_legendre_mean_matches_adaptive_quadrature(self, n):
        from scipy.integrate import quad
        qd = quad(self.tail(n), 0.0, 12.0, points=[0.5, 1, 2, 3, 4, 5, 6],
                  limit=200, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(oracles.sup_abs_bm_max_mean(n) - qd) <= 1e-10

    def test_sampled_maxima_follow_their_law(self):
        # Kolmogorov-Smirnov distance of 20 000 draws of M_1000 from
        # (1 - s)^1000, inside the 99% Dvoretzky-Kiefer-Wolfowitz band
        from pathfunc.models import sample_sup_abs_bm_max
        n, size = 1000, 20000
        draws = np.sort(sample_sup_abs_bm_max(n, np.random.default_rng(11).random(size)))
        cdf = 1.0 - self.tail(n)(draws)
        ks = max(np.max(np.arange(1, size + 1) / size - cdf), np.max(cdf - np.arange(size) / size))
        assert ks <= np.sqrt(np.log(2.0 / 0.01) / (2.0 * size))


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
        assert reciprocal_bessel3_mean_quadrature(1.0) == 0.682689492137086
