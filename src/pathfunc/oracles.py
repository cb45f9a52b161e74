"""Independent reference values used to check the Monte Carlo engine.

Everything here is computed without simulating chains: Black-Scholes and
barrier-option closed forms built from the normal CDF (``scipy.special.ndtr``),
plus ``scipy.integrate.quad`` quadratures of known transition densities.  Both
are imported on first use, so importing this module loads no scipy.  Where a
closed form exists the matching quadrature is also provided, so each oracle
can be cross-validated against an independent route in the test suite.
Every value is taken at time 1, the engine's horizon.
"""

from __future__ import annotations

import numpy as np

from .models import _norm_cdf

__all__ = [
    "vanilla_call_price",
    "up_and_in_call_price",
    "up_and_in_call_price_quadrature",
    "reciprocal_bessel3_mean",
    "reciprocal_bessel3_mean_quadrature",
]


def vanilla_call_price(s0: float, strike: float, r: float, sigma: float) -> float:
    """Black-Scholes European call expiring at 1."""
    if sigma <= 0.0:
        return max(0.0, s0 - strike * np.exp(-r))
    d1 = (np.log(s0 / strike) + (r + 0.5 * sigma * sigma)) / sigma
    d2 = d1 - sigma
    return s0 * _norm_cdf(d1) - strike * np.exp(-r) * _norm_cdf(d2)


def up_and_in_call_price(s0: float, strike: float, barrier: float, r: float,
                         sigma: float) -> float:
    """Continuously monitored up-and-in call under geometric Brownian motion.

    Standard barrier-option closed form assembled from the reflection
    principle; requires the spot to start below the barrier.
    """
    if s0 >= barrier:
        return vanilla_call_price(s0, strike, r, sigma)
    if strike >= barrier:
        # knock-in is implied whenever the call finishes in the money
        return vanilla_call_price(s0, strike, r, sigma)
    mu = (r - 0.5 * sigma * sigma) / (sigma * sigma)
    df = np.exp(-r)
    hs = barrier / s0
    x2 = np.log(s0 / barrier) / sigma + (1.0 + mu) * sigma
    y1 = np.log(barrier * barrier / (s0 * strike)) / sigma + (1.0 + mu) * sigma
    y2 = np.log(barrier / s0) / sigma + (1.0 + mu) * sigma
    pow1 = hs ** (2.0 * (mu + 1.0))
    pow2 = hs ** (2.0 * mu)
    b_term = s0 * _norm_cdf(x2) - strike * df * _norm_cdf(x2 - sigma)
    c_term = s0 * pow1 * _norm_cdf(-y1) - strike * df * pow2 * _norm_cdf(-y1 + sigma)
    d_term = s0 * pow1 * _norm_cdf(-y2) - strike * df * pow2 * _norm_cdf(-y2 + sigma)
    return b_term - c_term + d_term


def up_and_in_call_price_quadrature(s0: float, strike: float, barrier: float,
                                    r: float, sigma: float) -> float:
    """Same price by integrating the joint law of the terminal value and the
    running maximum of the driving drifted Brownian motion.

    With W_hat = mu s + W, the event {max exceeds b} restricted to
    {W_hat(1) = w < b} has density exp(mu w - mu^2 / 2) phi(2b - w); for
    w >= b it is implied.  Kept deliberately independent of the closed form
    above so the two can check each other.
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


def reciprocal_bessel3_mean(z0: float = 1.0) -> float:
    """Closed form for the same mean: z0 (2 Phi(1/z0) - 1).

    Strictly below z0 -- the strict-local-martingale gap the counter-example
    harness exhibits.
    """
    x0 = 1.0 / z0
    return float((2.0 * _norm_cdf(x0) - 1.0) / x0)
