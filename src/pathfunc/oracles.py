"""Independent reference values used to check the Monte Carlo engine.

Everything here is computed without simulating chains: Black-Scholes,
barrier-option and reciprocal-Bessel closed forms built from the normal CDF
(``scipy.special.ndtr``, imported on first use, so importing this module
loads no scipy).  The test suite checks each against a quadrature of the
matching transition density.  Every value is taken at time 1, the engine's
horizon.
"""

from __future__ import annotations

import numpy as np

from .models import _norm_cdf

__all__ = [
    "vanilla_call_price",
    "up_and_in_call_price",
    "reciprocal_bessel3_mean",
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
    if s0 >= barrier or strike >= barrier:
        # knocked in at the start, or whenever the call finishes in the money
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


def reciprocal_bessel3_mean(z0: float = 1.0) -> float:
    """Closed form for the same mean: z0 (2 Phi(1/z0) - 1).

    Strictly below z0 -- the strict-local-martingale gap the counter-example
    harness exhibits.
    """
    x0 = 1.0 / z0
    return float((2.0 * _norm_cdf(x0) - 1.0) / x0)
