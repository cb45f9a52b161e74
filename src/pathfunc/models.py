"""SDE model definitions: drift/diffusion coefficient pairs.

Coefficient callables are vectorized over a leading batch axis: drift maps a
(batch, d) state array and a scalar time, or a (batch, 1) column on the
variable-step tree, to (batch, d); diffusion maps to (batch, d, d1).  Models
are immutable and safe to share.

The reciprocal Bessel(3) model, whose diffusion is far from Lipschitz, is
meant only for the counter-example harnesses.  Its exact stopped sampler and
the law of sup_[0,1] |B| that the strong counter-example draws from are the
users of scipy here (``scipy.special``, imported on first call).

Every model is built from numbers, which its coefficients close over; the
horizon is 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SdeModel",
    "gbm",
    "inverse_bessel3",
    "stoch_vol",
    "sample_reciprocal_bessel3_stopped",
    "sup_abs_bm_survival",
    "sample_sup_abs_bm_max",
]


@dataclass(frozen=True)
class SdeModel:
    label: str
    dim_state: int
    dim_noise: int
    drift: Callable[[np.ndarray, float], np.ndarray]
    diffusion: Callable[[np.ndarray, float], np.ndarray]
    y0: np.ndarray
    # Admissibility band for variable-step binomial trees: declares eps with
    # eps < |sigma| and |sigma| < 1/eps on the intended operating range.
    # Checked per step at runtime, so the declaration cannot silently lie.
    sigma_eps: float | None = None

    def __post_init__(self):
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=np.float64))
        if y0.shape != (self.dim_state,):
            raise ValueError("initial state shape must match dim_state")
        if not np.all(np.isfinite(y0)):
            raise ValueError("initial state must be finite")
        y0.flags.writeable = False
        object.__setattr__(self, "y0", y0)


def gbm(r: float, sigma: float, x0: float) -> SdeModel:
    """Geometric Brownian motion dX = r X dt + sigma X dW.

    The classic constant-rate constant-volatility stock model; linear
    coefficients make it Lipschitz with constant max(|r|, sigma).
    """
    if sigma < 0.0 or x0 <= 0.0:
        raise ValueError("gbm needs sigma >= 0 and x0 > 0")
    r = float(r)
    sigma = float(sigma)

    def drift(y, t):
        return r * y

    def diffusion(y, t):
        return (sigma * y)[..., None]

    return SdeModel(
        label="gbm",
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        y0=np.array([x0]),
        sigma_eps=0.1,
    )


def inverse_bessel3(x0: float = 1.0) -> SdeModel:
    """Reciprocal of a Bessel(3) process: driftless with dZ = -Z^2 dW.

    The canonical strict local martingale: started at x0 it satisfies
    E[Z(1)] = x0 (2 Phi(1/x0) - 1) < x0 even though Z is a positive local
    martingale.  The quadratic diffusion is far from Lipschitz, so the model
    is quarantined to counter-example harnesses.
    """
    if x0 <= 0.0:
        raise ValueError("inverse_bessel3 needs x0 > 0")

    def drift(y, t):
        return np.zeros_like(y)

    def diffusion(y, t):
        return (-(y**2))[..., None]

    return SdeModel(
        label="inverse_bessel3",
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        y0=np.array([x0]),
    )


def stoch_vol(r: float, sigma: float, x0: float, rho: float = 0.0,
              y0: float = 1.0, vol_of_vol: float = 0.0) -> SdeModel:
    """Correlated two-dimensional model for the stock price and its factor.

    The stock follows dX = X (r dt + sigma dW) and the factor follows
    dY = vol_of_vol Y dB with corr(W, B) = rho; with vol_of_vol = 0 the
    factor stays at y0 and the stock is gbm(r, sigma, x0) driven by the
    first noise column.  The two Brownian drivers are realized from
    independent normals via the Cholesky factor
    [[1, 0], [rho, sqrt(1 - rho^2)]].
    """
    if not (x0 > 0.0 and y0 > 0.0):
        raise ValueError("initial stock and factor values must be positive")
    if not abs(rho) <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    r, sigma, rho, b = float(r), float(sigma), float(rho), float(vol_of_vol)
    mix = float(np.sqrt(max(0.0, 1.0 - rho * rho)))

    def drift(y, t):
        out = np.empty_like(y)
        out[..., 0] = r * y[..., 0]
        out[..., 1] = 0.0
        return out

    def diffusion(y, t):
        out = np.zeros(y.shape + (2,))
        out[..., 0, 0] = sigma * y[..., 0]
        out[..., 1, 0] = b * y[..., 1] * rho
        out[..., 1, 1] = b * y[..., 1] * mix
        return out

    return SdeModel(
        label="stoch_vol",
        dim_state=2,
        dim_noise=2,
        drift=drift,
        diffusion=diffusion,
        y0=np.array([x0, y0]),
    )


def _norm_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _norm_cdf(x):
    """Standard normal CDF; equals ``scipy.stats.norm.cdf`` bit for bit."""
    from scipy.special import ndtr
    return ndtr(x)


def _sup_abs_series(x, low):
    """s(x) by its theta series, 1 - (4/pi) sum_j (-1)^j/(2j + 1) exp(-(2j + 1)^2 pi^2/(8x^2)),
    where ``low``, and by its reflection series, 4 sum_j (-1)^j Phibar((2j + 1) x), elsewhere."""
    x, j = np.asarray(x, dtype=np.float64), np.arange(20)  # 20 terms: 1e-15 on [0.3, 3]
    s, odd, alt = np.empty_like(x), 2.0 * j + 1.0, (-1.0) ** j
    theta = np.sum(alt / odd * np.exp(-(odd * np.pi / x[low, None]) ** 2 / 8.0), axis=-1)
    s[low], s[~low] = 1.0 - 4.0 / np.pi * theta, 4.0 * np.sum(
        alt * _norm_cdf(-odd * x[~low, None]), axis=-1)
    return s


def sup_abs_bm_survival(x):
    """s(x) = P(S > x) for x > 0 and S = sup_[0,1] |B| (Borodin & Salminen
    2002): the theta series below x = 1, the reflection series from 1 on."""
    return _sup_abs_series(x, np.asarray(x) < 1.0)


def sample_sup_abs_bm_max(n: int, u) -> np.ndarray:
    """Exact draws of M_n, the largest of n iid copies of S, one per uniform
    u in [0, 1): the root of s(x) = 1 - (1 - u)^(1/n), found by 64 halvings
    of [0, 12] (M_n > 12 has probability below n 1e-32, and reads 12)."""
    target = -np.expm1(np.log1p(-np.asarray(u, dtype=np.float64)) / n)
    lo, hi = np.zeros_like(target), np.full_like(target, 12.0)
    for _ in range(64):
        mid = (lo + hi) / 2.0
        lo, hi = np.where(sup_abs_bm_survival(mid) > target, (mid, hi), (lo, mid))
    return (lo + hi) / 2.0


def sample_reciprocal_bessel3_stopped(z0: float, cap: float | None, n: int,
                                      rng: np.random.Generator) -> np.ndarray:
    """Exact draws of the reciprocal Bessel(3) value at time 1, stopped
    (absorbed) at the cap level.

    Writing Z = 1/X with X a Bessel(3) process from x0 = 1/z0, the stopped
    value Z(T_c and 1) is sampled without discretization error:

    * absorption happens iff X hits a = 1/cap, with probability
      (a/x0) * 2 Phi(a - x0) (reflection principle composed with the
      h-transform relating Bessel(3) to Brownian motion);
    * conditionally on no absorption, X(1) follows the killed transition
      density (y/x0) * (phi(y - x0) - phi(y + x0 - 2a)), sampled by
      rejection from the unkilled Bessel(3) density, which itself is
      sampled exactly as |x0 e1 + W(1)| with W a 3-d Brownian motion.

    Because the stopped process is a bounded martingale, the draws have
    expectation exactly z0 for every cap; their weak limit as cap grows is
    Z(1), whose mean z0 (2 Phi(1/z0) - 1) is strictly smaller.
    """
    if not (z0 > 0.0 and (cap is None or cap > z0)):
        raise ValueError("need z0 > 0, and a cap, if any, above it")
    x0 = 1.0 / z0
    a = 0.0 if cap is None else 1.0 / cap  # a = 0: X never hits it
    p_hit = (a / x0) * 2.0 * _norm_cdf(a - x0)

    out = np.empty(n)
    hit = rng.random(n) < p_hit
    out[hit] = cap
    todo = np.flatnonzero(~hit)
    while todo.size:
        w = rng.standard_normal((todo.size, 3))
        y = np.sqrt((x0 + w[:, 0]) ** 2 + w[:, 1] ** 2 + w[:, 2] ** 2)
        den = _norm_pdf(y - x0) - _norm_pdf(y + x0)
        num = _norm_pdf(y - x0) - _norm_pdf(y + x0 - 2.0 * a)
        accept = (y > a) & (rng.random(todo.size) * den <= num)
        out[todo[accept]] = 1.0 / y[accept]
        todo = todo[~accept]
    return out
