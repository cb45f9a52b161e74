"""SDE model definitions: drift/diffusion coefficient pairs.

Coefficient callables are vectorized over a leading batch axis: drift maps a
(batch, d) state array and a scalar time, or a (batch, 1) column on the
variable-step tree, to (batch, d); diffusion maps to (batch, d, d1).  Models
are immutable and safe to share.

Models flagged with a Lipschitz certificate declare a constant K such that
|phi(y1,t1) - phi(y2,t2)| <= K (|y1-y2| + |t1-t2|^(1/2)) for both
coefficients; ``probe_lipschitz`` spot-checks the claim on random pairs.  Models
without the certificate (the Bessel-type examples) are meant only for the
counter-example harnesses; their exact stopped sampler is the one user of
scipy here (``scipy.special``, imported on its first call).

Every model is built from numbers, which its coefficients close over; the
horizon is 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError

__all__ = [
    "LipschitzCert",
    "SdeModel",
    "gbm",
    "bessel3",
    "inverse_bessel3",
    "stoch_vol",
    "probe_lipschitz",
    "sample_reciprocal_bessel3_stopped",
]


@dataclass(frozen=True)
class LipschitzCert:
    """Declared Lipschitz/Hoelder-1/2 constant and the state box it covers."""

    K: float
    box: tuple[float, float]


@dataclass(frozen=True)
class SdeModel:
    label: str
    dim_state: int
    dim_noise: int
    drift: Callable[[np.ndarray, float], np.ndarray]
    diffusion: Callable[[np.ndarray, float], np.ndarray]
    y0: np.ndarray
    lipschitz: LipschitzCert | None = None
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
        lipschitz=LipschitzCert(K=max(abs(r), sigma), box=(0.0, 10.0)),
        sigma_eps=0.1,
    )


def bessel3(x0: float) -> SdeModel:
    """Bessel process of dimension 3: dX = (1/X) dt + dW.

    The drift blows up at 0, so no Lipschitz certificate is attached; the
    model is quarantined to counter-example harnesses.
    """
    if x0 <= 0.0:
        raise ValueError("bessel3 needs x0 > 0")

    def drift(y, t):
        return 1.0 / y

    def diffusion(y, t):
        return np.ones_like(y)[..., None]

    return SdeModel(
        label="bessel3",
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        y0=np.array([x0]),
        lipschitz=None,
    )


def inverse_bessel3(z0: float = 1.0) -> SdeModel:
    """Reciprocal of a Bessel(3) process: driftless with dZ = -Z^2 dW.

    The canonical strict local martingale: started at z0 it satisfies
    E[Z(1)] = (2 Phi(z0) - 1)/z0 < z0 even though Z is a positive local
    martingale.  The quadratic diffusion is far from Lipschitz, so the model
    carries no certificate and is quarantined to counter-example harnesses.
    """
    if z0 <= 0.0:
        raise ValueError("inverse_bessel3 needs z0 > 0")

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
        y0=np.array([z0]),
        lipschitz=None,
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
        lipschitz=None,
    )


def probe_lipschitz(model: SdeModel, n_probes: int = 2000, seed: int = 0) -> dict:
    """Spot-check the declared Lipschitz bound on random coefficient pairs.

    Samples pairs (y1, t1), (y2, t2) inside the declared state box and the
    unit time interval and reports the largest observed ratio
    |phi(y1,t1) - phi(y2,t2)| / (|y1-y2| + |t1-t2|^(1/2)) over both
    coefficients.  Passes iff the ratio stays below the declared K.
    """
    if model.lipschitz is None:
        raise PreconditionError(f"model {model.label!r} declares no Lipschitz constant")
    cert = model.lipschitz
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    d = model.dim_state
    lo, hi = cert.box
    y1 = rng.uniform(lo, hi, size=(n_probes, d))
    y2 = rng.uniform(lo, hi, size=(n_probes, d))
    t1 = rng.uniform(0.0, 1.0, size=n_probes)
    t2 = rng.uniform(0.0, 1.0, size=n_probes)

    max_ratio = 0.0
    for phi in (model.drift, model.diffusion):
        for i in range(n_probes):
            a = phi(y1[i : i + 1], t1[i])
            b = phi(y2[i : i + 1], t2[i])
            num = float(np.linalg.norm((a - b).ravel()))
            den = float(np.linalg.norm(y1[i] - y2[i]) + np.sqrt(abs(t1[i] - t2[i])))
            if den > 0.0:
                max_ratio = max(max_ratio, num / den)
    passed = max_ratio <= cert.K * (1.0 + 1e-9)
    return {"max_ratio": max_ratio, "K": cert.K, "pass": passed, "n_probes": n_probes}


def _norm_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _norm_cdf(x):
    """Standard normal CDF; equals ``scipy.stats.norm.cdf`` bit for bit."""
    from scipy.special import ndtr
    return ndtr(x)


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
    Z(1), whose mean (2 Phi(z0) - 1)/z0 is strictly smaller.
    """
    if z0 <= 0.0:
        raise ValueError("need z0 > 0")
    x0 = 1.0 / z0
    if cap is None or np.isinf(cap):
        a = 0.0
        p_hit = 0.0
    else:
        if cap <= z0:
            raise ValueError("cap must exceed the initial value")
        a = 1.0 / cap
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
