"""Spectrally positive stable increments.

Increments are calibrated so that E[exp(-lam * D)] = exp(dt * c * lam^alpha)
for lam >= 0, i.e. Laplace exponent c * lam^alpha over a time step dt.  Only
upward jumps: the left tail is light and the median is negative.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rng import RngStream

__all__ = ["stable_increments"]


def _check_params(alpha: float, c: float, dt: float):
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if not c > 0:
        raise ValueError("c must be positive")
    if not dt > 0:
        raise ValueError("dt must be positive")


@lru_cache(maxsize=16)
def _cms_constants(alpha: float) -> tuple:
    """(b, s, 1/alpha, (1 - alpha)/alpha, |cos(pi alpha/2)|) for one alpha."""
    zeta = np.tan(np.pi * alpha / 2)  # negative for alpha in (1,2)
    b = np.arctan(zeta) / alpha
    s = (1.0 + zeta * zeta) ** (1.0 / (2 * alpha))
    return (b, s, 1.0 / alpha, (1.0 - alpha) / alpha,
            abs(np.cos(np.pi * alpha / 2)))


def _cms_standard(alpha: float, gen, size: int) -> np.ndarray:
    """Chambers-Mallows-Stuck draw, unit scale, skewness +1.

    Returns samples with E[exp(-lam X)] = exp(lam^alpha / |cos(pi alpha/2)|):
    s sin(a) / cos(u)^(1/alpha) * (cos(u - a) / w)^((1-alpha)/alpha) with
    a = alpha (u + b), evaluated left to right in place.
    """
    u = gen.uniform(-np.pi / 2, np.pi / 2, size=size)
    w = gen.standard_exponential(size=size)
    b, s, inv_alpha, tail_power, _ = _cms_constants(alpha)
    a = u + b
    a *= alpha
    x = np.sin(a)
    np.subtract(u, a, out=a)
    np.cos(a, out=a)
    a /= w
    a **= tail_power
    np.cos(u, out=u)
    u **= inv_alpha
    x *= s
    x /= u
    x *= a
    return x


def stable_increments(alpha: float, c: float, dt, rng_or_gen, size: int = 1) -> np.ndarray:
    """Vectorized increments; ``dt`` may be a scalar or an array of shape (size,)."""
    dt = np.asarray(dt, dtype=float)
    _check_params(alpha, c, dt.min())
    gen = rng_or_gen.generator() if isinstance(rng_or_gen, RngStream) else rng_or_gen
    alpha = float(alpha)
    x = _cms_standard(alpha, gen, size)
    _, _, inv_alpha, _, cos_abs = _cms_constants(alpha)
    # ((dt c) |cos|)^(1/alpha): a numpy scalar for a 0-d dt, an array for an
    # array dt; the two kinds of power can differ in the last bit
    scale = dt * c
    scale *= cos_abs
    scale **= inv_alpha
    x *= scale
    return x
