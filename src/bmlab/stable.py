"""Spectrally positive stable increments.

Increments are calibrated so that E[exp(-lam * D)] = exp(dt * c * lam^alpha)
for lam >= 0, i.e. Laplace exponent c * lam^alpha over a time step dt.  Only
upward jumps: the left tail is light and the median is negative.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

__all__ = ["stable_increments"]


def _check_params(alpha: float, c: float, dt: float):
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if c <= 0:
        raise ValueError("c must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")


def _cms_standard(alpha: float, gen, size: int) -> np.ndarray:
    """Chambers-Mallows-Stuck draw, unit scale, skewness +1.

    Returns samples with E[exp(-lam X)] = exp(lam^alpha / |cos(pi alpha/2)|).
    """
    u = gen.uniform(-np.pi / 2, np.pi / 2, size=size)
    w = gen.standard_exponential(size=size)
    zeta = np.tan(np.pi * alpha / 2)  # negative for alpha in (1,2)
    b = np.arctan(zeta) / alpha
    s = (1.0 + zeta * zeta) ** (1.0 / (2 * alpha))
    num = np.sin(alpha * (u + b))
    den = np.cos(u) ** (1.0 / alpha)
    tail = (np.cos(u - alpha * (u + b)) / w) ** ((1.0 - alpha) / alpha)
    return s * num / den * tail


def stable_increments(alpha: float, c: float, dt, rng_or_gen, size: int = 1) -> np.ndarray:
    """Vectorized increments; ``dt`` may be a scalar or an array of shape (size,)."""
    _check_params(alpha, c, float(np.min(dt)))
    gen = rng_or_gen.generator() if isinstance(rng_or_gen, RngStream) else rng_or_gen
    x = _cms_standard(alpha, gen, size)
    scale = (np.asarray(dt, dtype=float) * c * abs(np.cos(np.pi * alpha / 2))) ** (1.0 / alpha)
    return scale * x
