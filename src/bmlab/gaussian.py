"""Gaussian building blocks: bridges, excursions, and tree-indexed labels.

The label sampler attaches a centered Gaussian value to every grid point of
an excursion, with covariance between two points equal to the running
minimum of the excursion between them.  It runs in amortized linear time by
maintaining the stack of ancestral record levels instead of factoring the
dense covariance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import GridPath
from .rng import RngStream

__all__ = [
    "BrownianSnakeSample",
    "sample_excursion",
    "sample_snake_labels",
]


@dataclass
class BrownianSnakeSample:
    """An excursion path together with its Gaussian label process.

    ``s_star_index`` locates the label minimum (lowest index on ties).
    ``degenerate`` flags an all-zero lifetime path, for which the labels
    are identically zero.
    """

    x_path: GridPath
    y_values: np.ndarray
    s_star_index: int
    degenerate: bool = False

    def __post_init__(self):
        self.y_values = np.asarray(self.y_values, dtype=float)
        if self.x_path.kind != "excursion":
            raise ValueError("x_path must be an excursion")
        if self.y_values.shape != self.x_path.times.shape:
            raise ValueError("y_values must align with x_path.times")
        if self.y_values[0] != 0.0 or self.y_values[-1] != 0.0:
            raise ValueError("label endpoints must be 0")

    def __len__(self) -> int:
        return len(self.y_values)

    def subsample(self, step: int) -> "BrownianSnakeSample":
        """Restriction to every ``step``-th grid point (endpoints kept)."""
        if step < 1 or (len(self) - 1) % step != 0:
            raise ValueError("step must divide the number of grid intervals")
        sl = slice(0, len(self), step)
        xp = GridPath(self.x_path.times[sl].copy(), self.x_path.values[sl].copy(),
                      "excursion")
        y = self.y_values[sl].copy()
        return BrownianSnakeSample(xp, y, int(np.argmin(y)),
                                   degenerate=self.degenerate)

    def to_csv(self) -> str:
        """One row per grid point; D to the root is Y - min Y exactly."""
        dist_to_root = self.y_values - self.y_values[self.s_star_index]
        lines = ["index,time,x,y,dist_to_root"]
        for i, (t, x, y, d) in enumerate(zip(self.x_path.times, self.x_path.values,
                                             self.y_values, dist_to_root)):
            lines.append(f"{i},{float(t)!r},{float(x)!r},{float(y)!r},{float(d)!r}")
        return "\n".join(lines) + "\n"


def _bridge_values(n, duration, scale, gen, size):
    """``size`` Brownian bridges pinned to 0 at both ends of [0, duration],
    one per row, on the uniform n-point grid; their covariance is exactly
    scale^2 * s*(duration - t)/duration."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if duration <= 0:
        raise ValueError("duration must be positive")
    dt = duration / (n - 1)
    steps = gen.normal(0.0, np.sqrt(dt), size=(size, n - 1))
    walk = np.concatenate([np.zeros((size, 1)), np.cumsum(steps, axis=1)], axis=1)
    frac = np.linspace(0.0, 1.0, n)
    values = walk - frac[None, :] * walk[:, -1:]
    values[:, 0] = 0.0
    values[:, -1] = 0.0
    return scale * values


def sample_excursion(n: int, length: float, rng: RngStream) -> GridPath:
    """Nonnegative excursion of the given time length on a uniform grid.

    Sampled by rotating a Brownian bridge at its grid argmin; a length-t
    sample has the law of t^(1/2) times a unit sample with time rescaled.
    """
    values = _excursion_values(n, length, rng.generator(), size=1)[0]
    times = np.linspace(0.0, length, n)
    return GridPath(times, values, "excursion")


def _excursion_values(n, length, gen, size):
    if n < 2:
        raise ValueError("n must be at least 2")
    if length <= 0:
        raise ValueError("length must be positive")
    bridge = _bridge_values(n, length, 1.0, gen, size)
    # rotate each row at its argmin; grid point n-1 coincides with 0
    core = bridge[:, : n - 1]
    m = np.argmin(core, axis=1)
    idx = (m[:, None] + np.arange(n - 1)[None, :]) % (n - 1)
    rot = np.take_along_axis(core, idx, axis=1) - core[np.arange(size), m][:, None]
    out = np.concatenate([rot, np.zeros((size, 1))], axis=1)
    out[:, 0] = 0.0
    np.maximum(out, 0.0, out=out)  # clip float dust at the pinned ends
    return out


def sample_snake_labels(x_path: GridPath, rng: RngStream) -> BrownianSnakeSample:
    """Gaussian labels over an excursion, covariance = running min of X.

    An all-zero lifetime path yields all-zero labels with the degenerate
    flag set.
    """
    if x_path.kind != "excursion":
        raise ValueError("x_path must be an excursion")
    y = _snake_label_values(x_path.values, rng.generator(), size=1)[0]
    degenerate = bool(np.all(x_path.values == 0.0))
    return BrownianSnakeSample(x_path, y, int(np.argmin(y)),
                               degenerate=degenerate)


def _snake_label_values(x: np.ndarray, gen, size: int) -> np.ndarray:
    """Vectorized spine-stack sampler; one row of labels per replica.

    The stack holds (level, value-per-replica) knots of the ancestral line.
    Each step pops above the bracket minimum m = min(X_i, X_{i+1}),
    bridges the popped interval at level m, then extends with an
    independent N(0, X_{i+1} - m) increment.  Pure function of (x, draws).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.empty((size, n))
    out[:, 0] = 0.0
    levels = [float(x[0])]
    stack_vals = [np.zeros(size)]
    for i in range(n - 1):
        m = min(x[i], x[i + 1])
        hi_level = None
        hi_val = None
        while levels and levels[-1] > m:
            hi_level = levels.pop()
            hi_val = stack_vals.pop()
        if levels and levels[-1] == m:
            base = stack_vals[-1]
        else:
            lo_level = levels[-1] if levels else 0.0
            lo_val = stack_vals[-1] if stack_vals else np.zeros(size)
            span = hi_level - lo_level
            frac = (m - lo_level) / span
            var = (m - lo_level) * (hi_level - m) / span
            base = lo_val + frac * (hi_val - lo_val)
            if var > 0:
                base = base + gen.normal(0.0, np.sqrt(var), size=size)
            levels.append(m)
            stack_vals.append(base)
        v = x[i + 1] - m
        if v > 0:
            nxt = base + gen.normal(0.0, np.sqrt(v), size=size)
            levels.append(float(x[i + 1]))
            stack_vals.append(nxt)
        else:
            nxt = base
        out[:, i + 1] = nxt
    out[:, -1] = 0.0
    return out


def min_covariance_matrix(x: np.ndarray) -> np.ndarray:
    """C[i, j] = min of x over grid indices [i..j]; the label covariance."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.empty((n, n))
    for i in range(n):
        c[i, i:] = np.minimum.accumulate(x[i:])
        c[i:, i] = c[i, i:]
    return c
