"""Grid-indexed sample paths.

A ``GridPath`` is the common carrier for every one-dimensional process in the
package: Brownian excursions, spectrally positive stable paths,
and branching-process paths on their (possibly non-uniform) time grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridPath", "PATH_KINDS"]

PATH_KINDS = ("excursion", "levy", "csbp", "generic")


@dataclass
class GridPath:
    """A real-valued path sampled on a strictly increasing time grid.

    times start at 0.  Excursion paths are nonnegative and pinned to 0 at
    both ends.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = "generic"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in PATH_KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(self.times) < 1 or self.times[0] != 0.0:
            raise ValueError("times must start at 0")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.kind == "excursion":
            if self.values[0] != 0.0 or self.values[-1] != 0.0:
                raise ValueError("excursion endpoints must be 0")
            if np.any(self.values < 0):
                raise ValueError("excursion values must be nonnegative")

    def __len__(self) -> int:
        return len(self.times)
