"""Discrete Gaussian free field on a box and its exponential-weight metric.

The field has zero boundary values on the outer frame and covariance equal
to the inverse of the Dirichlet graph Laplacian (degree minus adjacency,
unit conductances) on the interior.  Sampling goes through the discrete
sine eigenbasis, synthesized with a type-1 DST, which is exact in law.
Path lengths weight each visited vertex by exp(gamma * h(x)), both
endpoints included; the default gamma is 1/sqrt(6).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .geodesics import _geodesic_dag
from .rng import RngStream
from .spaces import space_from_field

__all__ = [
    "GffField",
    "DEFAULT_GAMMA",
    "MAX_GRID_POINTS",
    "sample_dgff",
    "dgff_batch",
    "dirichlet_green_matrix",
    "path_length",
    "geodesic_overlay",
    "overlay_csv",
    "overlay_svg",
]

DEFAULT_GAMMA = 1.0 / np.sqrt(6.0)

# the most grid points the command line samples a field on: a 1,000 x 1,000
# box
MAX_GRID_POINTS = 1_000_000


@dataclass
class GffField:
    """Zero-boundary Gaussian field on an n x n box."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[0]
        if self.values.shape != (n, n) or n < 3:
            raise ValueError("values must be square, at least 3 x 3")
        frame = np.concatenate([self.values[0], self.values[-1],
                                self.values[:, 0], self.values[:, -1]])
        if np.any(frame != 0.0):
            raise ValueError("frame values must be exactly 0")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("interior values must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        for row in self.values:
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()


def _interior_eigenvalues(n_int: int) -> np.ndarray:
    theta = np.pi * np.arange(1, n_int + 1) / (n_int + 1)
    lam1 = 2.0 - 2.0 * np.cos(theta)
    return lam1[:, None] + lam1[None, :]


def dgff_batch(n: int, rng: RngStream, size: int) -> np.ndarray:
    """``size`` independent fields, shape (size, n, n); exact in law."""
    import scipy.fft

    if n < 3:
        raise ValueError("n must be at least 3")
    n_int = n - 2
    lam = _interior_eigenvalues(n_int)
    gen = rng.generator()
    z = gen.normal(size=(size, n_int, n_int)) / np.sqrt(lam)[None, :, :]
    interior = scipy.fft.dstn(z, type=1, axes=(1, 2)) / (2.0 * (n_int + 1))
    out = np.zeros((size, n, n))
    out[:, 1:-1, 1:-1] = interior
    return out


def sample_dgff(n: int, rng: RngStream) -> GffField:
    """One field on an n x n box (n >= 3), zero frame."""
    return GffField(dgff_batch(n, rng, 1)[0])


def dirichlet_green_matrix(n: int) -> np.ndarray:
    """Inverse Dirichlet Laplacian on the interior of the n x n box.

    Direct linear solve against the same degree-minus-adjacency operator
    the sampler diagonalizes; rows/columns index interior vertices in
    row-major order.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    n_int = n - 2
    m = n_int * n_int
    lap = np.zeros((m, m))
    for r in range(n_int):
        for cidx in range(n_int):
            i = r * n_int + cidx
            lap[i, i] = 4.0
            if r > 0:
                lap[i, i - n_int] = -1.0
            if r < n_int - 1:
                lap[i, i + n_int] = -1.0
            if cidx > 0:
                lap[i, i - 1] = -1.0
            if cidx < n_int - 1:
                lap[i, i + 1] = -1.0
    return np.linalg.solve(lap, np.eye(m))


def path_length(fld: GffField, gamma: float, path) -> float:
    """Sum of exp(gamma * h(x)) over the path's vertices, endpoints included.

    ``path`` is a sequence of (row, col) pairs; consecutive vertices must
    be 4-adjacent.
    """
    pts = [tuple(map(int, p)) for p in path]
    if not pts:
        raise ValueError("empty path")
    n = fld.n
    for (r, c) in pts:
        if not (0 <= r < n and 0 <= c < n):
            raise ValueError("path leaves the box")
    for (r1, c1), (r2, c2) in zip(pts[:-1], pts[1:]):
        if abs(r1 - r2) + abs(c1 - c2) != 1:
            raise ValueError("consecutive path vertices must be 4-adjacent")
    h = fld.values
    return float(sum(np.exp(gamma * h[r, c]) for r, c in pts))


def geodesic_overlay(fld: GffField, gamma: float, rng: RngStream,
                     n_random_pairs: int = 8) -> np.ndarray:
    """Geodesics of the exponential-weight metric through each vertex of
    the n x n box, summed over endpoint pairs sampled on the frame (the
    boundary-to-boundary experiment).  Exact counts from each pair's
    geodesic DAG, as Python ints: a flat 40 x 40 box has C(78, 39) > 2**63
    geodesics between opposite corners."""
    space = space_from_field(fld, gamma)
    n = fld.n
    gen = rng.generator()
    border = np.concatenate([
        np.arange(n),                        # top row
        (n - 1) * n + np.arange(n),          # bottom row
        n * np.arange(1, n - 1),             # left column
        n * np.arange(1, n - 1) + (n - 1),   # right column
    ])
    mult = np.zeros(n * n, dtype=object)
    for _ in range(n_random_pairs):
        a, b = (int(v) for v in gen.choice(border, size=2, replace=False))
        for v, k in _geodesic_dag(space, a, b)[3].items():
            mult[v] += k
    return mult.reshape(n, n)


def overlay_csv(mult: np.ndarray) -> str:
    buf = io.StringIO()
    buf.write("x,y,multiplicity\n")
    for (r, c) in np.argwhere(mult > 0):
        buf.write(f"{c},{r},{int(mult[r, c])}\n")
    return buf.getvalue()


def overlay_svg(fld: GffField, mult: np.ndarray, cell: int = 4) -> str:
    """Field heat layer plus geodesic overlay as a standalone SVG."""
    n = fld.n
    h = fld.values
    lo, hi = float(h.min()), float(h.max())
    span = (hi - lo) or 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{n * cell}" height="{n * cell}">']
    for r in range(n):
        for c in range(n):
            g = int(255 * (h[r, c] - lo) / span)
            parts.append(f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" '
                         f'height="{cell}" fill="rgb({g},{g},{g})"/>')
    mmax = max(int(mult.max()), 1)
    for (r, c) in np.argwhere(mult > 0):
        alpha = 0.35 + 0.65 * mult[r, c] / mmax
        parts.append(f'<rect x="{c * cell}" y="{r * cell}" width="{cell}" '
                     f'height="{cell}" fill="rgb(204,32,32)" '
                     f'fill-opacity="{alpha:.3f}"/>')
    parts.append("</svg>")
    return "\n".join(parts)
