"""Finite metric spaces built from label processes.

From a sampled excursion-plus-labels pair this module computes the seed
pseudo-distance d° between grid points (label sum minus twice the better of
the two arc minima), then closes it under chaining to get the largest
metric D dominated by it.

The closure never forms d°.  Grid points sit on a cycle, 0 and n-1 being
neighbours, and go one at a time from the highest label down (ties in
index order), the survivors staying linked on the cycle.  When v goes,
let p and q be its surviving neighbours.  Every point strictly between p
and q on v's side went earlier, so its label is at least Y_v; p and q go
later, so Y_v >= Y_p, Y_q.  Hence d°(v, p) <= Y_v - Y_p, and as D is
never below a label difference, D(v, p) = Y_v - Y_p.  A chain step from
u on v's side to w off it crosses p or q on the arc that sets d°(u, w),
say p, and then d°(u, w) >= (Y_u - Y_p) + d°(p, w); so every chain from
v to a point x that goes after v leaves through p or q, and

    D(v, x) = min(Y_v - Y_p + D(p, x), Y_v - Y_q + D(q, x)).

Putting the points back in reverse order fills D in O(n^2), each row with
its mirrored column, so D is exactly symmetric.  The same formula says D
is the shortest-path metric of the exit graph, the edges (v, p) and
(v, q) weighted by the label drop; each exit pair is *visible* (an arc
between its ends has every interior label at or above both).
``snake_space`` hands the geodesic code that graph itself, with
identified points merged, so geodesics of D need no n x n matrix; it is
also the graph that ``bmlab sample-snake`` writes.  ``quotient_metric``
fills the matrix, up to ``SIZE_CAP`` points, for the checks that read D
entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .gaussian import BrownianSnakeSample
from .spaces import GraphSpace

__all__ = [
    "DiscreteBrownianMap",
    "d_circ",
    "d_circ_matrix",
    "quotient_metric",
    "snake_space",
]

# quotient_metric refuses more points: its n x n float64 output takes
# 134 MB here.  snake_space forms no matrix and has no cap.
SIZE_CAP = 4096
IDENTIFY_TOL = 1e-12


@dataclass
class DiscreteBrownianMap:
    """The n x n matrix of D, rooted at the label argmin."""

    dmat: np.ndarray
    root_index: int


def d_circ(snake: BrownianSnakeSample, i: int, j: int) -> float:
    """Seed pseudo-distance between grid indices i and j.

    Y_i + Y_j minus twice the larger of the two arc minima of Y, where the
    complementary arc wraps through both endpoints.
    """
    n = len(snake)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("index out of range")
    y = snake.y_values
    lo, hi = (i, j) if i <= j else (j, i)
    inner = float(np.min(y[lo:hi + 1]))
    wrap = float(min(np.min(y[:lo + 1]), np.min(y[hi:])))
    return float(y[i] + y[j] - 2.0 * max(inner, wrap))


def d_circ_matrix(snake: BrownianSnakeSample) -> np.ndarray:
    """All-pairs seed pseudo-distances, O(n^2)."""
    y = snake.y_values
    n = len(y)
    inner = np.zeros((n, n))
    for i in range(n):
        inner[i, i:] = np.minimum.accumulate(y[i:])
    prefix = np.minimum.accumulate(y)
    suffix = np.minimum.accumulate(y[::-1])[::-1]
    wrap = np.minimum(prefix[:, None], suffix[None, :])  # i <= j: min(y[:i+1], y[j:])
    upper = y[:, None] + y[None, :] - 2.0 * np.maximum(inner, wrap)
    out = np.triu(upper)
    out = out + out.T - np.diag(np.diag(out))
    np.fill_diagonal(out, 0.0)
    return out


def _exits(y: np.ndarray) -> list[tuple[int, int, int]]:
    """(v, p, q) for every grid point v but the last to go, in elimination
    order: highest label first, ties in index order, p and q being v's
    cycle neighbours still there when v goes (see the module docstring)."""
    n = len(y)
    prev = [(i - 1) % n for i in range(n)]
    nxt = [(i + 1) % n for i in range(n)]
    exits = []
    for v in np.argsort(-y, kind="stable").tolist():
        p, q = prev[v], nxt[v]
        nxt[p], prev[q] = q, p
        exits.append((v, p, q))
    return exits[:-1]


def quotient_metric(snake: BrownianSnakeSample) -> DiscreteBrownianMap:
    """Largest metric dominated by the seed pseudo-distance, as a matrix.

    Label elimination (see the module docstring): O(n^2) time, and the
    n x n output is the only n x n array.  The root is the label argmin.
    Points at distance 0 keep their own rows; ``snake_space`` merges them.
    """
    n = len(snake)
    if n > SIZE_CAP:
        raise ResourceLimitError(
            f"n={n} exceeds the metric size cap {SIZE_CAP} "
            f"(the n x n float64 output takes {8 * n * n / 1e6:.0f} MB)")
    y = snake.y_values
    lab = y.tolist()
    dmat = np.zeros((n, n))
    # Entries of row v for points not yet back are provisional (finite);
    # each later point's column write replaces them.
    for v, p, q in reversed(_exits(y)):
        row = dmat[v]
        np.add(dmat[p], lab[v] - lab[p], out=row)
        np.minimum(row, dmat[q] + (lab[v] - lab[q]), out=row)
        row[v] = 0.0
        dmat[:, v] = row
    return DiscreteBrownianMap(dmat, root_index=snake.s_star_index)


def snake_space(snake: BrownianSnakeSample) -> tuple[GraphSpace, np.ndarray]:
    """(space, vertex_of_grid_point): D as a weighted graph space.

    The exit edges, weighted by the label drop, carry D (see the module
    docstring).  Edges of weight at most ``IDENTIFY_TOL`` are one point of
    D and merge into one vertex, numbered by its first grid point; where a
    merge repeats an edge the shortest copy is kept.  D(i, j) is the graph
    distance between vertex_of_grid_point[i] and [j].  No n x n matrix is
    formed, so there is no size cap.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    y = snake.y_values
    n = len(y)
    v, p, q = np.array(_exits(y), dtype=np.int64).reshape(-1, 3).T
    i, j = np.concatenate([v, v]), np.concatenate([p, q])
    w = y[i] - y[j]
    tie = w <= IDENTIFY_TOL
    m, vertex = connected_components(csr_matrix(
        (np.ones(np.count_nonzero(tie)), (i[tie], j[tie])), shape=(n, n)))
    vertex = vertex.astype(np.int64)
    u, v, w = vertex[i[~tie]], vertex[j[~tie]], w[~tie]
    order = np.argsort(w, kind="stable")  # shortest copy of an edge first
    code, first = np.unique((np.minimum(u, v) * m + np.maximum(u, v))[order],
                            return_index=True)
    lo, hi, w = code // m, code % m, w[order][first]
    apart = lo != hi  # no edge inside a merged point
    return GraphSpace.from_edges(m, lo[apart], hi[apart], w[apart]), vertex
