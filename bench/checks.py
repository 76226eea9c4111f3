"""Output checks for the benchmark's items.

Each check tests a property the method must have, or compares against a
value the benchmark computes apart from the code under test.  A failed
check raises ``CheckError``; nothing here uses ``assert``, so the checks
hold under ``python -O`` too.
"""

from __future__ import annotations

import numpy as np

# Bound before any tracer wraps the module attribute, so checks never show
# up in a traced run's spans.
from bmlab.planar_map import bfs_metric


class CheckError(Exception):
    """An item's output lacks a property the method guarantees."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# quadrangulations

def check_quad(tree, quad, dist) -> None:
    """Every face has degree 4, V = n+2, E = 2n, F = n, and the BFS
    distance from the pointed vertex is label - min + 1 on the tree."""
    n = tree.n_edges
    tail, nxt = quad.tail, quad.next_out
    m = len(tail)
    _require(quad.n_faces == n and m == 4 * n and len(nxt) == m,
             "half-edge count is not 4n")
    _require(np.array_equal(np.bincount(nxt, minlength=m), np.ones(m, dtype=np.int64)),
             "next_out is not a permutation")
    _require(np.array_equal(tail[nxt], tail), "next_out leaves its tail vertex")
    h = np.arange(m)
    step = nxt[h ^ 1]           # one step along the facial walk
    step2 = step[step]
    # every orbit has length exactly 4: phi^4 = id, phi and phi^2 fix nothing
    _require(np.array_equal(step2[step2], h) and not np.any(step == h)
             and not np.any(step2 == h), "a face does not have degree 4")
    vertices, edges, faces = np.unique(tail).size, m // 2, m // 4
    _require(vertices == n + 2 and int(tail.max()) == n + 1, "V != n + 2")
    _require(edges == 2 * n and faces == n and vertices - edges + faces == 2,
             "E != 2n or F != n")
    labels = tree.labels
    _require(labels[0] == 0, "root label is not 0")
    _require(quad.pointed_vertex == n + 1 and dist[n + 1] == 0,
             "pointed vertex is not the extra vertex")
    _require(np.array_equal(dist[: n + 1], labels - labels.min() + 1),
             "distance from v* differs from label - min + 1")


# ---------------------------------------------------------------------------
# geodesic analytics

def edge_keys(quad) -> np.ndarray:
    """Sorted keys tail * V + head of every directed edge."""
    head = quad.tail[np.arange(quad.n_half_edges) ^ 1]
    return np.unique(quad.tail * quad.n_vertices + head)


def check_star(quad, keys, report, k: int, radius: float) -> None:
    """Witnesses step along edges, are geodesics for BFS distance from the
    centre, number at most k, and have pairwise disjoint in-ball prefixes."""
    _require(not report.skipped, "centre skipped")
    _require(report.k == len(report.witnesses) <= k, "more than k witnesses")
    dist = bfs_metric(quad, report.center)
    seen: set[int] = set()
    for w in report.witnesses:
        v = np.asarray(w.vertices, dtype=np.int64)
        _require(v[0] == report.center and len(v) >= 2, "witness does not start at the centre")
        steps = v[:-1] * quad.n_vertices + v[1:]
        pos = np.minimum(np.searchsorted(keys, steps), len(keys) - 1)
        _require(np.array_equal(keys[pos], steps), "witness steps off an edge")
        _require(np.array_equal(dist[v], np.arange(len(v)))
                 and np.array_equal(w.cumlen, np.arange(len(v))),
                 "witness length differs from d(centre, end)")
        prefix = set(v[1:][dist[v[1:]] <= radius].tolist())
        _require(not (prefix & seen), "witness prefixes overlap inside the ball")
        seen |= prefix


def check_confluence(rows, samples, eps_list) -> None:
    """Deficits are nonnegative, zero at Hausdorff distance 0, and the
    table's counts and means match the samples and grow with epsilon."""
    _require(len(samples) >= 1, "no confluence samples")
    dh = np.array([s[0] for s in samples], dtype=float)
    deficit = np.array([s[1] for s in samples], dtype=float)
    _require(np.all(dh >= 0) and np.all(deficit >= 0), "negative deficit or distance")
    _require(np.all(deficit[dh == 0] == 0), "identical geodesic sets with a deficit")
    _require([r["epsilon"] for r in rows] == sorted(float(e) for e in eps_list),
             "rows are not the sorted epsilons")
    counts = [r["count"] for r in rows]
    _require(all(a <= b for a, b in zip(counts, counts[1:])),
             "row counts decrease as epsilon grows")
    for r in rows:
        sel = deficit[dh <= r["epsilon"]]
        _require(r["count"] == sel.size and r["empty"] == (sel.size == 0),
                 "row count does not match the samples")
        if sel.size:
            _require(np.isclose(r["mean_deficit"], sel.mean(), rtol=1e-12, atol=0),
                     "row mean does not match the samples")


def check_frame(slope, stderr, counts) -> None:
    """Cover counts are positive and do not increase as the scale grows."""
    _require(np.isfinite(slope) and np.isfinite(stderr), "slope is not finite")
    scales = sorted(counts)
    c = [counts[s] for s in scales]
    _require(all(x >= 1 for x in c), "empty cover")
    _require(all(a >= b for a, b in zip(c, c[1:])),
             "cover count increases with the scale")


# ---------------------------------------------------------------------------
# snake-built metrics

def seed_distance(y: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` of d°(i, j) = Y_i + Y_j - 2 max(min Y[i..j],
    min(Y[..i], Y[j..])), where Y[i..j] runs between the two indices."""
    n = len(y)
    idx = np.arange(n)
    r = idx[rows, None]
    ahead = idx[None, :] >= r
    # min Y[i..j] for j >= i, and min Y[j..i] for j <= i
    right = np.minimum.accumulate(np.where(ahead, y[None, :], np.inf), axis=1)
    left = np.minimum.accumulate(
        np.where(idx[None, :] <= r, y[None, :], np.inf)[:, ::-1], axis=1)[:, ::-1]
    inner = np.where(ahead, right, left)
    prefix = np.minimum.accumulate(y)
    suffix = np.minimum.accumulate(y[::-1])[::-1]
    outer = np.minimum(prefix[np.minimum(r, idx)], suffix[np.maximum(r, idx)])
    return y[r] + y[None, :] - 2.0 * np.maximum(inner, outer)


def check_snake(y, bm, gen, triples: int = 2000, block: int = 32) -> None:
    """D is a metric below d° and above |Y_i - Y_j|, exact on the root row
    and zero between the two ends of the excursion.

    d° and the other comparisons are made ``block`` rows at a time, so the
    check's own arrays stay much smaller than the n x n arrays the closure
    allocates, and the run's peak memory is the item's, not the check's.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    d = bm.dmat
    tol = 1e-9 * max(1.0, float(np.abs(y).max()))
    _require(d.shape == (n, n), "D has the wrong shape")
    for a in range(0, n, block):
        rows = slice(a, min(a + block, n))
        dr = d[rows]
        _require(np.array_equal(dr, d[:, rows].T), "D is not symmetric")
        _require(np.all(dr <= seed_distance(y, rows) + tol), "D exceeds d°")
        _require(np.all(dr >= np.abs(y[rows, None] - y[None, :]) - tol),
                 "D is below |Y_i - Y_j|")
    _require(not np.any(np.diag(d)), "D has a nonzero diagonal")
    root = int(np.argmin(y))
    _require(bm.root_index == root, "root is not the label argmin")
    _require(np.all(np.abs(d[root] - (y - y[root])) <= tol), "root row is not Y - Y_min")
    _require(d[0, n - 1] <= tol, "D(0, n-1) is not 0")
    i, j, k = gen.integers(n, size=(3, triples))
    _require(np.all(d[i, k] <= d[i, j] + d[j, k] + tol), "triangle inequality fails")


# ---------------------------------------------------------------------------
# branching-process laws

def check_csbp_batch(vals, ext, targets, size: int) -> None:
    """Values are finite, zero exactly when extinct by the target time."""
    _require(vals.shape == (size, len(targets)) and ext.shape == (size,), "wrong shapes")
    _require(np.all(np.isfinite(vals)) and np.all(ext > 0), "bad values or extinction times")
    for j, t in enumerate(targets):
        dead = ext <= t
        _require(np.all(vals[dead, j] == 0) and np.all(vals[~dead, j] > 0),
                 f"value at t={t} disagrees with the extinction time")


class LawPool:
    """Law statistics of branching-process replicas pooled over a run.

    Keeps running sums, so memory does not grow with the number of items.
    Closed forms: E exp(-lam Y_t) = exp(-y0 u_t(lam)) with
    u_t(lam) = (lam^(1-alpha) + c t)^(1/(1-alpha)), and
    P[alive at t] = 1 - exp(-(c t)^(1/(1-alpha)) y0).
    """

    LAMBDAS = (0.5, 1.0, 2.0)

    def __init__(self, alpha, c, y0, targets):
        q = 1.0 / (1.0 - alpha)
        self.targets = tuple(targets)
        self.names, self.exact = [], []
        for t in self.targets:
            for lam in self.LAMBDAS:
                self.names.append(f"laplace_t{t}_lam{lam}")
                self.exact.append(float(np.exp(-y0 * (lam ** (1.0 - alpha) + c * t) ** q)))
            self.names.append(f"survival_t{t}")
            self.exact.append(float(-np.expm1(-((c * t) ** q) * y0)))
        self.n = 0
        self.sum = np.zeros(len(self.names))
        self.sumsq = np.zeros(len(self.names))

    def add(self, vals, ext) -> None:
        cols = []
        for j, t in enumerate(self.targets):
            cols += [np.exp(-lam * vals[:, j]) for lam in self.LAMBDAS]
            cols.append((ext > t).astype(float))
        x = np.array(cols)
        self.n += x.shape[1]
        self.sum += x.sum(axis=1)
        self.sumsq += (x * x).sum(axis=1)

    def table(self, slack: float = 0.01) -> list[dict]:
        """Estimate, SE and closed form per statistic; passes within
        3 SE + slack."""
        mean = self.sum / self.n
        var = np.maximum(self.sumsq - self.n * mean * mean, 0.0) / (self.n - 1)
        se = np.sqrt(var / self.n)
        return [{"name": name, "estimate": float(m), "se": float(e), "target": t,
                 "tolerance": float(3 * e + slack),
                 "passed": bool(abs(m - t) < 3 * e + slack)}
                for name, m, e, t in zip(self.names, mean, se, self.exact)]


def check_csbp_laws(pool: LawPool) -> list[dict]:
    rows = pool.table()
    bad = [r["name"] for r in rows if not r["passed"]]
    _require(not bad, f"law checks failed: {bad}")
    return rows
