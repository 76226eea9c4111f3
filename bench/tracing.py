"""Opt-in span tracer for the benchmark's traced runs.

Spans are recorded around calls into the program's layers by wrapping
module attributes (``bmlab.csbp.stable_increments`` and the like), class
methods (``Quadrangulation.validate``) and the methods of one
``GraphSpace`` instance.  Nothing inside the program changes; untraced runs
never construct a ``Tracer`` and so install no wrapper.

Spans stay in memory as rows ``[name, start, end, parent, counts]``;
the caller collects them when the run ends and :func:`summarize` sums
them per layer.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import OrderedDict

import numpy as np

SPACE_CACHE = 128  # GraphSpace keeps the fields of its last 128 sources


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def count(self, idx: int, key: str, k: int) -> None:
        counts = self.spans[idx][4]
        counts[key] = counts.get(key, 0) + int(k)

    @contextlib.contextmanager
    def root(self, name: str):
        """Top-level span (one item or one set-up); yields its index so the
        caller can attach counts to it."""
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def _wrapped(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                if counter is not None:
                    counter(idx, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    # -- installing ----------------------------------------------------------

    def wrap_attr(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`close`."""
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self._wrapped(name, getattr(owner, attr), counter))

    def wrap_space(self, space) -> None:
        """Wrap one GraphSpace's distance-field methods.

        ``dist_from`` counts a miss for each source not among the last
        ``SPACE_CACHE`` sources requested through the wrapper.
        """
        recent: OrderedDict[int, None] = OrderedDict()

        def count_miss(idx, args, kwargs):
            src = int(args[0])
            if src in recent:
                recent.move_to_end(src)
                return
            self.count(idx, "misses", 1)
            recent[src] = None
            if len(recent) > SPACE_CACHE:
                recent.popitem(last=False)

        self.wrap_attr(space, "dist_from", "spaces.dist_from", count_miss)
        self.wrap_attr(space, "dist_to_set", "spaces.dist_to_set")

    def close(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, previous = self._restore.pop()
            if previous is None:
                delattr(owner, attr)  # instance wrapper over a class method
            else:
                setattr(owner, attr, previous)


def summarize(spans: list[list]) -> dict:
    """Per top-level span name: the number of such roots, the counts
    attached to them, and per layer name the calls, time, self time and
    counts summed over the spans below them."""
    n = len(spans)
    child_time = np.zeros(n)
    root_of = [0] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
    out: dict = {}
    for i, (name, t0, t1, parent, counts) in enumerate(spans):
        root_name = spans[root_of[i]][0]
        group = out.setdefault(root_name,
                               {"roots": 0, "counts": {}, "layers": {}})
        if parent < 0:
            group["roots"] += 1
            for key, k in counts.items():
                group["counts"][key] = group["counts"].get(key, 0) + k
            continue
        layer = group["layers"].setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        layer["calls"] += 1
        layer["s"] += t1 - t0
        layer["self_s"] += t1 - t0 - child_time[i]
        for key, k in counts.items():
            layer[key] = layer.get(key, 0) + k
    return out
