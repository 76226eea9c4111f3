"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload on one thread.  The run's items come from the
workload's fixed schedule and are split into segments, each run in a
fresh Python process (``segment.py``) started after the last one ended.
A segment process imports the program, sets the workload up, timed, and
runs items until it has its share of the run's item time.  Segments are
started until ``--seconds`` of item time have passed, at least
``MIN_ITEMS`` items have run and the last round of item kinds is whole.
Every item is checked outside its timer.  ``setup_s`` is the median of the
segments' set-up times, each a cold set-up in a process that has only
imported.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  The line before it, and ``.bench_runs/`` at the root
of the checkout, hold the run record: environment, set-up samples, items
per segment, output digest, and in traced runs the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS/OpenMP pools read these when numpy loads, so every segment process
# is started with them set.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_ITEMS = 100  # so that item_p90_s has at least ten items beyond it
# A process's speed is set for its life, and inherited by processes forked
# from it: fresh processes running the same item on the same CPU at the
# same time differ by up to a third.  Each run therefore pools segments
# run in fresh processes, ``Workload.segments`` of them.


def load_spec() -> dict:
    """BENCHMARK.json, which names every metric and its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import ``bmlab`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "bmlab" / "__init__.py").is_file():
        raise ImportError(f"no bmlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bmlab
    if SRC not in Path(bmlab.__file__).resolve().parents:
        raise ImportError(f"bmlab was imported from {bmlab.__file__}, not {SRC}")
    return bmlab


def segment(workload, start: int, busy0: float, seconds: float,
            segment_seconds: float, min_items: int, trace: bool) -> dict:
    """Set ``workload`` up in this process, timed, then run its items from
    ``start`` on.

    The segment ends on a whole round of item kinds, once it has run
    ``segment_seconds`` of item time, or once the run as a whole (``busy0``
    before this segment) has run ``seconds`` of item time and at least
    ``min_items`` items.  Meant to run in a fresh process (``segment.py``).
    """
    import checks
    from tracing import Tracer
    from workloads import install_tracer

    tracer = Tracer() if trace else None
    root = tracer.root if tracer is not None else (lambda name: contextlib.nullcontext())
    if tracer is not None:
        install_tracer(tracer)
    gc.collect()
    t0 = time.perf_counter()
    with root("setup"):
        workload.setup()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        workload.trace(tracer)
    gc.collect()

    times, errors, hashes = [], [], []
    failed = bad = 0
    busy = 0.0
    rounds = len(workload.kinds)
    i = start
    while i == start or i % rounds or not (
            busy0 + busy >= seconds and i >= min_items
            or busy0 + busy < seconds and busy >= segment_seconds):
        kind = workload.kinds[i % rounds]
        out = None
        t0 = time.perf_counter()
        try:
            with root(f"item.{kind}") as span:
                out = workload.item(i)
        except Exception:  # an item that raises is counted, not fatal
            failed += 1
            errors.append(f"item {i} ({kind}): {traceback.format_exc(limit=3)}")
        dt = time.perf_counter() - t0
        busy += dt
        times.append(dt)
        if out is not None:
            if tracer is not None:
                for key, k in workload.counts(kind, out).items():
                    tracer.count(span, key, k)
            try:
                workload.check(i, out)
            except checks.CheckError as exc:
                bad += 1
                errors.append(f"item {i} ({kind}) check: {exc}")
            hashes.append(hashlib.sha256(workload.digest(out)).digest())
        i += 1
    if tracer is not None:
        tracer.close()
    return {"end": i, "setup_s": setup_s, "busy": busy, "times": times,
            "errors": errors, "failed": failed, "bad": bad, "hashes": hashes,
            "carried": {name: getattr(workload, name) for name in workload.carried},
            "spans": tracer.spans if tracer is not None else [],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_segment(job: dict) -> dict:
    """:func:`segment` with the arguments ``job``, in a fresh process pinned
    to one BLAS/OpenMP thread; waits for it to end."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("segment.py"))],
                          input=pickle.dumps(job), stdout=subprocess.PIPE, env=env)
    if proc.returncode != 0 or not proc.stdout:
        raise RuntimeError(f"segment from item {job['start']} failed "
                           f"(exit code {proc.returncode})")
    return pickle.loads(proc.stdout)


def run_workload(workload, seconds: float, trace: bool = False,
                 min_items: int = MIN_ITEMS) -> dict:
    """Run and check one workload in fresh segment processes; returns the
    run's measurements, and in a traced run its spans."""
    import checks

    times, errors, spans, setup_s, peaks, segment_items = [], [], [], [], [], []
    digest = hashlib.sha256()
    failed = bad = i = 0
    busy = 0.0
    while busy < seconds or i < min_items:
        seg = run_segment(dict(workload=workload, start=i, busy0=busy, seconds=seconds,
                               segment_seconds=seconds / workload.segments,
                               min_items=min_items, trace=trace))
        segment_items.append(seg["end"] - i)
        i, busy = seg["end"], busy + seg["busy"]
        setup_s.append(seg["setup_s"])
        peaks.append(seg["peak_rss_mb"])
        times += seg["times"]
        errors += seg["errors"]
        failed += seg["failed"]
        bad += seg["bad"]
        for h in seg["hashes"]:
            digest.update(h)
        for name, value in seg["carried"].items():
            setattr(workload, name, value)
        offset = len(spans)  # a segment's span parents index its own spans
        spans += [[name, t0, t1, parent + offset if parent >= 0 else parent, counts]
                  for name, t0, t1, parent, counts in seg["spans"]]
    details = {}
    try:
        details = workload.finish()
    except checks.CheckError as exc:
        bad += 1
        errors.append(f"run check: {exc}")

    ok_items = i - failed - bad
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "attempted": i,
        "failed": failed,
        "correct": bad == 0,
        "errors": errors[:10],
        "setup_samples_s": setup_s,
        "segment_items": segment_items,
        "item_busy_s": busy,
        "item_times_s": times,
        "digest": digest.hexdigest(),
        "details": details,
        "spans": spans,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "items_per_s": ok_items / busy,
            "item_p50_s": deciles[4],
            "item_p90_s": deciles[8],
            "peak_rss_mb": max(peaks),
        },
    }


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pinning": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import workloads
    from tracing import summarize

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = run_workload(workload, args.seconds, trace=bool(args.trace))

    if args.trace:
        metrics = workloads.layer_metrics(summarize(result["spans"]), spec["per_layer"])
    else:
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              **{k: result[k] for k in ("attempted", "failed", "correct", "errors",
                                        "setup_samples_s", "segment_items", "item_busy_s",
                                        "item_times_s", "digest", "details")},
              "end_to_end": result["metrics"], "metrics": metrics}
    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=float))
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fp:
            for span in result["spans"]:
                fp.write(json.dumps(span) + "\n")
    print(json.dumps(record, default=float))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
