"""Experiment driver.

Subcommands: sample-snake, sample-quad, csbp, merge-ppp, gff, analyze,
acceptance.  Stochastic commands require --seed; there is no implicit
seeding.  sample-snake writes the snake metric as the exit graph of
``snake_map.snake_space`` (JSON, any size).  Records are JSON lines
(``--format json``, default name ``*.jsonl``) or CSV (``--format csv``,
``*.csv``), where list values are JSON text.  Every output file gets a
sibling ``<file>.manifest.json``.  A --config file holds flat
``key = value`` lines; explicit flags win.  Exit codes: 0 success, 1
validation failure or resource limit, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .csbp import LawCheck, csbp_marginals, merge_ppp_counts, u_t
from .errors import ResourceLimitError
from .gaussian import sample_excursion, sample_snake_labels
from .geodesics import (_box_scales, frame_box_dimension, star_census,
                        strong_confluence_statistic)
from .gff import (DEFAULT_GAMMA, MAX_GRID_POINTS, geodesic_overlay,
                  overlay_csv, overlay_svg, sample_dgff)
from .manifest import RunManifest
from .planar_map import (MAX_EDGES, bfs_metric, boundary_length_process,
                         cvs_construct, max_boundary_tail_report,
                         sample_labeled_tree)
from .rng import RngStream
from .snake_map import snake_space
from .spaces import GraphSpace, space_from_field

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# configuration plumbing

def _parse_config(path: str) -> dict[str, str]:
    conf = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            conf[key.replace("-", "_")] = val
    return conf


class _Cmd:
    """One subcommand: a typed option schema plus its action."""

    def __init__(self, name, options, action, help=""):
        self.name = name
        self.options = options  # dest -> (type, default, required, help)
        self.action = action
        self.help = help

    def add_parser(self, sub):
        p = sub.add_parser(self.name, help=self.help)
        for dest, (typ, _default, _required, helptext) in self.options.items():
            flag = "--" + dest.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, dest=dest, action="store_const", const=True,
                               default=None, help=helptext)
            else:
                p.add_argument(flag, dest=dest, type=typ, default=None,
                               help=helptext)
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file; flags override")
        return p

    def finalize(self, ns, parser) -> dict:
        conf = {}
        if ns.config:
            raw = _parse_config(ns.config)
            unknown = set(raw) - set(self.options)
            if unknown:
                parser.error(f"unknown config keys: {sorted(unknown)}")
            for key, val in raw.items():
                typ = self.options[key][0]
                try:
                    conf[key] = (val.lower() in ("1", "true", "yes")) \
                        if typ is bool else typ(val)
                except ValueError:
                    parser.error(f"config key {key}: cannot parse {val!r}")
        merged = {}
        for dest, (_typ, default, required, _h) in self.options.items():
            val = getattr(ns, dest)
            if val is None:
                val = conf.get(dest, default)
            if val is None and required:
                parser.error(f"missing required option --{dest.replace('_', '-')}")
            merged[dest] = val
        return merged


def _out_path(name: str | None, default: str) -> str:
    base = name or default
    if os.path.isabs(base):
        return base
    root = os.environ.get("BML_DATA_DIR", ".")
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, base)


class _FailedRun(Exception):
    """An action that wrote its outputs and failed: the run writes their
    manifest, then exits 1."""

    def __init__(self, message: str, outputs: dict[str, str]):
        super().__init__(message)
        self.outputs = outputs


def _manifest_for(command: str, params: dict) -> RunManifest:
    clean = {k: v for k, v in params.items() if k != "seed"}
    return RunManifest(command=command, parameters=clean,
                       seed=int(params.get("seed", -1)),
                       code_version=__version__)


def _finish(manifest: RunManifest, outputs: dict[str, str]) -> None:
    manifest.finish(outputs)
    first = next(iter(outputs.values()))
    manifest.write(first + ".manifest.json")


# the default records file's extension for each --format
_RECORD_SUFFIX = {"json": ".jsonl", "csv": ".csv"}


def _write_records(p: dict, dest: str, stem: str, records) -> str:
    """Write ``records`` in ``--format`` to option ``dest``'s file, by
    default ``stem`` with the format's extension; return its path."""
    path = _out_path(p[dest], stem + _RECORD_SUFFIX[p["format"]])
    with open(path, "w", encoding="utf-8", newline="") as fp:
        if p["format"] == "csv":
            records = list(records)
            if records:
                cols = sorted({k for r in records for k in r})
                writer = csv.writer(fp, lineterminator="\n")
                writer.writerow(cols)
                for r in records:
                    writer.writerow(_csv_cell(r.get(c)) for c in cols)
        else:
            for r in records:
                fp.write(json.dumps(r, sort_keys=True) + "\n")
                fp.flush()
    return path


def _csv_cell(value) -> str:
    """A record value as one CSV field: lists as JSON text."""
    if value is None:
        return ""
    return json.dumps(value) if isinstance(value, list) else str(value)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_count(p: dict, dest: str, least: int) -> None:
    if p[dest] < least:
        raise ValueError(f"{_flag(dest)} must be at least {least}, got {p[dest]}")


def _check_size(p: dict, cap: int, what: str) -> None:
    """Refuse ``--n`` above ``cap`` before anything is sampled."""
    if p["n"] > cap:
        raise ValueError(f"--n must be at most {cap:,} ({what}), got {p['n']:,}")


def _check_positive(p: dict, dest: str) -> None:
    if not p[dest] > 0:
        raise ValueError(f"{_flag(dest)} must be positive, got {p[dest]}")


def _number_list(p: dict, dest: str) -> list[float]:
    """The numbers of a comma-list option, all finite; the error names the
    flag."""
    try:
        values = [float(s) for s in p[dest].split(",")]
    except ValueError:
        raise ValueError(f"{_flag(dest)} must be a comma list of numbers, "
                         f"got {p[dest]!r}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{_flag(dest)} must be finite, got {p[dest]!r}")
    return values


# ---------------------------------------------------------------------------
# subcommand actions

def _do_sample_snake(p: dict) -> dict[str, str]:
    rng = RngStream(p["seed"]).named("sample-snake")
    exc = sample_excursion(p["n"], p["length"], rng.named("excursion"))
    snake = sample_snake_labels(exc, rng.named("labels"))
    space, vertex = snake_space(snake)
    tail = np.repeat(np.arange(space.n), np.diff(space.indptr))
    once = tail < space.indices  # each edge once, from its lower end
    out = _out_path(p["out"], "snake_map.json")
    with open(out, "w", encoding="utf-8") as fp:
        fp.write(json.dumps({
            "header": {"kind": "snake-exit-graph-v1",
                       "n_grid_points": len(snake), "n_vertices": space.n,
                       "root_grid_point": snake.s_star_index},
            "labels": snake.y_values.tolist(),
            "vertex_of_grid_point": vertex.tolist(),
            "u": tail[once].tolist(), "v": space.indices[once].tolist(),
            "weight": space.weights[once].tolist(),
        }, sort_keys=True) + "\n")
    outputs = {"map": out}
    if p["csv"]:
        csv_path = _out_path(p["csv"], "snake.csv")
        with open(csv_path, "w", encoding="utf-8") as fp:
            fp.write(snake.to_csv())
        outputs["csv"] = csv_path
    return outputs


def _quad_record(args: tuple) -> dict:
    seed, rep, n = args
    rng = RngStream(seed).named("sample-quad").split(rep)
    tree = sample_labeled_tree(n, rng)
    quad = cvs_construct(tree, sign=1)
    dist = bfs_metric(quad, quad.pointed_vertex)
    hist = np.bincount(dist[dist >= 0]).tolist()
    return {"rep": rep, "n": n, "seed": seed, "diameter": int(dist.max()),
            "distance_histogram": hist}


def _do_sample_quad(p: dict) -> dict[str, str]:
    _check_count(p, "reps", 0)
    _check_count(p, "threads", 1)
    _check_size(p, MAX_EDGES, "the corner-chaining cap")
    rng = RngStream(p["seed"]).named("sample-quad")
    tree = sample_labeled_tree(p["n"], rng.split(0))
    quad = cvs_construct(tree, sign=1)
    quad.validate()
    out = _out_path(p["out"], "quad.json")
    with open(out, "w", encoding="utf-8") as fp:
        fp.write(quad.to_json() + "\n")
    outputs = {"map": out}
    if p["reps"] > 0:
        args = [(p["seed"], r, p["n"]) for r in range(p["reps"])]
        if p["threads"] > 1:
            with ProcessPoolExecutor(max_workers=p["threads"]) as ex:
                records = list(ex.map(_quad_record, args))
        else:
            records = [_quad_record(a) for a in args]
        outputs["records"] = _write_records(p, "records", "quad_records", records)
    return outputs


def _do_csbp(p: dict) -> dict[str, str]:
    _check_count(p, "reps", 2)  # a law check needs two samples
    _check_positive(p, "t")
    _check_positive(p, "dt")
    rng = RngStream(p["seed"]).named("csbp")
    values, _ = csbp_marginals(p["alpha"], p["c"], p["y0"], [p["t"]],
                               p["dt"], rng, size=p["reps"])
    lam = p["lam"]
    target = float(np.exp(-p["y0"] * u_t(p["alpha"], p["c"], lam, p["t"])))
    check = LawCheck.from_samples(
        "csbp_laplace", np.exp(-lam * values[:, 0]), target,
        abs_slack=0.01, alpha=p["alpha"], c=p["c"], y0=p["y0"], t=p["t"],
        lam=lam, dt=p["dt"], reps=p["reps"], seed=p["seed"])
    return {"records": _write_records(p, "out", "csbp_laplace",
                                      [check.to_record()])}


def _do_merge_ppp(p: dict) -> dict[str, str]:
    _check_count(p, "reps", 2)  # a law check needs two samples
    _check_positive(p, "x_min")
    rng = RngStream(p["seed"]).named("merge-ppp")
    w, ell = p["w"], p["ell"]
    if not 0 < ell <= 1.0:
        raise ValueError(f"--ell must lie in (0, 1], got {ell}")
    if w < p["x_min"]:
        raise ValueError(f"--w must be at least --x-min, got {w} < {p['x_min']}")
    counts = merge_ppp_counts(p["x_min"], w, ell, rng, p["reps"])
    target = ell / (2.0 * w * w)
    check = LawCheck.from_samples("merge_ppp_count", counts, target,
                                  x_min=p["x_min"], w=w, ell=ell,
                                  reps=p["reps"], seed=p["seed"])
    return {"records": _write_records(p, "out", "merge_ppp",
                                      [check.to_record()])}


def _do_gff(p: dict) -> dict[str, str]:
    _check_count(p, "pairs", 1)
    _check_size(p, math.isqrt(MAX_GRID_POINTS), f"a box of {MAX_GRID_POINTS:,} "
                "grid points, the free-field cap")
    rng = RngStream(p["seed"]).named("gff")
    fld = sample_dgff(p["n"], rng.named("field"))
    mult = geodesic_overlay(fld, p["gamma"], rng.named("pairs"),
                            n_random_pairs=p["pairs"])
    outputs = {}
    fpath = _out_path(p["field_csv"], "gff_field.csv")
    with open(fpath, "w", encoding="utf-8") as fp:
        fp.write(fld.to_csv())
    outputs["field"] = fpath
    opath = _out_path(p["overlay_csv"], "gff_overlay.csv")
    with open(opath, "w", encoding="utf-8") as fp:
        fp.write(overlay_csv(mult))
    outputs["overlay"] = opath
    if p["svg"]:
        spath = _out_path(p["svg"], "gff_overlay.svg")
        with open(spath, "w", encoding="utf-8") as fp:
            fp.write(overlay_svg(fld, mult))
        outputs["svg"] = spath
    frac = float(np.count_nonzero(mult) / mult.size)
    outputs["records"] = _write_records(p, "records", "gff_records", [{
        "n": p["n"], "seed": p["seed"], "gamma": p["gamma"],
        "pairs": p["pairs"], "geodesic_vertex_fraction": frac,
        "normalization": "unit-conductance degree-minus-adjacency Laplacian",
    }])
    return outputs


def _analyze_space(p: dict):
    kind = p["kind"]
    rng = RngStream(p["seed"]).named("analyze")
    if kind == "quad":
        tree = sample_labeled_tree(p["n"], rng.named("tree"))
        quad = cvs_construct(tree, sign=1)
        return GraphSpace.from_quad(quad)
    if kind == "snake":
        exc = sample_excursion(p["n"], 1.0, rng.named("excursion"))
        snake = sample_snake_labels(exc, rng.named("labels"))
        return snake_space(snake)[0]
    if kind == "gff":
        side = max(3, int(round(np.sqrt(p["n"]))))
        fld = sample_dgff(side, rng.named("field"))
        return space_from_field(fld, DEFAULT_GAMMA)
    raise ValueError(f"unknown analyze kind {kind!r}")


# analyze samples confluence pairs only on spaces at least this large
CONFLUENCE_MIN_POINTS = 1000


def _do_analyze(p: dict) -> dict[str, str]:
    _check_count(p, "n", 2 if p["kind"] == "snake" else 1)
    _check_count(p, "pairs", 1)
    _check_count(p, "star_centers", 0)
    _check_count(p, "confluence_pairs", 0)
    _check_count(p, "boundary_reps", 0)
    _check_count(p, "star_k", 2)
    if p["kind"] == "quad":
        _check_size(p, MAX_EDGES, "the corner-chaining cap")
    elif p["kind"] == "gff":
        _check_size(p, MAX_GRID_POINTS, "the free-field cap in grid points")
    _check_positive(p, "star_radius")
    eps_list = _number_list(p, "confluence_eps")
    if min(eps_list) < 0:
        raise ValueError(f"--confluence-eps must be nonnegative, "
                         f"got {p['confluence_eps']!r}")
    scales = None
    if p["scales"] is not None:
        scales = _number_list(p, "scales")
        try:
            _box_scales(scales)
        except ValueError as exc:
            raise ValueError(f"--scales: {exc}, got {p['scales']!r}") from None
    space = _analyze_space(p)
    rng = RngStream(p["seed"]).named("analyze-stats")
    records: list[dict] = []
    if scales is None:
        ecc = float(space.dist_from(0).max())
        scales = [ecc * f for f in (0.04, 0.1, 0.2, 0.5)]
    if p["kind"] == "quad" and p["boundary_reps"] > 0:
        maxima = []
        for r in range(p["boundary_reps"]):
            sub = RngStream(p["seed"]).named("analyze-boundary").split(r)
            tree = sample_labeled_tree(p["n"], sub)
            quad = cvs_construct(tree, 1)
            dist = bfs_metric(quad, quad.pointed_vertex)
            far = int(np.argmax(dist))
            if dist[far] < 2:
                continue
            ls = boundary_length_process(quad, quad.pointed_vertex, far)
            maxima.append(int(ls.max()))
        if len(maxima) >= 8:
            records.append({"stat": "boundary_length_tail", "seed": p["seed"],
                            "n": p["n"], **max_boundary_tail_report(maxima)})
    slope, stderr = frame_box_dimension(space, p["pairs"], scales,
                                        rng.named("frame"))
    records.append({"stat": "frame_box_dimension", "slope": slope,
                    "stderr": stderr, "pairs": p["pairs"],
                    "scales": scales, "seed": p["seed"]})
    gen = rng.named("centers").generator()
    centers = gen.integers(space.n, size=p["star_centers"])
    reports = star_census(space, p["star_k"], p["star_radius"], centers,
                          rng.named("stars"))
    for rep in reports:
        records.append({"stat": "star", "center": rep.center, "m": rep.k,
                        "radius": rep.disjoint_radius,
                        "skipped": rep.skipped, "seed": p["seed"]})
    if space.n >= CONFLUENCE_MIN_POINTS:
        rows = strong_confluence_statistic(space, eps_list,
                                           rng.named("confluence"),
                                           n_pairs=p["confluence_pairs"])
        for row in rows:
            records.append({"stat": "confluence", "seed": p["seed"], **row})
    elif p["confluence_pairs"] > 0:
        print(f"note: no confluence records: the space has {space.n:,} points, "
              f"below the {CONFLUENCE_MIN_POINTS:,}-point minimum",
              file=sys.stderr)
    return {"records": _write_records(p, "out", "analyze", records)}


def _do_acceptance(p: dict) -> dict[str, str]:
    from .acceptance import run_suite
    results = run_suite(fast=bool(p["fast"]))
    out = _write_records(p, "out", "acceptance",
                         [r.to_record() for r in results])
    if any(not r.passed for r in results):
        raise _FailedRun("acceptance suite has failing criteria", {"records": out})
    return {"records": out}


# ---------------------------------------------------------------------------
# command table

def _opt(typ, default=None, required=False, help=""):
    return (typ, default, required, help)


_COMMANDS = [
    _Cmd("sample-snake", {
        "n": _opt(int, 512, help="grid size"),
        "length": _opt(float, 1.0, help="excursion time length"),
        "seed": _opt(int, required=True, help="random seed"),
        "out": _opt(str, help="exit-graph JSON output"),
        "csv": _opt(str, help="optional per-point CSV export"),
    }, _do_sample_snake, help="label-process metric space"),
    _Cmd("sample-quad", {
        "n": _opt(int, 1000, help="number of faces"),
        "seed": _opt(int, required=True),
        "reps": _opt(int, 0, help="extra replicas for JSON-lines records"),
        "out": _opt(str),
        "records": _opt(str),
        "threads": _opt(int, 1, help="worker processes for the replicas"),
        "format": _opt(str, "json"),
    }, _do_sample_quad, help="random quadrangulation via corner chaining"),
    _Cmd("csbp", {
        "alpha": _opt(float, 1.5),
        "c": _opt(float, 1.0),
        "y0": _opt(float, 1.0),
        "t": _opt(float, 1.0),
        "lam": _opt(float, 1.0, help="Laplace argument (alias --lambda)"),
        "reps": _opt(int, 100000),
        "dt": _opt(float, 1e-3),
        "seed": _opt(int, required=True),
        "out": _opt(str),
        "format": _opt(str, "json"),
    }, _do_csbp, help="branching-process Laplace-law Monte Carlo"),
    _Cmd("merge-ppp", {
        "x_min": _opt(float, 0.02, help="smallest sampled depth"),
        "w": _opt(float, 0.1, help="depth threshold"),
        "ell": _opt(float, 1.0, help="interval length in (0, 1]"),
        "reps": _opt(int, 2000),
        "seed": _opt(int, required=True),
        "out": _opt(str),
        "format": _opt(str, "json"),
    }, _do_merge_ppp, help="merge point process Poisson check"),
    _Cmd("gff", {
        "n": _opt(int, 64, help="box side length"),
        "gamma": _opt(float, DEFAULT_GAMMA),
        "pairs": _opt(int, 8, help="boundary endpoint pairs"),
        "seed": _opt(int, required=True),
        "field_csv": _opt(str),
        "overlay_csv": _opt(str),
        "svg": _opt(str),
        "records": _opt(str),
        "format": _opt(str, "json"),
    }, _do_gff, help="free-field metric and geodesic overlay"),
    _Cmd("analyze", {
        "kind": _opt(str, "quad", help="quad | snake | gff"),
        "n": _opt(int, 2000),
        "pairs": _opt(int, 20),
        "scales": _opt(str, None, help="comma list; default derives from the "
                                       "space diameter"),
        "star_k": _opt(int, 5),
        "star_radius": _opt(float, 3.0),
        "star_centers": _opt(int, 8),
        "confluence_eps": _opt(str, "1,2,3,4"),
        "confluence_pairs": _opt(int, 60),
        "boundary_reps": _opt(int, 0, help="hull-perimeter tail report samples"),
        "seed": _opt(int, required=True),
        "out": _opt(str),
        "format": _opt(str, "json"),
    }, _do_analyze, help="geodesic statistics on a sampled space"),
    _Cmd("acceptance", {
        "fast": _opt(bool, False, help="reduced sizes, smoke run"),
        "out": _opt(str),
        "format": _opt(str, "json"),
    }, _do_acceptance, help="run the acceptance criteria"),
]


def run(argv) -> int:
    parser = argparse.ArgumentParser(prog="bmlab")
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}
    for cmd in _COMMANDS:
        p = cmd.add_parser(sub)
        tables[cmd.name] = (cmd, p)
    # accept --lambda as an alias for --lam on csbp
    argv = ["--lam" if a == "--lambda" else a for a in argv]
    ns = parser.parse_args(argv)
    cmd, subparser = tables[ns.command]
    params = cmd.finalize(ns, subparser)
    manifest = _manifest_for(cmd.name, params)
    try:
        for dest, (typ, *_rest) in cmd.options.items():
            if typ is float and not np.isfinite(params[dest]):
                raise ValueError(f"{_flag(dest)} must be finite, "
                                 f"got {params[dest]}")
        if params.get("format", "json") not in _RECORD_SUFFIX:
            raise ValueError(f"--format must be json or csv, "
                             f"got {params['format']!r}")
        outputs = cmd.action(params)
    except _FailedRun as exc:
        _finish(manifest, exc.outputs)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if outputs:
        _finish(manifest, outputs)
        for label, path in outputs.items():
            print(f"{label}: {path}")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
