import contextlib
import csv
import hashlib
import io
import json
import os
import re
import warnings

import numpy as np
import pytest

from bmlab.cli import run
from bmlab.manifest import RunManifest, sha256_file


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("BML_DATA_DIR", str(tmp_path))
    return tmp_path


def test_csbp_command_emits_law_record(outdir):
    code = run(["csbp", "--alpha", "1.5", "--c", "1", "--y0", "1", "--t", "1",
                "--lambda", "1", "--reps", "3000", "--dt", "0.005",
                "--seed", "7", "--out", "rec.jsonl"])
    assert code == 0
    rec = json.loads((outdir / "rec.jsonl").read_text().splitlines()[0])
    assert rec["target"] == pytest.approx(np.exp(-0.25), rel=1e-9)
    assert rec["passed"] is True
    assert (outdir / "rec.jsonl.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["csbp", "--dt", "0"],
    ["csbp", "--dt", "-0.01"],
    ["csbp", "--y0", "-1"],
    ["csbp", "--reps", "0"],
    ["csbp", "--reps", "1"],
    ["merge-ppp", "--reps", "1"],
])
def test_invalid_law_parameters_exit_one_with_message(outdir, capsys, argv):
    assert run(argv + ["--seed", "1", "--out", "bad.jsonl"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (outdir / "bad.jsonl").exists()


@pytest.mark.parametrize("argv,least", [
    (["csbp", "--reps", "-5", "--out", "bad.jsonl"], 2),
    (["merge-ppp", "--reps", "-1", "--out", "bad.jsonl"], 2),
    (["sample-quad", "--reps", "-3", "--out", "bad.jsonl"], 0),
    (["analyze", "--star-centers", "-1", "--n", "200", "--pairs", "4",
      "--out", "bad.jsonl"], 0),
    (["analyze", "--confluence-pairs", "-5", "--n", "200", "--out", "bad.jsonl"], 0),
    (["analyze", "--pairs", "0", "--n", "200", "--out", "bad.jsonl"], 1),
    (["gff", "--pairs", "-2", "--n", "8", "--records", "bad.jsonl"], 1),
    (["analyze", "--boundary-reps", "-1", "--n", "200", "--out", "bad.jsonl"], 0),
    (["sample-quad", "--threads", "0", "--n", "20", "--out", "bad.jsonl"], 1),
    (["sample-quad", "--threads", "-2", "--n", "20", "--reps", "2",
      "--out", "bad.jsonl"], 1),
    (["analyze", "--star-k", "1", "--n", "200", "--out", "bad.jsonl"], 2),
])
def test_negative_reps_exit_one_naming_the_flag_and_bound(outdir, capsys, argv,
                                                          least):
    """argv[1] is the out-of-range count flag."""
    assert run(argv + ["--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {argv[1]} must be at least {least}, got {argv[2]}")
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("argv", [
    ["--scales", "a"],
    ["--scales", "1,,10"],
    ["--scales="],
    ["--confluence-eps="],
    ["--confluence-eps", "1,two"],
])
def test_bad_comma_lists_exit_one_naming_the_flag(outdir, capsys, argv):
    flag, value = argv[0].split("=")[0], (argv[1:] or [""])[0]
    assert run(["analyze", "--n", "200", "--seed", "1", "--out", "bad.jsonl"]
               + argv) == 1
    assert capsys.readouterr().err == \
        f"error: {flag} must be a comma list of numbers, got {value!r}\n"
    assert not any(outdir.iterdir())


_ANALYZE = ["analyze", "--n", "200", "--seed", "1", "--out", "bad.jsonl"]


@pytest.mark.parametrize("argv", [
    _ANALYZE + ["--scales", "1,10,inf"],
    _ANALYZE + ["--scales", "1,10,nan"],
    _ANALYZE + ["--confluence-eps", "nan"],
    _ANALYZE + ["--confluence-eps", "1,inf"],
    _ANALYZE + ["--star-radius", "inf"],
    _ANALYZE + ["--star-radius", "nan"],
    ["gff", "--n", "8", "--seed", "1", "--gamma", "nan"],
    ["csbp", "--reps", "10", "--seed", "1", "--lam", "nan"],
    ["merge-ppp", "--seed", "1", "--w", "nan"],
    ["sample-snake", "--seed", "1", "--length", "inf"],
])
def test_non_finite_numbers_exit_one_naming_the_flag(outdir, capsys, argv):
    """argv ends with the flag and its value."""
    flag, value = argv[-2:]
    assert run(argv) == 1
    comma_list = flag in ("--scales", "--confluence-eps")
    shown = repr(value) if comma_list else value
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {shown}\n"
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("value", ["-1", "0"])
def test_nonpositive_star_radius_exits_one_naming_the_flag(outdir, capsys, value):
    assert run(["analyze", "--n", "200", "--seed", "1", "--out", "bad.jsonl",
                "--star-radius", value]) == 1
    assert capsys.readouterr().err == \
        f"error: --star-radius must be positive, got {float(value)}\n"
    assert not any(outdir.iterdir())


def test_negative_confluence_epsilon_exits_one(outdir, capsys):
    # the 300-point space is too small for a confluence run
    for argv in (["--n", "1000", "--pairs", "4", "--star-centers", "0",
                  "--confluence-pairs", "2"],
                 ["--kind", "snake", "--n", "300", "--pairs", "3"]):
        assert run(["analyze", "--confluence-eps=-1", "--seed", "1",
                    "--out", "bad.jsonl"] + argv) == 1
        assert capsys.readouterr().err == \
            "error: --confluence-eps must be nonnegative, got '-1'\n"
        assert not any(outdir.iterdir())


def test_analyze_notes_a_space_too_small_for_confluence(outdir, capsys):
    argv = ["analyze", "--kind", "snake", "--n", "300", "--pairs", "3",
            "--seed", "1", "--out", "s.jsonl"]
    assert run(argv) == 0
    assert capsys.readouterr().err == (
        "note: no confluence records: the space has 299 points, below the "
        "1,000-point minimum\n")
    recs = [json.loads(s) for s in (outdir / "s.jsonl").read_text().splitlines()]
    assert "confluence" not in {r["stat"] for r in recs}
    # no note when no confluence pairs are asked for
    assert run(argv + ["--confluence-pairs", "0", "--out", "s0.jsonl"]) == 0
    assert capsys.readouterr().err == ""
    assert (outdir / "s0.jsonl").read_bytes() == (outdir / "s.jsonl").read_bytes()


@pytest.mark.parametrize("value", ["1,2", "1,10", "0,1,10", "-1,1,10"])
def test_scales_that_fit_no_slope_exit_one_naming_the_flag(outdir, capsys,
                                                           value):
    assert run(_ANALYZE + [f"--scales={value}"]) == 1
    assert capsys.readouterr().err == \
        ("error: --scales: need at least 3 positive finite scales spanning "
         f"a decade, got {value!r}\n")
    assert not any(outdir.iterdir())


def _gff_digest(argv, root):
    """SHA-256 over a gff run's output files, names included; manifests
    are skipped, as criterion 14 skips them, since they carry timestamps."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if not name.endswith(".manifest.json"):
            h.update(name.encode() + (root / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv,digest", [
    (["gff", "--n", "24", "--pairs", "3", "--seed", "9", "--field-csv", "f.csv",
      "--overlay-csv", "o.csv", "--svg", "o.svg", "--records", "g.jsonl"],
     "b706a612d99d7e664272ed4eefd704ad23a550dc5ff85df17f298503f6e79642"),
    (["gff", "--n", "64", "--pairs", "8", "--seed", "11", "--svg", "o.svg"],
     "e0fa761dbd7cee9876c21f81e9e459bbdb2f34ff281add4d8f0834b83aa3249a"),
])
def test_gff_output_digests(outdir, argv, digest):
    # recorded when overlays counted the paths of a list; exact counts on
    # the geodesic DAG must not move them
    assert _gff_digest(argv, outdir) == digest


def test_seed_is_required(outdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["csbp", "--reps", "100"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(outdir):
    with pytest.raises(SystemExit) as exc:
        run(["csbp", "--seed", "1", "--bogus", "2"])
    assert exc.value.code == 2


def test_validation_failure_exits_one(outdir):
    code = run(["merge-ppp", "--seed", "1", "--ell", "2.0", "--reps", "10"])
    assert code == 1


def test_sample_snake_determinism(outdir):
    for name in ("a.json", "b.json"):
        assert run(["sample-snake", "--n", "64", "--seed", "5",
                    "--out", name]) == 0
    assert sha256_file(outdir / "a.json") == sha256_file(outdir / "b.json")


def test_sample_quad_records_and_manifest(outdir):
    code = run(["sample-quad", "--n", "200", "--seed", "9", "--reps", "3",
                "--out", "q.json", "--records", "q.jsonl"])
    assert code == 0
    lines = (outdir / "q.jsonl").read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["n"] == 200 and "diameter" in rec
    man = RunManifest.from_json((outdir / "q.json.manifest.json").read_text())
    assert man.command == "sample-quad"
    assert set(man.output_digests) == {"map", "records"}
    assert man.to_json() == RunManifest.from_json(man.to_json()).to_json()


def test_quad_records_threads_match_serial(outdir):
    run(["sample-quad", "--n", "120", "--seed", "2", "--reps", "4",
         "--out", "s.json", "--records", "s.jsonl", "--threads", "1"])
    run(["sample-quad", "--n", "120", "--seed", "2", "--reps", "4",
         "--out", "t.json", "--records", "t.jsonl", "--threads", "2"])
    assert (outdir / "s.jsonl").read_text() == (outdir / "t.jsonl").read_text()


def test_gff_command_outputs(outdir):
    code = run(["gff", "--n", "16", "--pairs", "2", "--seed", "3",
                "--field-csv", "f.csv", "--overlay-csv", "o.csv",
                "--svg", "o.svg", "--records", "g.jsonl"])
    assert code == 0
    field = np.loadtxt(outdir / "f.csv", delimiter=",")
    assert field.shape == (16, 16)
    assert (outdir / "o.svg").read_text().startswith("<svg")
    rec = json.loads((outdir / "g.jsonl").read_text())
    assert 0 < rec["geodesic_vertex_fraction"] < 1


def test_config_file_with_flag_override(outdir, tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("# settings\nseed = 11\nreps = 50\nw = 0.2\n")
    code = run(["merge-ppp", "--config", str(conf), "--reps", "60",
                "--out", "m.jsonl"])
    assert code == 0
    rec = json.loads((outdir / "m.jsonl").read_text())
    assert rec["reps"] == 60  # flag overrides config
    assert rec["w"] == 0.2
    assert rec["seed"] == 11


def test_config_rejects_unknown_keys(outdir, tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("nonsense = 1\n")
    with pytest.raises(SystemExit) as exc:
        run(["merge-ppp", "--seed", "1", "--config", str(conf)])
    assert exc.value.code == 2


def test_analyze_quad_records(outdir):
    code = run(["analyze", "--kind", "quad", "--n", "1200", "--pairs", "4",
                "--star-centers", "2", "--confluence-pairs", "15",
                "--seed", "21", "--out", "an.jsonl"])
    assert code == 0
    recs = [json.loads(s) for s in (outdir / "an.jsonl").read_text().splitlines()]
    stats = {r["stat"] for r in recs}
    assert {"frame_box_dimension", "star", "confluence"} <= stats


def test_analyze_boundary_reps_writes_tail_record(outdir):
    code = run(["analyze", "--kind", "quad", "--n", "300", "--pairs", "4",
                "--star-centers", "1", "--confluence-pairs", "0",
                "--boundary-reps", "8", "--seed", "3", "--out", "bd.jsonl"])
    assert code == 0
    recs = [json.loads(s) for s in (outdir / "bd.jsonl").read_text().splitlines()]
    tail = [r for r in recs if r["stat"] == "boundary_length_tail"]
    assert tail == [{
        "stat": "boundary_length_tail", "seed": 3, "n": 300, "samples": 8,
        "tail_slope": pytest.approx(-3.0021023383253405, rel=1e-12),
        "stderr": pytest.approx(1.0460739333287237, rel=1e-12),
        "ci95": pytest.approx([-5.052407247649638, -0.9517974290010423],
                              rel=1e-12)}]


def test_analyze_frame_without_a_slope_exits_one(outdir, capsys):
    # one face: the frame is one vertex, covered by one ball at every scale
    code = run(["analyze", "--kind", "quad", "--n", "1", "--pairs", "2",
                "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: the cover count is 1 at every scale, so it gives no slope\n"


def test_analyze_snake_traces_past_identified_points(outdir):
    # the quotient identifies grid points (the excursion's two ends at
    # least); each such set is one vertex of the snake graph
    code = run(["analyze", "--kind", "snake", "--n", "256", "--pairs", "40",
                "--star-centers", "4", "--seed", "2", "--out", "sn.jsonl"])
    assert code == 0
    recs = [json.loads(s) for s in (outdir / "sn.jsonl").read_text().splitlines()]
    assert {"frame_box_dimension", "star"} <= {r["stat"] for r in recs}


def test_csv_format_output(outdir):
    code = run(["csbp", "--seed", "5", "--reps", "500", "--dt", "0.01",
                "--t", "0.25", "--format", "csv", "--out", "rec.csv"])
    assert code == 0
    text = (outdir / "rec.csv").read_text().splitlines()
    assert "estimate" in text[0]


@pytest.mark.parametrize("argv,stem", [
    (["csbp", "--reps", "100", "--dt", "0.01", "--t", "0.25", "--seed", "1"],
     "csbp_laplace"),
    (["merge-ppp", "--reps", "20", "--seed", "1"], "merge_ppp"),
    (["sample-quad", "--n", "20", "--reps", "2", "--seed", "1"], "quad_records"),
    (["gff", "--n", "8", "--pairs", "1", "--seed", "1"], "gff_records"),
    (["analyze", "--kind", "quad", "--n", "200", "--pairs", "3",
      "--star-centers", "1", "--seed", "1"], "analyze"),
    (["acceptance"], "acceptance"),
])
@pytest.mark.parametrize("fmt,suffix", [("json", ".jsonl"), ("csv", ".csv")])
def test_records_default_name_follows_the_format(outdir, monkeypatch, argv,
                                                 stem, fmt, suffix):
    import bmlab.acceptance
    from bmlab.acceptance import CriterionResult

    monkeypatch.setattr(bmlab.acceptance, "run_suite", lambda fast=False: [
        CriterionResult(1, "stub", True, {"why": "stubbed"})])
    assert run(argv + ["--format", fmt]) == 0
    names = {p.name for p in outdir.iterdir()}
    assert stem + suffix in names
    assert ({stem + ".jsonl", stem + ".csv"} - {stem + suffix}) & names == set()
    text = (outdir / (stem + suffix)).read_text()
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        assert rows and all(len(row) == len(header) for row in rows)
    else:
        assert [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("argv", [
    ["merge-ppp", "--reps", "20", "--seed", "1", "--format", "xml"],
    ["csbp", "--reps", "100", "--dt", "0.01", "--seed", "1", "--format", "JSON"],
    ["sample-quad", "--n", "20", "--reps", "2", "--seed", "1",
     "--format", "jsonl"],
    ["gff", "--n", "8", "--seed", "1", "--format", ""],
    ["analyze", "--n", "200", "--seed", "1", "--format", "tsv"],
    ["acceptance", "--format", "yaml"],
])
def test_unknown_format_exits_one_naming_the_flag(outdir, capsys, argv):
    assert run(argv) == 1
    assert capsys.readouterr().err == \
        f"error: --format must be json or csv, got {argv[-1]!r}\n"
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["csbp", "--t", "0"], "--t must be positive, got 0.0"),
    (["csbp", "--t", "-1"], "--t must be positive, got -1.0"),
    (["csbp", "--dt", "0"], "--dt must be positive, got 0.0"),
    (["csbp", "--dt", "-0.01"], "--dt must be positive, got -0.01"),
    (["merge-ppp", "--x-min", "0"], "--x-min must be positive, got 0.0"),
    (["merge-ppp", "--x-min", "-0.5"], "--x-min must be positive, got -0.5"),
    (["merge-ppp", "--ell", "2"], "--ell must lie in (0, 1], got 2.0"),
    (["merge-ppp", "--w", "0.01"], "--w must be at least --x-min, got 0.01 < 0.02"),
])
def test_law_parameter_errors_name_the_flag(outdir, capsys, argv, message):
    assert run(argv + ["--reps", "20", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("argv", [
    ["sample-quad", "--n", "50", "--reps", "2", "--out", "q.json", "--records"],
    ["analyze", "--kind", "quad", "--n", "300", "--out"],
])
def test_csv_records_parse_to_the_json_records(outdir, argv):
    # a list value (a histogram, the scales) is one field of JSON text
    assert run(argv + ["r.csv", "--format", "csv", "--seed", "1"]) == 0
    assert run(argv + ["r.jsonl", "--seed", "1"]) == 0
    records = [json.loads(s) for s in (outdir / "r.jsonl").read_text().splitlines()]
    with open(outdir / "r.csv", newline="") as fp:
        header, *rows = csv.reader(fp)
    assert header == sorted({k for r in records for k in r})
    assert len(rows) == len(records)
    assert any(isinstance(v, list) for r in records for v in r.values())
    for row, rec in zip(rows, records):
        assert len(row) == len(header)
        for col, cell in zip(header, row):
            want = rec.get(col)
            if isinstance(want, list):
                assert json.loads(cell) == want
            else:
                assert cell == ("" if want is None else str(want))


def test_resource_limit_exits_one_with_message(outdir, capsys):
    code = run(["csbp", "--t", "10000", "--dt", "0.001", "--reps", "2",
                "--seed", "5", "--out", "big.jsonl"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: horizon/dt needs 10000000 steps, budget is 2000000\n"
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sample-quad", "--n", "1300001", "--seed", "1"],
    ["analyze", "--kind", "quad", "--n", "1300001", "--seed", "1"],
])
def test_quad_size_above_the_cap_exits_before_sampling(outdir, capsys,
                                                       monkeypatch, argv):
    import bmlab.cli

    def refuse(*args, **kwargs):
        raise AssertionError("sample_labeled_tree was called")

    monkeypatch.setattr(bmlab.cli, "sample_labeled_tree", refuse)
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: --n must be at most 1,300,000 (the "
                                 "corner-chaining cap), got 1,300,001\n")


@pytest.mark.parametrize("argv,message", [
    (["gff", "--n", "1001"], "at most 1,000 (a box of 1,000,000 grid points, "
                             "the free-field cap), got 1,001"),
    (["analyze", "--kind", "gff", "--n", "1000001"],
     "at most 1,000,000 (the free-field cap in grid points), got 1,000,001"),
])
def test_field_size_above_the_cap_exits_before_sampling(outdir, capsys,
                                                        monkeypatch, argv,
                                                        message):
    import bmlab.cli

    def refuse(*args, **kwargs):
        raise AssertionError("sample_dgff was called")

    monkeypatch.setattr(bmlab.cli, "sample_dgff", refuse)
    assert run(argv + ["--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --n must be {message}\n"
    assert not any(outdir.iterdir())


def test_failing_acceptance_writes_records_and_manifest(outdir, capsys,
                                                        monkeypatch):
    import bmlab.acceptance
    from bmlab.acceptance import CriterionResult

    monkeypatch.setattr(bmlab.acceptance, "run_suite", lambda fast=False: [
        CriterionResult(1, "stub", False, {"why": "stubbed"})])
    assert run(["acceptance", "--out", "acc.jsonl"]) == 1
    assert capsys.readouterr().err == \
        "error: acceptance suite has failing criteria\n"
    rec = json.loads((outdir / "acc.jsonl").read_text())
    assert rec["passed"] is False and rec["why"] == "stubbed"
    man = RunManifest.from_json((outdir / "acc.jsonl.manifest.json").read_text())
    assert man.command == "acceptance" and man.finished is not None
    assert man.output_digests == {"records": sha256_file(outdir / "acc.jsonl")}


def test_threads_flag_only_on_sample_quad(outdir):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--kind", "quad", "--n", "50", "--seed", "1",
             "--threads", "2"])
    assert exc.value.code == 2
    assert run(["sample-quad", "--n", "50", "--seed", "1", "--reps", "2",
                "--out", "q.json", "--records", "q.jsonl",
                "--threads", "2"]) == 0
    assert len((outdir / "q.jsonl").read_text().splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ["gff", "--n", "8", "--seed", "1", "--out", "g.txt"],
    ["sample-snake", "--n", "16", "--seed", "1", "--format", "csv"],
    ["acceptance", "--suite", "primary"],
    ["sample-snake", "--n", "16", "--seed", "1", "--size-cap", "32"],
])
def test_flags_that_did_nothing_are_usage_errors(outdir, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--kind", "quad", "--n", "1", "--pairs", "2"],
    ["analyze", "--kind", "quad", "--n", "2", "--pairs", "2"],
    ["analyze", "--kind", "quad", "--n", "10", "--pairs", "2"],
    ["analyze", "--kind", "snake", "--n", "2", "--pairs", "2"],
    ["analyze", "--kind", "snake", "--n", "3", "--pairs", "2"],
    ["analyze", "--kind", "snake", "--n", "8", "--pairs", "2"],
    ["analyze", "--kind", "snake", "--n", "64", "--scales", "0,1,2"],
    ["analyze", "--kind", "gff", "--n", "1", "--pairs", "2"],
    ["analyze", "--kind", "gff", "--n", "9", "--pairs", "2"],
    ["analyze", "--kind", "quad", "--n", "500", "--pairs", "3", "--scales", "1,10,inf"],
    ["analyze", "--kind", "quad", "--n", "500", "--pairs", "3", "--scales", "1,10,nan"],
    ["analyze", "--kind", "quad", "--n", "3000", "--confluence-eps", "nan"],
    ["analyze", "--kind", "quad", "--n", "3000", "--confluence-eps", "1,inf"],
    ["analyze", "--kind", "quad", "--n", "500", "--star-radius", "inf"],
    ["analyze", "--kind", "quad", "--n", "500", "--star-radius", "nan"],
    ["gff", "--n", "2", "--pairs", "1"],
    ["sample-snake", "--n", "1"],
    ["sample-snake", "--n", "2"],
    ["sample-quad", "--n", "0"],
    ["sample-quad", "--n", "1"],
    ["csbp", "--y0", "0", "--reps", "200"],
    ["merge-ppp", "--reps", "2"],
    ["merge-ppp"],
    ["analyze", "--kind", "gff", "--n", "-5", "--pairs", "2"],
    ["analyze", "--kind", "quad", "--n", "-5", "--pairs", "2"],
    ["analyze", "--kind", "snake", "--n", "1", "--pairs", "2"],
])
def test_smallest_sizes_end_cleanly(outdir, capfd, argv):
    """Exit 0, or exit 1 with one ``error:`` line and nothing else: no
    warning, and nothing that compiled libraries print (capfd sees it).
    Each analyze run here is below the confluence size and writes its
    one ``note:``, and an analyze size below the least one names ``--n``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv + ["--seed", "1"])
    out, err = capfd.readouterr()
    assert [str(w.message) for w in caught] == []
    if argv[0] == "analyze":
        n, least = int(argv[argv.index("--n") + 1]), 2 if "snake" in argv else 1
        if n < least:
            assert err == f"error: --n must be at least {least}, got {n}\n", err
    if code == 0:
        note = (r"note: no confluence records: the space has \d+ points, "
                r"below the 1,000-point minimum\n")
        assert re.fullmatch(note if argv[0] == "analyze" else "", err), err
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "pair_count" not in err, err
