import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import quotlab
from quotlab import bisectors, lines, quotients
from quotlab.cli import main
from quotlab.polynomials import Poly, bivariate_from_terms
from quotlab.sets import GroundSet

from oracles import brute_bisector_intercepts

G_X = '[{"c":"1","i":1,"j":0}]'
G_Y2 = '[{"c":"1","i":0,"j":2}]'
G_XY = '[{"c":"1","i":1,"j":1}]'
G_X2_PLUS_Y = '[{"c":"1","i":2,"j":0},{"c":"1","i":0,"j":1}]'
AP3 = '{"kind":"arithmetic","start":1,"step":1,"size":3}'


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def test_degeneracy_degenerate_polynomial(tmp_path):
    code, report = run_cli(tmp_path, "degeneracy", "--g", G_Y2)
    assert code == 0
    assert report["schema"] == 1
    assert report["results"] == {
        "degenerate": True,
        "total_degree": 2,
        "witness": "g has no x-dependent term; "
                   "g(x1,y1) - g(x2,y2) = (y2 - y1) * (-y1 - y2)",
    }
    assert report["tool"]["name"] == "quotlab"


def test_degeneracy_non_degenerate(tmp_path):
    code, report = run_cli(tmp_path, "degeneracy", "--g", G_XY)
    assert code == 0
    assert report["results"]["degenerate"] is False


def test_quotient_difference_ratio(tmp_path):
    code, report = run_cli(tmp_path, "quotient", "--g", G_X, "--set", AP3)
    assert code == 0
    assert report["results"]["size_x"] == 7
    assert report["results"]["values"] == ["-2", "-1", "-1/2", "0", "1/2", "1", "2"]


def test_quotient_gate_and_allow_flag(tmp_path):
    code, _ = run_cli(tmp_path, "quotient", "--g", G_Y2, "--set", AP3)
    assert code == 2
    code, report = run_cli(tmp_path, "quotient", "--g", G_Y2, "--set", AP3,
                           "--allow-degenerate")
    assert code == 0
    assert report["results"]["size_x"] == 3


def test_chain_rejects_degenerate_even_with_flag(tmp_path):
    code, _ = run_cli(tmp_path, "chain", "--g", G_Y2, "--set", AP3,
                      "--allow-degenerate")
    assert code == 2


def test_chain_report_and_histogram_csv(tmp_path):
    hist_path = tmp_path / "hist.csv"
    code, report = run_cli(tmp_path, "chain", "--g", G_X,
                           "--set", '{"kind":"arithmetic","start":0,"step":1,"size":2}',
                           "--histogram-out", str(hist_path))
    assert code == 0
    assert report["results"]["size_x"] == 3
    assert report["results"]["energy_support"] == 20
    rows = read_csv(hist_path)
    assert rows[0] == ["x", "count"]
    assert rows[1:] == [["-1", "2"], ["0", "4"], ["1", "2"]]


def test_chain_enumerates_the_histogram_once(tmp_path, monkeypatch):
    calls = {"histogram": 0, "quotient": 0}
    kernel = lines._pair_keys_chunk

    def counted(args):
        # the pair walk collects into a Counter for Q and a set for X
        calls["histogram" if args[-1] is Counter else "quotient"] += 1
        return kernel(args)

    monkeypatch.setattr(lines, "_pair_keys_chunk", counted)
    hist_path = tmp_path / "hist.csv"
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3,
                           "--workers", "1", "--histogram-out", str(hist_path))
    assert code == 0
    assert calls == {"histogram": 1, "quotient": 0}
    rows = read_csv(hist_path)
    assert len(rows) - 1 == report["results"]["size_x"]


def test_chain_builds_the_line_family_once(tmp_path, monkeypatch):
    calls = {"build_lines": 0, "integer_values": 0, "evaluate": 0}
    build_lines, scaled_values, evaluate = lines.build_lines, lines._scaled_values, Poly.evaluate

    def counted_build(*args, **kwargs):
        calls["build_lines"] += 1
        return build_lines(*args, **kwargs)

    def counted_values(*args):
        rows, qb, scale = scaled_values(*args)
        calls["integer_values"] += sum(map(len, rows.values()))
        return rows, qb, scale

    def counted_evaluate(self, point):
        calls["evaluate"] += 1
        return evaluate(self, point)

    for module in (lines, quotients):
        monkeypatch.setattr(module, "build_lines", counted_build)
    monkeypatch.setattr(lines, "_scaled_values", counted_values)
    monkeypatch.setattr(Poly, "evaluate", counted_evaluate)
    spec = json.dumps({"kind": "arithmetic", "start": 1, "step": 1, "size": 6})
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", spec, "--workers", "1")
    assert code == 0
    # |A|^2 integer evaluations build the table; g itself is evaluated only
    # by the anchor, at the first, middle and last elements of A and of B
    assert calls == {"build_lines": 1, "integer_values": 6 * 6, "evaluate": 3 * 3}
    assert report["results"]["size_x"] > 0


def test_energy_check_catches_a_mass_preserving_section_defect(tmp_path, monkeypatch,
                                                              capsys):
    section = quotients.vertical_section
    calls = []

    def moves_one_unit(family, x):
        out = section(family, x)
        calls.append(x)
        if len(calls) == 1:
            # the mass |A|^2 is unchanged; sum n^2 rises by 2(b - a) + 2 > 0
            lo, hi = min(out, key=out.get), max(out, key=out.get)
            out[lo] -= 1
            out[hi] += 1
        return out

    monkeypatch.setattr(quotients, "vertical_section", moves_one_unit)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert f"internal check failed: energy identity failed at {calls[0]}" in \
        capsys.readouterr().err


def test_failed_internal_check_exits_four(tmp_path, monkeypatch, capsys):
    kernel = lines._pair_keys_chunk

    def drops_one_count(args):
        out = kernel(args)
        if args[-1] is Counter:
            out[next(iter(out))] -= 1
        return out

    monkeypatch.setattr(lines, "_pair_keys_chunk", drops_one_count)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3,
                           "--workers", "1")
    assert code == 4
    assert report is None
    assert "internal check failed: histogram total" in capsys.readouterr().err


def test_rich_points_report_and_csv(tmp_path):
    pts_path = tmp_path / "points.csv"
    code, report = run_cli(tmp_path, "rich-points", "--g", G_X,
                           "--set", '{"kind":"arithmetic","start":0,"step":1,"size":2}',
                           "--thresholds", "2,3", "--points-out", str(pts_path))
    assert code == 0
    by_t = {row["t"]: row["count"] for row in report["results"]["thresholds"]}
    assert by_t == {2: 4, 3: 0}
    rows = read_csv(pts_path)
    assert rows[0] == ["x", "y", "n"]
    assert rows[1:] == [["-1", "-1", "2"], ["0", "-1", "2"],
                        ["0", "0", "2"], ["1", "0", "2"]]


def test_rich_points_aggregates_the_crossings_once(tmp_path, monkeypatch):
    calls = []
    crossing_weights = lines.crossing_weights

    def counted(*args, **kwargs):
        calls.append(1)
        return crossing_weights(*args, **kwargs)

    monkeypatch.setattr(lines, "crossing_weights", counted)
    pts_path = tmp_path / "points.csv"
    code, report = run_cli(tmp_path, "rich-points", "--g", G_XY, "--set", AP3,
                           "--thresholds", "2", "--points-out", str(pts_path),
                           "--workers", "1")
    assert code == 0
    assert len(calls) == 1
    rows = read_csv(pts_path)
    assert report["results"]["thresholds"][0]["count"] == len(rows) - 1


# sha256 of --points-out CSVs written by the crossing-point aggregate that
# the lowest-slope-line sweep replaced, on g = xy over {1..5} and
# g = x^2 + y over {-3..3}
POINTS_CSV_SHA256 = {
    (G_XY, 1, 5): "355d6d3f122f3ffcb1683784b387ef2c8d560997ab9bb64fb90507257dc85c2d",
    (G_X2_PLUS_Y, -3, 7): "3d1c6f2f6a97da3c7e715932a6d8c0f97278052bb1a129dec5c158e28173699e",
}


def test_points_csv_bytes_are_unchanged(tmp_path):
    for (g, start, size), digest in POINTS_CSV_SHA256.items():
        spec = json.dumps({"kind": "arithmetic", "start": start, "step": 1, "size": size})
        for workers in ("1", "2"):
            pts_path = tmp_path / f"points_{start}_{workers}.csv"
            code, _ = run_cli(tmp_path, "rich-points", "--g", g, "--set", spec,
                              "--thresholds", "2", "--points-out", str(pts_path),
                              "--workers", workers)
            assert code == 0
            assert hashlib.sha256(pts_path.read_bytes()).hexdigest() == digest


VALUES_CSV_SHA256 = {
    (G_XY, 1, 6): "7571e67f0a0f0f0c4b2797146d5b80bab910a9d04c2254744e1c97cc8557ec7c",
    (G_X2_PLUS_Y, -4, 9): "4f60eed1072f741c98aa0a429c80a6935877cf0dbc8ddda6d4c7bb18cd35308f",
}
# the first set the bisector-rand benchmark draws with seed 1
BISECTOR_RAND_SET = ["1", "4", "9", "13", "16", "18", "27", "33", "49", "50",
                     "56", "58", "61", "63", "64", "73", "78", "84", "98", "99"]
INTERCEPTS_CSV_SHA256 = "b06370d677c1f5c278a64e2388ce8be3e7e9d5295e0465554ecc1c6da583204a"
# written when the histogram built its Fraction counts eagerly
HISTOGRAM_CSV_SHA256 = {
    (G_XY, 1, 6): "d8e2b170c659b2e4dbada1f794773f2f690092e2d43c48a6a1ccccbd1d71ce77",
    (G_X2_PLUS_Y, -4, 9): "0c606f1168c56abc7f801b2a287c1d2ae6870bccbb98693c8f7fe60ff22aa013",
}


def test_values_csv_bytes_are_unchanged(tmp_path):
    for (g, start, size), digest in VALUES_CSV_SHA256.items():
        spec = json.dumps({"kind": "arithmetic", "start": start, "step": 1, "size": size})
        for workers in ("1", "2"):
            values_path = tmp_path / f"values_{start}_{workers}.csv"
            code, _ = run_cli(tmp_path, "quotient", "--g", g, "--set", spec,
                              "--values-out", str(values_path), "--workers", workers)
            assert code == 0
            assert hashlib.sha256(values_path.read_bytes()).hexdigest() == digest


def test_intercepts_csv_bytes_are_unchanged(tmp_path):
    spec = json.dumps({"kind": "explicit", "values": BISECTOR_RAND_SET})
    for workers in ("1", "2"):
        csv_path = tmp_path / f"intercepts_{workers}.csv"
        code, _ = run_cli(tmp_path, "bisector", "--set", spec,
                          "--intercepts-out", str(csv_path), "--workers", workers)
        assert code == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == INTERCEPTS_CSV_SHA256


def test_histogram_csv_bytes_are_unchanged(tmp_path):
    for (g, start, size), digest in HISTOGRAM_CSV_SHA256.items():
        spec = json.dumps({"kind": "arithmetic", "start": start, "step": 1, "size": size})
        for workers in ("1", "2"):
            hist_path = tmp_path / f"hist_{start}_{workers}.csv"
            code, _ = run_cli(tmp_path, "chain", "--g", g, "--set", spec,
                              "--histogram-out", str(hist_path), "--workers", workers)
            assert code == 0
            assert hashlib.sha256(hist_path.read_bytes()).hexdigest() == digest


def count_fractions(monkeypatch, module=quotients) -> list:
    """The Fractions ``module`` builds from now on, in order."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            value = Fraction(*args, **kwargs)
            built.append(value)
            return value

    monkeypatch.setattr(module, "Fraction", Counted)
    return built


def test_count_only_runs_build_no_quotient_values(tmp_path, monkeypatch):
    built = count_fractions(monkeypatch)
    spec = json.dumps({"kind": "explicit", "values": BISECTOR_RAND_SET})
    code, report = run_cli(tmp_path, "bisector", "--set", spec, "--workers", "1")
    assert code == 0
    assert report["results"]["intercepts"] > 50000
    code, report = run_cli(tmp_path, "exponent-scan", "--g", G_XY, "--set", AP3,
                           "--sizes", "4,8,16", "--workers", "1")
    assert code == 0
    assert report["results"]["rows"][-1]["quotients"] > 1000
    assert built == []


def test_value_csvs_are_written_from_the_keys(tmp_path, monkeypatch):
    built = count_fractions(monkeypatch)
    values_path, intercepts_path = tmp_path / "values.csv", tmp_path / "intercepts.csv"
    # |X| = 7: the report lists the values too
    code, report = run_cli(tmp_path, "quotient", "--g", G_X, "--set", AP3,
                           "--values-out", str(values_path), "--workers", "1")
    assert code == 0
    assert report["results"]["values"] == ["-2", "-1", "-1/2", "0", "1/2", "1", "2"]
    assert [row for row, in read_csv(values_path)[1:]] == \
        report["results"]["values"]
    spec = json.dumps({"kind": "explicit", "values": BISECTOR_RAND_SET})
    code, report = run_cli(tmp_path, "bisector", "--set", spec, "--workers", "1",
                           "--intercepts-out", str(intercepts_path))
    assert code == 0
    assert len(read_csv(intercepts_path)) - 1 == report["results"]["intercepts"]
    assert built == []


def test_points_csv_is_written_from_the_keys(tmp_path, monkeypatch):
    built = count_fractions(monkeypatch, lines)
    pts_path = tmp_path / "points.csv"
    code, report = run_cli(tmp_path, "rich-points", "--g", G_XY, "--set", AP3,
                           "--thresholds", "2", "--points-out", str(pts_path),
                           "--workers", "1")
    assert code == 0
    (row,) = report["results"]["thresholds"]
    assert len(read_csv(pts_path)) - 1 == row["count"]
    # the one bound ratio of the report; none per point
    assert built == [Fraction(row["bound_ratio"])]


def test_chain_reads_out_only_the_sampled_abscissas(tmp_path, monkeypatch):
    built = count_fractions(monkeypatch)
    spec = json.dumps({"kind": "arithmetic", "start": 1, "step": 1, "size": 6})
    hist_path = tmp_path / "hist.csv"
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", spec, "--workers", "1",
                           "--histogram-out", str(hist_path))
    assert code == 0
    results = report["results"]
    assert results["size_x"] > 100
    assert results["links"]["vertical_mass_samples"] == 3
    assert len(read_csv(hist_path)) - 1 == results["size_x"]
    # the three sampled abscissas, then size_bound_limit; none for the CSV
    assert len(built) <= 3 + 1
    assert built[-1] == Fraction(results["size_bound_limit"])


def test_rich_points_threshold_below_two_is_input_error(tmp_path, monkeypatch, capsys):
    # refused before the family is built and swept, not after
    calls = []

    def counted(name):
        kernel = getattr(lines, name)

        def run(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        return run

    for name in ("build_lines", "crossing_weights"):
        monkeypatch.setattr(lines, name, counted(name))
    code, report = run_cli(tmp_path, "rich-points", "--g", G_XY, "--set", AP3,
                           "--thresholds", "2,1")
    assert code == 1
    assert report is None
    assert calls == []
    assert "error: rich-point threshold must be an integer >= 2" in capsys.readouterr().err


def test_incidences(tmp_path):
    code, report = run_cli(tmp_path, "incidences", "--g", G_X,
                           "--set", '{"kind":"arithmetic","start":0,"step":1,"size":2}',
                           "--points", '[["0","0"],["1","0"],["5","17"]]')
    assert code == 0
    assert report["results"]["count"] == 4
    assert report["results"]["n_points"] == 3


def test_exponent_scan_with_csv(tmp_path):
    scan_path = tmp_path / "scan.csv"
    code, report = run_cli(tmp_path, "exponent-scan", "--g", G_X,
                           "--set", AP3, "--sizes", "4,8,16",
                           "--scan-out", str(scan_path))
    assert code == 0
    assert [row["size"] for row in report["results"]["rows"]] == [4, 8, 16]
    assert 1.5 <= report["results"]["slope"] <= 2.2
    rows = read_csv(scan_path)
    assert rows[0] == ["size", "quotients", "log_size", "log_quotients"]
    assert len(rows) == 4


def test_exponent_scan_gate(tmp_path):
    code, _ = run_cli(tmp_path, "exponent-scan", "--g", G_Y2, "--set", AP3,
                      "--sizes", "4,8")
    assert code == 2
    # sizes 16..64: far enough out that the -3 in |X| = 2n-3 no longer
    # inflates the fitted slope above the near-linear band
    code, report = run_cli(tmp_path, "exponent-scan", "--g", G_Y2, "--set", AP3,
                           "--sizes", "16,32,64", "--allow-degenerate")
    assert code == 0
    assert [row["quotients"] for row in report["results"]["rows"]] == [29, 61, 125]
    assert 0.9 <= report["results"]["slope"] <= 1.1


def test_bisector_report(tmp_path):
    csv_path = tmp_path / "intercepts.csv"
    code, report = run_cli(tmp_path, "bisector",
                           "--set", '{"kind":"arithmetic","start":0,"step":1,"size":2}',
                           "--intercepts-out", str(csv_path))
    assert code == 0
    res = report["results"]
    assert res["grid_points"] == 4
    assert res["pairs_considered"] == 4
    assert res["pairs_skipped"] == 2
    assert res["quotient_crosscheck_ok"] is True
    rows = read_csv(csv_path)
    assert len(rows) == res["intercepts"] + 1


def test_bisector_enumerates_the_intercepts_once(tmp_path, monkeypatch):
    calls = {"enumerations": 0, "quotient": 0, "histogram": 0}
    run_chunks, kernel = lines.run_chunks, lines._pair_keys_chunk

    def counted_run(*args, **kwargs):
        calls["enumerations"] += 1
        return run_chunks(*args, **kwargs)

    def counted_kernel(args):
        calls["histogram" if args[-1] is Counter else "quotient"] += 1
        return kernel(args)

    monkeypatch.setattr(lines, "run_chunks", counted_run)
    # a second enumeration elsewhere would go through that module's run_chunks
    for module in (quotients, bisectors):
        monkeypatch.setattr(module, "run_chunks", counted_run, raising=False)
    monkeypatch.setattr(lines, "_pair_keys_chunk", counted_kernel)
    code, report = run_cli(tmp_path, "bisector", "--set", AP3, "--workers", "1")
    assert code == 0
    assert calls == {"enumerations": 1, "quotient": 1, "histogram": 0}
    assert report["results"]["intercepts"] == len(
        brute_bisector_intercepts(GroundSet.of(1, 2, 3)))


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "quotient",
        "g": json.loads(G_X),
        "set": json.loads(AP3),
        "workers": 1,
    }))
    code, report = run_cli(tmp_path, "quotient", "--config", str(config),
                           "--set", '{"kind":"arithmetic","start":1,"step":1,"size":4}')
    assert code == 0
    assert report["config"]["set"]["size"] == 4
    assert report["results"]["size_a"] == 4


def test_config_unknown_field_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "quotient", "g": [], "wat": 1}))
    code, _ = run_cli(tmp_path, "quotient", "--config", str(config))
    assert code == 1


def test_config_experiment_mismatch_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "chain"}))
    code, _ = run_cli(tmp_path, "quotient", "--config", str(config))
    assert code == 1


# Per experiment: its input fields as config values, and its CSV flag.
ROUND_TRIP = {
    "degeneracy": ({"g": json.loads(G_XY)}, None),
    "quotient": ({"g": json.loads(G_X), "set": json.loads(AP3)}, "--values-out"),
    "chain": ({"g": json.loads(G_XY), "set": json.loads(AP3)}, "--histogram-out"),
    "rich-points": ({"g": json.loads(G_XY), "set": json.loads(AP3), "thresholds": [2, 3]},
                    "--points-out"),
    "incidences": ({"g": json.loads(G_X), "set": json.loads(AP3),
                    "points": [["0", "0"], ["1", "1/2"], ["2", "0"]]}, None),
    "exponent-scan": ({"g": json.loads(G_X), "set": json.loads(AP3), "sizes": [4, 8]},
                      "--scan-out"),
    "bisector": ({"set": {"kind": "uniform-random-integer", "range": [1, 60], "size": 6,
                          "seed": 1}}, "--intercepts-out"),
}


@pytest.mark.parametrize("experiment", list(ROUND_TRIP))
def test_config_file_and_flags_give_the_same_run(tmp_path, experiment):
    fields, csv_flag = ROUND_TRIP[experiment]
    flags = [experiment, "--workers", "2", "--seed", "5", "--allow-degenerate"]
    for field, value in fields.items():
        text = ",".join(map(str, value)) if field in ("sizes", "thresholds") else json.dumps(value)
        flags += [f"--{field}", text]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, "workers": 2, "seed": 5,
                                  "allow_degenerate": True, **fields}))
    runs = []
    for name, argv in (("flags", flags), ("config", [experiment, "--config", str(config)])):
        (tmp_path / name).mkdir()
        csv_path = tmp_path / name / "out.csv"
        code, report = run_cli(tmp_path / name, *argv,
                               *([csv_flag, str(csv_path)] if csv_flag else []))
        assert code == 0
        runs.append((report["results"], report["config"],
                     csv_path.read_bytes() if csv_flag else None))
    assert runs[0] == runs[1]
    assert runs[0][1]["workers"] == 2 and runs[0][1]["allow_degenerate"] is True
    if experiment == "bisector":
        assert runs[0][1]["set"]["seed"] == 5
    if csv_flag:
        assert runs[0][2].count(b"\n") > 1


@pytest.mark.parametrize("experiment, fields, flags, message", [
    ("exponent-scan", {}, ["--sizes", ""], "sizes must be a nonempty list of integers"),
    ("exponent-scan", {"sizes": "8,16"}, [], "sizes must be a nonempty list of integers"),
    ("rich-points", {"thresholds": 3}, [], "thresholds must be a nonempty list of integers"),
    ("chain", {"workers": True}, [], "workers must be an integer >= 1"),
    ("quotient", {"seed": "7"}, [], "seed must be an integer"),
    ("quotient", {"g": json.loads(G_Y2), "allow_degenerate": "no"}, [],
     "allow_degenerate must be true or false"),
], ids=["sizes-flag-empty", "sizes-string", "thresholds-int", "workers-bool", "seed-string",
        "allow-degenerate-string"])
def test_malformed_typed_field_is_input_error(tmp_path, capsys, experiment, fields, flags,
                                              message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "g": json.loads(G_X),
        "set": {"kind": "uniform-random-integer", "range": [1, 60], "size": 4, "seed": 1},
        **fields}))
    code, report = run_cli(tmp_path, experiment, "--config", str(config), *flags)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("experiment, config", [
    ("degeneracy", {"g": json.loads(G_XY), "set": {"kind": "nonsense"}}),
    ("bisector", {"g": json.loads(G_XY), "set": json.loads(AP3)}),
])
def test_config_field_the_experiment_does_not_read_is_rejected(tmp_path, capsys,
                                                               experiment, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, report = run_cli(tmp_path, experiment, "--config", str(path))
    assert code == 1
    assert report is None
    unused = "set" if experiment == "degeneracy" else "g"
    assert f"unknown config field(s): ['{unused}']" in capsys.readouterr().err


def test_degenerate_g_names_the_override_only_where_it_applies(capsys):
    hint = " (pass --allow-degenerate to chart it anyway)\n"
    for argv, overridable in (
            (["quotient", "--g", G_Y2, "--set", AP3], True),
            (["exponent-scan", "--g", G_Y2, "--set", AP3, "--sizes", "4,8"], True),
            (["chain", "--g", G_Y2, "--set", AP3, "--allow-degenerate"], False)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hypothesis violation: theorem hypotheses violated: g has no")
        assert err.endswith(hint) == overridable


def test_missing_required_field_is_input_error(tmp_path):
    code, _ = run_cli(tmp_path, "quotient", "--g", G_X)
    assert code == 1
    code, _ = run_cli(tmp_path, "chain", "--set", AP3)
    assert code == 1


def count_kernel_calls(monkeypatch):
    """Counts the calls of each kernel (inline runs, so the counts are seen
    here); the pair walk counts as the histogram when it collects into a
    Counter and as the quotient set when it collects into a set."""
    calls = {"histogram": 0, "quotient": 0, "sweep": 0}
    walk, sweep = lines._pair_keys_chunk, lines._sweep_chunk

    def counted_walk(args):
        calls["histogram" if args[-1] is Counter else "quotient"] += 1
        return walk(args)

    def counted_sweep(args):
        calls["sweep"] += 1
        return sweep(args)

    monkeypatch.setattr(lines, "_pair_keys_chunk", counted_walk)
    monkeypatch.setattr(lines, "_sweep_chunk", counted_sweep)
    return calls


def test_memory_cap_exit_code(tmp_path, monkeypatch, capsys):
    calls = count_kernel_calls(monkeypatch)
    monkeypatch.setattr(lines, "_memory_budget", lambda: 1000)
    code, report = run_cli(tmp_path, "rich-points", "--g", G_X,
                           "--set", '{"kind":"arithmetic","start":1,"step":1,"size":6}',
                           "--thresholds", "2")
    assert code == 3
    assert report is None
    assert calls == {"histogram": 0, "quotient": 0, "sweep": 0}
    err = capsys.readouterr().err
    assert "resource cap: crossing aggregation refused: estimated" in err
    assert "(36 lines + 0 abscissas) x 500 B x 1)" in err


def test_chain_too_large_for_memory_is_refused_before_the_sweep(tmp_path, monkeypatch,
                                                                capsys):
    calls = count_kernel_calls(monkeypatch)
    monkeypatch.setattr(lines, "_memory_budget", lambda: 1000)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 3
    assert report is None
    # the histogram runs first, since the estimate counts its |X| abscissas
    assert calls == {"histogram": 1, "quotient": 0, "sweep": 0}
    err = capsys.readouterr().err
    # g = xy on {1, 2, 3}: 9 lines, |X| = 13
    assert "estimated 0.00 GiB ((9 lines + 13 abscissas) x 500 B x 1)" in err
    assert "0.00 GiB of physical memory" in err


def test_sweep_that_drops_a_line_pair_exits_four(tmp_path, monkeypatch, capsys):
    kernel = lines._sweep_chunk

    def drops_one_pair(args):
        pairs, weights, cross, points = kernel(args)
        key = next(iter(cross))
        cross[key] -= 1
        return pairs - 1, weights, cross, points

    monkeypatch.setattr(lines, "_sweep_chunk", drops_one_pair)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: the sweep visited 26 line pairs, not the 27 pairs "
            "of distinct slopes") in capsys.readouterr().err


def test_sweep_that_reaches_an_extra_abscissa_exits_four(tmp_path, monkeypatch, capsys):
    kernel = lines._sweep_chunk

    def adds_one_key(args):
        pairs, weights, cross, points = kernel(args)
        cross[max(cross) + 1] += 1  # one shard inline: no other key is new
        return pairs, weights, cross, points

    monkeypatch.setattr(lines, "_sweep_chunk", adds_one_key)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: crossing abscissas differ from histogram support"
            in capsys.readouterr().err)


def test_histogram_count_moved_between_abscissas_exits_four(tmp_path, monkeypatch,
                                                            capsys):
    kernel = lines._pair_keys_chunk
    moved = []

    def moves_one_count(args):
        out = kernel(args)
        if args[-1] is Counter:
            # from the first key walked to the smallest: the total is kept
            first, smallest = next(iter(out)), min(out)
            assert first != smallest
            out[first] -= 1
            out[smallest] += 1
            moved.append(smallest)
        return out

    monkeypatch.setattr(lines, "_pair_keys_chunk", moves_one_count)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    ground = GroundSet.of(1, 2, 3)
    scale = lines.build_lines(bivariate_from_terms(json.loads(G_XY)), ground, ground).key_scale
    x = quotients.key_value(moved[0], scale)
    assert (f"internal check failed: per-abscissa quadruple identity failed at {x}\n"
            in capsys.readouterr().err)


def test_vertical_section_that_loses_mass_exits_four(tmp_path, monkeypatch, capsys):
    section = quotients.vertical_section
    calls = []

    def drops_one_unit(family, x):
        out = section(family, x)
        calls.append(x)
        out[next(iter(out))] -= 1
        return out

    monkeypatch.setattr(quotients, "vertical_section", drops_one_unit)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert f"internal check failed: vertical mass at {calls[0]} is not |A|^2" in \
        capsys.readouterr().err


def test_merge_that_loses_a_line_exits_four(tmp_path, monkeypatch, capsys):
    scaled_values = lines._scaled_values

    def drops_one_value(*args):
        rows, qb, scale = scaled_values(*args)
        next(iter(rows.values())).pop()
        return rows, qb, scale

    monkeypatch.setattr(lines, "_scaled_values", drops_one_value)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: line multiset lost weight during merging\n"
            in capsys.readouterr().err)


def test_integer_evaluation_that_drifts_from_g_exits_four(tmp_path, monkeypatch, capsys):
    scaled_values = lines._scaled_values

    def shifts_one_row(*args):
        rows, qb, scale = scaled_values(*args)
        first = next(iter(rows))  # b = 1: still |A| lines, all off by one
        rows[first] = [v + 1 for v in rows[first]]
        return rows, qb, scale

    monkeypatch.setattr(lines, "_scaled_values", shifts_one_row)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: the line table disagrees with g(1, 1) = 1\n"
            in capsys.readouterr().err)


def test_sweep_that_counts_a_negative_number_of_points_exits_four(tmp_path, monkeypatch,
                                                                  capsys):
    kernel = lines._sweep_chunk

    def overcounts_a_take_back(args):
        pairs, weights, cross, points = kernel(args)
        n = max(weights)
        weights[n] -= weights[n] + 1
        return pairs, weights, cross, points

    monkeypatch.setattr(lines, "_sweep_chunk", overcounts_a_take_back)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: the sweep counted a negative number of points\n"
            in capsys.readouterr().err)


def test_sweep_that_loses_a_materialized_point_exits_four(tmp_path, monkeypatch, capsys):
    kernel = lines._sweep_chunk

    def drops_one_point(args):
        pairs, weights, cross, points = kernel(args)
        del points[next(iter(points))]
        return pairs, weights, cross, points

    monkeypatch.setattr(lines, "_sweep_chunk", drops_one_point)
    code, report = run_cli(tmp_path, "rich-points", "--g", G_XY, "--set", AP3,
                           "--thresholds", "2", "--points-out", str(tmp_path / "points.csv"),
                           "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: materialized points disagree with the swept weights\n"
            in capsys.readouterr().err)


def test_memory_cap_option_and_config_field_are_gone(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "rich-points", "--g", G_X, "--set", AP3,
                      "--thresholds", "2", "--memory-cap", "3")
    assert code == 1
    assert "unrecognized arguments: --memory-cap" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "rich-points", "g": json.loads(G_X),
                                  "set": json.loads(AP3), "thresholds": [2],
                                  "memory_cap": 3}))
    code, _ = run_cli(tmp_path, "rich-points", "--config", str(config))
    assert code == 1
    assert "unknown config field(s): ['memory_cap']" in capsys.readouterr().err


def test_desk_scale_guardrail(tmp_path):
    big = '{"kind":"arithmetic","start":1,"step":1,"size":129}'
    code, _ = run_cli(tmp_path, "chain", "--g", G_X, "--set", big)
    assert code == 1


def test_seed_override_changes_random_set(tmp_path):
    spec = '{"kind":"uniform-random-integer","range":[1,1000],"size":6,"seed":1}'
    _, first = run_cli(tmp_path, "quotient", "--g", G_X, "--set", spec)
    _, second = run_cli(tmp_path, "quotient", "--g", G_X, "--set", spec,
                        "--seed", "99")
    assert first["config"]["set"]["seed"] == 1
    assert second["config"]["set"]["seed"] == 99


def test_reports_deterministic_across_workers_and_reruns(tmp_path):
    args = ["chain", "--g", G_XY,
            "--set", '{"kind":"uniform-random-integer","range":[1,60],"size":8,"seed":5}']
    _, r1 = run_cli(tmp_path, *args, "--workers", "1")
    _, r2 = run_cli(tmp_path, *args, "--workers", "4")
    _, r3 = run_cli(tmp_path, *args, "--workers", "1")
    key = lambda rep: json.dumps(rep["results"], sort_keys=True)
    assert key(r1) == key(r2) == key(r3)


def test_stdout_report_when_no_out(capsys):
    code = main(["degeneracy", "--g", G_XY])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["results"]["degenerate"] is False


def test_usage_error_exits_one():
    assert main(["quotient", "--g", "not json", "--set", AP3]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_module_entry_point_subprocess():
    # the subprocess does not inherit pytest's pythonpath setting
    src = str(Path(quotlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quotlab.cli", "degeneracy", "--g", G_Y2],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["degenerate"] is True


def test_cli_import_leaves_the_pool_machinery_unloaded():
    # set-up time: only runs with a pool import concurrent.futures, and the
    # result types are named tuples or slotted classes, not dataclasses
    src = str(Path(quotlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, quotlab.cli; "
         "print([m in sys.modules for m in ('concurrent.futures', 'dataclasses')])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[False, False]"
