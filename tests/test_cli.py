import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quotlab
from quotlab import bisectors, cli, lines, quotients, reports
from quotlab.cli import main
from quotlab.errors import DegenerateError, InputError, InternalCheckError, ResourceCapError
from quotlab.polynomials import Poly, bivariate_from_terms
from quotlab.sets import GroundSet

from oracles import brute_bisector_intercepts

G_X = '[{"c":"1","i":1,"j":0}]'
G_Y2 = '[{"c":"1","i":0,"j":2}]'
G_XY = '[{"c":"1","i":1,"j":1}]'
G_X2_PLUS_Y = '[{"c":"1","i":2,"j":0},{"c":"1","i":0,"j":1}]'
G_X_PLUS_Y2 = '[{"c":"1","i":1,"j":0},{"c":"1","i":0,"j":2}]'
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
    # chain has no --allow-degenerate: no flag lets a degenerate g through
    code, _ = run_cli(tmp_path, "chain", "--g", G_Y2, "--set", AP3)
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


@pytest.mark.parametrize("g", [G_XY, G_X2_PLUS_Y])
def test_chain_on_a_singleton(tmp_path, g):
    hist_path = tmp_path / "hist.csv"
    code, report = run_cli(tmp_path, "chain", "--g", g,
                           "--set", '{"kind":"arithmetic","start":5,"step":1,"size":1}',
                           "--histogram-out", str(hist_path))
    assert code == 0
    assert report["results"] == {
        "size_a": 1, "degree": 2, "size_x": 0, "quadruple_total": 0,
        "squared_multiplicity_total": 1, "energy_support": 0,
        "energy_support_excl_zero": 0, "zero_in_support": False,
        "size_bound_ok": True, "size_bound_limit": "1/16",
        "max_line_multiplicity": 1, "line_multiplicity_within_degree": True,
        "max_point_weight": 0, "point_weight_cap": 2, "point_weight_within_cap": True,
        "energy_bound_ratio": None, "energy_bound_ratio_excl_zero": None,
        "inferred_lower_bound": 0.0, "links": {"empty_instance": True},
    }
    assert read_csv(hist_path) == [["x", "count"]]


def test_quotient_on_a_singleton(tmp_path):
    values_path = tmp_path / "values.csv"
    code, report = run_cli(tmp_path, "quotient", "--g", G_XY,
                           "--set", '{"kind":"arithmetic","start":5,"step":1,"size":1}',
                           "--values-out", str(values_path))
    assert code == 0
    assert report["results"] == {"size_a": 1, "size_x": 0, "values": []}
    assert read_csv(values_path) == [["value"]]


def test_chain_enumerates_the_histogram_once(tmp_path, monkeypatch):
    calls = {"histogram": 0, "quotient": 0}
    kernel = lines._pair_keys_chunk

    def counted(args):
        # the pair walk collects into a QuadrupleHistogram for Q and a set for X
        calls["histogram" if args[-1] is quotients.QuadrupleHistogram else "quotient"] += 1
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
        assert all(type(y) is int for y in out)  # y keyed by y * lb * lc * den(x)
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
        if args[-1] is quotients.QuadrupleHistogram:
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
    # families whose slope classes are shifts of one another, written by the
    # walk over every intercept pair of every slope-class pair
    (G_X, 1, 12): "a08250bfce99aefe099e96c23302c30f011de7e8d6951b235fa0519d2b4436f7",
    (G_X_PLUS_Y2, 1, 12): "8098b4104e8906a181cd348f89983d8a6d7c6b8ce51084280dc37ee6e63d4d0a",
}
# the first set the bisector-rand benchmark draws with seed 1
BISECTOR_RAND_SET = ["1", "4", "9", "13", "16", "18", "27", "33", "49", "50",
                     "56", "58", "61", "63", "64", "73", "78", "84", "98", "99"]
INTERCEPTS_CSV_SHA256 = "b06370d677c1f5c278a64e2388ce8be3e7e9d5295e0465554ecc1c6da583204a"
# written when the histogram built its Fraction counts eagerly
HISTOGRAM_CSV_SHA256 = {
    (G_XY, 1, 6): "d8e2b170c659b2e4dbada1f794773f2f690092e2d43c48a6a1ccccbd1d71ce77",
    (G_X2_PLUS_Y, -4, 9): "0c606f1168c56abc7f801b2a287c1d2ae6870bccbb98693c8f7fe60ff22aa013",
    # as for VALUES_CSV_SHA256
    (G_X, 1, 12): "d435cab374066ae7951c6a07743ab173684f33a8422148c19f65cf7e81d08194",
    (G_X_PLUS_Y2, 1, 12): "1927b57cfe4683c4a1104237c6808807a65e3399a8fe73d2b29ecc4153afc5d1",
}


# sha256 of the --scan-out CSV and of the canonical results JSON
# (json.dumps(results, sort_keys=True)) of scans over {start, start+1, ...}
# at the given sizes, written when exponent_scan returned a NamedTuple
SCAN_CSV_SHA256 = {
    (G_X, 1, "4,8,16"): "67eb72d23f9f533b25c0d86bc00272eecaa85ecb83a1f67473e072929e84ccd4",
    (G_X2_PLUS_Y, -4, "3,5,9"): "bbffa7926e14f33a0f501f98ba5ace7976b8afaa67ba31a5ddd608578532e8ea",
}
SCAN_RESULTS_SHA256 = {
    (G_X, 1, "4,8,16"): "d900a8995bd7be53abd0b25a4011c9eb5c03e6eead1829bea6d5f05a287e60a5",
    (G_X2_PLUS_Y, -4, "3,5,9"): "69912477e075bc46dc248bddeb747a9b5650df8aca4b83c3edcaf5be9799bf56",
}
# the same for chain results, written when verify_chain returned a NamedTuple
CHAIN_RESULTS_SHA256 = {
    (G_XY, 1, 6): "ef92d0f19242fb3f53d1fca31714f79c91e0b7ccec923201e56ccb61b2116268",
    (G_X2_PLUS_Y, -4, 9): "2475212823503f0c216681303c72ac0d6c86480ef9011ea1a86e6a65a5dfe132",
}

# the same for rich-points at --thresholds 2,3,4 and for incidences at
# INCIDENCE_POINTS, written when the kernels returned NamedTuples
RICH_RESULTS_SHA256 = {
    (G_XY, 1, 5): "38507f8d5b9d509ffc504bde6d289777f120570bd2c7df8fa4b3f66c55f15b39",
    (G_X2_PLUS_Y, -3, 7): "085d1bd0235b57e86f07ad13910c3df1de7d8acfd17c0244f9772929b1c3a459",
}
INCIDENCE_RESULTS_SHA256 = {
    (G_XY, 1, 5): "ee345b9ea14b7cc50add20a15883b8708493d8d7d301ec9c71bd0f11c4c6495e",
    (G_X2_PLUS_Y, -3, 7): "a73bd9f9e0d1d1449d8cd60f11b126b233d650d85a6f6e3db941b048019fdc91",
}
# the integer grid [-3, 3] x [-12, 12] and three points off it
INCIDENCE_POINTS = json.dumps(
    [[str(x), str(y)] for x in range(-3, 4) for y in range(-12, 13)]
    + [["1/2", "3/4"], ["1/3", "0"], ["-5/2", "7"]])


def results_sha256(report) -> str:
    return hashlib.sha256(json.dumps(report["results"], sort_keys=True).encode()).hexdigest()


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


def test_chain_results_bytes_are_unchanged(tmp_path):
    for (g, start, size), digest in CHAIN_RESULTS_SHA256.items():
        spec = json.dumps({"kind": "arithmetic", "start": start, "step": 1, "size": size})
        for workers in ("1", "2"):
            code, report = run_cli(tmp_path, "chain", "--g", g, "--set", spec,
                                   "--workers", workers)
            assert code == 0
            assert results_sha256(report) == digest


def test_scan_results_and_csv_bytes_are_unchanged(tmp_path):
    for (g, start, sizes), digest in SCAN_RESULTS_SHA256.items():
        spec = json.dumps({"kind": "arithmetic", "start": start, "step": 1, "size": 3})
        for workers in ("1", "2"):
            scan_path = tmp_path / f"scan_{start}_{workers}.csv"
            code, report = run_cli(tmp_path, "exponent-scan", "--g", g, "--set", spec,
                                   "--sizes", sizes, "--scan-out", str(scan_path),
                                   "--workers", workers)
            assert code == 0
            assert results_sha256(report) == digest
            assert (hashlib.sha256(scan_path.read_bytes()).hexdigest()
                    == SCAN_CSV_SHA256[g, start, sizes])


def test_rich_points_and_incidence_results_bytes_are_unchanged(tmp_path):
    for experiment, digests, inputs in (
            ("rich-points", RICH_RESULTS_SHA256, ("--thresholds", "2,3,4")),
            ("incidences", INCIDENCE_RESULTS_SHA256, ("--points", INCIDENCE_POINTS))):
        # incidences takes no --workers
        worker_flags = [()] if experiment == "incidences" else [
            ("--workers", "1"), ("--workers", "2")]
        for (g, start, size), digest in digests.items():
            spec = json.dumps({"kind": "arithmetic", "start": start, "step": 1, "size": size})
            for workers in worker_flags:
                code, report = run_cli(tmp_path, experiment, "--g", g, "--set", spec,
                                       *inputs, *workers)
                assert code == 0
                assert results_sha256(report) == digest


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


def test_chain_builds_no_fraction_in_lines(tmp_path, monkeypatch):
    # the vertical sections key y by integers, incidences look points up in
    # the integer table; the Fraction lines stay unbuilt
    built = count_fractions(monkeypatch, lines)
    spec = json.dumps({"kind": "arithmetic", "start": 1, "step": 1, "size": 6})
    code, report = run_cli(tmp_path, "chain", "--g", G_X2_PLUS_Y, "--set", spec,
                           "--workers", "1", "--histogram-out", str(tmp_path / "hist.csv"))
    assert code == 0
    assert report["results"]["links"]["vertical_mass_samples"] == 3
    # incidences, at a rational abscissa too
    code, report = run_cli(tmp_path, "incidences", "--g", G_XY, "--set", spec,
                           "--points", '[["1","0"],["2","3"],["1/2","-2"]]')
    assert code == 0
    assert report["results"]["count"] == 6 + 1 + 1
    assert built == []


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


@pytest.mark.parametrize("flag, missing", [
    ("--out", True), ("--values-out", True), ("--out", False), ("--values-out", False),
], ids=["--out", "--values-out", "--out-empty", "--values-out-empty"])
def test_output_in_a_missing_directory_is_refused_before_the_run(
        tmp_path, monkeypatch, capsys, flag, missing):
    # an empty path names no file: refused too, not read as "no output"
    calls = []
    build_lines = lines.build_lines

    def counted(*args, **kwargs):
        calls.append(args)
        return build_lines(*args, **kwargs)

    for module in (lines, quotients):
        monkeypatch.setattr(module, "build_lines", counted)
    target = str(tmp_path / "missing" / "dir" / "v.csv") if missing else ""
    code = main(["quotient", "--g", G_XY, "--set", AP3, flag, target])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target!r}: not a path in an existing directory")
    assert "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag", ["--out", "--histogram-out"])
def test_output_that_names_a_directory_is_refused_before_the_run(tmp_path, monkeypatch,
                                                                 capsys, flag):
    calls = count_kernel_calls(monkeypatch)
    code = main(["chain", "--g", G_XY, "--set", AP3, "--workers", "1", flag, str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: cannot write the output: {str(tmp_path)!r} is a directory\n"
    assert calls == {"histogram": 0, "quotient": 0, "sweep": 0}


def test_csv_at_the_report_path_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    calls = count_kernel_calls(monkeypatch)
    target = tmp_path / "out.json"
    # the same file through a second spelling of its path
    code = main(["chain", "--g", G_XY, "--set", AP3, "--workers", "1",
                 "--histogram-out", str(tmp_path / "." / "out.json"), "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot write the output: ")
    assert "is also the report path" in err
    assert calls == {"histogram": 0, "quotient": 0, "sweep": 0}
    assert not target.exists()


@pytest.mark.parametrize("flag", ["--out", "--values-out"])
def test_output_that_cannot_be_written_is_input_error(tmp_path, capsys, flag):
    # a directory: refused by name, before the run
    code = main(["quotient", "--g", G_XY, "--set", AP3, flag, str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot write the output: ")
    assert repr(str(tmp_path)) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("writer", ["write_report", "write_csv"])
def test_output_that_fails_as_it_is_written_is_input_error(tmp_path, monkeypatch, capsys,
                                                           writer):
    # a path that passes the checks before the run and fails in the write
    def fails(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(reports, writer, fails)
    code, report = run_cli(tmp_path, "quotient", "--g", G_XY, "--set", AP3,
                           "--values-out", str(tmp_path / "values.csv"))
    err = capsys.readouterr().err
    assert code == 1
    assert report is None
    assert err == "error: cannot write the output: [Errno 28] No space left on device\n"


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
        calls["histogram" if args[-1] is quotients.QuadrupleHistogram else "quotient"] += 1
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


@pytest.mark.parametrize("argv, walks", [
    (["chain", "--g", G_X_PLUS_Y2,
      "--set", '{"kind":"arithmetic","start":1,"step":1,"size":12}'], 2),
    (["quotient", "--g", G_XY, "--set", AP3], 1),
    (["bisector", "--set", AP3], 1),
    (["rich-points", "--g", G_XY, "--set", AP3, "--thresholds", "2"], 1),
], ids=["chain", "quotient", "bisector", "rich-points"])
def test_every_enumeration_shards_and_folds_in_the_one_driver(tmp_path, monkeypatch, argv,
                                                              walks):
    # the pair walk, the translate walk and the sweep all reach run_chunks
    # through lines._walk, once per enumeration the run needs
    calls, inside = [], []
    walk, run_chunks = lines._walk, lines.run_chunks

    def counted_walk(*args):
        calls.append("_walk")
        inside.append(1)
        try:
            return walk(*args)
        finally:
            inside.pop()

    def checked_run(fn, tasks, workers):
        calls.append("run_chunks" if inside else "run_chunks outside _walk")
        return run_chunks(fn, tasks, workers)

    monkeypatch.setattr(lines, "_walk", counted_walk)
    monkeypatch.setattr(lines, "run_chunks", checked_run)
    code, report = run_cli(tmp_path, *argv, "--workers", "2")
    assert code == 0
    assert calls == ["_walk", "run_chunks"] * walks


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
    "quotient": ({"g": json.loads(G_X), "set": json.loads(AP3), "workers": 2,
                  "allow_degenerate": True}, "--values-out"),
    "chain": ({"g": json.loads(G_XY), "set": json.loads(AP3), "workers": 2},
              "--histogram-out"),
    "rich-points": ({"g": json.loads(G_XY), "set": json.loads(AP3), "thresholds": [2, 3],
                     "workers": 2}, "--points-out"),
    "incidences": ({"g": json.loads(G_X), "set": json.loads(AP3),
                    "points": [["0", "0"], ["1", "1/2"], ["2", "0"]]}, None),
    "exponent-scan": ({"g": json.loads(G_X), "set": json.loads(AP3), "sizes": [4, 8],
                       "workers": 2, "allow_degenerate": True}, "--scan-out"),
    "bisector": ({"set": {"kind": "uniform-random-integer", "range": [1, 60], "size": 6,
                          "seed": 5}, "workers": 2}, "--intercepts-out"),
}


@pytest.mark.parametrize("experiment", list(ROUND_TRIP))
def test_config_file_and_flags_give_the_same_run(tmp_path, experiment):
    fields, csv_flag = ROUND_TRIP[experiment]
    flags = [experiment]
    for field, value in fields.items():
        flags.append("--" + field.replace("_", "-"))
        if value is not True:  # an on/off flag takes no value
            flags.append(",".join(map(str, value)) if field in ("sizes", "thresholds")
                         else json.dumps(value))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **fields}))
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
    echoed = {field: runs[0][1].get(field) for field in ("workers", "allow_degenerate")}
    assert echoed == {"workers": fields.get("workers"),
                      "allow_degenerate": fields.get("allow_degenerate")}
    if experiment == "bisector":
        assert runs[0][1]["set"]["seed"] == 5
    if csv_flag:
        assert runs[0][2].count(b"\n") > 1


@pytest.mark.parametrize("experiment, fields, flags, message", [
    ("exponent-scan", {}, ["--sizes", ""], "sizes must be a nonempty list of integers"),
    ("exponent-scan", {"sizes": "8,16"}, [], "sizes must be a nonempty list of integers"),
    ("rich-points", {"thresholds": 3}, [], "thresholds must be a nonempty list of integers"),
    ("chain", {"workers": True}, [], "workers must be an integer >= 1"),
    ("quotient", {"g": json.loads(G_Y2), "allow_degenerate": "no"}, [],
     "allow_degenerate must be true or false"),
    ("quotient", {"set": {"kind": "arithmetic", "size": True}}, [],
     "set spec needs integer size >= 1"),
    ("quotient", {"set": {"kind": "uniform-random-integer", "range": [False, 9], "size": 4,
                          "seed": 1}}, [], "uniform-random-integer needs 'range': [lo, hi]"),
    ("quotient", {"set": {"kind": "uniform-random-integer", "range": [1, 9], "size": 4,
                          "seed": True}}, [], "seed must be an integer"),
    ("quotient", {"set": {"kind": "uniform-random-integer", "range": [9, 1], "size": 3}}, [],
     "range [9, 1] has lo > hi"),
    ("quotient", {"set": {"kind": "arithmetic", "size": 3, "start": None}}, [],
     "start: not a rational value: None"),
    ("quotient", {"set": {"kind": "arithmetic", "size": 3, "step": "1/0"}}, [],
     "step: zero denominator"),
    ("quotient", {"set": {"kind": "geometric", "size": 3, "ratio": "1/0"}}, [],
     "ratio: zero denominator"),
    ("quotient", {"set": {"kind": "explicit", "values": [1, "x"]}}, [],
     "values: not a rational literal: 'x'"),
    ("quotient", {}, ["--g", '[{"c":"1","i":true,"j":1}]'],
     "term exponents must be nonnegative integers: {'c': '1', 'i': True, 'j': 1}"),
    ("quotient", {"g": [{"c": "1", "i": 1, "j": False}]}, [],
     "term exponents must be nonnegative integers: {'c': '1', 'i': 1, 'j': False}"),
    ("quotient", {}, ["--set", "5"], "set spec must be an object"),
    ("quotient", {"set": {"kind": "explicit", "values": []}}, [],
     "explicit set needs a nonempty 'values' list"),
    ("quotient", {"g": json.loads(G_XY), "set": {"kind": "arithmetic", "size": 3, "step": 0}},
     [], "arithmetic step 0 cannot produce distinct elements"),
    ("quotient", {"g": json.loads(G_XY), "set": {"kind": "geometric", "size": 3, "ratio": 1}},
     [], "geometric set with ratio 0 or 1 (or start 0) is not distinct"),
    ("quotient", {"g": json.loads(G_XY), "set": {"kind": "geometric", "size": 3, "ratio": -1}},
     [], "geometric spec does not produce 3 distinct elements"),
    ("exponent-scan", {"g": json.loads(G_XY)}, ["--sizes", "1,8"],
     "scan sizes must be integers >= 2"),
    ("exponent-scan", {}, ["--sizes", "8,x"], "sizes must be a comma-separated integer list"),
    ("incidences", {}, ["--points", "[1]"], "bad point entry: 1"),
    ("incidences", {}, ["--points", "{}"], "points must be a list of [x, y] pairs"),
    ("quotient", [], [], "config must be a JSON object"),
    ("quotient", {}, ["--g", "{}"], "polynomial must be a list of term objects"),
    ("quotient", {}, ["--g", "@missing.json"],
     "cannot read polynomial file: [Errno 2] No such file or directory: 'missing.json'"),
], ids=["sizes-flag-empty", "sizes-string", "thresholds-int", "workers-bool",
        "allow-degenerate-string", "set-size-bool", "set-range-bool", "set-seed-bool",
        "set-range-reversed", "set-start-null", "set-step-zero-denominator",
        "set-ratio-zero-denominator", "set-values-not-rational",
        "g-exponent-true", "g-exponent-false", "set-not-object", "explicit-empty",
        "arithmetic-step-zero", "geometric-ratio-one", "geometric-ratio-minus-one",
        "scan-size-one", "sizes-flag-not-integer", "point-not-pair", "points-not-list",
        "config-not-object", "g-not-list", "g-file-missing"])
def test_malformed_typed_field_is_input_error(tmp_path, capsys, monkeypatch, experiment,
                                              fields, flags, message):
    monkeypatch.chdir(tmp_path)  # relative paths in flags resolve here
    base = {"g": json.loads(G_X),
            "set": {"kind": "uniform-random-integer", "range": [1, 60], "size": 4, "seed": 1}}
    config = tmp_path / "config.json"
    # fields that are not an object are the whole config
    config.write_text(json.dumps({**base, **fields} if isinstance(fields, dict) else fields))
    code, report = run_cli(tmp_path, experiment, "--config", str(config), *flags)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec, echo", [
    ({"kind": "geometric", "size": 3},
     {"kind": "geometric", "size": 3, "start": "1", "ratio": "2"}),
    ({"kind": "uniform-random-integer", "range": [1, 60], "size": 4},
     {"kind": "uniform-random-integer", "size": 4, "range": [1, 60], "seed": 0}),
    ({"kind": "explicit", "values": [2, "4/6", "-0"]},
     {"kind": "explicit", "values": ["2", "2/3", "0"]}),
], ids=["geometric-defaults", "random-seed-default", "explicit-canonical-values"])
def test_set_spec_echo_is_canonical_with_defaults(tmp_path, spec, echo):
    code, report = run_cli(tmp_path, "bisector", "--set", json.dumps(spec))
    assert code == 0
    assert report["config"]["set"] == echo


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
            (["chain", "--g", G_Y2, "--set", AP3], False)):
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
    QuadrupleHistogram and as the quotient set when it collects into a set."""
    calls = {"histogram": 0, "quotient": 0, "sweep": 0}
    walk, sweep = lines._pair_keys_chunk, lines._sweep_chunk

    def counted_walk(args):
        calls["histogram" if args[-1] is quotients.QuadrupleHistogram else "quotient"] += 1
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


@pytest.mark.parametrize("error, status, line", [
    (InputError("no such set"), 1, "error: no such set"),
    (DegenerateError("g collapses"), 2, "hypothesis violation: g collapses"),
    (ResourceCapError("too large"), 3, "resource cap: too large"),
    (InternalCheckError("Q moved"), 4, "internal check failed: Q moved"),
    (MemoryError(), 3, "resource cap: out of memory; use a smaller set or fewer workers"),
])
def test_each_error_kind_has_its_exit_status_and_stderr_line(tmp_path, monkeypatch, capsys,
                                                             error, status, line):
    def raises(*args, **kwargs):
        raise error

    monkeypatch.setattr(quotients, "verify_chain", raises)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3)
    assert code == status
    assert report is None
    assert capsys.readouterr().err == line + "\n"
    # a MemoryError is reported as a ResourceCapError
    kind = ResourceCapError if type(error) is MemoryError else type(error)
    assert (kind.exit_status, kind.label) == (status, line.partition(":")[0])


def test_memory_error_outside_the_workers_exits_three(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(quotients, "build_lines", exhausted)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3)
    assert code == 3
    assert report is None
    assert "resource cap: out of memory" in capsys.readouterr().err


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
        part = kernel(args)
        key = next(iter(part.pairs_by_key))
        part.pairs_by_key[key] -= 1
        part.pairs -= 1
        return part

    monkeypatch.setattr(lines, "_sweep_chunk", drops_one_pair)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: the sweep visited 26 line pairs, not the 27 pairs "
            "of distinct slopes") in capsys.readouterr().err


def test_sweep_that_reaches_an_extra_abscissa_exits_four(tmp_path, monkeypatch, capsys):
    kernel = lines._sweep_chunk

    def adds_one_key(args):
        part = kernel(args)
        cross = part.pairs_by_key
        cross[max(cross) + 1] += 1  # one shard inline: no other key is new
        return part

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
        if args[-1] is quotients.QuadrupleHistogram:
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_translate_walk_with_a_shift_off_by_one_exits_four(tmp_path, monkeypatch, capsys,
                                                           workers):
    # the histogram takes the translate walk and the sweep the generic one,
    # so the chain compares two algorithms
    translate_shifts = lines.translate_shifts

    def last_shift_off_by_one(family):
        shifts = translate_shifts(family)
        shifts[-1] += 1
        return shifts

    monkeypatch.setattr(lines, "translate_shifts", last_shift_off_by_one)
    hist_path = tmp_path / "hist.csv"
    spec = json.dumps({"kind": "arithmetic", "start": 1, "step": 1, "size": 12})
    code, report = run_cli(tmp_path, "chain", "--g", G_X_PLUS_Y2, "--set", spec,
                           "--histogram-out", str(hist_path), "--workers", workers)
    assert code == 4
    assert report is None
    assert not hist_path.exists()
    assert ("internal check failed: crossing abscissas differ from histogram support\n"
            in capsys.readouterr().err)


def test_vertical_section_that_loses_mass_exits_four(tmp_path, monkeypatch, capsys):
    section = quotients.vertical_section
    calls = []

    def drops_one_unit(family, x):
        out = section(family, x)
        assert all(type(y) is int for y in out)  # y keyed by y * lb * lc * den(x)
        calls.append(x)
        out[min(out)] -= 1
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
        part = kernel(args)
        weights = part.weights
        n = max(weights)
        weights[n] -= weights[n] + 1
        return part

    monkeypatch.setattr(lines, "_sweep_chunk", overcounts_a_take_back)
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3, "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: the sweep counted a negative number of points\n"
            in capsys.readouterr().err)


def test_sweep_that_loses_a_materialized_point_exits_four(tmp_path, monkeypatch, capsys):
    kernel = lines._sweep_chunk

    def drops_one_point(args):
        part = kernel(args)
        del part.points[next(iter(part.points))]
        return part

    monkeypatch.setattr(lines, "_sweep_chunk", drops_one_point)
    code, report = run_cli(tmp_path, "rich-points", "--g", G_XY, "--set", AP3,
                           "--thresholds", "2", "--points-out", str(tmp_path / "points.csv"),
                           "--workers", "1")
    assert code == 4
    assert report is None
    assert ("internal check failed: materialized points disagree with the swept weights\n"
            in capsys.readouterr().err)


def test_sweep_fold_that_drops_a_part_s_pairs_by_key_exits_four(tmp_path, monkeypatch,
                                                                 capsys):
    # the second shard's per-abscissa counts never reach the chain's check
    def drops_the_pairs_by_key(self, part):
        part.pairs_by_key.clear()
        update(self, part)

    update = lines.CrossingWeights.update
    monkeypatch.setattr(lines.CrossingWeights, "update", drops_the_pairs_by_key)
    hist_path = tmp_path / "hist.csv"
    code, report = run_cli(tmp_path, "chain", "--g", G_XY, "--set", AP3,
                           "--histogram-out", str(hist_path), "--workers", "2")
    assert code == 4
    assert report is None
    assert not hist_path.exists()
    assert ("internal check failed: crossing abscissas differ from histogram support\n"
            in capsys.readouterr().err)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_every_result_key(tmp_path):
    readme = README.read_text()
    keys = set()
    for argv in (["degeneracy", "--g", G_XY],
                 ["quotient", "--g", G_XY, "--set", AP3],
                 ["chain", "--g", G_XY, "--set", AP3],
                 ["rich-points", "--g", G_XY, "--set", AP3, "--thresholds", "2"],
                 ["incidences", "--g", G_X, "--set", AP3, "--points", INCIDENCE_POINTS],
                 ["exponent-scan", "--g", G_XY, "--set", AP3, "--sizes", "4,8"],
                 ["bisector", "--set", AP3]):
        code, report = run_cli(tmp_path, *argv)
        assert code == 0
        results = report["results"]
        keys |= {f"`{key}`" for key in results}
        keys |= {f"`{key}`" for key in [*results.get("thresholds", [{}])[0],
                                        *results.get("rows", [{}])[0]]}
        keys |= {f"`{key}`" if f"`{key}`" in readme else f"`links.{key}`"
                 for key in results.get("links", {})}
    assert len(keys) > 40
    assert sorted(key for key in keys if key not in readme) == []


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


@pytest.mark.parametrize("experiment, inputs", [
    ("quotient", ["--g", G_XY]),
    ("rich-points", ["--g", G_XY, "--thresholds", "2"]),
    ("bisector", []),
])
def test_quartic_experiments_refuse_a_set_past_the_desk_scale(tmp_path, monkeypatch, capsys,
                                                               experiment, inputs):
    calls = count_kernel_calls(monkeypatch)
    big = '{"kind":"arithmetic","start":1,"step":1,"size":129}'
    code, report = run_cli(tmp_path, experiment, *inputs, "--set", big)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == (
        f"error: |A| = 129 exceeds the desk-scale limit 128 for {experiment} "
        "(quartic work); pass --force-large to proceed\n")
    assert calls == {"histogram": 0, "quotient": 0, "sweep": 0}
    monkeypatch.setattr(cli, "DESK_SCALE_LIMIT", 3)
    four = '{"kind":"arithmetic","start":1,"step":1,"size":4}'
    code, report = run_cli(tmp_path, experiment, *inputs, "--set", four)
    assert code == 1
    assert report is None
    code, report = run_cli(tmp_path, experiment, *inputs, "--set", four, "--force-large")
    assert code == 0
    assert report["results"]["size_a"] == 4


def test_exponent_scan_makes_every_set_before_its_first_walk(tmp_path, monkeypatch, capsys):
    walks = []
    walk = quotients.quotient_set
    monkeypatch.setattr(quotients, "quotient_set",
                        lambda *args, **kwargs: walks.append(args) or walk(*args, **kwargs))
    spec = '{"kind":"uniform-random-integer","size":8,"range":[1,100],"seed":0}'
    code, report = run_cli(tmp_path, "exponent-scan", "--g", G_XY, "--set", spec,
                           "--sizes", "8,16,32,64,101")
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == "error: range [1, 100] smaller than requested size 101\n"
    assert walks == []


# each experiment's flags, in the order --help lists them
FLAGS = {
    "degeneracy": "--config --out --g",
    "quotient": "--config --out --g --set --workers --allow-degenerate --force-large "
                "--values-out",
    "chain": "--config --out --g --set --workers --force-large --histogram-out",
    "rich-points": "--config --out --g --set --thresholds --workers --force-large "
                   "--points-out",
    "incidences": "--config --out --g --set --points",
    "exponent-scan": "--config --out --g --set --sizes --workers --allow-degenerate "
                     "--force-large --scan-out",
    "bisector": "--config --out --set --workers --force-large --intercepts-out",
}


def test_each_experiment_takes_exactly_its_flags():
    (subcommands,) = [action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    taken = {name: " ".join(flag for action in sub._actions for flag in action.option_strings
                            if flag not in ("-h", "--help"))
             for name, sub in subcommands.choices.items()}
    assert taken == FLAGS
    assert sum(len(flags.split()) for flags in taken.values()) == 46


@pytest.mark.parametrize("argv, refused", [
    (["degeneracy", "--g", G_XY], ["--workers", "2"]),
    (["incidences", "--g", G_X, "--set", AP3, "--points", '[["0","0"]]'], ["--workers", "2"]),
    (["chain", "--g", G_XY, "--set", AP3], ["--allow-degenerate"]),
    (["bisector", "--set", AP3], ["--allow-degenerate"]),
    (["quotient", "--g", G_X, "--set", AP3], ["--seed", "3"]),
], ids=["degeneracy-workers", "incidences-workers", "chain-allow-degenerate",
        "bisector-allow-degenerate", "quotient-seed"])
def test_flag_the_experiment_does_not_read_is_refused(tmp_path, capsys, argv, refused):
    code, report = run_cli(tmp_path, *argv, *refused)
    assert code == 1
    assert report is None
    assert f"error: unrecognized arguments: {' '.join(refused)}\n" == capsys.readouterr().err


@pytest.mark.parametrize("experiment, field", [
    ("degeneracy", "workers"), *((experiment, "seed") for experiment in FLAGS)])
def test_config_setting_the_experiment_does_not_read_is_refused(tmp_path, capsys,
                                                                experiment, field):
    config = dict(ROUND_TRIP[experiment][0], **{field: 2})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, report = run_cli(tmp_path, experiment, "--config", str(path))
    assert code == 1
    assert report is None
    assert f"error: unknown config field(s): ['{field}']\n" == capsys.readouterr().err


def test_reports_deterministic_across_workers_and_reruns(tmp_path):
    args = ["chain", "--g", G_XY,
            "--set", '{"kind":"uniform-random-integer","range":[1,60],"size":8,"seed":5}']
    _, r1 = run_cli(tmp_path, *args, "--workers", "1")
    _, r2 = run_cli(tmp_path, *args, "--workers", "4")
    _, r3 = run_cli(tmp_path, *args, "--workers", "1")
    key = lambda rep: json.dumps(rep["results"], sort_keys=True)
    assert key(r1) == key(r2) == key(r3)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_committed_configs_run(tmp_path, config):
    experiment = json.loads(config.read_text())["experiment"]
    code, report = run_cli(tmp_path, experiment, "--config", str(config))
    assert code == 0
    assert report["experiment"] == experiment
    assert report["results"]


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


SIX = '{"kind":"arithmetic","start":1,"step":1,"size":6}'


@pytest.mark.parametrize("argv, spans_seen, counts", [
    (["chain", "--g", G_X2_PLUS_Y, "--set", SIX, "--workers", "2", "--histogram-out"],
     {"lines.build_lines", "quotients.verify_chain", "lines.crossing_weights",
      "parallel.run_chunks"},
     lambda results: {"lines.distinct_lines": 36}),
    (["bisector", "--set", SIX, "--intercepts-out"],
     {"bisectors.bisector_intercept_set", "quotients.quotient_set"},
     lambda results: {"bisectors.intercepts": results["intercepts"],
                      "bisectors.pairs_considered": results["pairs_considered"],
                      # one walk: the intercept set is quotient_set's own result
                      "quotients.size_x": results["intercepts"]}),
], ids=["chain", "bisector"])
def test_benchmark_tracer_runs_on_this_tree(tmp_path, argv, spans_seen, counts):
    # perfbench/tracer.py wraps functions of src by name and reads Line and
    # LineMultiset.lines, len() of each kernel result, the pairs_considered
    # attribute of bisector_intercept_set's result and run_chunks' positional
    # arguments: a rename or a reshaped type breaks it
    src = Path(quotlab.__file__).resolve().parent.parent
    tracer = src.parent / "perfbench" / "tracer.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    spans, report = tmp_path / "spans.json", tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(tracer), str(spans), *argv, str(tmp_path / "out.csv"),
         "--out", str(report)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    assert spans_seen <= {s["name"] for s in data["spans"]}
    want = counts(json.loads(report.read_text())["results"])
    assert {name: data["counters"][name] for name in want} == want


def test_cli_import_leaves_the_pool_machinery_unloaded():
    # set-up time: only runs that fork children import pickle, no run
    # imports concurrent.futures or multiprocessing, and the result types
    # are named tuples or slotted classes, not dataclasses
    src = str(Path(quotlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, quotlab.cli; "
         "print([m in sys.modules for m in "
         "('concurrent.futures', 'multiprocessing', 'dataclasses', 'pickle')])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[False, False, False, False]"
    spec = json.dumps({"kind": "arithmetic", "start": 1, "step": 1, "size": 8})
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from quotlab.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(code, [m in sys.modules for m in "
         "('concurrent.futures', 'multiprocessing', 'pickle')])",
         "chain", "--g", G_XY, "--set", spec, "--workers", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    # pickle is loaded: the run did fork
    assert proc.stdout.strip().splitlines()[-1] == "0 [False, False, True]"
