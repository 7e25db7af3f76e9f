"""Tests for the benchmark's own code: span arithmetic, the correctness
gate, deterministic inputs, and a small traced CLI run."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, cli_args, set_spec

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    with t.span("outer"):
        clock.t = 1.0
        with t.span("a"):
            clock.t = 2.0
            with t.span("a.inner"):
                clock.t = 2.5
            clock.t = 3.0
        clock.t = 4.0
        with t.span("b"):
            clock.t = 8.0
        clock.t = 10.0
    outer, a, inner, b = t.spans
    assert (a["parent"], inner["parent"], b["parent"]) == (outer["id"], a["id"], outer["id"])
    assert tracer.self_times(t.spans) == [4.0, 1.5, 0.5, 4.0]
    metrics = tracer.layer_metrics(t.spans, {})
    assert metrics["outer_s"] == 10.0 and metrics["outer.self_s"] == 4.0
    assert metrics["a.calls"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [{"id": 0, "parent": None, "name": "p", "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "name": "c", "start": 1.0, "end": 5.0},
             {"id": 2, "parent": 0, "name": "c", "start": 3.0, "end": 6.0},
             {"id": 3, "parent": 0, "name": "c", "start": 9.0, "end": 12.0}]
    assert tracer.self_times(spans)[0] == 10.0 - 5.0 - 1.0
    metrics = tracer.layer_metrics(spans, {"n": 7})
    assert metrics["c_s"] == 4.0 + 3.0 + 3.0 and metrics["c.calls"] == 3
    assert metrics["n"] == 7


def test_paused_time_is_outside_every_span():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    with t.span("outer"):
        clock.t = 1.0
        with t.paused():
            clock.t = 6.0
        clock.t = 7.0
    assert t.spans[0]["end"] - t.spans[0]["start"] == 2.0


def test_pickled_size_is_the_pickle_without_unused_memo_entries():
    import pickle
    import pickletools
    obj = [{(1, 2, 3, 4): 5, (6, 7, 8, 9): [10, 11]}, {(1, 2), (3, 4)}]
    full = pickle.dumps(obj, protocol=pickle.DEFAULT_PROTOCOL)
    assert tracer.pickled_size(obj) == len(pickletools.optimize(full))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_results_pass_the_gate(name):
    w = WORKLOADS[name]
    golden = checks.load_golden(w)
    assert len(golden["sets"]) == w.sets
    for i, expected in enumerate(golden["sets"]):
        assert checks.check_results(w, DEFAULT_SEED, i, expected["results"],
                                    expected["csv_sha256"], golden) == []


def test_golden_check_compares_each_set_with_its_own_results():
    w = WORKLOADS["bisector-rand"]
    golden = checks.load_golden(w)
    first = golden["sets"][0]["results"]
    problems = checks.check_results(w, DEFAULT_SEED, 1, first, None, golden)
    assert problems and "intercepts" in problems[0]


@pytest.mark.parametrize("name,key", [("chain-xpy2-w2", "size_x"),
                                      ("chain-xpy2-w2", "energy_support"),
                                      ("bisector-rand", "intercepts")])
def test_golden_check_catches_a_tampered_result(name, key):
    w = WORKLOADS[name]
    golden = checks.load_golden(w)
    expected = golden["sets"][-1]
    tampered = copy.deepcopy(expected["results"])
    tampered[key] += 1
    problems = checks.check_results(w, DEFAULT_SEED, w.sets - 1, tampered,
                                    expected["csv_sha256"], golden)
    assert problems and key in problems[0]


def test_golden_check_catches_a_tampered_histogram_csv():
    w = WORKLOADS["chain-xpy2-w2"]
    golden = checks.load_golden(w)
    assert checks.check_results(w, DEFAULT_SEED, 0, golden["sets"][0]["results"], "0" * 64,
                                golden) == ["histogram CSV differs from golden"]


def test_other_seeds_are_checked_by_identities():
    w = WORKLOADS["bisector-rand"]
    golden = checks.load_golden(w)
    other_seed = DEFAULT_SEED + 1
    # The intercept count depends on the set, so any value passes.
    honest = dict(golden["sets"][0]["results"], intercepts=1)
    assert checks.check_results(w, other_seed, 0, honest, None, golden) == []
    for broken in ({"pairs_skipped": 0}, {"quotient_crosscheck_ok": False},
                   {"size_a": w.size + 1, "grid_points": (w.size + 1) ** 2}):
        assert checks.check_results(w, other_seed, 0, dict(honest, **broken), None, golden)


def test_gate_fails_a_run_whose_report_was_tampered(tmp_path):
    w = WORKLOADS["bisector-rand"]
    golden = checks.load_golden(w)
    gate = run.Gate(w, DEFAULT_SEED)
    ok = run.Child(wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, exit_code=0)
    report = tmp_path / "report.json"
    results = golden["sets"][0]["results"]
    report.write_text(json.dumps({"results": results}))
    assert gate.judge(ok, report, None, "run0") == results
    report.write_text(json.dumps({"results": dict(results, intercepts=7)}))
    assert gate.judge(ok, report, None, "run1") is None
    Path(f"{report}.stderr").write_text("boom")
    assert gate.judge(run.Child(1.0, 1.0, 1.0, exit_code=1), report, None, "run2") is None
    assert (gate.attempted, gate.failed) == (3, 2)


def test_gate_fails_a_run_that_differs_from_an_earlier_run_of_its_seed(tmp_path):
    w = WORKLOADS["bisector-rand"]
    golden = checks.load_golden(w)
    gate = run.Gate(w, DEFAULT_SEED + 1)
    ok = run.Child(1.0, 1.0, 1.0, 0)
    report = tmp_path / "report.json"
    first, second = (s["results"] for s in golden["sets"][:2])
    report.write_text(json.dumps({"results": first}))
    assert gate.judge(ok, report, None, "run0", set_index=0) is not None
    report.write_text(json.dumps({"results": second}))
    assert gate.judge(ok, report, None, "run1", set_index=1) is not None
    assert gate.judge(ok, report, None, "run2", set_index=0) is None
    assert gate.problems == ["run2: output differs from an earlier run of the same set"]


def test_workload_inputs_are_deterministic_given_the_seed():
    bis = WORKLOADS["bisector-rand"]
    assert cli_args(bis, 5, "r.json", None, 2) == cli_args(bis, 5, "r.json", None, 2)
    assert set_spec(bis, 5) != set_spec(bis, 6)
    sets = [set_spec(bis, 5, i)["values"] for i in range(bis.sets)]
    assert len({tuple(v) for v in sets}) == bis.sets
    for spec in sets:
        values = [int(v) for v in spec]
        assert len(set(values)) == 20 and all(1 <= v <= 100 for v in values)
    chain = WORKLOADS["chain-xpy2-w2"]
    assert cli_args(chain, 5, "r.json", "h.csv") == cli_args(chain, 6, "r.json", "h.csv")


def test_benchmark_json_names_the_workloads_and_their_golden_files():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS.values():
        assert checks.load_golden(w)["seed"] == DEFAULT_SEED


def test_traced_cli_run_records_every_layer(tmp_path):
    """A small chain run through tracer.py: counts follow from |A| and workers."""
    spans_path, report, csv = tmp_path / "spans.json", tmp_path / "r.json", tmp_path / "h.csv"
    args = cli_args(WORKLOADS["chain-xpy2-w2"], DEFAULT_SEED, str(report), str(csv))
    args[args.index("--set") + 1] = json.dumps(
        {"kind": "arithmetic", "start": 1, "step": 1, "size": 6})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
                           *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    data = json.loads(spans_path.read_text())
    m = tracer.layer_metrics(data["spans"], data["counters"])
    results = json.loads(report.read_text())["results"]
    assert m["polynomials.evaluate_calls"] == 4 * 6 * 6  # 3 table builds + CSV histogram
    assert m["quotients.quadruple_histogram.calls"] == 2
    assert m["parallel.tasks"] == 4 * 2 and m["parallel.result_bytes"] > 0
    assert m["quotients.size_x"] == m["quotients.histogram_support"] == results["size_x"]
    assert m["lines.distinct_lines"] == 36 and m["lines.crossing_points"] > 0
    assert m["reports.write_csv.calls"] == 1 and m["reports.write_report.calls"] == 1
    roots = [s for s in data["spans"] if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli"]
    assert m["cli.self_s"] >= 0 and m["quotients.verify_chain.self_s"] >= 0
