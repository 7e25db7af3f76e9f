"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criterion 6 is implemented exactly as stated and is expected to fail
(strict xfail): the demanded 2x headroom sits on the wrong side of the
measured growth of the energy ratio for g = xy.  See the test body and
its companion for the exact numbers.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from quotlab.cli import main as cli_main
from quotlab.lines import (build_lines, crossing_weights, incidences, rich_point_reports,
                           vertical_section)
from quotlab.bisectors import bisector_intercept_set
from quotlab.polynomials import Poly, bivariate_to_terms, degeneracy_test
from quotlab.quotients import (exponent_scan, fit_loglog_slope,
                               quadruple_histogram, quotient_set, verify_chain)
from quotlab.rationals import format_rational
from quotlab.reports import points_csv_rows
from quotlab.sets import GroundSet, SetSpec

from oracles import (SLOPE_DIFFERENCE, brute_bisector_intercepts, brute_energy,
                     brute_grid_pair_counts, brute_incidences, brute_point_lines,
                     brute_quadruple_histogram, brute_quotient_set,
                     constructed_bisector_intercepts, divide_by_linear, energy_restricted,
                     histogram_rows, pair_difference, point_rows, random_ground_set,
                     random_polynomial, value_rows)

G_X = Poly({(1, 0): Fraction(1)})
G_Y2 = Poly({(0, 2): Fraction(1)})
G_XY = Poly({(1, 1): Fraction(1)})

AP = SetSpec.from_dict({"kind": "arithmetic", "start": 1, "step": 1, "size": 2})
SCAN_SIZES = [8, 16, 32, 64]

# |X| at sizes 8 and 16, pinned by the four-loop oracle (re-derived below)
PINNED_COUNTS = {
    "xy": {8: 321, 16: 2675},
    "x+y^2": {8: 141, 16: 977},
    "x^2+y": {8: 243, 16: 1799},
}
GROWTH_POLYS = {
    "xy": G_XY,
    "x+y^2": Poly({(1, 0): Fraction(1), (0, 2): Fraction(1)}),
    "x^2+y": Poly({(2, 0): Fraction(1), (0, 1): Fraction(1)}),
}


def interval(n: int) -> GroundSet:
    return GroundSet.of(*range(1, n + 1))


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def criterion4_instances():
    """The 20 seeded random instances shared by criteria 4 and 9."""
    instances = []
    for k in range(20):
        rng = random.Random(52000 + k)
        g = random_polynomial(rng, max_degree=4, require_x=True)
        ground = random_ground_set(rng, rng.randint(2, 12), rational=bool(k % 2))
        instances.append((k, rng, g, ground))
    return instances


def test_criterion_1_collapsed_quadratic_closed_form():
    started = time.perf_counter()
    for n in range(2, 51):
        ground = interval(n)
        size = len(quotient_set(G_Y2, ground))
        assert size == 2 * n - 3, f"n={n}: got {size}"
        if n <= 10:
            assert value_rows(quotient_set(G_Y2, ground)) == \
                sorted(brute_quotient_set(G_Y2, ground))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_line(1, True, f"|X| = 2n-3 for n in 2..50, oracle-checked to n=10 "
                         f"({elapsed:.2f}s)")


def test_criterion_2_difference_ratio_slope():
    started = time.perf_counter()
    scan = exponent_scan(G_X, AP, SCAN_SIZES)
    elapsed = time.perf_counter() - started
    assert 1.8 <= scan["slope"] <= 2.1, scan
    assert elapsed < 120.0
    report_line(2, True, f"slope {scan['slope']:.4f} in [1.8, 2.1] over sizes "
                         f"{SCAN_SIZES} ({elapsed:.1f}s)")


def test_criterion_3_growth_with_pinned_fixtures():
    for name, g in GROWTH_POLYS.items():
        for n in (8, 16):
            ground = interval(n)
            oracle = len(brute_quotient_set(g, ground))
            assert oracle == PINNED_COUNTS[name][n], \
                f"{name} n={n}: oracle {oracle} disagrees with pinned fixture"
            assert len(quotient_set(g, ground)) == oracle
    slopes = {}
    for name, g in GROWTH_POLYS.items():
        counts = [len(quotient_set(g, interval(n))) for n in SCAN_SIZES]
        for n, size in zip(SCAN_SIZES, counts):
            if n in (8, 16):
                assert size == PINNED_COUNTS[name][n]
        slopes[name] = fit_loglog_slope(SCAN_SIZES, counts)
        assert slopes[name] >= 1.9, f"{name}: slope {slopes[name]}"
    detail = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    report_line(3, True, f"slopes >= 1.9 with oracle-pinned sizes 8/16: {detail}")


def test_criterion_4_conservation_identities():
    for k, rng, g, ground in criterion4_instances():
        assert not degeneracy_test(g).degenerate
        n = len(ground)
        family = build_lines(g, ground, ground)
        for _ in range(5):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            assert sum(vertical_section(family, x).values()) == n * n
        hist = quadruple_histogram(family)
        assert 2 * hist.total() == n ** 3 * (n - 1)
        assert {-x for x in histogram_rows(hist)} == set(value_rows(quotient_set(g, ground)))
    report_line(4, True, "mass, quadruple-count, and sign-bridge identities "
                         "exact on 20 seeded instances (|A| <= 12, deg <= 4)")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(99)
    checked = 0
    for k in range(8):
        g = random_polynomial(rng, max_degree=4, require_x=bool(k % 3))
        ground = random_ground_set(rng, rng.randint(2, 8), rational=bool(k % 2))
        assert value_rows(quotient_set(g, ground)) == sorted(brute_quotient_set(g, ground))
        family = build_lines(g, ground, ground)
        assert histogram_rows(quadruple_histogram(family)) == \
            brute_quadruple_histogram(g, ground)
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
        n_at = {point: len(through)
                for point, through in brute_point_lines(g, ground, ground).items()}
        assert list(points_csv_rows(crossing_weights(family, points=True))) == \
            point_rows(n_at)
        crossings = sorted(n_at)[:3]
        xs += [x for x, _y in crossings]
        assert energy_restricted(family, xs) == brute_energy(g, ground, ground, xs)
        pts = [(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
               for _ in range(8)]
        pts += crossings
        weighted = [(l.slope, l.intercept, l.multiplicity) for l in family.lines]
        assert incidences(pts, family)["count"] == brute_incidences(pts, weighted)
        checked += 1
    # one rectangular (A != B) energy instance through the same oracles
    ga, gb = random_ground_set(rng, 4), random_ground_set(rng, 6)
    family = build_lines(G_XY, ga, gb)
    xs = [Fraction(v) for v in range(-3, 4)]
    assert energy_restricted(family, xs) == brute_energy(G_XY, ga, gb, xs)

    agreements = 0
    div_rng = random.Random(5151)
    for k in range(100):
        g = random_polynomial(div_rng, max_degree=4, require_x=bool(k % 2))
        _, remainder = divide_by_linear(pair_difference(g), SLOPE_DIFFERENCE)
        assert degeneracy_test(g).degenerate == (remainder == {})
        agreements += 1
    report_line(5, True, f"{checked} instances match the quartic-loop oracles "
                         f"exactly; degeneracy matches division on {agreements} "
                         f"random polynomials")


# Exact measured values for criterion 6 (g = xy on {1..n}); the energy is
# over the full abscissa support including single-crossing contributions,
# i.e. energy = quadruple_total + |X| * (sum of line multiplicity^2).
CRITERION_6_RATIOS = {8: 2.6303, 16: 3.5225, 32: 5.0383, 64: 7.1352}

_CHAIN_CACHE: dict[int, object] = {}


def chain_at(n: int):
    if n not in _CHAIN_CACHE:
        _CHAIN_CACHE[n] = verify_chain(G_XY, interval(n))[0]
    return _CHAIN_CACHE[n]


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: for g = xy, |X| grows like n^3.1, so the "
           "energy ratio grows like sqrt(|X|)/n ~ n^0.55 and doubles across "
           "the 4x size span {16 -> 64}; measured 7.1352 > 2 x 3.5225 = "
           "7.0451 (1.3% over).  The 2x headroom sits exactly on the "
           "asymptotic boundary and the sub-leading terms tip it over.")
def test_criterion_6_energy_ratio_bounded_as_stated():
    ratios = {n: chain_at(n)["energy_bound_ratio"] for n in SCAN_SIZES}
    baseline = max(ratios[8], ratios[16])
    detail = (", ".join(f"n={n}: {r:.4f}" for n, r in ratios.items())
              + f"; 2x baseline = {2 * baseline:.4f}")
    ok = all(r <= 2 * baseline for r in ratios.values())
    report_line(6, ok, detail)
    assert ok, detail


def test_criterion_6_companion_measured_behaviour():
    """The sub-claims of criterion 6 that do hold, pinned exactly.

    The ratio stays within 2x of the small-size baseline through n = 32
    and first exceeds it at n = 64, by 1.3%: the criterion's bound fails
    for a reason the chain itself makes visible (|X| >> |A|^2/(4d^2)
    on every instance, so the energy lemma's hypothesis never applies).
    """
    ratios = {}
    for n in SCAN_SIZES:
        results = chain_at(n)
        ratios[n] = results["energy_bound_ratio"]
        assert not results["size_bound_ok"]  # lemma size hypothesis never holds here
        assert ratios[n] == pytest.approx(CRITERION_6_RATIOS[n], abs=5e-4)
    baseline = max(ratios[8], ratios[16])
    assert all(ratios[n] <= 2 * baseline for n in (8, 16, 32))
    assert 2 * baseline < ratios[64] < 2.05 * baseline
    report_line(6, False, "as stated (expected): ratio at n=64 is "
                          f"{ratios[64] / baseline:.4f}x baseline, just over 2x; "
                          "sizes 8..32 are within bound")


def criterion7_reports():
    """Rich-point reports of g = xy on {1..16} for t in [2, max weight + 1],
    the max weight and the family's total weight."""
    ground = interval(16)
    family = build_lines(G_XY, ground, ground)
    weights = crossing_weights(family, points=True)
    max_weight = max(n for _x, _y, n in points_csv_rows(weights))
    thresholds = list(range(2, max_weight + 2))
    return (rich_point_reports(family, thresholds, weights), max_weight,
            family.total_weight)


def bound_ratio(count: int, t: int, total_weight: int) -> Fraction:
    return Fraction(count * t ** 3, total_weight ** 2)


def check_rich_point_decay(reports, max_weight: int, total_weight: int) -> None:
    counts = [r["count"] for r in reports]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert reports[-1]["t"] == max_weight + 1
    assert reports[-1]["count"] == 0
    for r in reports:
        ratio = bound_ratio(r["count"], r["t"], total_weight)
        assert Fraction(r["bound_ratio"]) == ratio
        assert r["bound_ratio_float"] == float(ratio)
    assert all(r["count"] > 0 for r in reports if r["t"] <= max_weight)


def test_criterion_7_rich_point_decay():
    reports, max_weight, total_weight = criterion7_reports()
    check_rich_point_decay(reports, max_weight, total_weight)
    report_line(7, True, f"|R_t| non-increasing over t in [2, {max_weight + 1}], "
                         f"zero beyond max weight {max_weight}, exact ratios reported")


def test_criterion_7_check_catches_seeded_defects():
    reports, max_weight, total_weight = criterion7_reports()
    assert reports[-2]["t"] == max_weight and reports[-2]["count"] > 0

    def with_count(r, count):
        """``r`` with another count and the ratios that go with it."""
        ratio = bound_ratio(count, r["t"], total_weight)
        return {**r, "count": count, "bound_ratio": str(ratio),
                "bound_ratio_float": float(ratio)}

    check_rich_point_decay([with_count(r, r["count"]) for r in reports], max_weight,
                           total_weight)
    # no point reaches the maximum weight: still non-increasing, caught by
    # the count >= 1 check alone
    emptied = reports[:-2] + [with_count(reports[-2], 0), reports[-1]]
    # more 3-rich points than 2-rich ones: positive, caught by monotonicity
    rising = [reports[0], with_count(reports[1], reports[0]["count"] + 1), *reports[2:]]
    # a ratio that is not count * t^3 / W^2, exact or as a float
    first = reports[0]
    doubled = [{**first, "bound_ratio": str(2 * Fraction(first["bound_ratio"]))}, *reports[1:]]
    drifted = [{**first, "bound_ratio_float": 2 * first["bound_ratio_float"]}, *reports[1:]]
    for defect in (emptied, rising, doubled, drifted):
        with pytest.raises(AssertionError):
            check_rich_point_decay(defect, max_weight, total_weight)


def test_criterion_8_bisector_corollary():
    for k in range(10):
        rng = random.Random(8800 + k)
        ground = random_ground_set(rng, rng.randint(2, 12) if k else 12,
                                   rational=bool(k % 2))
        intercepts = bisector_intercept_set(ground)
        assert set(value_rows(intercepts)) == brute_bisector_intercepts(ground)
        assert set(value_rows(intercepts)) == constructed_bisector_intercepts(ground)
        assert (intercepts.pairs_considered, intercepts.pairs_skipped) == \
            brute_grid_pair_counts(ground)
    # the sign-flipped scaled variant -2(x^2 - y^2) is refuted on a witness
    witness = GroundSet.of(0, 1, 3)
    flipped = Poly({(2, 0): Fraction(-2), (0, 2): Fraction(2)})
    assert set(value_rows(quotient_set(flipped, witness))) != \
        set(value_rows(bisector_intercept_set(witness)))
    report_line(8, True, "quotient set of -(x^2+y^2)/2 = bisector intercepts by "
                         "closed form and by construction on 10 seeded "
                         "instances; pair counts = direct count; sign-flipped "
                         "variant refuted")


def test_criterion_9_worker_determinism(tmp_path):
    def run_chain(idx, g, ground, workers):
        out = tmp_path / f"chain_{idx}_{workers}.json"
        config = {
            "experiment": "chain",
            "g": bivariate_to_terms(g),
            "set": {"kind": "explicit",
                    "values": [format_rational(v) for v in ground]},
            "workers": workers,
            "output": str(out),
        }
        cfg_path = tmp_path / f"config_{idx}_{workers}.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["chain", "--config", str(cfg_path)]) == 0
        return json.dumps(json.loads(out.read_text())["results"], sort_keys=True)

    compared = 0
    for k, _rng, g, ground in criterion4_instances():
        single = run_chain(k, g, ground, 1)
        quad = run_chain(k, g, ground, 4)
        assert single.encode() == quad.encode()
        compared += 1
    report_line(9, True, f"byte-identical chain report counts with workers "
                         f"{{1, 4}} on {compared} instances")
