import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotlab import lines
from quotlab.bisectors import bisector_intercept_set, intercept_quotient_poly
from quotlab.errors import InputError, ResourceCapError
from quotlab.lines import (Line, build_lines, check_crossing_memory, crossing_pair_count,
                           crossing_weights, incidences, rich_point_reports,
                           vertical_section)
from quotlab.polynomials import Poly
from quotlab.quotients import (QuadrupleHistogram, QuotientSet, exponent_scan,
                               quadruple_histogram, quotient_set, verify_chain)
from quotlab.reports import points_csv_rows
from quotlab.sets import GroundSet, SetSpec

from oracles import (brute_energy, brute_incidences, brute_intersection_points,
                     brute_quadruple_histogram, brute_quotient_set, brute_vertical_section,
                     energy_restricted, family_of, histogram_rows, instance_lines,
                     point_rows, random_ground_set, random_polynomial, section_by_y,
                     value_rows)

G_X = Poly({(1, 0): Fraction(1)})
G_Y2 = Poly({(0, 2): Fraction(1)})
G_XY = Poly({(1, 1): Fraction(1)})
G_X_PLUS_Y2 = Poly({(1, 0): Fraction(1), (0, 2): Fraction(1)})
G_X2_PLUS_Y = Poly({(2, 0): Fraction(1), (0, 1): Fraction(1)})

SEVEN_GIB = 7 * 2 ** 30
# |X| for g = x + y^2 on {1..40}, g = xy on {1..64} and on {1..128}, as the
# chain reports them
SIZE_X = {"x+y^2 40": 13925, "xy 64": 200387, "xy 128": 1684587}

A01 = GroundSet.of(0, 1)


def frac(p, q=1):
    return Fraction(p, q)


def points(family, **kwargs):
    """The rows (x, y, n) the points CSV gets from the sweep of ``family``."""
    return list(points_csv_rows(crossing_weights(family, points=True, **kwargs)))


def rich(family, t):
    return rich_point_reports(family, [t], crossing_weights(family))[0]


# -- building the family -----------------------------------------------------

def test_build_lines_four_distinct():
    family = build_lines(G_X, A01, A01)
    rows = {(l.slope, l.intercept): l.multiplicity for l in family.lines}
    assert rows == {(frac(0), frac(0)): 1, (frac(0), frac(-1)): 1,
                    (frac(1), frac(0)): 1, (frac(1), frac(-1)): 1}
    assert family.total_weight == 4
    assert family.max_multiplicity == 1


def test_build_lines_merges_equal_lines():
    ground_a, ground_b = GroundSet.of(1, 2), GroundSet.of(3)
    family = build_lines(G_Y2, ground_a, ground_b)
    assert len(family) == 1
    line = family.lines[0]
    assert (line.slope, line.intercept, line.multiplicity) == (frac(3), frac(-9), 2)
    # both source pairs (1, 3) and (2, 3) give exactly this line
    assert instance_lines(G_Y2, ground_a, ground_b) == [(line.slope, line.intercept)] * 2


def test_build_lines_singleton():
    family = build_lines(G_X, GroundSet.of(5), GroundSet.of(5))
    assert [(l.slope, l.intercept) for l in family.lines] == [(frac(5), frac(-5))]


def test_build_lines_collapsing_slope_reports_multiplicity():
    # g = xy with 0 in B: the b = 0 column collapses onto one line
    ground = GroundSet.of(0, 1, 2)
    family = build_lines(G_XY, ground, ground)
    assert family.max_multiplicity == 3
    assert family.total_weight == 9


# -- vertical sections --------------------------------------------------------

def test_vertical_section_at_zero():
    section = section_by_y(build_lines(G_X, A01, A01), frac(0))
    assert section == {frac(0): 2, frac(-1): 2}


def test_vertical_section_at_one():
    section = section_by_y(build_lines(G_X, A01, A01), frac(1))
    assert section == {frac(0): 2, frac(1): 1, frac(-1): 1}


def test_vertical_section_keys_y_by_integers():
    # g = x on {0, 1}: lb = lc = 1, so at x = 1/2 the key of y is 2y
    section = vertical_section(build_lines(G_X, A01, A01), frac(1, 2))
    assert section == {0: 1, -2: 1, 1: 1, -1: 1}
    assert all(type(key) is int for key in section)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_vertical_mass_conservation(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground_a = random_ground_set(rng, rng.randint(1, 5), rational=bool(seed % 2))
    ground_b = random_ground_set(rng, rng.randint(1, 5))
    family = build_lines(g, ground_a, ground_b)
    for _ in range(3):
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert sum(vertical_section(family, x).values()) == len(ground_a) * len(ground_b)
        assert section_by_y(family, x) == brute_vertical_section(g, ground_a, ground_b, x)


# -- intersection enumeration -------------------------------------------------

def test_intersection_points_worked_example():
    assert points(build_lines(G_X, A01, A01)) == [
        ("-1", "-1", 2),
        ("0", "-1", 2),
        ("0", "0", 2),
        ("1", "0", 2),
    ]


def test_single_slope_class_has_no_intersections():
    family = family_of([Line(frac(2), frac(c), 1) for c in range(5)])
    assert points(family) == []


def test_three_concurrent_lines():
    family = family_of([Line(frac(1), frac(0), 1), Line(frac(2), frac(0), 1),
                        Line(frac(-1), frac(0), 1)])
    assert points(family) == [("0", "0", 3)]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_intersections_match_brute_force(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground_a = random_ground_set(rng, rng.randint(1, 4), rational=bool(seed % 2))
    ground_b = random_ground_set(rng, rng.randint(2, 4))
    family = build_lines(g, ground_a, ground_b)
    expected = point_rows(brute_intersection_points(g, ground_a, ground_b))
    assert points(family) == expected


def test_intersections_deterministic_across_workers():
    ground = GroundSet.of(*range(8))
    family = build_lines(G_XY, ground, ground)
    baseline = points(family, workers=1)
    for workers in (2, 4):
        assert points(family, workers=workers) == baseline


def test_memory_cap_enforced(monkeypatch):
    ground = GroundSet.of(*range(6))
    family = build_lines(G_X, ground, ground)
    calls = []
    kernel = lines._sweep_chunk

    def counted(args):
        calls.append(args)
        return kernel(args)

    monkeypatch.setattr(lines, "_sweep_chunk", counted)
    monkeypatch.setattr(lines, "_memory_budget", lambda: 1000)
    # 6 slope classes of 6 lines: 36 lines, 540 line pairs
    with pytest.raises(ResourceCapError,
                       match=r"estimated .* GiB \(\(36 lines \+ 0 abscissas\) x 500 B x 1\)"):
        crossing_weights(family)
    assert calls == []
    # a budget of exactly the inline estimate admits one process, not two
    # shards and the parent that merges them
    inline = 36 * lines.SWEEP_ENTRY_BYTES
    monkeypatch.setattr(lines, "_memory_budget", lambda: inline)
    with pytest.raises(ResourceCapError, match=r"x 3\)"):
        crossing_weights(family, workers=2)
    assert calls == []
    # only materialized points are charged per line pair
    with pytest.raises(ResourceCapError, match=r"\+ 540 line pairs x 600 B\)"):
        crossing_weights(family, points=True)
    assert calls == []
    assert len(crossing_weights(family, workers=1)) > 0
    assert len(calls) == 1


def test_memory_cap_charges_every_shard_when_fork_is_missing(monkeypatch):
    # run inline, the parent holds both shards' parts until the merge
    monkeypatch.delattr(os, "fork")
    family = build_lines(G_X, GroundSet.of(*range(6)), GroundSet.of(*range(6)))
    calls = []
    monkeypatch.setattr(lines, "_sweep_chunk", calls.append)
    inline = 36 * lines.SWEEP_ENTRY_BYTES  # 36 lines, one part
    monkeypatch.setattr(lines, "_memory_budget", lambda: 2 * inline)
    with pytest.raises(ResourceCapError, match=r"x 3\)"):
        crossing_weights(family, workers=2)
    assert calls == []


def test_sweep_builds_the_keys_of_a_line_once_or_twice(monkeypatch):
    # unit multiplicities: one key list per swept line serves as both the
    # lines and the masses; weighted lines need a second, repeated, list
    calls = []
    line_keys = lines._line_keys

    def counted(*args):
        calls.append(1)
        return line_keys(*args)

    monkeypatch.setattr(lines, "_line_keys", counted)
    for g, ground, per_line in ((G_XY, GroundSet.of(*range(1, 7)), 1),
                                (G_X_PLUS_Y2, GroundSet.of(*range(1, 13)), 1),
                                (G_X2_PLUS_Y, GroundSet.of(*range(-3, 4)), 2)):
        family = build_lines(g, ground, ground)
        assert (family.max_multiplicity == 1) == (per_line == 1)
        # the lines of the top slope class meet no line above them and are not swept
        swept = len(family) - len(family.intercepts[-1])
        for support_size in (None, 0):
            calls.clear()
            crossing_weights(family, support_size=support_size)
            assert len(calls) == per_line * swept


def test_kernels_called_without_workers_never_fork(monkeypatch):
    def no_fork():
        raise AssertionError("a kernel called without workers forked")

    monkeypatch.setattr(os, "fork", no_fork)
    spec = SetSpec.from_dict({"kind": "arithmetic", "start": 1, "step": 1, "size": 4})
    for g, ground in ((G_XY, GroundSet.of(*range(1, 9))),
                      (G_X_PLUS_Y2, GroundSet.of(*range(1, 13)))):
        family = build_lines(g, ground, ground)
        assert len(quotient_set(g, ground)) > 0
        assert len(quadruple_histogram(family)) > 0
        assert len(crossing_weights(family)) > 0
        assert verify_chain(g, ground)[0]["size_x"] > 0
        assert len(exponent_scan(g, spec, [2, 8])["rows"]) == 2
    assert len(bisector_intercept_set(GroundSet.of(*range(1, 9)))) > 0


def test_crossing_pair_count_counts_line_pairs_with_distinct_slopes():
    for g, ground in ((G_X, GroundSet.of(*range(6))),          # multiplicities 1
                      (G_XY, GroundSet.of(*range(5))),         # b = 0 collapses 5 lines
                      (G_X2_PLUS_Y, GroundSet.of(*range(-3, 4)))):  # a, -a merge
        family = build_lines(g, ground, ground)
        pairs = sum(1 for l1, l2 in combinations(family.lines, 2) if l1.slope != l2.slope)
        assert crossing_pair_count(family) == pairs
        assert len(crossing_weights(family)) <= pairs
        for workers in (1, 2, 3):
            assert crossing_weights(family, workers=workers).pairs == pairs


def test_class_shards_are_contiguous_shares_of_the_line_pairs():
    ground = GroundSet.of(*range(6))
    family = build_lines(G_X, ground, ground)  # classes pair 180, 144, ..., 36, 0 lines
    assert lines._class_shards(family, 1) == [(0, 5)]
    assert lines._class_shards(family, 2) == [(0, 2), (2, 5)]
    assert lines._class_shards(family, 3) == [(0, 1), (1, 3), (3, 5)]
    single = family_of([Line(frac(2), frac(c), 1) for c in range(3)])
    assert lines._class_shards(single, 2) == [(0, 0)]


@pytest.mark.parametrize("workers", [0, -1])
def test_every_kernel_refuses_fewer_than_one_worker(workers):
    # the CLI's rule and message, held by the one partitioner every kernel calls
    ground = GroundSet.of(*range(1, 5))
    family = build_lines(G_XY, ground, ground)
    spec = SetSpec.from_dict({"kind": "arithmetic", "start": 1, "step": 1, "size": 4})
    kernels = [lambda: quotient_set(G_XY, ground, workers=workers),
               lambda: quadruple_histogram(family, workers=workers),
               lambda: crossing_weights(family, workers=workers),
               lambda: bisector_intercept_set(ground, workers=workers),
               lambda: verify_chain(G_XY, ground, workers=workers),
               lambda: exponent_scan(G_XY, spec, [2, 4], workers=workers)]
    for kernel in kernels:
        with pytest.raises(InputError, match=r"^workers must be an integer >= 1$"):
            kernel()


def test_every_kernel_takes_its_tasks_from_the_class_shards(monkeypatch):
    seen = []

    def recorded(fn, tasks, workers):
        seen.append([(task[1], task[2]) for task in tasks])
        return [fn(task) for task in tasks]  # inline: the ranges are what counts

    monkeypatch.setattr(lines, "run_chunks", recorded)
    for g, ground in ((G_X, GroundSet.of(*range(6))),
                      (G_XY, GroundSet.of(*range(1, 7))),
                      (G_X2_PLUS_Y, GroundSet.of(*range(-3, 4))),  # repeated lines
                      (G_X_PLUS_Y2, GroundSet.of(*range(1, 13)))):  # the translate walk
        family = build_lines(g, ground, ground)
        for workers in (1, 2, 3):
            seen.clear()
            quotient_set(g, ground, workers=workers)
            quadruple_histogram(family, workers=workers)
            crossing_weights(family, workers=workers)
            assert seen == [lines._class_shards(family, workers)] * 3


def test_pair_walk_folds_the_shards_into_the_first_part(monkeypatch):
    parts = []

    def inline(fn, tasks, workers):
        parts[:] = [fn(task) for task in tasks]
        return list(parts)

    monkeypatch.setattr(lines, "run_chunks", inline)
    one_class = family_of([Line(frac(2), frac(c), 1) for c in range(3)])
    instances = ((G_XY, GroundSet.of(*range(1, 7))),
                 (G_X2_PLUS_Y, GroundSet.of(*range(-3, 4))),  # repeated lines
                 (G_X_PLUS_Y2, GroundSet.of(*range(1, 13))))  # the translate walk
    for g, ground in instances:
        for workers in (1, 2, 3):
            assert quotient_set(g, ground, workers=workers) is parts[0]
    families = [one_class] + [build_lines(g, ground, ground) for g, ground in instances]
    for family in families:
        for workers in (1, 2, 3):
            for kind in (set, Counter):
                made = []

                def collect():
                    made.append(kind())
                    return made[-1]

                merged = lines.pair_keys(family, family.intercepts, collect, workers)
                assert len(made) == len(lines._class_shards(family, workers))
                assert merged is parts[0]
            assert quadruple_histogram(family, workers=workers) is parts[0]


# -- the translate walk ---------------------------------------------------------


def translate_walk(family, weighted, workers=1):
    """The translate walk of ``family`` whatever TRANSLATE_GAIN says: its
    quotient set, or, ``weighted``, its histogram."""
    shifts = lines.translate_shifts(family)
    assert shifts is not None
    first = [c for c, m in zip(family.intercepts[0], family.mults[0])
             for _ in range(m if weighted else 1)]
    keys = lines._walk(lines._translate_keys_chunk,
                       (family.slopes, shifts, lines._differences(first), family.xscale),
                       family, QuadrupleHistogram if weighted else QuotientSet, workers)
    keys.scale = family.key_scale
    return keys


TRANSLATE_FAMILIES = {
    # rational elements and coefficients: lb, lc != 1
    "rational": (Poly({(1, 0): frac(1, 2), (0, 2): frac(-2, 3)}),
                 GroundSet(Fraction(p, q) for p, q in
                           ((1, 2), (2, 3), (-3, 5), (7, 4), (-2, 1), (0, 1), (5, 3)))),
    # b^2 falls and then rises with the slope b: shifts of both signs
    "negative-shift": (G_X_PLUS_Y2, GroundSet.of(*range(-2, 4))),
    # a and -a give the same line: multiplicities 1 and 2
    "repeated-lines": (G_X2_PLUS_Y, GroundSet.of(*range(-3, 4))),
}


@pytest.mark.parametrize("name", sorted(TRANSLATE_FAMILIES))
def test_translate_walk_matches_brute_force(name):
    g, ground = TRANSLATE_FAMILIES[name]
    family = build_lines(g, ground, ground)
    shifts = lines.translate_shifts(family)
    if name == "negative-shift":
        assert min(shifts) < 0 < max(shifts)
    if name == "repeated-lines":
        assert family.max_multiplicity == 2
    values = sorted(brute_quotient_set(g, ground))
    hist = brute_quadruple_histogram(g, ground)
    for workers in (1, 2, 3):
        assert value_rows(translate_walk(family, False, workers)) == values
        assert histogram_rows(translate_walk(family, True, workers)) == hist


def walks_taken(monkeypatch, run) -> list[str]:
    """The walks (generic or translate) that ``run()`` takes, one per shard."""
    taken = []
    for name, chunk in (("generic", "_pair_keys_chunk"), ("translate", "_translate_keys_chunk")):
        def counted(args, name=name, kernel=getattr(lines, chunk)):
            taken.append(name)
            return kernel(args)
        monkeypatch.setattr(lines, chunk, counted)
    run()
    return taken


def test_translate_walk_runs_only_when_it_is_four_times_shorter(monkeypatch):
    ground = GroundSet.of(*range(1, 41))  # the chain-xpy2-w2 benchmark's set
    family = build_lines(G_X_PLUS_Y2, ground, ground)
    # 780 class pairs of 79 differences against 780 of 1,600 line pairs
    assert crossing_pair_count(family) == 780 * 1600
    assert len(lines._differences(family.intercepts[0])) == 79
    assert walks_taken(monkeypatch, lambda: (quotient_set(G_X_PLUS_Y2, ground),
                                             quadruple_histogram(family))) == ["translate"] * 2
    # g = xy: class b holds -a*b, no shift of class 1
    xy = GroundSet.of(*range(1, 9))
    assert lines.translate_shifts(build_lines(G_XY, xy, xy)) is None
    assert walks_taken(monkeypatch, lambda: quotient_set(G_XY, xy)) == ["generic"]


def test_translate_walk_needs_equal_multiplicities(monkeypatch):
    # three classes, each the intercepts 0..9 shifted: |D| = 19, 5.3x shorter
    def family(heavy):
        return family_of([Line(frac(s), frac(c + 3 * s), 2 if (s, c) == heavy else 1)
                          for s in range(3) for c in range(10)])

    equal, unequal = family(None), family((1, 4))
    assert lines.translate_shifts(equal) == [0, 3, 6]
    assert lines.translate_shifts(unequal) is None
    for table, walk in ((equal, "translate"), (unequal, "generic")):
        assert walks_taken(monkeypatch, lambda: (
            lines.pair_keys(table, table.intercepts, set, 1),
            quadruple_histogram(table))) == [walk] * 2


def test_bisector_rand_sets_take_the_generic_walk(monkeypatch):
    # perfbench/workloads.py draws the four sets of seed 1 this way
    rng = random.Random(1)
    for _ in range(4):
        ground = GroundSet.of(*sorted(rng.sample(range(1, 101), 20)))
        family = build_lines(intercept_quotient_poly(), ground, ground)
        shifts = lines.translate_shifts(family)
        assert shifts is not None  # -(x^2 + y^2)/2 has no mixed term
        steps = len(shifts) * (len(shifts) - 1) // 2 * len(
            lines._differences(family.intercepts[0]))
        assert 1.05 < crossing_pair_count(family) / steps < 1.10
        assert walks_taken(monkeypatch, lambda: bisector_intercept_set(ground)) == ["generic"]


def test_memory_check_admits_desk_runs_and_refuses_quartic_ones(monkeypatch):
    monkeypatch.setattr(lines, "_memory_budget", lambda: SEVEN_GIB)
    bench = GroundSet.of(*range(1, 41))
    check_crossing_memory(build_lines(G_X_PLUS_Y2, bench, bench), workers=2,
                          support_size=SIZE_X["x+y^2 40"])
    mid = GroundSet.of(*range(1, 65))
    check_crossing_memory(build_lines(G_XY, mid, mid), workers=1,
                          support_size=SIZE_X["xy 64"])
    big = GroundSet.of(*range(1, 129))
    family = build_lines(G_XY, big, big)
    for workers in (1, 2):
        check_crossing_memory(family, workers=workers, support_size=SIZE_X["xy 128"])
    # materializing every crossing point is what cannot fit
    with pytest.raises(ResourceCapError, match="133169152 line pairs"):
        check_crossing_memory(family, workers=1, points=True)


# -- energy ---------------------------------------------------------------

def test_energy_worked_example():
    family = build_lines(G_X, A01, A01)
    xs = [frac(-1), frac(0), frac(1)]
    assert energy_restricted(family, xs) == 20


def test_energy_empty_restriction():
    family = build_lines(G_X, A01, A01)
    assert energy_restricted(family, []) == 0


def test_energy_away_from_crossings_counts_single_line_hits():
    # no crossings at x = 7: every line contributes multiplicity^2
    family = build_lines(G_X, A01, A01)
    assert energy_restricted(family, [frac(7)]) == 4
    assert brute_energy(G_X, A01, A01, [frac(7)]) == 4


def test_energy_with_collapsed_lines_matches_brute_force():
    # multiplicity-3 line away from any crossing contributes 9, not 3
    ground = GroundSet.of(0, 1, 2)
    family = build_lines(G_XY, ground, ground)
    xs = [frac(5), frac(0), frac(-1, 2)]
    assert energy_restricted(family, xs) == brute_energy(G_XY, ground, ground, xs)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_energy_matches_brute_force(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground_a = random_ground_set(rng, rng.randint(1, 4))
    ground_b = random_ground_set(rng, rng.randint(2, 4), rational=bool(seed % 2))
    family = build_lines(g, ground_a, ground_b)
    xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
    assert energy_restricted(family, xs) == brute_energy(g, ground_a, ground_b, xs)


# -- rich points ------------------------------------------------------------

def test_rich_points_worked_example():
    family = build_lines(G_X, A01, A01)
    report = rich(family, 2)
    assert report["count"] == 4
    assert Fraction(report["bound_ratio"]) == Fraction(4 * 8, 16)
    assert report["bound_ratio_float"] == 2.0
    assert rich(family, 3)["count"] == 0


def test_rich_points_rejects_threshold_below_two():
    family = build_lines(G_X, A01, A01)
    with pytest.raises(InputError):
        rich(family, 1)


def test_rich_points_decay():
    ground = GroundSet.of(*range(1, 9))
    family = build_lines(G_XY, ground, ground)
    counts = [rich(family, t)["count"] for t in range(2, 12)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    max_n = max((n for _x, _y, n in points(family)), default=0)
    assert rich(family, max_n + 1)["count"] == 0


def test_rich_points_empty_above_degree_cap():
    # degree-1 polynomial with all multiplicities 1: no point can carry
    # more than d * min(|A|, |B|) lines
    ground = GroundSet.of(*range(1, 6))
    family = build_lines(G_X, ground, ground)
    assert family.max_multiplicity == 1
    assert rich(family, len(ground) + 1)["count"] == 0


# -- incidences -------------------------------------------------------------

def test_incidences_single_point():
    family = family_of([Line(frac(0), frac(0), 1), Line(frac(1), frac(0), 1),
                        Line(frac(0), frac(1), 1)])
    report = incidences([(frac(0), frac(0))], family)
    assert report["count"] == 2


def test_incidences_empty_points():
    family = family_of([Line(frac(0), frac(0), 1)])
    assert incidences([], family)["count"] == 0


def test_incidences_grid_with_weighted_horizontals():
    # vertical lines are out of scope, so "6 lines, 3 grid points each" is
    # realized as the 3 horizontals of the grid carried with multiplicity 2
    grid = [(frac(i), frac(j)) for i in range(3) for j in range(3)]
    family = family_of([Line(frac(0), frac(j), 2) for j in range(3)])
    report = incidences(grid, family)
    assert family.total_weight == 6
    assert report["count"] == 18
    rows = [(l.slope, l.intercept, l.multiplicity) for l in family.lines]
    assert report["count"] == brute_incidences(grid, rows)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_incidences_match_brute_force(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground = random_ground_set(rng, rng.randint(2, 4))
    family = build_lines(g, ground, ground)
    pts = [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
           for _ in range(6)]
    weighted = [(l.slope, l.intercept, l.multiplicity) for l in family.lines]
    # rational points, where the intercept a line would need is often no
    # integer in the table's scale, and a point of a line at each of their abscissas
    rational = [(Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 4))) for _ in range(6)]
    on_lines = [(x, slope * x + intercept)
                for (x, _y), (slope, intercept, _m) in zip(rational, rng.choices(weighted, k=6))]
    pts += rational + on_lines
    assert incidences(pts, family)["count"] == brute_incidences(pts, weighted)


# -- instance-pair accounting -------------------------------------------------

@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20)
def test_master_pair_accounting(seed):
    # ordered instance pairs with distinct slopes all meet exactly once:
    # the sweep's pairs per abscissa, doubled, recover their number
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground_a = random_ground_set(rng, rng.randint(1, 4))
    ground_b = random_ground_set(rng, rng.randint(2, 4))
    family = build_lines(g, ground_a, ground_b)
    pairs = crossing_pair_count(family)
    # |X| is at most one abscissa per line pair
    weights = crossing_weights(family, support_size=pairs, points=True)
    total = 2 * sum(weights.pairs_by_key.values())
    assert len(weights) == len(list(points_csv_rows(weights)))
    assert len(weights) <= pairs == weights.pairs
    na, nb = len(ground_a), len(ground_b)
    assert total == na * na * nb * (nb - 1)


def test_instance_lines_oracle_agrees_with_family_weight():
    ground = GroundSet.of(0, 1, 2)
    family = build_lines(G_XY, ground, ground)
    assert family.total_weight == len(instance_lines(G_XY, ground, ground))
