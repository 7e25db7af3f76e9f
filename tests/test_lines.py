import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotlab import lines
from quotlab.errors import InputError, ResourceCapError
from quotlab.lines import (Line, LineMultiset, build_lines, check_crossing_memory,
                           crossing_pair_count, crossing_weights, incidences,
                           intersection_points, rich_point_reports, vertical_section)
from quotlab.polynomials import Poly
from quotlab.quotients import quadruple_histogram, quotient_set
from quotlab.sets import GroundSet

from oracles import (brute_energy, brute_incidences, brute_intersection_points,
                     brute_vertical_section, energy_restricted, instance_lines,
                     random_ground_set, random_polynomial)

G_X = Poly(2, {(1, 0): Fraction(1)})
G_Y2 = Poly(2, {(0, 2): Fraction(1)})
G_XY = Poly(2, {(1, 1): Fraction(1)})
G_X_PLUS_Y2 = Poly(2, {(1, 0): Fraction(1), (0, 2): Fraction(1)})
G_X2_PLUS_Y = Poly(2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})

SEVEN_GIB = 7 * 2 ** 30
# |X| for g = x + y^2 on {1..40}, g = xy on {1..64} and on {1..128}, as the
# chain reports them
SIZE_X = {"x+y^2 40": 13925, "xy 64": 200387, "xy 128": 1684587}

A01 = GroundSet.of(0, 1)


def frac(p, q=1):
    return Fraction(p, q)


def points(family, **kwargs):
    return intersection_points(crossing_weights(family, points=True, **kwargs))


def rich(family, t):
    return rich_point_reports(family, [t], crossing_weights(family))[0]


# -- building the family -----------------------------------------------------

def test_build_lines_four_distinct():
    family = build_lines(G_X, A01, A01)
    rows = {(l.slope, l.intercept): l.multiplicity for l in family}
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
    assert [(l.slope, l.intercept) for l in family] == [(frac(5), frac(-5))]


def test_build_lines_collapsing_slope_reports_multiplicity():
    # g = xy with 0 in B: the b = 0 column collapses onto one line
    ground = GroundSet.of(0, 1, 2)
    family = build_lines(G_XY, ground, ground)
    assert family.max_multiplicity == 3
    assert family.total_weight == 9


# -- vertical sections --------------------------------------------------------

def test_vertical_section_at_zero():
    section = vertical_section(build_lines(G_X, A01, A01), frac(0))
    assert section == {frac(0): 2, frac(-1): 2}


def test_vertical_section_at_one():
    section = vertical_section(build_lines(G_X, A01, A01), frac(1))
    assert section == {frac(0): 2, frac(1): 1, frac(-1): 1}


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
        section = vertical_section(family, x)
        assert sum(section.values()) == len(ground_a) * len(ground_b)
        assert section == brute_vertical_section(g, ground_a, ground_b, x)


# -- intersection enumeration -------------------------------------------------

def test_intersection_points_worked_example():
    pts = points(build_lines(G_X, A01, A01))
    assert [(p.point, p.count) for p in pts] == [
        ((frac(-1), frac(-1)), 2),
        ((frac(0), frac(-1)), 2),
        ((frac(0), frac(0)), 2),
        ((frac(1), frac(0)), 2),
    ]


def test_single_slope_class_has_no_intersections():
    family = LineMultiset([Line(frac(2), frac(c), 1) for c in range(5)])
    assert points(family) == []


def test_three_concurrent_lines():
    family = LineMultiset([Line(frac(1), frac(0), 1), Line(frac(2), frac(0), 1),
                           Line(frac(-1), frac(0), 1)])
    pts = points(family)
    assert [(p.point, p.count) for p in pts] == [((frac(0), frac(0)), 3)]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_intersections_match_brute_force(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground_a = random_ground_set(rng, rng.randint(1, 4), rational=bool(seed % 2))
    ground_b = random_ground_set(rng, rng.randint(2, 4))
    family = build_lines(g, ground_a, ground_b)
    expected = brute_intersection_points(g, ground_a, ground_b)
    got = {pm.point: pm.count for pm in points(family)}
    assert got == expected


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
    single = LineMultiset([Line(frac(2), frac(c), 1) for c in range(3)])
    assert lines._class_shards(single, 2) == [(0, 0)]


def test_every_kernel_takes_its_tasks_from_the_class_shards(monkeypatch):
    seen = []

    def recorded(fn, tasks, workers):
        seen.append([(task[1], task[2]) for task in tasks])
        return [fn(task) for task in tasks]  # inline: the ranges are what counts

    monkeypatch.setattr(lines, "run_chunks", recorded)
    for g, ground in ((G_X, GroundSet.of(*range(6))),
                      (G_XY, GroundSet.of(*range(1, 7))),
                      (G_X2_PLUS_Y, GroundSet.of(*range(-3, 4)))):  # repeated lines
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
    one_class = LineMultiset([Line(frac(2), frac(c), 1) for c in range(3)])
    families = [one_class] + [build_lines(g, ground, ground) for g, ground in (
        (G_XY, GroundSet.of(*range(1, 7))),
        (G_X2_PLUS_Y, GroundSet.of(*range(-3, 4))))]  # repeated lines
    for family in families:
        for workers in (1, 2, 3):
            for kind in (set, Counter):
                made = []

                def collect():
                    made.append(kind())
                    return made[-1]

                merged = lines.pair_keys(family, family.table[2], collect, workers)
                assert len(made) == len(lines._class_shards(family, workers))
                assert merged is parts[0]
            assert quadruple_histogram(family, workers=workers).pairs_by_key is parts[0]


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
    assert report.count == 4
    assert report.bound_ratio == Fraction(4 * 8, 16)
    assert rich(family, 3).count == 0


def test_rich_points_rejects_threshold_below_two():
    family = build_lines(G_X, A01, A01)
    with pytest.raises(InputError):
        rich(family, 1)


def test_rich_points_decay():
    ground = GroundSet.of(*range(1, 9))
    family = build_lines(G_XY, ground, ground)
    counts = [rich(family, t).count for t in range(2, 12)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    max_n = max((p.count for p in points(family)), default=0)
    assert rich(family, max_n + 1).count == 0


def test_rich_points_empty_above_degree_cap():
    # degree-1 polynomial with all multiplicities 1: no point can carry
    # more than d * min(|A|, |B|) lines
    ground = GroundSet.of(*range(1, 6))
    family = build_lines(G_X, ground, ground)
    assert family.max_multiplicity == 1
    assert rich(family, len(ground) + 1).count == 0


# -- incidences -------------------------------------------------------------

def test_incidences_single_point():
    family = LineMultiset([Line(frac(0), frac(0), 1), Line(frac(1), frac(0), 1),
                           Line(frac(0), frac(1), 1)])
    report = incidences([(frac(0), frac(0))], family)
    assert report.count == 2


def test_incidences_empty_points():
    family = LineMultiset([Line(frac(0), frac(0), 1)])
    assert incidences([], family).count == 0


def test_incidences_grid_with_weighted_horizontals():
    # vertical lines are out of scope, so "6 lines, 3 grid points each" is
    # realized as the 3 horizontals of the grid carried with multiplicity 2
    grid = [(frac(i), frac(j)) for i in range(3) for j in range(3)]
    family = LineMultiset([Line(frac(0), frac(j), 2) for j in range(3)])
    report = incidences(grid, family)
    assert family.total_weight == 6
    assert report.count == 18
    rows = [(l.slope, l.intercept, l.multiplicity) for l in family]
    assert report.count == brute_incidences(grid, rows)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_incidences_match_brute_force(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground = random_ground_set(rng, rng.randint(2, 4))
    family = build_lines(g, ground, ground)
    pts = [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
           for _ in range(6)]
    weighted = [(l.slope, l.intercept, l.multiplicity) for l in family]
    assert incidences(pts, family).count == brute_incidences(pts, weighted)


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
    assert len(weights) == len(intersection_points(weights))
    assert len(weights) <= pairs == weights.pairs
    na, nb = len(ground_a), len(ground_b)
    assert total == na * na * nb * (nb - 1)


def test_instance_lines_oracle_agrees_with_family_weight():
    ground = GroundSet.of(0, 1, 2)
    family = build_lines(G_XY, ground, ground)
    assert family.total_weight == len(instance_lines(G_XY, ground, ground))
