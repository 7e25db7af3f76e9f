"""The lowest-slope-line sweep and the integer abscissa key against the
brute-force oracles, at several worker counts.

Each family stresses one part of the key or of the multiplicity
accounting: an abscissa scale M of over 1,000 bits, slopes and intercepts
that are not integers (scales lb, lc != 1), lines of multiplicity 2, and
one line of multiplicity |A|.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from quotlab.lines import LineMultiset, build_lines, crossing_weights, rich_point_reports
from quotlab.polynomials import Poly
from quotlab.quotients import verify_chain
from quotlab.reports import points_csv_rows
from quotlab.sets import GroundSet

from oracles import (Line, brute_intersection_points, brute_point_lines,
                     brute_quadruple_histogram, family_of, histogram_rows, instance_lines,
                     point_rows)

G_XY = Poly({(1, 1): Fraction(1)})
G_X2_PLUS_Y = Poly({(2, 0): Fraction(1), (0, 1): Fraction(1)})

RATIONALS = GroundSet(Fraction(p, q) for p, q in
                      ((1, 2), (2, 3), (-3, 5), (7, 4), (1, 1), (0, 1), (5, 3)))

RANDOM_16 = GroundSet.of(*random.Random(1606).sample(range(1, 10 ** 6), 16))

FAMILIES = {
    "m-over-1000-bits": (G_XY, RANDOM_16),
    "rational-scales": (G_XY, RATIONALS),
    "multiplicity-2": (G_X2_PLUS_Y, GroundSet.of(*range(-6, 7))),
    "multiplicity-|A|": (G_XY, GroundSet.of(*range(8))),
}

# (g, A, B) beyond the families above, for the table built from g
TABLE_CASES = {
    "a-differs-from-b": (G_X2_PLUS_Y, GroundSet.of(-2, 0, 5), GroundSet.of(1, 3, 4, 9)),
    # lc is 432 times smaller than the cleared denominator L here
    "rational-coefficients": (Poly({(2, 1): Fraction(3, 2), (0, 3): Fraction(-1, 3),
                                       (1, 0): Fraction(5, 7), (0, 0): Fraction(-2, 9)}),
                              RATIONALS, GroundSet.of(Fraction(-1, 4), 0, Fraction(2, 3), 6)),
    "negative-rationals-in-a": (G_XY, GroundSet(Fraction(p, q) for p, q in
                                                ((-7, 3), (-1, 6), (0, 1), (4, 9))),
                                GroundSet.of(-3, -1, 2)),
    "constant-only": (Poly({(0, 0): Fraction(5, 3)}), GroundSet.of(0, 1, 2),
                      GroundSet.of(Fraction(1, 2), 4)),
    "zero-polynomial": (Poly({}), GroundSet.of(0, 1), GroundSet.of(0, 1)),
}


def brute_chain(g, ground):
    """Q, n per crossing point, and the chain report fields they fix, from
    raw quadruples and instance pairs.  Sum_y n(x, y)^2 is sum(m^2) over all
    lines plus n^2 - sum(m^2) over the crossing points at x."""
    hist = brute_quadruple_histogram(g, ground)
    lines_at = brute_point_lines(g, ground, ground)
    mults = Counter(instance_lines(g, ground, ground))
    t2 = sum(m * m for m in mults.values())
    energy = len(hist) * t2
    for through in lines_at.values():
        energy += len(through) ** 2 - sum(m * m for m in Counter(through).values())
    n_at = {point: len(through) for point, through in lines_at.items()}
    fields = {"size_x": len(hist), "quadruple_total": sum(hist.values()),
              "squared_multiplicity_total": t2, "energy_support": energy,
              "max_line_multiplicity": max(mults.values()),
              "max_point_weight": max(n_at.values())}
    return hist, n_at, fields


def test_families_have_the_property_they_stand_for():
    assert build_lines(G_XY, RANDOM_16, RANDOM_16).xscale.bit_length() > 1000
    rational = build_lines(G_XY, RATIONALS, RATIONALS)
    assert rational.lb != 1 and rational.lc != 1
    for name, multiplicity in (("multiplicity-2", 2), ("multiplicity-|A|", 8)):
        g, ground = FAMILIES[name]
        assert build_lines(g, ground, ground).max_multiplicity == multiplicity


@pytest.mark.parametrize("name", [*FAMILIES, *TABLE_CASES])
def test_table_from_g_equals_the_table_of_the_instance_lines(name):
    if name in FAMILIES:
        g, ground_a = FAMILIES[name]
        ground_b = ground_a
    else:
        g, ground_a, ground_b = TABLE_CASES[name]
    merged = Counter(instance_lines(g, ground_a, ground_b))
    expected = family_of([Line(s, c, m) for (s, c), m in merged.items()])
    family = build_lines(g, ground_a, ground_b)
    for field in LineMultiset.__slots__:
        assert getattr(family, field) == getattr(expected, field), field
    assert family.lines == expected.lines
    assert family.total_weight == len(ground_a) * len(ground_b)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_chain_and_rich_points_match_brute_force(name):
    g, ground = FAMILIES[name]
    hist, n_at, fields = brute_chain(g, ground)
    family = build_lines(g, ground, ground)
    thresholds = list(range(2, fields["max_point_weight"] + 2))
    rich = [sum(1 for n in n_at.values() if n >= t) for t in thresholds]
    for workers in (1, 2, 3):
        results, histogram = verify_chain(g, ground, workers=workers)
        assert histogram_rows(histogram) == hist
        assert {field: results[field] for field in fields} == fields
        weights = crossing_weights(family, workers=workers, points=True)
        assert [r["count"] for r in rich_point_reports(family, thresholds, weights)] == rich
        assert list(points_csv_rows(weights)) == point_rows(n_at)


def test_point_oracle_agrees_with_the_per_point_vertical_sections():
    ground = GroundSet.of(*range(-3, 4))
    expected = brute_intersection_points(G_X2_PLUS_Y, ground, ground)
    got = {point: len(through) for point, through in
           brute_point_lines(G_X2_PLUS_Y, ground, ground).items()}
    assert got == expected
