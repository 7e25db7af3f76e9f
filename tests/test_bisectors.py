import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotlab.bisectors import bisector_intercept_set, intercept_quotient_poly
from quotlab.errors import InputError
from quotlab.polynomials import Poly
from quotlab.quotients import QuotientSet, quotient_set
from quotlab.reports import values_csv_rows
from quotlab.sets import GroundSet

from oracles import (brute_bisector_intercepts, brute_grid_pair_counts,
                     bisector_y_intercept, constructed_bisector_intercepts,
                     random_ground_set, value_rows)


def frac(p, q=1):
    return Fraction(p, q)


def point(x, y):
    return (Fraction(x), Fraction(y))


def test_intercept_vertical_segment():
    assert bisector_y_intercept(point(0, 0), point(0, 2)) == 1


def test_intercept_antidiagonal_pair():
    assert bisector_y_intercept(point(1, 0), point(0, 1)) == 0


def test_intercept_worked_formula():
    assert bisector_y_intercept(point(0, 1), point(2, 3)) == 3


def test_intercept_rejects_equal_y():
    with pytest.raises(ValueError, match="parallel"):
        bisector_y_intercept(point(0, 1), point(5, 1))


def test_intercept_rejects_coincident_points():
    with pytest.raises(ValueError, match="coincident"):
        bisector_y_intercept(point(2, 3), point(2, 3))


coords = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@given(coords, coords, coords, coords)
def test_intercept_symmetry(px, py, qx, qy):
    if py == qy:
        return
    p, q = (px, py), (qx, qy)
    assert bisector_y_intercept(p, q) == bisector_y_intercept(q, p)


@given(coords, coords, coords, coords)
def test_intercept_lies_on_the_bisector(px, py, qx, qy):
    # equidistance from both endpoints, checked on squared distances
    if py == qy:
        return
    s = bisector_y_intercept((px, py), (qx, qy))
    d_p = px * px + (s - py) ** 2
    d_q = qx * qx + (s - qy) ** 2
    assert d_p == d_q


def test_intercept_set_minimal_case():
    for ground in (GroundSet.of(0, 1), GroundSet.of(-3, 7),
                   GroundSet.of(frac(1, 3), frac(-5, 2))):
        intercepts = bisector_intercept_set(ground)
        assert set(value_rows(intercepts)) == brute_bisector_intercepts(ground)
        assert set(value_rows(intercepts)) == constructed_bisector_intercepts(ground)
        assert intercepts.grid_size == 4
        # unordered pairs of 4 grid points: 6, of which 2 share a y-coordinate
        assert (intercepts.pairs_considered, intercepts.pairs_skipped) == \
            brute_grid_pair_counts(ground) == (4, 2)


def test_intercept_set_requires_two_elements():
    with pytest.raises(InputError):
        bisector_intercept_set(GroundSet.of(3))


def test_intercept_set_workers_equivalent():
    ground = GroundSet.of(*range(5))
    base = bisector_intercept_set(ground, workers=1)
    # 25 grid points give 300 pairs; the 10 slope-class pairs of the
    # quadratic's line family are cut into chunks of unequal length
    assert base.pairs_considered + base.pairs_skipped == 300
    for workers in (2, 3, 4, 7):
        multi = bisector_intercept_set(ground, workers=workers)
        assert (base, base.scale) == (multi, multi.scale)
        assert base.pairs_considered == multi.pairs_considered
        assert base.pairs_skipped == multi.pairs_skipped


def test_intercept_set_is_the_quotient_set_of_the_quadratic():
    ground = GroundSet.of(-2, frac(1, 3), 1, 4, 9)
    expected = quotient_set(intercept_quotient_poly(), ground)
    for workers in (1, 2, 3):
        intercepts = bisector_intercept_set(ground, workers=workers)
        # the quotient set itself, with the grid's pair counts set on it
        assert type(intercepts) is QuotientSet
        assert (intercepts, intercepts.scale) == (expected, expected.scale)
        assert intercepts.grid_size == len(ground) ** 2
        assert (intercepts.pairs_considered, intercepts.pairs_skipped) == \
            brute_grid_pair_counts(ground)
        assert len(intercepts) == len(expected) == len(set(value_rows(intercepts)))
        assert list(values_csv_rows(intercepts)) == list(values_csv_rows(expected))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15)
def test_intercept_set_matches_brute_force(seed):
    rng = random.Random(seed)
    ground = random_ground_set(rng, rng.randint(2, 5), rational=bool(seed % 2))
    intercepts = bisector_intercept_set(ground)
    assert value_rows(intercepts) == sorted(brute_bisector_intercepts(ground))
    assert set(value_rows(intercepts)) == constructed_bisector_intercepts(ground)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15)
def test_pair_counts_match_a_direct_count(seed):
    # integer sets in [-20, 20] (negatives included) and rational sets
    rng = random.Random(seed)
    ground = random_ground_set(rng, rng.randint(2, 6), rational=bool(seed % 2))
    intercepts = bisector_intercept_set(ground)
    assert intercepts.grid_size == len(ground) ** 2
    assert (intercepts.pairs_considered, intercepts.pairs_skipped) == \
        brute_grid_pair_counts(ground)


def test_sign_flipped_quadratic_does_not_reproduce_intercepts():
    # -2(x^2 - y^2) is not the generating polynomial: the y^2 sign and the
    # overall scale are both wrong
    ground = GroundSet.of(0, 1, 3)
    wrong = Poly({(2, 0): frac(-2), (0, 2): frac(2)})
    intercepts = bisector_intercept_set(ground)
    assert set(value_rows(quotient_set(wrong, ground))) != set(value_rows(intercepts))


def test_growth_trend_on_progressions():
    from quotlab.quotients import fit_loglog_slope
    sizes, counts = [], []
    for n in (4, 8, 16):
        ground = GroundSet.of(*range(1, n + 1))
        sizes.append(n)
        counts.append(len(bisector_intercept_set(ground)))
    assert fit_loglog_slope(sizes, counts) >= 1.9
