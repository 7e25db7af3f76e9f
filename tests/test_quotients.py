import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotlab.bisectors import intercept_quotient_poly
from quotlab.errors import DegenerateError, InputError
from quotlab.lines import build_lines
from quotlab.polynomials import Poly
from quotlab.quotients import (exponent_scan, fit_loglog_slope,
                               quadruple_histogram, quotient_set, verify_chain)
from quotlab.reports import histogram_csv_rows, values_csv_rows
from quotlab.sets import GroundSet, SetSpec

from oracles import (brute_quadruple_histogram, brute_quotient_set, histogram_rows,
                     random_ground_set, random_polynomial, value_rows)

G_X = Poly({(1, 0): Fraction(1)})
G_Y2 = Poly({(0, 2): Fraction(1)})
G_XY = Poly({(1, 1): Fraction(1)})
G_X_PLUS_Y2 = Poly({(1, 0): Fraction(1), (0, 2): Fraction(1)})

AP_SPEC = SetSpec.from_dict({"kind": "arithmetic", "start": 1, "step": 1, "size": 4})


def frac(p, q=1):
    return Fraction(p, q)


def interval(*values):
    return GroundSet.of(*values)


def histogram(g, ground, workers=1):
    return quadruple_histogram(build_lines(g, ground, ground), workers=workers)


def same_set(a, b):
    return a == b and a.scale == b.scale


def same_histogram(a, b):
    return a == b and a.scale == b.scale


def key_of(x, scale):
    """The integer key k with x = k * num / den, ``scale`` = (num, den), or
    None when x has none."""
    num, den = scale
    k = x * den / num
    return k.numerator if k.denominator == 1 else None


# -- quotient sets -----------------------------------------------------------

def test_quotient_set_collapsed_quadratic():
    xs = quotient_set(G_Y2, interval(1, 2, 3))
    assert value_rows(xs) == [frac(-5), frac(-4), frac(-3)]


def test_quotient_set_difference_ratio_example():
    xs = quotient_set(G_X, interval(1, 2, 3))
    assert list(values_csv_rows(xs)) == [("-2",), ("-1",), ("-1/2",), ("0",),
                                         ("1/2",), ("1",), ("2",)]
    assert len(xs) == 7
    assert repr(xs) == "QuotientSet(size=7)"


def test_quotient_set_singleton_is_empty():
    assert len(quotient_set(G_X, interval(1))) == 0


def test_quotient_set_refuses_an_empty_set():
    with pytest.raises(InputError, match="nonempty"):
        quotient_set(G_XY, GroundSet([]))


def test_quotient_set_rational_ground_set():
    ground = interval("1/2", "1/3", "-2")
    assert value_rows(quotient_set(G_XY, ground)) == sorted(brute_quotient_set(G_XY, ground))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_quotient_set_matches_brute_force(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground = random_ground_set(rng, rng.randint(2, 6), rational=bool(seed % 2))
    assert value_rows(quotient_set(g, ground)) == sorted(brute_quotient_set(g, ground))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15)
def test_quotient_set_monotone_under_inclusion(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng)
    big = random_ground_set(rng, 6)
    small = GroundSet(list(big)[:4])
    assert set(value_rows(quotient_set(g, small))) <= set(value_rows(quotient_set(g, big)))


ORDER_FAMILIES = {
    # M over 1,000 bits: keys far beyond machine words
    "big-m": (G_XY, GroundSet.of(*random.Random(1606).sample(range(1, 10 ** 6), 16))),
    # slope and intercept scales lb, lc != 1, and keys of both signs
    "rational-negatives": (Poly({(1, 0): Fraction(1), (0, 2): Fraction(1)}),
                           GroundSet(Fraction(p, q) for p, q in
                                     ((1, 2), (2, 3), (-3, 5), (7, 4), (-2, 1), (0, 1), (5, 3)))),
    # a and -a give the same line: multiplicities 1 and 2
    "repeated-lines": (Poly({(2, 0): Fraction(1), (0, 1): Fraction(1)}),
                       GroundSet.of(*range(-6, 7))),
    "bisector-quadratic": (intercept_quotient_poly(),
                           GroundSet.of(1, 4, 9, 13, 16, 18, 27, 33, 49, 50)),
}


@pytest.mark.parametrize("name", sorted(ORDER_FAMILIES))
def test_quotient_set_values_ascend(name):
    g, ground = ORDER_FAMILIES[name]
    expected = sorted(brute_quotient_set(g, ground))
    assert expected != sorted(-x for x in expected)  # a sign flip shows
    for workers in (1, 2, 3):
        assert value_rows(quotient_set(g, ground, workers=workers)) == expected


# big-m is left out: its brute-force histogram alone takes seconds, and
# test_quotient_set_values_ascend reads its values already
FIRST_USE_FAMILIES = {**{name: family for name, family in ORDER_FAMILIES.items()
                         if name != "big-m"},
                      "singleton": (G_XY, interval(3))}


@functools.cache
def brute_first_use(name):
    g, ground = FIRST_USE_FAMILIES[name]
    return (tuple(sorted(brute_quotient_set(g, ground))),
            dict(sorted(brute_quadruple_histogram(g, ground).items())))


def non_members(ascending):
    """Rationals outside a sorted set: past both ends and between neighbours."""
    if not ascending:
        return [frac(0), frac(1, 3)]
    gaps = [(u + v) / 2 for u, v in zip(ascending, ascending[1:])]
    return [ascending[0] - 1, ascending[-1] + 1, *gaps]


# Each check reads ``xs``, a fresh result, one way; ``fresh()`` makes
# another.  "in" and "getitem" look values up among the integer keys,
# "iter" and "support" compare the CSV text with str() of the oracle's
# Fractions, and "values" and "counts" parse the CSV rows.
QUOTIENT_FIRST_USES = {
    "len": lambda xs, fresh, expected: len(xs) == len(expected),
    # x is in X when -x has an integer key among xs
    "in": lambda xs, fresh, expected: (
        all(key_of(-v, xs.scale) in xs for v in expected)
        and not any(key_of(-v, xs.scale) in xs for v in non_members(expected))),
    "==": lambda xs, fresh, expected: (same_set(xs, fresh())
                                       and same_set(xs, quotient_set(G_X, interval(1)))
                                       == (not expected)),
    "iter": lambda xs, fresh, expected: list(values_csv_rows(xs)) == [(str(v),) for v in expected],
    "values": lambda xs, fresh, expected: value_rows(xs) == list(expected),
}

HISTOGRAM_FIRST_USES = {
    "len": lambda hist, expected: len(hist) == len(expected),
    "total": lambda hist, expected: 2 * hist.total() == sum(expected.values()),
    "support": lambda hist, expected: ([x for x, _ in histogram_csv_rows(hist)]
                                       == [str(x) for x in expected]),
    "counts": lambda hist, expected: list(histogram_rows(hist).items()) == list(expected.items()),
    # Q(x) is twice the pair count at the key of x, and 0 where x has no key
    "getitem": lambda hist, expected: (
        all(2 * hist[key_of(x, hist.scale)] == q for x, q in expected.items())
        and not any(key_of(x, hist.scale) in hist
                    for x in non_members(tuple(expected)))),
}


@pytest.mark.parametrize("use", sorted(QUOTIENT_FIRST_USES))
@pytest.mark.parametrize("name", sorted(FIRST_USE_FAMILIES))
def test_quotient_set_first_use_matches_brute_force(name, use):
    g, ground = FIRST_USE_FAMILIES[name]
    expected, _ = brute_first_use(name)
    for workers in (1, 2, 3):
        def fresh():
            return quotient_set(g, ground, workers=workers)
        assert QUOTIENT_FIRST_USES[use](fresh(), fresh, expected)


@pytest.mark.parametrize("use", sorted(HISTOGRAM_FIRST_USES))
@pytest.mark.parametrize("name", sorted(FIRST_USE_FAMILIES))
def test_histogram_first_use_matches_brute_force(name, use):
    g, ground = FIRST_USE_FAMILIES[name]
    _, expected = brute_first_use(name)
    for workers in (1, 2, 3):
        assert HISTOGRAM_FIRST_USES[use](histogram(g, ground, workers=workers), expected)


def test_quotient_set_workers_equivalent():
    ground = interval(*range(1, 9))
    base = quotient_set(G_XY, ground, workers=1)
    # the walk's set of keys itself, with the family's scale on it
    assert isinstance(base, set)
    assert base.scale == build_lines(G_XY, ground, ground).key_scale
    assert same_set(quotient_set(G_XY, ground, workers=3), base)
    assert same_set(quotient_set(G_XY, ground, workers=8), base)
    # a translate family: the translate walk, sharded by class pairs
    ground = interval(*range(1, 13))
    base = quotient_set(G_X_PLUS_Y2, ground, workers=1)
    assert len(base) == len(brute_quotient_set(G_X_PLUS_Y2, ground))
    for workers in (2, 3):
        assert same_set(quotient_set(G_X_PLUS_Y2, ground, workers=workers), base)


# -- quadruple histogram -------------------------------------------------------

def test_histogram_worked_example():
    hist = histogram(G_X, interval(0, 1))
    assert list(histogram_csv_rows(hist)) == [("-1", 2), ("0", 4), ("1", 2)]
    assert 2 * hist.total() == 8


def test_histogram_collapsed_quadratic():
    hist = histogram(G_Y2, interval(1, 2))
    assert histogram_rows(hist) == {frac(3): 8}


def test_histogram_singleton_empty():
    assert len(histogram(G_X, interval(5))) == 0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20)
def test_histogram_matches_brute_force(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    ground = random_ground_set(rng, rng.randint(2, 6), rational=bool(seed % 2))
    assert histogram_rows(histogram(g, ground)) == brute_quadruple_histogram(g, ground)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20)
def test_histogram_conservation_and_bridge(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng)
    ground = random_ground_set(rng, rng.randint(2, 7))
    family = build_lines(g, ground, ground)
    hist = quadruple_histogram(family)
    n = len(ground)
    # the walk's Counter of the keys, Q(x)/2 each, with the family's scale
    assert isinstance(hist, Counter)
    assert 2 * hist.total() == n ** 3 * (n - 1)
    assert hist.scale == family.key_scale
    # rows ascend in x, so -x descends
    assert [-x for x in histogram_rows(hist)][::-1] == value_rows(quotient_set(g, ground))


def test_histogram_with_repeated_lines_matches_brute_force():
    # a and -a give the same line: multiplicities 1 and 2, four lines per slope
    g = Poly({(2, 0): Fraction(1), (0, 1): Fraction(1)})
    ground = interval(*range(-3, 4))
    family = build_lines(g, ground, ground)
    assert family.max_multiplicity == 2
    assert min(Counter(slope for slope, _c, _m in family.lines).values()) >= 2
    expected = brute_quadruple_histogram(g, ground)
    assert histogram_rows(quadruple_histogram(family)) == expected
    assert histogram_rows(quadruple_histogram(family, workers=3)) == expected


def test_histogram_workers_equivalent():
    ground = interval(*range(1, 8))
    base = histogram(G_XY, ground, workers=1)
    assert same_histogram(histogram(G_XY, ground, workers=4), base)
    # a translate family, as in test_quotient_set_workers_equivalent
    ground = interval(*range(1, 13))
    base = histogram(G_X_PLUS_Y2, ground, workers=1)
    assert 2 * base.total() == 12 ** 3 * 11
    for workers in (2, 3):
        assert same_histogram(histogram(G_X_PLUS_Y2, ground, workers=workers), base)


# -- verification chain ---------------------------------------------------------

def test_chain_worked_example():
    results, _ = verify_chain(G_X, interval(0, 1))
    assert results["size_x"] == 3
    assert results["quadruple_total"] == 8
    assert results["energy_support"] == 20
    assert results["energy_bound_ratio"] == pytest.approx(20 / (8 * math.sqrt(3)))
    assert all(results["links"].values())


def test_chain_refuses_degenerate():
    with pytest.raises(DegenerateError, match="hypotheses"):
        verify_chain(G_Y2, interval(1, 2, 3))


def test_chain_singleton_reports_zeroes():
    results, _ = verify_chain(G_X, interval(7))
    assert results["size_x"] == 0
    assert results["quadruple_total"] == 0
    assert results["energy_support"] == 0


def test_chain_refuses_an_empty_set():
    with pytest.raises(InputError, match="nonempty"):
        verify_chain(G_XY, GroundSet([]))


def test_chain_energy_identity_fields():
    ground = interval(*range(1, 7))
    results, _ = verify_chain(G_XY, ground)
    t2 = results["squared_multiplicity_total"]
    assert results["energy_support"] == results["quadruple_total"] + results["size_x"] * t2
    assert results["links"]["energy_identity"]


def test_chain_zero_in_support_handling():
    # 0 is always a quotient (a1 = a2, b1 = b2 swapped pairs), so the
    # excluded-zero energy must drop Q(0) + T2
    ground = interval(1, 2, 3)
    results, _ = verify_chain(G_X, ground)
    assert results["zero_in_support"]
    hist = histogram(G_X, ground)
    drop = histogram_rows(hist)[frac(0)] + results["squared_multiplicity_total"]
    assert results["energy_support_excl_zero"] == results["energy_support"] - drop


def test_chain_collapsing_multiplicity_is_reported_not_asserted():
    ground = interval(0, 1, 2, 3)
    results, _ = verify_chain(G_XY, ground)  # b = 0 collapses a whole column
    assert results["max_line_multiplicity"] == 4
    assert not results["line_multiplicity_within_degree"]
    assert all(results["links"].values())


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10)
def test_chain_links_hold_on_random_instances(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, max_degree=3)
    ground = random_ground_set(rng, rng.randint(2, 6), rational=bool(seed % 2))
    results, hist = verify_chain(g, ground)
    assert all(results["links"].values())
    assert results["size_x"] == len(brute_quotient_set(g, ground))
    assert histogram_rows(hist) == brute_quadruple_histogram(g, ground)


def test_chain_workers_equivalent():
    ground = interval(*range(1, 8))
    r1, _ = verify_chain(G_XY, ground, workers=1)
    r4, _ = verify_chain(G_XY, ground, workers=4)
    assert r1 == r4


# -- closed form for the collapsed quadratic ------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 10, 17])
def test_collapsed_quadratic_size_closed_form(n):
    ground = interval(*range(1, n + 1))
    assert len(quotient_set(G_Y2, ground)) == 2 * n - 3


def test_difference_ratio_size_closed_form():
    # g = x on {1..n}: X holds p/q with |p|, |q| < n, q != 0: 0 and, of
    # either sign, the 2 * sum phi(k) - 1 positive fractions in lowest terms
    phi = [sum(math.gcd(j, k) == 1 for j in range(1, k + 1)) for k in range(33)]
    for n in range(2, 34):
        assert len(quotient_set(G_X, interval(*range(1, n + 1)))) == 4 * sum(phi[1:n]) - 1


# -- exponent scans ---------------------------------------------------------------

def test_scan_needs_two_sizes():
    with pytest.raises(InputError, match="2 sizes"):
        exponent_scan(G_X, AP_SPEC, [8])


def test_scan_sizes_must_increase():
    with pytest.raises(InputError, match="increasing"):
        exponent_scan(G_X, AP_SPEC, [8, 8])


def test_scan_refuses_degenerate_without_flag():
    with pytest.raises(DegenerateError):
        exponent_scan(G_Y2, AP_SPEC, [4, 8])
    scan = exponent_scan(G_Y2, AP_SPEC, [4, 8], allow_degenerate=True)
    assert [row["quotients"] for row in scan["rows"]] == [5, 13]


def test_scan_difference_ratio_small():
    scan = exponent_scan(G_X, AP_SPEC, [4, 8, 16])
    assert [row["size"] for row in scan["rows"]] == [4, 8, 16]
    assert 1.5 <= scan["slope"] <= 2.2


def test_fit_loglog_slope_exact_power():
    assert fit_loglog_slope([2, 4, 8, 16], [4, 16, 64, 256]) == pytest.approx(2.0)
    with pytest.raises(InputError):
        fit_loglog_slope([4], [2])
    with pytest.raises(InputError):
        fit_loglog_slope([2, 4], [0, 1])
    with pytest.raises(InputError):
        fit_loglog_slope([4, 4], [1, 2])
