"""Naive reference implementations used as independent oracles.

Everything here walks raw quadruples / instance pairs, builds bisectors
geometrically, or long-divides polynomials held as plain exponent dicts,
with Fraction arithmetic and no shared code with the production kernels,
so a match is meaningful.  Only usable at small |A| (quartic loops).
energy_restricted reads quotlab's vertical sections, which the tests
check, keyed by y through section_by_y, against brute_vertical_section,
and nothing of the sweep.
family_of builds a family from hand-made Fraction Lines, the reference
that build_lines, which evaluates g in integers, is compared against; it
shares only the LineMultiset constructor, which sorts the columns.
value_rows and histogram_rows read a result the way a user does: they
parse the CSV rows that reports.py writes, so the oracles check the text
the CLI writes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from quotlab.errors import InputError
from quotlab.lines import LineMultiset, vertical_section
from quotlab.polynomials import Poly
from quotlab.rationals import format_rational
from quotlab.reports import histogram_csv_rows, values_csv_rows
from quotlab.sets import GroundSet


def scaled_ints(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Clear denominators: returns (scaled integers, common scale L).

    Each value v maps to the integer v*L, with L the lcm of all
    denominators; the map is injective, so distinctness and ordering of
    the scaled integers mirror the original rationals exactly.
    """
    scale = lcm(*(v.denominator for v in values)) if values else 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


class Line(NamedTuple):
    """One hand-made distinct line with the number of pairs (a, b) that
    give it."""

    slope: Fraction
    intercept: Fraction
    multiplicity: int


def family_of(lines: Sequence[Line]) -> LineMultiset:
    """The family of hand-made Fraction lines, distinct (slope, intercept)
    pairs of multiplicity >= 1, with slopes and intercepts scaled by the
    lcm of their denominators."""
    seen = set()
    for line in lines:
        key = (line.slope, line.intercept)
        if key in seen:
            raise InputError("duplicate (slope, intercept) in line multiset")
        if line.multiplicity < 1:
            raise InputError("line multiplicity must be >= 1")
        seen.add(key)
    slopes = sorted({line.slope for line in lines})
    sb, lb = scaled_ints(slopes)
    scaled_slope = dict(zip(slopes, sb))
    cs, lc = scaled_ints([line.intercept for line in lines])
    columns: dict[int, dict[int, int]] = {}
    for line, c in zip(lines, cs):
        columns.setdefault(scaled_slope[line.slope], {})[c] = line.multiplicity
    return LineMultiset(columns, lb, lc)


def _brute_values(g: Poly, elems: list) -> dict:
    """g(a, b) for every (a, b) in A x A, each evaluated once."""
    return {(a, b): g.evaluate((a, b)) for a in elems for b in elems}


def brute_quotient_set(g: Poly, ground: GroundSet) -> set[Fraction]:
    values = set()
    elems = list(ground)
    gv = _brute_values(g, elems)
    for a1 in elems:
        for a2 in elems:
            for b1 in elems:
                for b2 in elems:
                    if b1 == b2:
                        continue
                    values.add((gv[a1, b1] - gv[a2, b2]) / (b2 - b1))
    return values


def brute_quadruple_histogram(g: Poly, ground: GroundSet) -> dict[Fraction, int]:
    counts: dict[Fraction, int] = {}
    elems = list(ground)
    gv = _brute_values(g, elems)
    for a1 in elems:
        for a2 in elems:
            for b1 in elems:
                for b2 in elems:
                    if b1 == b2:
                        continue
                    x = (gv[a1, b1] - gv[a2, b2]) / (b1 - b2)
                    counts[x] = counts.get(x, 0) + 1
    return counts


def instance_lines(g: Poly, ground_a: GroundSet, ground_b: GroundSet):
    """One (slope, intercept) per pair (a, b), duplicates kept."""
    return [(b, -g.evaluate((a, b))) for b in ground_b for a in ground_a]


def brute_vertical_section(g: Poly, ground_a: GroundSet, ground_b: GroundSet,
                           x: Fraction) -> dict[Fraction, int]:
    section: dict[Fraction, int] = {}
    for slope, intercept in instance_lines(g, ground_a, ground_b):
        y = slope * x + intercept
        section[y] = section.get(y, 0) + 1
    return section


def section_by_y(family: LineMultiset, x: Fraction) -> dict[Fraction, int]:
    """vertical_section(family, x) keyed by y: each integer key divided by
    lb * lc * den(x)."""
    den = family.lb * family.lc * x.denominator
    return {Fraction(y, den): n for y, n in vertical_section(family, x).items()}


def brute_energy(g: Poly, ground_a: GroundSet, ground_b: GroundSet,
                 abscissas) -> int:
    """Sum over x in ``abscissas`` of sum over all y of n(x, y)^2, from
    raw instances."""
    total = 0
    for x in set(abscissas):
        section = brute_vertical_section(g, ground_a, ground_b, x)
        total += sum(n * n for n in section.values())
    return total


def brute_intersection_points(g: Poly, ground_a: GroundSet,
                              ground_b: GroundSet) -> dict[tuple[Fraction, Fraction], int]:
    """n(x, y) at every point where two instances with distinct slopes
    cross, computed per point by a full vertical section."""
    pts: set[tuple[Fraction, Fraction]] = set()
    inst = instance_lines(g, ground_a, ground_b)
    for i in range(len(inst)):
        s1, c1 = inst[i]
        for j in range(i + 1, len(inst)):
            s2, c2 = inst[j]
            if s1 == s2:
                continue
            x = (c2 - c1) / (s1 - s2)
            pts.add((x, s1 * x + c1))
    out = {}
    for x, y in pts:
        out[(x, y)] = brute_vertical_section(g, ground_a, ground_b, x)[y]
    return out


def point_rows(weights: dict[tuple[Fraction, Fraction], int]) -> list[tuple]:
    """Rows (x, y, n) of ``weights`` as the points CSV writes them: text
    rationals, sorted by (x, y)."""
    return [(format_rational(x), format_rational(y), n)
            for (x, y), n in sorted(weights.items())]


def value_rows(xs) -> list[Fraction]:
    """The values of a QuotientSet, in the order of its values CSV."""
    return [Fraction(t) for t, in values_csv_rows(xs)]


def histogram_rows(hist) -> dict[Fraction, int]:
    """x -> Q(x) of a QuadrupleHistogram, in the order of its CSV."""
    return {Fraction(x): q for x, q in histogram_csv_rows(hist)}


def brute_point_lines(g: Poly, ground_a: GroundSet,
                      ground_b: GroundSet) -> dict[tuple[Fraction, Fraction], list]:
    """The instances (slope, intercept) through every point where two
    instances with distinct slopes cross, duplicates kept, collected from
    all instance pairs.  Every instance through such a point crosses one of
    the two, so none is missed; quadratic, not quartic, in |A||B|."""
    inst = instance_lines(g, ground_a, ground_b)
    through: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i in range(len(inst)):
        s1, c1 = inst[i]
        for j in range(i + 1, len(inst)):
            s2, c2 = inst[j]
            if s1 == s2:
                continue
            x = (c2 - c1) / (s1 - s2)
            through.setdefault((x, s1 * x + c1), set()).update((i, j))
    return {point: [inst[k] for k in sorted(ks)] for point, ks in through.items()}


def energy_restricted(family: LineMultiset, abscissas) -> int:
    """Sum over x in ``abscissas`` of sum over all y of n(x, y)^2, read off
    the family's vertical sections."""
    return sum(n * n for x in set(abscissas)
               for n in vertical_section(family, x).values())


def brute_incidences(points, weighted_lines) -> int:
    """Incidences against explicit (slope, intercept, multiplicity) rows."""
    count = 0
    for x, y in points:
        for slope, intercept, mult in weighted_lines:
            if y == slope * x + intercept:
                count += mult
    return count


def brute_bisector_intercepts(ground: GroundSet) -> set[Fraction]:
    grid = [(a, b) for a in ground for b in ground]
    out = set()
    for p in grid:
        for q in grid:
            if p == q or p[1] == q[1]:
                continue
            px, py = p
            qx, qy = q
            out.add(((qx * qx - px * px) + (qy * qy - py * py)) / (2 * (qy - py)))
    return out


def brute_grid_pair_counts(ground: GroundSet) -> tuple[int, int]:
    """(pairs with different y, pairs with equal y) over the unordered
    pairs of distinct points of the grid A x A, counted one by one."""
    grid = [(a, b) for a in ground for b in ground]
    unequal = equal = 0
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            if grid[i][1] == grid[j][1]:
                equal += 1
            else:
                unequal += 1
    return unequal, equal


def bisector_y_intercept(p, q) -> Fraction:
    """y-axis crossing of the perpendicular bisector of segment pq, built
    from the midpoint and the perpendicular slope; the closed form is
    asserted equal on every call."""
    px, py = p
    qx, qy = q
    if px == qx and py == qy:
        raise ValueError("coincident points have no bisector")
    if py == qy:
        raise ValueError("bisector parallel to y-axis or point pair degenerate")
    mid_x = (px + qx) / 2
    mid_y = (py + qy) / 2
    slope = -(qx - px) / (qy - py)
    constructed = mid_y - slope * mid_x
    closed = ((qx * qx - px * px) + (qy * qy - py * py)) / (2 * (qy - py))
    assert constructed == closed, "bisector construction disagrees with closed form"
    return constructed


def constructed_bisector_intercepts(ground: GroundSet) -> set[Fraction]:
    """Intercepts of every grid pair with distinct y, per pair through
    ``bisector_y_intercept``."""
    grid = [(a, b) for a in ground for b in ground]
    return {bisector_y_intercept(grid[i], grid[j])
            for i in range(len(grid)) for j in range(i + 1, len(grid))
            if grid[i][1] != grid[j][1]}


# -- polynomial long division over exponent dicts ----------------------------
#
# Polynomials here are plain {exponent tuple: Fraction} dicts with no zero
# coefficients, so the division shares no code with quotlab.polynomials.

# y2 - y1 in the ring (x1, x2, y1, y2)
SLOPE_DIFFERENCE = {(0, 0, 0, 1): Fraction(1), (0, 0, 1, 0): Fraction(-1)}


def _accumulate(out: dict, exps: tuple, coeff: Fraction) -> None:
    s = out.get(exps, Fraction(0)) + coeff
    if s == 0:
        out.pop(exps, None)
    else:
        out[exps] = s


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, coeff in b.items():
        _accumulate(out, exps, coeff)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _accumulate(out, tuple(u + v for u, v in zip(e1, e2)), c1 * c2)
    return out


def pair_difference(g: Poly) -> dict:
    """g(x1, y1) - g(x2, y2) in the ring (x1, x2, y1, y2)."""
    out: dict = {}
    for (i, j), c in g.items():
        _accumulate(out, (i, 0, j, 0), c)
        _accumulate(out, (0, i, 0, j), -c)
    return out


def divide_by_linear(h: dict, divisor: dict) -> tuple[dict, dict]:
    """Long division h = divisor * quotient + remainder.

    The divisor must be linear in its leading variable (the highest-index
    variable it involves) with a nonzero constant coefficient there; the
    remainder is then free of that variable.
    """
    involved = [v for exps in divisor for v, e in enumerate(exps) if e > 0]
    if not involved:
        raise ValueError("divisor is constant")
    lead = max(involved)
    if max(exps[lead] for exps in divisor) != 1:
        raise ValueError("divisor must be linear in its leading variable")
    lead_terms = [(exps, c) for exps, c in divisor.items() if exps[lead] == 1]
    if len(lead_terms) != 1 or sum(lead_terms[0][0]) != 1:
        raise ValueError("leading coefficient of divisor must be a nonzero constant")
    lead_coeff = lead_terms[0][1]

    quotient: dict = {}
    remainder = dict(h)
    while True:
        k = max((exps[lead] for exps in remainder), default=0)
        if k < 1:
            break
        step = {}
        for exps, c in remainder.items():
            if exps[lead] == k:
                lowered = list(exps)
                lowered[lead] = k - 1
                step[tuple(lowered)] = c / lead_coeff
        quotient = poly_add(quotient, step)
        remainder = poly_add(remainder, {e: -c for e, c in poly_mul(step, divisor).items()})
    return quotient, remainder


# -- seeded random instances ------------------------------------------------


def random_fraction(rng: random.Random, span: int = 6, max_den: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def random_polynomial(rng: random.Random, max_degree: int = 4,
                      require_x: bool = True) -> Poly:
    """Random sparse bivariate polynomial of total degree <= max_degree.

    With ``require_x`` the result has at least one term with positive
    x-exponent, i.e. it passes the divisibility hypothesis.
    """
    terms: dict[tuple[int, int], Fraction] = {}
    n_terms = rng.randint(1, 4)
    for _ in range(n_terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        coeff = Fraction(0)
        while coeff == 0:
            coeff = random_fraction(rng, span=5, max_den=3)
        terms[(i, j)] = coeff
    if require_x and not any(i > 0 for i, _ in terms):
        j = rng.randint(0, max_degree - 1)
        coeff = Fraction(rng.randint(1, 5))
        terms[(rng.randint(1, max_degree - j), j)] = coeff
    return Poly(terms)


def random_x_free_polynomial(rng: random.Random, max_degree: int = 4) -> Poly:
    """Random polynomial in y alone, i.e. one that fails the divisibility
    hypothesis; 1 to 4 nonzero terms."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(0)
        while coeff == 0:
            coeff = random_fraction(rng, span=5, max_den=3)
        terms[(0, rng.randint(0, max_degree))] = coeff
    return Poly(terms)


def random_ground_set(rng: random.Random, size: int,
                      rational: bool = False) -> GroundSet:
    values: set[Fraction] = set()
    while len(values) < size:
        if rational:
            values.add(random_fraction(rng, span=9, max_den=5))
        else:
            values.add(Fraction(rng.randint(-20, 20)))
    return GroundSet(values)
