"""Dual line family, point weights, rich points, energy, incidences.

Each pair (a, b) in A x B maps to the line y = b*x - g(a, b).  The family
is a multiset: pairs sharing slope and intercept merge into one stored
line carrying their count, its multiplicity.  The point weight n(x, y)
counts the lines through (x, y) *with* multiplicity.

Enumeration never walks instance pairs.  Lines are grouped by slope into
one integer table per family (LineMultiset.table) that every slope-pair
kernel reads.  For each pair of slope classes the crossing abscissa is
solved exactly, x = (c2 - c1)/(b1 - b2), in pre-scaled integer
arithmetic.  Per crossing point the kernel accumulates, over the
unordered pairs of distinct lines (multiplicities m_i, m_j) that meet
there:

    pairs     += 1
    mass      += m_i + m_j
    sq_mass   += m_i^2 + m_j^2
    cross     += m_i * m_j

All lines through one point have pairwise distinct slopes, so with k
distinct lines through it, pairs = k(k-1)/2 and each line is counted in
(k-1) of the pairs.  Hence n = mass/(k-1), sum of m^2 = sq_mass/(k-1),
and n^2 - sum(m^2) = 2*cross, which the kernel re-checks on every point.
When every multiplicity is 1 a single counter per point suffices (n = k).

Points on a single distinct line are never materialized.  Where a sum of
n(x, y)^2 over *all* y at an abscissa is needed, the un-materialized
crossings contribute exactly (sum over all lines of m^2) minus the
sq_mass already seen at that abscissa; this multiplicity-aware correction
is applied in energy computations.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

from .errors import InputError, InternalCheckError, ResourceCapError
from .parallel import chunk_ranges, run_chunks, uses_pool
from .polynomials import Poly
from .rationals import scaled_ints
from .sets import GroundSet

# Peak RSS per crossing-point entry, rounded up from the general record
# form (a 4-int list per point); the multiplicity-1 form needs less.
ENTRY_BYTES = 320


@dataclass(frozen=True)
class Line:
    """One distinct line with the number of pairs (a, b) that give it."""

    slope: Fraction
    intercept: Fraction
    multiplicity: int


class LineMultiset:
    """Distinct lines with multiplicities; total weight = sum of them."""

    __slots__ = ("lines", "total_weight", "_table")

    def __init__(self, lines: Sequence[Line]):
        seen = set()
        for line in lines:
            key = (line.slope, line.intercept)
            if key in seen:
                raise InputError("duplicate (slope, intercept) in line multiset")
            if line.multiplicity < 1:
                raise InputError("line multiplicity must be >= 1")
            seen.add(key)
        self.lines = tuple(sorted(lines, key=lambda l: (l.slope, l.intercept)))
        self.total_weight = sum(l.multiplicity for l in self.lines)
        self._table = None

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    @property
    def max_multiplicity(self) -> int:
        return max((l.multiplicity for l in self.lines), default=0)

    def squared_multiplicity_total(self) -> int:
        """Sum of m^2 over distinct lines: the weight of same-line
        instance pairs, and the per-abscissa floor of sum_y n(x,y)^2."""
        return sum(l.multiplicity ** 2 for l in self.lines)

    @property
    def table(self):
        """The slope classes in integer form, built on first use and read by
        every slope-pair kernel: (SB, LB, intercept lists, multiplicity
        lists, LC), one list per slope in sorted order.  For the family of
        g over A x A the intercepts -g(a, b) are the value table."""
        if self._table is None:
            classes: dict[Fraction, list[Line]] = {}
            for line in self.lines:  # sorted by (slope, intercept)
                classes.setdefault(line.slope, []).append(line)
            sb, lb = scaled_ints(list(classes))
            flat, lc = scaled_ints([line.intercept for line in self.lines])
            column = iter(flat)
            sc_lists = [[next(column) for _ in items] for items in classes.values()]
            mult_lists = [[line.multiplicity for line in items] for items in classes.values()]
            self._table = (sb, lb, sc_lists, mult_lists, lc)
        return self._table


def build_lines(g: Poly, ground_a: GroundSet, ground_b: GroundSet) -> LineMultiset:
    """The dual family {y = b*x - g(a, b) : (a, b) in A x B}."""
    if len(ground_a) == 0 or len(ground_b) == 0:
        raise InputError("ground sets must be nonempty")
    merged: dict[tuple[Fraction, Fraction], int] = {}
    for b in ground_b:
        for a in ground_a:
            key = (b, -g.evaluate((a, b)))
            merged[key] = merged.get(key, 0) + 1
    out = LineMultiset([Line(slope, intercept, mult)
                        for (slope, intercept), mult in merged.items()])
    if out.total_weight != len(ground_a) * len(ground_b):
        raise InternalCheckError("line multiset lost weight during merging")
    return out


def vertical_section(family: LineMultiset, x: Fraction) -> dict[Fraction, int]:
    """Map y -> n(x, y) on the vertical line at x; values sum to |A||B|."""
    section: dict[Fraction, int] = {}
    for line in family.lines:
        y = line.slope * x + line.intercept
        section[y] = section.get(y, 0) + line.multiplicity
    return section


# -- exact crossing aggregation ------------------------------------------


def _slope_pair_tasks(table, workers: int, *extra) -> list[tuple]:
    """Tasks for a slope-pair kernel: ``table + (pairs, *extra)`` per chunk
    of the slope-class pairs (i, j), i < j, cut for ``workers``."""
    n = len(table[0])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [table + (pairs[start:stop],) + extra
            for start, stop in chunk_ranges(len(pairs), workers)]


def _fold_scale(num: int, den: int) -> tuple[int, int]:
    """Reduce the constant factor num/den to (mul, den) with den > 0.

    A slope-pair kernel scales each integer difference by mul and reduces
    it against den; the order of the slopes in ``den`` fixes the sign."""
    g0 = gcd(num, den)
    mul, den = num // g0, den // g0
    if den < 0:
        mul, den = -mul, -den
    return mul, den


def _crossing_chunk(args):
    """Aggregate crossings for one chunk of slope-class pairs.

    Returns {(xp, xq, yp, yq): count} when all multiplicities are 1,
    else {...: [pairs, mass, cross, sq_mass]}.  Top-level so process
    pools can pickle it.
    """
    sb, lb, sc_lists, mult_lists, lc, pairs, fast = args
    agg: dict = {}
    _gcd = gcd
    k_scale = lb * lc
    for i, j in pairs:
        bi = sb[i]
        mul, den = _fold_scale(lb, (bi - sb[j]) * lc)
        bi_lc = bi * lc
        ci_list = sc_lists[i]
        cj_list = sc_lists[j]
        mi_list = mult_lists[i]
        mj_list = mult_lists[j]
        for ci, mi in zip(ci_list, mi_list):
            t1 = ci * lb
            for cj, mj in zip(cj_list, mj_list):
                xp = (cj - ci) * mul
                if xp == 0:
                    xq = 1
                else:
                    gx = _gcd(xp, den)
                    xp //= gx
                    xq = den // gx
                yp = bi_lc * xp + t1 * xq
                yq = k_scale * xq
                if yp == 0:
                    yq = 1
                else:
                    gy = _gcd(yp, yq)
                    yp //= gy
                    yq //= gy
                key = (xp, xq, yp, yq)
                if fast:
                    agg[key] = agg.get(key, 0) + 1
                else:
                    rec = agg.get(key)
                    if rec is None:
                        agg[key] = [1, mi + mj, mi * mj, mi * mi + mj * mj]
                    else:
                        rec[0] += 1
                        rec[1] += mi + mj
                        rec[2] += mi * mj
                        rec[3] += mi * mi + mj * mj
    return agg


def _merge_crossings(parts: list[dict], fast: bool) -> dict:
    total = parts[0] if parts else {}
    for part in parts[1:]:
        if fast:
            for key, c in part.items():
                total[key] = total.get(key, 0) + c
        else:
            for key, rec in part.items():
                base = total.get(key)
                total[key] = rec if base is None else [a + b for a, b in zip(base, rec)]
    return total


def _point_stats(rec, fast: bool) -> tuple[int, int, int]:
    """(n, sum of m^2, cross-pair weight) for one aggregated point, with
    exact consistency checks."""
    c = rec if fast else rec[0]
    k = (1 + isqrt(1 + 8 * c)) // 2
    if k * (k - 1) // 2 != c or k < 2:
        raise InternalCheckError("crossing pair count is not triangular")
    if fast:
        return k, k, c
    _, mass, cross, sq_mass = rec
    if mass % (k - 1) or sq_mass % (k - 1):
        raise InternalCheckError("crossing mass not divisible by k-1")
    n = mass // (k - 1)
    sqm = sq_mass // (k - 1)
    if n * n - sqm != 2 * cross:
        raise InternalCheckError("pair accounting failed at a crossing point")
    return n, sqm, cross


class CrossingPoints:
    """Points where >= 2 distinct lines meet; iterating yields the canonical
    key (xp, xq, yp, yq) with n, sum m^2 and cross, derived and checked as
    they are read so that no second per-point table is held."""

    __slots__ = ("_agg", "_fast")

    def __init__(self, agg: dict, fast: bool):
        self._agg = agg
        self._fast = fast

    def __len__(self) -> int:
        return len(self._agg)

    def __iter__(self):
        fast = self._fast
        for key, rec in self._agg.items():
            yield (key, *_point_stats(rec, fast))


def crossing_pair_count(family: LineMultiset) -> int:
    """Pairs of distinct lines with different slopes: the sum over slope
    classes i < j of |class i| * |class j|.  Each such pair meets in one
    point, so this bounds the entries of the crossing aggregate."""
    sizes = [len(cs) for cs in family.table[2]]
    total = sum(sizes)
    return (total * total - sum(s * s for s in sizes)) // 2


def _memory_budget() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_crossing_memory(family: LineMultiset, workers: int) -> None:
    """Refuse, before any kernel runs, a crossing aggregation whose estimated
    peak exceeds physical memory.  A pool doubles the estimate: the workers'
    partial aggregates and the parent's merged one each reach the bound."""
    entries = crossing_pair_count(family)
    n_classes = len(family.table[0])
    pool_factor = 2 if uses_pool(n_classes * (n_classes - 1) // 2, workers) else 1
    estimate, budget = entries * ENTRY_BYTES * pool_factor, _memory_budget()
    if estimate > budget:
        raise ResourceCapError(
            f"crossing aggregation refused: estimated {estimate / 2 ** 30:.2f} GiB "
            f"({entries} line pairs x {ENTRY_BYTES} B x {pool_factor}) exceeds the "
            f"{budget / 2 ** 30:.2f} GiB of physical memory")


def crossing_weights(family: LineMultiset, workers: int = 1) -> CrossingPoints:
    """Every point where >= 2 distinct lines meet, with (n, sum m^2,
    cross).  The result is independent of ``workers``."""
    check_crossing_memory(family, workers)
    fast = family.max_multiplicity == 1
    tasks = _slope_pair_tasks(family.table, workers, fast)
    parts = run_chunks(_crossing_chunk, tasks, workers)
    return CrossingPoints(_merge_crossings(parts, fast), fast)


# -- public reports -------------------------------------------------------


@dataclass(frozen=True)
class PointMultiplicity:
    point: tuple[Fraction, Fraction]
    count: int


@dataclass(frozen=True)
class RichPointReport:
    threshold: int
    count: int
    bound_ratio: Fraction  # count * t^3 / (total weight)^2


@dataclass(frozen=True)
class IncidenceReport:
    count: int
    st_reference: float
    n_points: int
    n_distinct_lines: int
    total_weight: int


def intersection_points(weights: CrossingPoints) -> list[PointMultiplicity]:
    """The points of ``crossing_weights``, sorted by (x, y), with n(x, y)."""
    out = [PointMultiplicity((Fraction(xp, xq), Fraction(yp, yq)), n)
           for (xp, xq, yp, yq), n, _sqm, _cross in weights]
    out.sort(key=lambda pm: pm.point)
    return out


def energy_restricted(family: LineMultiset, abscissas: Iterable[Fraction],
                      workers: int = 1) -> int:
    """Sum over x in ``abscissas`` of sum over all y of n(x, y)^2.

    Materialized crossing points contribute n^2; the remaining
    single-line crossings at each x contribute multiplicity^2 apiece,
    in total (sum of m^2 over all lines) - (sq_mass seen at x).
    """
    xs = sorted(set(abscissas))
    if not xs:
        return 0
    xset = frozenset((x.numerator, x.denominator) for x in xs)
    energy = family.squared_multiplicity_total() * len(xs)
    for (xp, xq, _yp, _yq), n, sqm, _cross in crossing_weights(family, workers=workers):
        if (xp, xq) in xset:
            energy += n * n - sqm
    return energy


def rich_point_reports(family: LineMultiset, thresholds: Sequence[int],
                       weights: CrossingPoints) -> list[RichPointReport]:
    """Rich-point counts of ``family`` for several thresholds, read off its
    ``crossing_weights``."""
    for t in thresholds:
        if not isinstance(t, int) or t < 2:
            raise InputError("rich-point threshold must be an integer >= 2 "
                             "(points on fewer than 2 distinct lines are not materialized)")
    ns = sorted(n for _key, n, _sqm, _cross in weights)
    w2 = family.total_weight ** 2
    out = []
    for t in thresholds:
        count = len(ns) - bisect_left(ns, t)
        out.append(RichPointReport(t, count, Fraction(count * t ** 3, w2)))
    return out


def incidences(points: Iterable[tuple[Fraction, Fraction]],
               family: LineMultiset) -> IncidenceReport:
    """Exact incidence count sum over points of n(point), with the
    classical n^(2/3) m^(2/3) + n + m reference value alongside."""
    pts = list(points)
    by_slope: dict[Fraction, dict[Fraction, int]] = {}
    for line in family.lines:
        by_slope.setdefault(line.slope, {})[line.intercept] = line.multiplicity
    count = 0
    for x, y in pts:
        for slope, intercepts in by_slope.items():
            count += intercepts.get(y - slope * x, 0)
    n = len(pts)
    m = len(family)
    reference = n ** (2 / 3) * m ** (2 / 3) + n + m
    return IncidenceReport(count=count, st_reference=reference, n_points=n,
                           n_distinct_lines=m, total_weight=family.total_weight)
