"""Dual line family, point weights, rich points, incidences.

Each pair (a, b) in A x B maps to the line y = b*x - g(a, b).  The family
is a multiset: pairs sharing slope and intercept merge into one stored
line carrying their count, its multiplicity m.  The point weight n(x, y)
counts the lines through (x, y) *with* multiplicity.

A family is one integer table (LineMultiset.table), grouped by slope:
slopes S = s*lb, intercepts C = c*lc, and the abscissa scale M, the lcm
of all slope differences.  build_lines fills it from integer evaluations
of g: the denominators of A, B and g's coefficients are cleared once, g is
evaluated |A||B| times on the integer grid, equal (slope, intercept)
integers merge, and one gcd brings lc down to the lcm of the intercepts'
denominators.  A run-time anchor ties that evaluation to g: at the first,
middle and last elements of A and of B, Poly.evaluate must give a line of
the table.  The Fraction lines (LineMultiset.lines) are a view of the
table, built on first use.

Lines of classes i < j cross at the x whose key x*lc*M/lb =
(C_i - C_j) * (M / (S_j - S_i)) is an integer; keys identify x exactly
and ascend with x.  The slope-pair walk (pair_keys, read by quotients.py)
and the sweep below are separate enumerations keyed by it with no gcd;
keys are read out as Fractions or, for the CSVs, as text
(rationals.format_key).

Crossing points are never aggregated.  The sweep (crossing_weights) groups,
on each line l, its crossings with the lines of higher slope by key; on
one line the key alone identifies the point.  A group holds c distinct
lines of total multiplicity M_l.  A point on lines l_1 < ... < l_k (by
slope) has a group on each l_r, r < k, with c = k - r and
m_l + M_l = T_r = m_r + ... + m_k.  So, for any multiplicities:

  * 2 * m_l * M_l summed over the groups at x is Q(x), the sum of
    n^2 - sum(m^2) over the points at x;
  * the largest m_l + M_l of a point is T_1 = n, which gives max n;
  * the groups with c = 1 count the points;
  * +1 at T_r for every group and -1 at M_l = T_(r+1) for every group
    with c >= 2 telescope to +1 at n per point: the histogram of n.

A process holds the groups of one line and, for the chain, one count per
abscissa.  Only rich-points --points-out keeps the points.  Both
enumerations shard by _class_shards and fold the other shards into the
first shard's part, in range order.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InternalCheckError, ResourceCapError
from .parallel import run_chunks, uses_pool
from .polynomials import Poly
from .rationals import scaled_ints
from .sets import GroundSet

# Peak RSS, measured on g = xy and x + y^2 and rounded up, per entry (one
# line's group, or one abscissa: histogram count, Fraction, swept count)
# and per materialized point (dict entry and output row).
SWEEP_ENTRY_BYTES = 500
POINT_BYTES = 600


class Line(NamedTuple):
    """One distinct line with the number of pairs (a, b) that give it."""

    slope: Fraction
    intercept: Fraction
    multiplicity: int


def _class_table(columns: dict[int, dict[int, int]], lb: int, lc: int) -> tuple:
    """The family table from ``columns``, scaled slope s*lb -> {scaled
    intercept c*lc: multiplicity}: (SB, LB, intercept lists, multiplicity
    lists, LC, M), one list per slope in ascending order, each ascending.
    The common factor of lc and every scaled intercept is divided out, so
    that LC is the lcm of the intercepts' denominators."""
    h = gcd(lc, *(c for column in columns.values() for c in column))
    sb = sorted(columns)
    sc_lists, mult_lists = [], []
    for s in sb:
        column = columns[s]
        cs = sorted(column)
        sc_lists.append([c // h for c in cs])
        mult_lists.append([column[c] for c in cs])
    xscale = lcm(*(sj - si for k, si in enumerate(sb) for sj in sb[k + 1:]))
    return sb, lb, sc_lists, mult_lists, lc // h, xscale


class LineMultiset:
    """Distinct lines with multiplicities; total weight = sum of them.

    ``table`` is the family (see the module docstring); ``LineMultiset(lines)``
    builds it from hand-made Fraction lines, build_lines from g."""

    __slots__ = ("table", "_lines")

    def __init__(self, lines: Sequence[Line]):
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
        self.table, self._lines = _class_table(columns, lb, lc), None

    @classmethod
    def from_columns(cls, columns: dict[int, dict[int, int]], lb: int,
                     lc: int) -> "LineMultiset":
        """The family of ``columns`` as _class_table reads them."""
        family = cls.__new__(cls)
        family.table, family._lines = _class_table(columns, lb, lc), None
        return family

    @property
    def lines(self) -> tuple[Line, ...]:
        """The lines as Fractions, sorted by (slope, intercept)."""
        if self._lines is None:
            sb, lb, sc_lists, mult_lists, lc, _xscale = self.table
            lines: list[Line] = []
            for s, cs, ms in zip(sb, sc_lists, mult_lists):
                slope = Fraction(s, lb)
                lines += [Line(slope, Fraction(c, lc), m) for c, m in zip(cs, ms)]
            self._lines = tuple(lines)
        return self._lines

    def __len__(self) -> int:
        return sum(map(len, self.table[2]))

    @property
    def total_weight(self) -> int:
        return sum(map(sum, self.table[3]))

    def __iter__(self):
        return iter(self.lines)

    @property
    def max_multiplicity(self) -> int:
        return max((max(ms) for ms in self.table[3]), default=0)

    def squared_multiplicity_total(self) -> int:
        """Sum of m^2 over distinct lines: the weight of same-line
        instance pairs, and the per-abscissa floor of sum_y n(x,y)^2."""
        return sum(m * m for ms in self.table[3] for m in ms)

    @property
    def key_scale(self) -> tuple[int, int]:
        """(num, den) with x = key * num / den for an abscissa key, and
        y = key / den for the y key of a point (see crossing_weights)."""
        _sb, lb, _sc, _mults, lc, xscale = self.table
        return lb, lc * xscale


def _scaled_values(g: Poly, ground_a: GroundSet, ground_b: GroundSet):
    """g on A x B in integers: (rows, qb, L), with rows mapping b*qb to
    the list of L * g(a, b) over A, qb the lcm of B's denominators and
    L = D * qa^dx * qb^dy, where D is the lcm of g's coefficient
    denominators, qa that of A's, and dx, dy g's degrees in x and y."""
    qa = lcm(*(a.denominator for a in ground_a))
    qb = lcm(*(b.denominator for b in ground_b))
    dx = max((i for i, _ in g.terms), default=0)
    dy = max((j for _, j in g.terms), default=0)
    d = lcm(*(c.denominator for c in g.terms.values()))
    # L * c * a^i * b^j = k * (a*qa)^i * (b*qb)^j with the integer k below
    terms = [(i, j, c.numerator * (d // c.denominator) * qa ** (dx - i) * qb ** (dy - j))
             for (i, j), c in g.terms.items()]
    xs = [a.numerator * (qa // a.denominator) for a in ground_a]
    powers = {i: [x ** i for x in xs] for i, _, _ in terms}
    rows: dict[int, list[int]] = {}
    for b in ground_b:
        y = b.numerator * (qb // b.denominator)
        coeffs: dict[int, int] = {}
        for i, j, k in terms:
            coeffs[i] = coeffs.get(i, 0) + k * y ** j
        row = [0] * len(xs)
        for i, k in coeffs.items():
            row = [v + k * p for v, p in zip(row, powers[i])]
        rows[y] = row
    return rows, qb, d * qa ** dx * qb ** dy


def _ends_and_middle(ground: GroundSet) -> list[Fraction]:
    """The first, middle and last elements of ``ground``, ascending."""
    return [ground[i] for i in sorted({0, len(ground) // 2, len(ground) - 1})]


def build_lines(g: Poly, ground_a: GroundSet, ground_b: GroundSet) -> LineMultiset:
    """The dual family {y = b*x - g(a, b) : (a, b) in A x B}."""
    if len(ground_a) == 0 or len(ground_b) == 0:
        raise InputError("ground sets must be nonempty")
    rows, qb, scale = _scaled_values(g, ground_a, ground_b)
    columns = {y: Counter(-v for v in row) for y, row in rows.items()}
    out = LineMultiset.from_columns(columns, qb, scale)
    if out.total_weight != len(ground_a) * len(ground_b):
        raise InternalCheckError("line multiset lost weight during merging")
    # the anchor: g's own evaluation gives a line of the table at sampled pairs
    sb, lb, sc_lists, _mults, lc, _xscale = out.table
    classes = dict(zip(sb, sc_lists))
    for a in _ends_and_middle(ground_a):
        for b in _ends_and_middle(ground_b):
            value = g.evaluate((a, b))
            if -value * lc not in classes.get(b * lb, ()):
                raise InternalCheckError(
                    f"the line table disagrees with g({a}, {b}) = {value}")
    return out


def vertical_section(family: LineMultiset, x: Fraction) -> dict[Fraction, int]:
    """Map y -> n(x, y) on the vertical line at x; values sum to |A||B|.
    Each line's y * lb * lc * den(x) is an integer; only the distinct y
    become Fractions."""
    sb, lb, sc_lists, mult_lists, lc, _xscale = family.table
    p, q = x.numerator, x.denominator
    counts: dict[int, int] = {}
    for s, cs, ms in zip(sb, sc_lists, mult_lists):
        base, f = s * p * lc, lb * q
        for c, m in zip(cs, ms):
            y = base + c * f
            counts[y] = counts.get(y, 0) + m
    den = lb * lc * q
    return {Fraction(y, den): n for y, n in counts.items()}


# -- the slope-pair walk ----------------------------------------------------


def _pair_keys_chunk(args):
    """Add the abscissa key of every intercept pair of slope classes i < j,
    i in [lo, hi), to ``collect()``: a set of the distinct keys, or a
    Counter of the pairs per key.  Top-level so process pools can pickle it.
    """
    table, lo, hi, collect = args
    sb, columns, xscale = table
    out = collect()
    for i in range(lo, hi):
        for j in range(i + 1, len(sb)):
            f = xscale // (sb[j] - sb[i])
            right = [c * f for c in columns[j]]
            out.update([u - v for u in [c * f for c in columns[i]] for v in right])
    return out


def pair_keys(family: LineMultiset, columns: list[list[int]], collect, workers: int):
    """The keys of the crossings of ``columns`` (scaled intercepts, one list
    per slope class of ``family``): the first shard's ``collect()``, with
    the other shards' parts folded into it in range order, so that no copy
    of the result is made."""
    sb, _lb, _sc, _mults, _lc, xscale = family.table
    tasks = [((sb, columns, xscale), lo, hi, collect)
             for lo, hi in _class_shards(family, workers)]
    merged, *rest = run_chunks(_pair_keys_chunk, tasks, workers)
    for part in rest:
        merged.update(part)
    return merged


# -- the lowest-slope-line sweep -------------------------------------------


def _line_keys(c: int, factors: list[int], columns: list[list[int]]) -> list[int]:
    """Abscissa keys of the line with scaled intercept ``c`` against the
    pre-scaled columns above it: c*f - C*f per line, f = M / (S_j - S_i)."""
    keys: list[int] = []
    for f, column in zip(factors, columns):
        base = c * f
        keys += [base - v for v in column]
    return keys


def _sweep_chunk(args):
    """Sweep the lines of slope classes [lo, hi) against every class above.

    Returns (line pairs, {n: points}, {abscissa key: pairs} or None,
    {(x key, y key): n} or None); the module docstring has the identities.
    Top-level so process pools can pickle it.
    """
    table, lo, hi, per_abscissa, keep_points = args
    sb, _lb, sc_lists, mult_lists, _lc, xscale = table
    unit = all(m == 1 for mults in mult_lists for m in mults)
    pairs = 0
    weights: Counter = Counter()
    cross: Counter | None = Counter() if per_abscissa else None
    points: dict | None = {} if keep_points else None
    for i in range(lo, hi):
        above = range(i + 1, len(sb))
        factors = [xscale // (sb[j] - sb[i]) for j in above]
        scaled = [[c * f for c in sc_lists[j]] for f, j in zip(factors, above)]
        # each line repeated by its multiplicity, so that counts are masses
        heavy = scaled if unit else [
            [v for v, m in zip(column, mult_lists[j]) for _ in range(m)]
            for column, j in zip(scaled, above)]
        for c, m in zip(sc_lists[i], mult_lists[i]):
            keys = _line_keys(c, factors, scaled)
            pairs += len(keys)
            groups = Counter(keys)  # distinct lines per group
            mass = groups if unit else Counter(_line_keys(c, factors, heavy))
            if cross is not None:
                cross.update(keys if unit else {key: m * w for key, w in mass.items()})
            sizes = Counter(mass.values())
            for w, count in sizes.items():
                weights[m + w] += count
            # a group of c >= 2 lines takes back what its next line adds
            shared = sizes if unit else Counter(
                mass[key] for key, n_lines in groups.items() if n_lines > 1)
            for w, count in shared.items():
                if w > 1:
                    weights[w] -= count
            if points is not None:
                slope, offset = sb[i], c * xscale
                for key, w in mass.items():
                    point = (key, slope * key + offset)
                    if points.get(point, 0) < m + w:
                        points[point] = m + w
    return pairs, weights, cross, points


class CrossingWeights:
    """The sweep's results summed over its shards: ``pairs`` swept line
    pairs; ``weights`` n -> points of weight n, over the points on >= 2
    distinct lines (len() counts them); ``pairs_by_key`` abscissa key ->
    Q(x)/2, or None; ``points`` (x key, y key) -> n, or None."""

    __slots__ = ("pairs", "weights", "pairs_by_key", "points", "key_scale")

    def __init__(self, parts: list[tuple], key_scale: tuple[int, int]):
        self.key_scale = key_scale
        pairs, weights, self.pairs_by_key, self.points = parts[0]
        for more_pairs, more_weights, cross, points in parts[1:]:
            pairs += more_pairs
            weights.update(more_weights)
            if cross is not None:
                self.pairs_by_key.update(cross)
            if points is not None:
                for point, n in points.items():
                    if self.points.get(point, 0) < n:
                        self.points[point] = n
        self.pairs = pairs
        if any(count < 0 for count in weights.values()):
            raise InternalCheckError("the sweep counted a negative number of points")
        self.weights = dict(sorted((n, count) for n, count in weights.items() if count))
        if self.points is not None and Counter(self.points.values()) != self.weights:
            raise InternalCheckError("materialized points disagree with the swept weights")

    def __len__(self) -> int:
        return sum(self.weights.values())


def crossing_pair_count(family: LineMultiset) -> int:
    """Pairs of distinct lines with different slopes: the sum over slope
    classes i < j of |class i| * |class j|.  Each such pair meets in one
    point, and the sweep visits each such pair once."""
    sizes = [len(cs) for cs in family.table[2]]
    total = sum(sizes)
    return (total * total - sum(s * s for s in sizes)) // 2


def _class_shards(family: LineMultiset, workers: int) -> list[tuple[int, int]]:
    """The shards of the pair walk and the sweep: at most ``workers``
    contiguous ranges of slope classes, each closed once the ranges so far
    hold their share of the line pairs (class i pairs |class i| times the
    lines above it).  A family of one slope class gets one empty range, so
    that its results keep their form."""
    sizes = [len(cs) for cs in family.table[2]]
    above, total = sum(sizes), crossing_pair_count(family)
    shards: list[tuple[int, int]] = []
    start = done = 0
    for i, size in enumerate(sizes):
        above -= size
        done += size * above
        if total and done * workers >= total * (len(shards) + 1):
            shards.append((start, i + 1))
            start = i + 1
    return shards or [(0, 0)]


def _memory_budget() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_crossing_memory(family: LineMultiset, workers: int, support_size: int = 0,
                          points: bool = False) -> None:
    """Refuse, before the sweep runs, a sweep whose estimated peak exceeds
    physical memory: (|L| + |X|) entries in each shard and, with a pool, in
    the merging parent, plus, for materialized points, one point per line
    pair of distinct slopes (a bound on their number)."""
    n_shards = len(_class_shards(family, workers))
    processes = n_shards + 1 if uses_pool(n_shards, workers) else 1
    estimate = (len(family) + support_size) * SWEEP_ENTRY_BYTES * processes
    detail = (f"({len(family)} lines + {support_size} abscissas) x {SWEEP_ENTRY_BYTES} B "
              f"x {processes}")
    if points:
        pairs = crossing_pair_count(family)
        estimate += pairs * POINT_BYTES
        detail += f" + {pairs} line pairs x {POINT_BYTES} B"
    budget = _memory_budget()
    if estimate > budget:
        raise ResourceCapError(
            f"crossing aggregation refused: estimated {estimate / 2 ** 30:.2f} GiB "
            f"({detail}) exceeds the {budget / 2 ** 30:.2f} GiB of physical memory")


def crossing_weights(family: LineMultiset, workers: int = 1, *,
                     support_size: int | None = None,
                     points: bool = False) -> CrossingWeights:
    """The lowest-slope-line sweep of ``family``, independent of ``workers``.

    ``support_size`` is |X| when the caller knows it (verify_chain reads it
    off its histogram); the sweep then also counts pairs per abscissa key.
    ``points`` keeps every crossing point."""
    check_crossing_memory(family, workers, support_size or 0, points)
    tasks = [(family.table, lo, hi, support_size is not None, points)
             for lo, hi in _class_shards(family, workers)]
    return CrossingWeights(run_chunks(_sweep_chunk, tasks, workers), family.key_scale)


# -- public reports -------------------------------------------------------


class PointMultiplicity(NamedTuple):
    point: tuple[Fraction, Fraction]
    count: int


class RichPointReport(NamedTuple):
    threshold: int
    count: int
    bound_ratio: Fraction  # count * t^3 / (total weight)^2


class IncidenceReport(NamedTuple):
    count: int
    st_reference: float
    n_points: int
    n_distinct_lines: int
    total_weight: int


def intersection_points(weights: CrossingWeights) -> list[PointMultiplicity]:
    """The points of ``crossing_weights(..., points=True)``, sorted by
    (x, y), with n(x, y)."""
    if weights.points is None:
        raise ValueError("the sweep kept no points; pass points=True to crossing_weights")
    num, den = weights.key_scale
    # both keys share the positive denominator, so their order is that of (x, y)
    return [PointMultiplicity((Fraction(xk * num, den), Fraction(yk, den)), n)
            for (xk, yk), n in sorted(weights.points.items())]


def check_thresholds(thresholds: Sequence[int]) -> None:
    """Refuse a rich-point threshold that is not an integer >= 2."""
    for t in thresholds:
        if not isinstance(t, int) or t < 2:
            raise InputError("rich-point threshold must be an integer >= 2 "
                             "(points on fewer than 2 distinct lines are not materialized)")


def rich_point_reports(family: LineMultiset, thresholds: Sequence[int],
                       weights: CrossingWeights) -> list[RichPointReport]:
    """Rich-point counts of ``family`` for several thresholds, read off its
    ``crossing_weights``."""
    check_thresholds(thresholds)
    w2 = family.total_weight ** 2
    out = []
    for t in thresholds:
        count = sum(c for n, c in weights.weights.items() if n >= t)
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
