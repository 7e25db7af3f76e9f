"""Dual line family, point weights, rich points, incidences.

Each pair (a, b) in A x B maps to the line y = b*x - g(a, b).  The family
is a multiset: pairs sharing slope and intercept merge into one stored
line carrying their count, its multiplicity m.  The point weight n(x, y)
counts the lines through (x, y) *with* multiplicity.

A family is one integer table in six named fields of LineMultiset,
grouped by slope: ``slopes`` S = s*lb, ascending, with their scale
``lb``; ``intercepts`` C = c*lc and ``mults`` m, one ascending list per
slope, with the scale ``lc``; and ``xscale`` M, the lcm of all slope
differences.  build_lines makes every family, from integer
evaluations of g: the denominators of A, B and g's coefficients are
cleared once, g is evaluated |A||B| times on the integer grid, equal
(slope, intercept) integers merge, and LineMultiset(columns, lb, lc)
sorts them into the table, where one gcd brings lc down to the lcm of the
intercepts' denominators.  A run-time anchor ties that evaluation to g:
at the first, middle and last elements of A and of B, Poly.evaluate must
give a line of the table.  The Fraction lines (LineMultiset.lines) are a
view of the table, rebuilt on each read for the tests and the perfbench
tracer; incidences looks points up in the integer table.

Lines of classes i < j cross at the x whose key x*lc*M/lb =
(C_i - C_j) * (M / (S_j - S_i)) is an integer; keys identify x exactly
and ascend with x.  The slope-pair walk (pair_keys, read by quotients.py)
and the sweep below are separate enumerations keyed by it with no gcd;
keys are read out as Fractions or, for the CSVs, as text
(rationals.format_key).

The walk has two forms.  The generic one takes |C_i| * |C_j| steps per
class pair.  When g has no mixed term, every class is class 0 shifted by
some t_i, with the same multiplicities (translate_shifts reads this off
the table).  The keys of classes i < j are then (d + t_i - t_j) * (M /
(S_j - S_i)) over the one difference set D = C_0 - C_0, so the translate
walk takes C(k, 2) * |D| steps for k classes.  pair_keys takes it when
that is TRANSLATE_GAIN times fewer steps; the sweep stays generic, so
on such families the chain compares two different algorithms.

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
abscissa.  Only rich-points --points-out keeps the points.  Every
enumeration (the two walks and the sweep) runs through _walk: it shards by
_class_shards and folds the other shards into the first shard's part, in
range order.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InternalCheckError, ResourceCapError
from .parallel import run_chunks
from .polynomials import Poly
from .rationals import format_rational
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


class LineMultiset:
    """Distinct lines with multiplicities; total weight = sum of them.

    The fields are the family's table (see the module docstring), read
    off ``columns``, scaled slope s*lb -> {scaled intercept c*lc:
    multiplicity}.  The common factor of lc and every scaled intercept is
    divided out, so that ``lc`` is the lcm of the intercepts'
    denominators.  build_lines makes every family."""

    __slots__ = ("slopes", "lb", "intercepts", "mults", "lc", "xscale")

    def __init__(self, columns: dict[int, dict[int, int]], lb: int, lc: int):
        h = gcd(lc, *(c for column in columns.values() for c in column))
        self.slopes = sb = sorted(columns)
        self.intercepts, self.mults = [], []
        for s in sb:
            column = columns[s]
            cs = sorted(column)
            self.intercepts.append([c // h for c in cs])
            self.mults.append([column[c] for c in cs])
        self.lb, self.lc = lb, lc // h
        self.xscale = lcm(*(sj - si for k, si in enumerate(sb) for sj in sb[k + 1:]))

    @property
    def lines(self) -> tuple[Line, ...]:
        """The lines as Fractions, sorted by (slope, intercept), built on
        each read."""
        lines: list[Line] = []
        for s, cs, ms in zip(self.slopes, self.intercepts, self.mults):
            slope = Fraction(s, self.lb)
            lines += [Line(slope, Fraction(c, self.lc), m) for c, m in zip(cs, ms)]
        return tuple(lines)

    def __len__(self) -> int:
        return sum(map(len, self.intercepts))

    @property
    def total_weight(self) -> int:
        return sum(map(sum, self.mults))

    @property
    def max_multiplicity(self) -> int:
        return max((max(ms) for ms in self.mults), default=0)

    def squared_multiplicity_total(self) -> int:
        """Sum of m^2 over distinct lines: the weight of same-line
        instance pairs, and the per-abscissa floor of sum_y n(x,y)^2."""
        return sum(m * m for ms in self.mults for m in ms)

    @property
    def key_scale(self) -> tuple[int, int]:
        """(num, den) with x = key * num / den for an abscissa key, and
        y = key / den for the y key of a point (see crossing_weights)."""
        return self.lb, self.lc * self.xscale


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
    out = LineMultiset(columns, qb, scale)
    if out.total_weight != len(ground_a) * len(ground_b):
        raise InternalCheckError("line multiset lost weight during merging")
    # the anchor: g's own evaluation gives a line of the table at sampled pairs
    classes = dict(zip(out.slopes, out.intercepts))
    for a in _ends_and_middle(ground_a):
        for b in _ends_and_middle(ground_b):
            value = g.evaluate((a, b))
            if -value * out.lc not in classes.get(b * out.lb, ()):
                raise InternalCheckError(
                    f"the line table disagrees with g({a}, {b}) = {value}")
    return out


def vertical_section(family: LineMultiset, x: Fraction) -> dict[int, int]:
    """Map y * lb * lc * den(x) -> n(x, y) on the vertical line at x, an
    integer key per distinct y (``family.lb``, ``family.lc``); values sum
    to |A||B|."""
    lb, lc = family.lb, family.lc
    p, q = x.numerator, x.denominator
    counts: dict[int, int] = {}
    for s, cs, ms in zip(family.slopes, family.intercepts, family.mults):
        base, f = s * p * lc, lb * q
        for c, m in zip(cs, ms):
            y = base + c * f
            counts[y] = counts.get(y, 0) + m
    return counts


# -- the slope-pair walk ----------------------------------------------------


def _pair_keys_chunk(args):
    """Add the abscissa key of every intercept pair of slope classes i < j,
    i in [lo, hi), to ``collect()``: a set of the distinct keys, or a
    Counter of the pairs per key.
    """
    (sb, columns, xscale), lo, hi, collect = args
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
    of the result is made.  A translate family whose differences make the
    translate walk TRANSLATE_GAIN times shorter takes that walk.  Its class
    pairs each take |D| steps and its classes each hold |C_0| lines, so the
    class shards share out its steps as they do the generic walk's."""
    shifts = translate_shifts(family)
    if shifts is not None:
        diffs = _differences(columns[0])
        if TRANSLATE_GAIN * comb(len(shifts), 2) * len(diffs) <= crossing_pair_count(family):
            return _walk(_translate_keys_chunk, (family.slopes, shifts, diffs, family.xscale),
                         family, collect, workers)
    return _walk(_pair_keys_chunk, (family.slopes, columns, family.xscale), family,
                 collect, workers)


def _walk(chunk, table, family: LineMultiset, collect, workers: int):
    """Run ``chunk`` on ``table`` over the class shards; fold the parts."""
    tasks = [(table, lo, hi, collect) for lo, hi in _class_shards(family, workers)]
    merged, *rest = run_chunks(chunk, tasks, workers)
    for part in rest:
        merged.update(part)
    return merged


# -- the translate walk -------------------------------------------------------

# The translate walk runs only when it takes this many times fewer steps
# than the walk over every intercept pair.
TRANSLATE_GAIN = 4


def translate_shifts(family: LineMultiset) -> list[int] | None:
    """The shifts t_i with class i = class 0 + t_i, intercept by intercept
    and with equal multiplicities (g with no mixed term gives them), or
    None when some class is not such a shift; one pass over the table."""
    first, mults = family.intercepts[0], family.mults[0]
    shifts = []
    for cs, ms in zip(family.intercepts, family.mults):
        t = cs[0] - first[0]
        if ms != mults or [c - t for c in cs] != first:
            return None
        shifts.append(t)
    return shifts


def _differences(column: list[int]) -> Counter:
    """D = column - column, each difference d with the number of pairs
    (u, v) in ``column`` with u - v = d."""
    return Counter([u - v for u in column for v in column])


def _translate_keys_chunk(args):
    """Add the key of every difference d of class pairs i < j, i in [lo, hi),
    to ``collect()``, with d's weight: (d + t_i - t_j) * (M / (S_j - S_i)).
    """
    (sb, shifts, diffs, xscale), lo, hi, collect = args
    out = collect()
    for i in range(lo, hi):
        for j in range(i + 1, len(sb)):
            f, t = xscale // (sb[j] - sb[i]), shifts[i] - shifts[j]
            # the keys are distinct, so a set takes them and a Counter adds the weights
            out.update({(d + t) * f: w for d, w in diffs.items()})
    return out


# -- the lowest-slope-line sweep -------------------------------------------


def _line_keys(c: int, factors: list[int], columns: list[list[int]]) -> list[int]:
    """Abscissa keys of the line with scaled intercept ``c`` against the
    pre-scaled columns above it: c*f - C*f per line, f = M / (S_j - S_i)."""
    return [base - v for f, column in zip(factors, columns) for base in (c * f,)
            for v in column]


def _sweep_chunk(args):
    """Sweep the lines of slope classes [lo, hi) against every class above
    into a fresh ``collect()``, a CrossingWeights, and return it; the module
    docstring has the identities."""
    family, lo, hi, collect = args
    out = collect()
    sb, xscale, intercepts, mults = family.slopes, family.xscale, family.intercepts, family.mults
    unit = all(m == 1 for ms in mults for m in ms)
    weights, cross, points = out.weights, out.pairs_by_key, out.points
    # unit multiplicities: the shard's groups by size c (m = 1, M_l = c), read at the end
    unit_sizes: Counter = Counter()
    for i in range(lo, hi):
        above = range(i + 1, len(sb))
        factors = [xscale // (sb[j] - sb[i]) for j in above]
        scaled = [[c * f for c in intercepts[j]] for f, j in zip(factors, above)]
        # each line repeated by its multiplicity, so that counts are masses
        heavy = scaled if unit else [
            [v for v, m in zip(column, mults[j]) for _ in range(m)]
            for column, j in zip(scaled, above)]
        for c, m in zip(intercepts[i], mults[i]):
            keys = _line_keys(c, factors, scaled)
            out.pairs += len(keys)
            groups = Counter(keys)  # distinct lines per group
            if unit:
                unit_sizes.update(groups.values())
                if cross is not None:
                    cross.update(keys)
                mass = groups
            else:
                mass = Counter(_line_keys(c, factors, heavy))
                if cross is not None:
                    cross.update({key: m * w for key, w in mass.items()})
                for w, count in Counter(mass.values()).items():
                    weights[m + w] += count
                # a group of c >= 2 lines takes back what its next line adds
                shared = Counter(mass[key] for key, n_lines in groups.items() if n_lines > 1)
                for w, count in shared.items():
                    weights[w] -= count
            if points is not None:
                slope, offset = sb[i], c * xscale
                for key, w in mass.items():
                    point = (key, slope * key + offset)
                    if points.get(point, 0) < m + w:
                        points[point] = m + w
    for w, count in unit_sizes.items():
        weights[1 + w] += count
        if w > 1:
            weights[w] -= count
    return out


class CrossingWeights:
    """A shard's sweep, or the whole sweep once the shards are folded in:
    ``pairs`` swept line pairs; ``weights`` n -> points of weight n, over
    the points on >= 2 distinct lines (len() counts them); ``pairs_by_key``
    abscissa key -> Q(x)/2, or None; ``points`` (x key, y key) -> n, or None."""

    __slots__ = ("pairs", "weights", "pairs_by_key", "points", "key_scale")

    def __init__(self, key_scale: tuple[int, int], per_abscissa: bool, keep_points: bool):
        self.pairs, self.weights, self.key_scale = 0, Counter(), key_scale
        self.pairs_by_key = Counter() if per_abscissa else None
        self.points = {} if keep_points else None

    def update(self, part: CrossingWeights) -> None:
        """Fold another shard's part in: pairs, weights and pairs per key
        add up, and a point both kept takes the larger n."""
        self.pairs += part.pairs
        self.weights.update(part.weights)
        if self.pairs_by_key is not None:
            self.pairs_by_key.update(part.pairs_by_key)
        if self.points is not None:
            for point, n in part.points.items():
                if self.points.get(point, 0) < n:
                    self.points[point] = n

    def __len__(self) -> int:
        return sum(self.weights.values())


def crossing_pair_count(family: LineMultiset) -> int:
    """Pairs of distinct lines with different slopes: the sum over slope
    classes i < j of |class i| * |class j|.  Each such pair meets in one
    point, and the sweep visits each such pair once."""
    sizes = [len(cs) for cs in family.intercepts]
    total = sum(sizes)
    return (total * total - sum(s * s for s in sizes)) // 2


def _class_shards(family: LineMultiset, workers: int) -> list[tuple[int, int]]:
    """The shards of the pair walk and the sweep: at most ``workers``
    contiguous ranges of slope classes, each closed once the ranges so far
    hold their share of the line pairs (class i pairs |class i| times the
    lines above it).  A family of one slope class gets one empty range, so
    that its results keep their form.  ``workers`` < 1 is refused."""
    if workers < 1:
        raise InputError("workers must be an integer >= 1")
    sizes = [len(cs) for cs in family.intercepts]
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
    physical memory: (|L| + |X|) entries per part, plus, for materialized
    points, one point per line pair of distinct slopes (a bound on their
    number).  One shard holds one part; more hold n_shards + 1: one per
    shard, where it ran or, once read in, in the parent, plus the part
    being read in (run inline, the parent holds them all until the merge)."""
    n_shards = len(_class_shards(family, workers))
    parts = n_shards + 1 if n_shards > 1 else 1
    estimate = (len(family) + support_size) * SWEEP_ENTRY_BYTES * parts
    detail = (f"({len(family)} lines + {support_size} abscissas) x {SWEEP_ENTRY_BYTES} B "
              f"x {parts}")
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
    out = _walk(_sweep_chunk, family, family,
                lambda: CrossingWeights(family.key_scale, support_size is not None, points),
                workers)
    if any(count < 0 for count in out.weights.values()):
        raise InternalCheckError("the sweep counted a negative number of points")
    out.weights = dict(sorted((n, count) for n, count in out.weights.items() if count))
    if out.points is not None and Counter(out.points.values()) != out.weights:
        raise InternalCheckError("materialized points disagree with the swept weights")
    return out


# -- public reports -------------------------------------------------------


def check_thresholds(thresholds: Sequence[int]) -> None:
    """Refuse a rich-point threshold that is not an integer >= 2."""
    for t in thresholds:
        if not isinstance(t, int) or t < 2:
            raise InputError("rich-point threshold must be an integer >= 2 "
                             "(points on fewer than 2 distinct lines are not materialized)")


def rich_point_reports(family: LineMultiset, thresholds: Sequence[int],
                       weights: CrossingWeights) -> list[dict]:
    """The report's row per threshold t, read off ``crossing_weights``: the
    points of weight >= t and count * t^3 / (total weight)^2, exact and as a float."""
    check_thresholds(thresholds)
    w2 = family.total_weight ** 2
    out = []
    for t in thresholds:
        count = sum(c for n, c in weights.weights.items() if n >= t)
        ratio = Fraction(count * t ** 3, w2)
        out.append({"t": t, "count": count, "bound_ratio": format_rational(ratio),
                    "bound_ratio_float": float(ratio)})
    return out


def incidences(points: Iterable[tuple[Fraction, Fraction]], family: LineMultiset) -> dict:
    """Exact incidence count, the sum over points of n(point), with the
    classical n^(2/3) m^(2/3) + n + m reference value alongside."""
    pts = list(points)
    lb, lc = family.lb, family.lc
    columns = [dict(zip(cs, ms)) for cs, ms in zip(family.intercepts, family.mults)]
    count = 0
    for x, y in pts:
        # (p/q, u/v) is on the line (s, c) of the table when c*lb*q*v = u*lb*lc*q - s*p*lc*v
        p, q, u, v = x.numerator, x.denominator, y.numerator, y.denominator
        for s, column in zip(family.slopes, columns):
            c, off = divmod(u * lb * lc * q - s * p * lc * v, lb * q * v)
            if not off:
                count += column.get(c, 0)
    n, m = len(pts), len(family)
    return {"count": count, "st_reference": n ** (2 / 3) * m ** (2 / 3) + n + m,
            "n_points": n, "n_distinct_lines": m, "total_weight": family.total_weight}
