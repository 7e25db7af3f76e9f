"""Difference-quotient sets, the quadruple histogram, and the exact
verification chain connecting them to the line-family geometry.

The central objects for a bivariate g and a finite set A:

  quotient set      X  = {(g(a1,b1) - g(a2,b2))/(b2 - b1) : b1 != b2}
  histogram         Q(x) = number of quadruples (a1,a2,b1,b2), b1 != b2,
                    whose lines y = b*x - g(a,b) cross at abscissa x
                    (denominator convention b1 - b2, so support(Q) = -X)

Both are read off one walk over the slope-class pairs of the line family
(lines.pair_keys), whose table comes from |A|^2 integer evaluations of g.
The walk collects the family's integer abscissa keys with no gcd:
quotient_set keeps the distinct ones, and X is their negation; the
histogram counts them.  QuotientSet and QuadrupleHistogram hold the keys
and the family's key_scale; a value becomes a Fraction only when it is
read (key_value), so a run that reports |X| alone builds none, and the
CSVs are written from the keys (reports.py).  verify_chain builds the
family once, reads X off as -support(Q), and compares Q key by key with
the lowest-slope-line sweep of lines.py, a second enumeration that groups
the same crossings per line.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import DegenerateError, InputError, InternalCheckError
from .lines import (LineMultiset, build_lines, crossing_pair_count, crossing_weights,
                    pair_keys, vertical_section)
from .polynomials import Poly, degeneracy_test
from .sets import GroundSet, SetSpec, generate_set


def key_value(key: int, scale: tuple[int, int]) -> Fraction:
    """The abscissa x = key * num / den of a key under ``scale`` = (num, den),
    a family's key_scale (see lines.py)."""
    num, den = scale
    return Fraction(key * num, den)


class QuotientSet:
    """Distinct quotient values, denominator convention b2 - b1: the
    negated abscissa keys of a family under its key_scale.  ``values``,
    ascending, is built on first use; ``len`` reads the keys."""

    __slots__ = ("keys", "scale", "_values")

    def __init__(self, keys: set[int], scale: tuple[int, int]):
        self.keys = keys
        self.scale = scale
        self._values = None

    @property
    def values(self) -> tuple[Fraction, ...]:
        if self._values is None:
            # keys ascend with x, so descending keys give ascending values -x
            self._values = tuple(key_value(-k, self.scale)
                                 for k in sorted(self.keys, reverse=True))
        return self._values

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __contains__(self, value) -> bool:
        values = self.values
        i = bisect_left(values, value)
        return i < len(values) and values[i] == value

    def as_set(self) -> frozenset:
        return frozenset(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientSet) and self.values == other.values

    def __repr__(self) -> str:
        return f"QuotientSet(size={len(self)})"


class QuadrupleHistogram:
    """Exact Q(x) per crossing abscissa; total = |A|^3 (|A| - 1).

    ``pairs_by_key``: Q(x)/2 under the family's integer abscissa keys (see
    lines.py), the walk's own Counter, its keys in merge order; the chain
    compares it with the sweep.  ``counts`` (x -> Q(x), ascending in x) and
    ``support`` are built on first use."""

    __slots__ = ("pairs_by_key", "scale", "_counts")

    def __init__(self, pairs_by_key: Counter, scale: tuple[int, int]):
        self.pairs_by_key = pairs_by_key
        self.scale = scale
        self._counts = None

    @property
    def counts(self) -> dict[Fraction, int]:
        if self._counts is None:
            pairs = self.pairs_by_key
            self._counts = {key_value(k, self.scale): 2 * pairs[k] for k in sorted(pairs)}
        return self._counts

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(self.counts)

    @property
    def total(self) -> int:
        return 2 * sum(self.pairs_by_key.values())

    def __getitem__(self, x: Fraction) -> int:
        return self.counts.get(x, 0)

    def __len__(self) -> int:
        return len(self.pairs_by_key)


def quotient_set(g: Poly, ground: GroundSet, workers: int = 1) -> QuotientSet:
    """All values (g(a1,b1) - g(a2,b2))/(b2 - b1) over quadruples from A
    with b1 != b2, deduplicated.  Empty when |A| < 2.  The lines of
    g(a1, b_i) and g(a2, b_j) cross at x = (c_i - c_j) / (b_j - b_i) with
    c = -g(a, b), which is minus the quotient: X is the negated keys."""
    if len(ground) < 2:
        return QuotientSet(set(), (1, 1))
    family = build_lines(g, ground, ground)
    return QuotientSet(pair_keys(family, family.table[2], set, workers), family.key_scale)


def quadruple_histogram(family: LineMultiset, workers: int = 1) -> QuadrupleHistogram:
    """Exact Q(x) over the family of g on A x A (build_lines(g, A, A)),
    held in the Counter the pair walk merged its shards into.

    The total is not checked here: verify_chain compares it with
    |A|^3 (|A| - 1) computed from |A|, independently of the table."""
    sc_lists, mult_lists = family.table[2:4]
    # each line repeated by its multiplicity, so that the walk counts value pairs
    expanded = [[c for c, m in zip(cs, ms) for _ in range(m)]
                for cs, ms in zip(sc_lists, mult_lists)]
    # each unordered slope pair stands for both ordered ones: Q = 2 * pairs
    merged = pair_keys(family, expanded, Counter, workers)
    return QuadrupleHistogram(merged, family.key_scale)


def require_nondegenerate(g: Poly, allow_degenerate: bool | None = None) -> None:
    """Refuse g that violates the growth theorem's hypotheses (DegenerateError).
    ``allow_degenerate`` None, as in verify_chain, refuses it with no
    ``--allow-degenerate`` hint, since no flag can let it through."""
    verdict = degeneracy_test(g)
    if verdict.degenerate and not allow_degenerate:
        hint = "" if allow_degenerate is None else " (pass --allow-degenerate to chart it anyway)"
        raise DegenerateError(f"theorem hypotheses violated: {verdict.witness}{hint}")


# -- the verification chain ------------------------------------------------


class ChainReport(NamedTuple):
    """Every computable link of the growth argument on one instance.

    Exact integers throughout; the ratios are floats derived for display.
    ``links`` records the identities that were checked (a failure raises
    InternalCheckError instead of producing a report).  ``histogram`` is
    the Q the chain computed; it is not part of ``to_dict``.
    """

    size_a: int
    degree: int
    size_x: int
    quadruple_total: int
    squared_multiplicity_total: int
    energy_support: int
    energy_support_excl_zero: int
    zero_in_support: bool
    size_bound_ok: bool
    size_bound_limit: Fraction
    max_line_multiplicity: int
    line_multiplicity_within_degree: bool
    max_point_weight: int
    point_weight_cap: int
    point_weight_within_cap: bool
    energy_bound_ratio: float | None
    energy_bound_ratio_excl_zero: float | None
    inferred_lower_bound: float
    histogram: QuadrupleHistogram
    links: dict

    def to_dict(self) -> dict:
        from .rationals import format_rational
        out = self._asdict()
        del out["histogram"]
        out["size_bound_limit"] = format_rational(self.size_bound_limit)
        out["links"] = dict(self.links)
        return out


def verify_chain(g: Poly, ground: GroundSet, workers: int = 1) -> ChainReport:
    """Compute and cross-verify the full quadruple/energy chain.

    Checks performed exactly (any failure raises InternalCheckError):
      * histogram conservation: sum Q(x) = |A|^3 (|A| - 1);
      * pair accounting: the sweep visits crossing_pair_count line pairs;
      * the abscissas the sweep reaches coincide with support(Q);
      * per-abscissa identity: Q(x) = sum over crossing points at x of
        n^2 - sum(m^2), as the sweep sums it per line;
      * at sampled support abscissas, read off the vertical section of
        the lines: the mass sum_y n(x, y) is |A|^2, and the energy
        sum_y n(x, y)^2 is Q(x) + (sum of line multiplicity^2).

    The energy over the support is then quadruple_total + |X| t2.

    The family is built once, from |A|^2 integer evaluations of g, and
    build_lines anchors them to g's own evaluation at sampled pairs.  Its
    Fractions are never built: the vertical sections are read off the
    integer table, and only the three sampled abscissas, the distinct y of
    their sections and size_bound_limit become Fractions.

    X is read off as -support(Q), so size_x = |support(Q)|; the
    ``sign_bridge`` link records that reading.  That the set kernel of
    quotient_set agrees with it is checked by the tests, not per run.
    """
    require_nondegenerate(g)
    degree = g.total_degree()
    n = len(ground)

    if n < 2:
        return ChainReport(
            size_a=n, degree=degree, size_x=0, quadruple_total=0,
            squared_multiplicity_total=n, energy_support=0,
            energy_support_excl_zero=0, zero_in_support=False,
            size_bound_ok=True, size_bound_limit=Fraction(n * n, 4 * degree ** 2),
            max_line_multiplicity=min(n, 1), line_multiplicity_within_degree=True,
            max_point_weight=0, point_weight_cap=degree * n,
            point_weight_within_cap=True, energy_bound_ratio=None,
            energy_bound_ratio_excl_zero=None, inferred_lower_bound=0.0,
            histogram=QuadrupleHistogram(Counter(), (1, 1)), links={"empty_instance": True})

    family = build_lines(g, ground, ground)
    # The histogram runs first: the sweep's memory check needs |X|.
    hist = quadruple_histogram(family, workers=workers)
    quadruple_total = hist.total
    if quadruple_total != n ** 3 * (n - 1):
        raise InternalCheckError(
            f"histogram total {quadruple_total} != |A|^3(|A|-1) = {n ** 3 * (n - 1)}")
    size_x = len(hist)

    t2 = family.squared_multiplicity_total()
    sweep = crossing_weights(family, workers=workers, support_size=size_x)
    if sweep.pairs != crossing_pair_count(family):
        raise InternalCheckError(
            f"the sweep visited {sweep.pairs} line pairs, not the "
            f"{crossing_pair_count(family)} pairs of distinct slopes")
    swept, pairs = sweep.pairs_by_key, hist.pairs_by_key  # Q(x)/2 by key
    if swept.keys() != pairs.keys():
        raise InternalCheckError("crossing abscissas differ from histogram support")
    # dict equality, in C; two Counters would compare in a Python loop
    if not dict.__eq__(swept, pairs):
        key = min(k for k, q in pairs.items() if swept[k] != q)
        raise InternalCheckError(
            f"per-abscissa quadruple identity failed at {key_value(key, family.key_scale)}")
    # summed over x in support(Q), sum_y n(x, y)^2 = Q(x) + t2
    energy_support = quadruple_total + size_x * t2
    max_point_weight = max(sweep.weights, default=0)

    keys = sorted(pairs)
    sampled = {keys[0], keys[len(keys) // 2], keys[-1]}
    for key in sampled:
        x = key_value(key, family.key_scale)
        section = vertical_section(family, x).values()
        if sum(section) != n * n:
            raise InternalCheckError(f"vertical mass at {x} is not |A|^2")
        if sum(m * m for m in section) != 2 * pairs[key] + t2:
            raise InternalCheckError(f"energy identity failed at {x}")

    zero_in_support = 0 in pairs  # the key of x = 0 is 0
    if zero_in_support:
        energy_excl = energy_support - (2 * pairs[0] + t2)
        size_excl = size_x - 1
    else:
        energy_excl = energy_support
        size_excl = size_x

    size_bound_limit = Fraction(n * n, 4 * degree ** 2)
    ratio = energy_support / (n ** 3 * math.sqrt(size_x)) if size_x else None
    ratio_excl = (energy_excl / (n ** 3 * math.sqrt(size_excl))
                  if size_excl else None)
    inferred = (size_x * (quadruple_total / energy_support) ** 2
                if energy_support else 0.0)

    return ChainReport(
        size_a=n,
        degree=degree,
        size_x=size_x,
        quadruple_total=quadruple_total,
        squared_multiplicity_total=t2,
        energy_support=energy_support,
        energy_support_excl_zero=energy_excl,
        zero_in_support=zero_in_support,
        size_bound_ok=size_x <= size_bound_limit,
        size_bound_limit=size_bound_limit,
        max_line_multiplicity=family.max_multiplicity,
        line_multiplicity_within_degree=family.max_multiplicity <= degree,
        max_point_weight=max_point_weight,
        point_weight_cap=degree * n,
        point_weight_within_cap=max_point_weight <= degree * n,
        energy_bound_ratio=ratio,
        energy_bound_ratio_excl_zero=ratio_excl,
        inferred_lower_bound=inferred,
        histogram=hist,
        links={
            "histogram_conservation": True,
            "sign_bridge": True,
            "abscissa_support_match": True,
            "per_abscissa_quadruple_identity": True,
            "pair_accounting": True,
            "energy_identity": True,
            "vertical_mass_samples": len(sampled),
        })


# -- growth-exponent scans --------------------------------------------------


class ScanReport(NamedTuple):
    rows: tuple[tuple[int, int], ...]  # (|A|, |X|)
    slope: float

    def to_dict(self) -> dict:
        return {
            "rows": [{"size": n, "quotients": m,
                      "log_size": math.log(n), "log_quotients": math.log(m)}
                     for n, m in self.rows],
            "slope": self.slope,
        }


def fit_loglog_slope(sizes: Sequence[int], counts: Sequence[int]) -> float:
    """Least-squares slope of log(count) against log(size), equal weights."""
    if len(sizes) != len(counts) or len(sizes) < 2:
        raise InputError("need >= 2 sizes")
    if any(c <= 0 for c in counts) or any(s <= 0 for s in sizes):
        raise InputError("log-log fit needs positive sizes and counts")
    lx = [math.log(s) for s in sizes]
    ly = [math.log(c) for c in counts]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((v - mx) ** 2 for v in lx)
    sxy = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return sxy / sxx


def exponent_scan(g: Poly, family: SetSpec, sizes: Sequence[int],
                  workers: int = 1, allow_degenerate: bool = False) -> ScanReport:
    """|X| across a family of growing sets, with the fitted growth slope.

    Degenerate g is refused unless ``allow_degenerate`` forces the plain
    quotient computation (useful to chart the collapsing families).
    """
    if len(sizes) < 2:
        raise InputError("need >= 2 sizes")
    if any(not isinstance(s, int) or s < 2 for s in sizes):
        raise InputError("scan sizes must be integers >= 2")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("scan sizes must be strictly increasing")
    require_nondegenerate(g, allow_degenerate)
    rows = []
    for size in sizes:
        ground = generate_set(family.with_size(size))
        rows.append((size, len(quotient_set(g, ground, workers=workers))))
    slope = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    return ScanReport(tuple(rows), slope)
