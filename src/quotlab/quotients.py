"""Difference-quotient sets, the quadruple histogram, and the exact
verification chain connecting them to the line-family geometry.

The central objects for a bivariate g and a finite set A:

  quotient set      X  = {(g(a1,b1) - g(a2,b2))/(b2 - b1) : b1 != b2}
  histogram         Q(x) = number of quadruples (a1,a2,b1,b2), b1 != b2,
                    whose lines y = b*x - g(a,b) cross at abscissa x
                    (denominator convention b1 - b2, so support(Q) = -X)

Both are read off one walk over the slope-class pairs of the line family
(lines.pair_keys), whose table comes from |A|^2 integer evaluations of g:
the walk over every intercept pair or, when every slope class is a shift
of the first (g with no mixed term), the translate walk over one
difference set.  The walk collects the family's integer abscissa keys
with no gcd: quotient_set keeps the distinct ones, and X is their
negation; the histogram counts them.  QuotientSet is the walk's set of
the keys and QuadrupleHistogram its Counter of them, each with the
family's key_scale as ``scale``; their one read-out is the text rows that
reports.py writes from the keys, so no value becomes a Fraction.
verify_chain builds the family once, reads X off as -support(Q), and
compares Q key by key with the lowest-slope-line sweep of lines.py, a
second enumeration that groups the same crossings per line (after the
translate walk, a second algorithm as well); it reads keys as Fractions
(key_value) only at its three sampled abscissas.  verify_chain and
exponent_scan return the dicts that their reports carry as ``results``;
the CLI writes them as they are.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateError, InputError, InternalCheckError
from .lines import (LineMultiset, build_lines, crossing_pair_count, crossing_weights,
                    pair_keys, vertical_section)
from .polynomials import Poly, degeneracy_test
from .rationals import format_rational
from .sets import GroundSet, SetSpec, generate_set


def key_value(key: int, scale: tuple[int, int]) -> Fraction:
    """The abscissa x = key * num / den of a key under ``scale`` = (num, den),
    a family's key_scale (see lines.py)."""
    num, den = scale
    return Fraction(key * num, den)


class QuotientSet(set):
    """Distinct quotient values, denominator convention b2 - b1: the pair
    walk's set of a family's abscissa keys, whose negations are the
    values, with ``scale``, the family's key_scale.  The values are read
    out as text rows (reports.values_csv_rows)."""

    def __repr__(self) -> str:
        return f"QuotientSet(size={len(self)})"


class QuadrupleHistogram(Counter):
    """Exact Q(x)/2 under the family's integer abscissa keys (see
    lines.py): the Counter the pair walk folded its shards into, its keys
    in merge order, and ``scale``, the family's key_scale.  Q sums to
    |A|^3 (|A| - 1).  The counts are read out as text rows
    (reports.histogram_csv_rows)."""


def quotient_set(g: Poly, ground: GroundSet, workers: int = 1) -> QuotientSet:
    """All values (g(a1,b1) - g(a2,b2))/(b2 - b1) over quadruples from A
    with b1 != b2, deduplicated.  Empty when |A| = 1.  The lines of
    g(a1, b_i) and g(a2, b_j) cross at x = (c_i - c_j) / (b_j - b_i) with
    c = -g(a, b), which is minus the quotient: X is the negated keys.
    The pair walk's first shard's part, the others folded into it."""
    family = build_lines(g, ground, ground)
    values = pair_keys(family, family.intercepts, QuotientSet, workers)
    values.scale = family.key_scale
    return values


def quadruple_histogram(family: LineMultiset, workers: int = 1) -> QuadrupleHistogram:
    """Exact Q(x) over the family of g on A x A (build_lines(g, A, A)):
    the pair walk's first shard's part, the others folded into it.

    The total is not checked here: verify_chain compares it with
    |A|^3 (|A| - 1) computed from |A|, independently of the table."""
    # each line repeated by its multiplicity, so that the walk counts value pairs
    expanded = [[c for c, m in zip(cs, ms) for _ in range(m)]
                for cs, ms in zip(family.intercepts, family.mults)]
    # each unordered slope pair stands for both ordered ones: Q = 2 * pairs
    hist = pair_keys(family, expanded, QuadrupleHistogram, workers)
    hist.scale = family.key_scale
    return hist


def require_nondegenerate(g: Poly, allow_degenerate: bool | None = None) -> None:
    """Refuse g that violates the growth theorem's hypotheses (DegenerateError).
    ``allow_degenerate`` None, as in verify_chain, refuses it with no
    ``--allow-degenerate`` hint, since no flag can let it through."""
    verdict = degeneracy_test(g)
    if verdict["degenerate"] and not allow_degenerate:
        hint = "" if allow_degenerate is None else " (pass --allow-degenerate to chart it anyway)"
        raise DegenerateError(f"theorem hypotheses violated: {verdict['witness']}{hint}")


# -- the verification chain ------------------------------------------------


def verify_chain(g: Poly, ground: GroundSet,
                 workers: int = 1) -> tuple[dict, QuadrupleHistogram]:
    """Compute and cross-verify the full quadruple/energy chain; return
    (results, Q), ``results`` being the chain report's JSON object: exact
    counts, float ratios for display, and ``links``, the identities checked
    ({"empty_instance": true} at |A| = 1, where no two lines cross).

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
    Fractions are never built: the vertical sections are integer maps read
    off the integer table, and only the three sampled abscissas and
    size_bound_limit become Fractions.

    X is read off as -support(Q), so size_x = |support(Q)|; the
    ``sign_bridge`` link records that reading.  That the set kernel of
    quotient_set agrees with it is checked by the tests, not per run.
    """
    require_nondegenerate(g)
    degree = g.total_degree()
    n = len(ground)
    family = build_lines(g, ground, ground)
    # The histogram runs first: the sweep's memory check needs |X|.
    hist = quadruple_histogram(family, workers=workers)
    quadruple_total = 2 * hist.total()
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
    swept = sweep.pairs_by_key  # Q(x)/2 by key, as hist
    if swept.keys() != hist.keys():
        raise InternalCheckError("crossing abscissas differ from histogram support")
    # dict equality, in C; two Counters would compare in a Python loop
    if not dict.__eq__(swept, hist):
        key = min(k for k, q in hist.items() if swept[k] != q)
        raise InternalCheckError(
            f"per-abscissa quadruple identity failed at {key_value(key, family.key_scale)}")
    # summed over x in support(Q), sum_y n(x, y)^2 = Q(x) + t2
    energy_support = quadruple_total + size_x * t2
    max_point_weight = max(sweep.weights, default=0)

    keys = sorted(hist)
    sampled = {keys[i] for i in (0, len(keys) // 2, -1) if keys}
    for key in sampled:
        x = key_value(key, family.key_scale)
        section = vertical_section(family, x).values()
        if sum(section) != n * n:
            raise InternalCheckError(f"vertical mass at {x} is not |A|^2")
        if sum(m * m for m in section) != 2 * hist[key] + t2:
            raise InternalCheckError(f"energy identity failed at {x}")

    zero_in_support = 0 in hist  # the key of x = 0 is 0
    energy_excl = energy_support - zero_in_support * (2 * hist[0] + t2)
    size_excl = size_x - zero_in_support

    size_bound_limit = Fraction(n * n, 4 * degree ** 2)
    ratio = energy_support / (n ** 3 * math.sqrt(size_x)) if size_x else None
    ratio_excl = (energy_excl / (n ** 3 * math.sqrt(size_excl))
                  if size_excl else None)
    inferred = (size_x * (quadruple_total / energy_support) ** 2
                if energy_support else 0.0)

    results = {
        "size_a": n,
        "degree": degree,
        "size_x": size_x,
        "quadruple_total": quadruple_total,
        "squared_multiplicity_total": t2,
        "energy_support": energy_support,
        "energy_support_excl_zero": energy_excl,
        "zero_in_support": zero_in_support,
        "size_bound_ok": size_x <= size_bound_limit,
        "size_bound_limit": format_rational(size_bound_limit),
        "max_line_multiplicity": family.max_multiplicity,
        "line_multiplicity_within_degree": family.max_multiplicity <= degree,
        "max_point_weight": max_point_weight,
        "point_weight_cap": degree * n,
        "point_weight_within_cap": max_point_weight <= degree * n,
        "energy_bound_ratio": ratio,
        "energy_bound_ratio_excl_zero": ratio_excl,
        "inferred_lower_bound": inferred,
        "links": {
            "histogram_conservation": True,
            "sign_bridge": True,
            "abscissa_support_match": True,
            "per_abscissa_quadruple_identity": True,
            "pair_accounting": True,
            "energy_identity": True,
            "vertical_mass_samples": len(sampled),
        } if hist else {"empty_instance": True},
    }
    return results, hist


# -- growth-exponent scans --------------------------------------------------


def fit_loglog_slope(sizes: Sequence[int], counts: Sequence[int]) -> float:
    """Least-squares slope of log(count) against log(size), equal weights."""
    if len(sizes) != len(counts) or len(sizes) < 2:
        raise InputError("need >= 2 sizes")
    if any(c <= 0 for c in counts) or any(s <= 0 for s in sizes):
        raise InputError("log-log fit needs positive sizes and counts")
    if len(set(sizes)) != len(sizes):
        raise InputError("log-log fit needs distinct sizes")
    lx = [math.log(s) for s in sizes]
    ly = [math.log(c) for c in counts]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((v - mx) ** 2 for v in lx)
    sxy = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return sxy / sxx


def exponent_scan(g: Poly, family: SetSpec, sizes: Sequence[int],
                  workers: int = 1, allow_degenerate: bool = False) -> dict:
    """|X| across a family of growing sets, with the fitted growth slope:
    {"rows": [{"size", "quotients", "log_size", "log_quotients"}, ...],
    "slope": ...}, the exponent-scan report's JSON object.

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
    # every set is made, and a size it cannot have refused, before the first walk
    grounds = [generate_set(family.with_size(size)) for size in sizes]
    counts = [len(quotient_set(g, ground, workers=workers)) for ground in grounds]
    rows = [{"size": n, "quotients": m,
             "log_size": math.log(n), "log_quotients": math.log(m)}
            for n, m in zip(sizes, counts)]
    return {"rows": rows, "slope": fit_loglog_slope(sizes, counts)}
