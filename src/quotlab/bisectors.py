"""Perpendicular bisectors of a grid A x A meeting the y-axis.

For points p, q with different y-coordinates the bisector crosses the
y-axis at

    ((qx^2 - px^2) + (qy^2 - py^2)) / (2 (qy - py)),

which is also the difference quotient of the quadratic
g(x, y) = -(x^2 + y^2)/2 at the pair, so the full intercept set is the
quotient set of that polynomial over A: one enumeration, whose
QuotientSet carries the grid-pair counts in closed form.  The tests
check the set against the closed form on every pair and against the
midpoint-plus-perpendicular construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import InputError
from .polynomials import Poly
from .quotients import QuotientSet, quotient_set
from .sets import GroundSet


def intercept_quotient_poly() -> Poly:
    """The quadratic whose difference-quotient set matches the bisector
    intercepts: g(x, y) = -(x^2 + y^2)/2 (machine-checked in the tests)."""
    return Poly({(2, 0): Fraction(-1, 2), (0, 2): Fraction(-1, 2)})


def bisector_intercept_set(ground: GroundSet, workers: int = 1) -> QuotientSet:
    """All y-axis intercepts of bisectors of distinct grid points p, q in
    A x A with p.y != q.y (each unordered pair once; the intercept is
    symmetric in p and q): the quotient set of intercept_quotient_poly()
    on A, with the grid's pair counts ``grid_size``, ``pairs_considered``
    and ``pairs_skipped``.  Of the C(n^2, 2) grid pairs, the n C(n, 2)
    that share a y-coordinate are skipped."""
    n = len(ground)
    if n < 2:
        raise InputError("bisector experiment needs |A| >= 2")
    out = quotient_set(intercept_quotient_poly(), ground, workers)
    out.grid_size = n * n
    out.pairs_skipped = n * comb(n, 2)
    out.pairs_considered = comb(n * n, 2) - out.pairs_skipped
    return out
