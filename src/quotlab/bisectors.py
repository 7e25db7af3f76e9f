"""Perpendicular bisectors of a grid A x A meeting the y-axis.

For points p, q with different y-coordinates the bisector crosses the
y-axis at

    ((qx^2 - px^2) + (qy^2 - py^2)) / (2 (qy - py)),

which is also the difference quotient of the quadratic
g(x, y) = -(x^2 + y^2)/2 at the pair, so the full intercept set equals
the quotient set of that polynomial over A.  The closed form is the one
production path; the tests check it against the midpoint-plus-
perpendicular construction, and the CLI compares the set with the
quotient set on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

from .errors import InputError
from .parallel import chunk_ranges, run_chunks
from .polynomials import Poly
from .rationals import scaled_ints
from .sets import GroundSet


def intercept_quotient_poly() -> Poly:
    """The quadratic whose difference-quotient set matches the bisector
    intercepts: g(x, y) = -(x^2 + y^2)/2 (machine-checked in the tests)."""
    return Poly(2, {(2, 0): Fraction(-1, 2), (0, 2): Fraction(-1, 2)})


@dataclass(frozen=True)
class InterceptSet:
    """Distinct bisector intercepts of the grid A x A with pair counts."""

    values: tuple[Fraction, ...]
    grid_size: int
    pairs_considered: int
    pairs_skipped: int

    def __len__(self) -> int:
        return len(self.values)

    def as_set(self) -> frozenset:
        return frozenset(self.values)


def _intercept_chunk(args):
    """Canonical intercept pairs for one chunk of grid point pairs: the
    index pairs i < j in [start, stop) of their lexicographic order.

    Grid coordinates arrive pre-scaled by la; the intercept of
    ((P1, P2), (Q1, Q2)) is (Q1^2 - P1^2 + Q2^2 - P2^2) / (2 la (Q2 - P2)).
    """
    coords, la, start, stop = args
    index_pairs = islice(combinations(range(len(coords)), 2), start, stop)
    out: set[tuple[int, int]] = set()
    skipped = 0
    _gcd = gcd
    two_la = 2 * la
    for i, j in index_pairs:
        p1, p2 = coords[i]
        q1, q2 = coords[j]
        dy = q2 - p2
        if dy == 0:
            skipped += 1
            continue
        num = (q1 * q1 - p1 * p1) + (q2 * q2 - p2 * p2)
        den = two_la * dy
        if num == 0:
            out.add((0, 1))
            continue
        if den < 0:
            num, den = -num, -den
        g1 = _gcd(num, den)
        out.add((num // g1, den // g1))
    return out, skipped


def bisector_intercept_set(ground: GroundSet, workers: int = 1) -> InterceptSet:
    """All y-axis intercepts of bisectors of distinct grid points p, q in
    A x A with p.y != q.y (each unordered pair once; the intercept is
    symmetric in p and q)."""
    if len(ground) < 2:
        raise InputError("bisector experiment needs |A| >= 2")
    scaled, la = scaled_ints(list(ground.values))
    coords = [(u, v) for u in scaled for v in scaled]
    n_pts = len(coords)
    n_pairs = n_pts * (n_pts - 1) // 2
    tasks = [(coords, la, start, stop) for start, stop in chunk_ranges(n_pairs, workers)]
    parts = run_chunks(_intercept_chunk, tasks, workers)
    merged: set[tuple[int, int]] = set()
    skipped = 0
    for part, part_skipped in parts:
        merged |= part
        skipped += part_skipped
    values = tuple(sorted(Fraction(p, q) for p, q in merged))
    return InterceptSet(values=values, grid_size=n_pts,
                        pairs_considered=n_pairs - skipped,
                        pairs_skipped=skipped)
