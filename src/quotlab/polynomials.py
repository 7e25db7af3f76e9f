"""Sparse exact-coefficient bivariate polynomials and the x-dependence test.

``Poly`` is g(x, y) as the dict of its terms: exponent pairs (i, j) map to
nonzero Fraction coefficients.

The central question answered here: is the pair difference
g(x1, y1) - g(x2, y2) divisible by y2 - y1?  Because the divisor is
linear and monic in y2, divisibility holds exactly when substituting
y2 := y1 annihilates the difference, i.e. when g(x1, y) - g(x2, y) is
the zero polynomial, i.e. when g has no term that involves x.  That
substitution is the only decision route; long division by y2 - y1 lives
in the test oracles as the reference it is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError
from .rationals import as_rational, format_rational


class Poly(dict):
    """Sparse bivariate polynomial with exact rational coefficients: a dict
    from exponent pairs (i, j) to nonzero Fractions.

    Immutable by convention: nothing mutates it after construction, so
    instances are safe to share across workers.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        for exps, coeff in (terms or {}).items():
            if not (isinstance(exps, tuple) and len(exps) == 2
                    and all(type(e) is int and e >= 0 for e in exps)):
                raise InputError(f"exponent key {exps!r} is not a pair of nonnegative integers")
            c = as_rational(coeff)
            if c != 0:
                self[exps] = c

    def total_degree(self) -> int | None:
        """Max sum of exponents; None marks the zero polynomial."""
        return max((sum(e) for e in self), default=None)

    # -- evaluation and printing ----------------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point (x, y)."""
        x, y = point
        total = Fraction(0)
        for (i, j), coeff in self.items():
            total += coeff * x ** i * y ** j
        return total

    def __str__(self) -> str:
        return _format_terms(self, ("x", "y"))

    def __repr__(self) -> str:
        return f"Poly({self})"


def _format_terms(terms: Mapping[tuple[int, ...], Fraction], names: Sequence[str]) -> str:
    """The text of the sum of coeff * prod(name^e) over ``terms``, the
    largest exponent tuple first; "0" when there are none."""
    parts = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        factors = "*".join(f"{name}^{e}" if e > 1 else name
                           for name, e in zip(names, exps) if e)
        if not factors:
            parts.append(format_rational(coeff))
        elif coeff in (1, -1):
            parts.append(factors if coeff == 1 else "-" + factors)
        else:
            parts.append(format_rational(coeff) + "*" + factors)
    return " + ".join(parts).replace("+ -", "- ") or "0"


# -- bivariate JSON interface -------------------------------------------


def bivariate_from_terms(entries) -> Poly:
    """Build g(x, y) from the term-list form [{"c": "p/q", "i": int, "j": int}, ...].

    Duplicate (i, j) entries are an input error.
    """
    terms: dict[tuple[int, int], Fraction] = {}
    if not isinstance(entries, (list, tuple)):
        raise InputError("polynomial must be a list of term objects")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"c", "i", "j"}:
            raise InputError(f"bad polynomial term: {entry!r}")
        i, j = entry["i"], entry["j"]
        if type(i) is not int or type(j) is not int or i < 0 or j < 0:
            raise InputError(f"term exponents must be nonnegative integers: {entry!r}")
        if (i, j) in terms:
            raise InputError(f"duplicate term for exponents ({i}, {j})")
        terms[(i, j)] = as_rational(entry["c"])
    return Poly(terms)


def bivariate_to_terms(g: Poly) -> list[dict]:
    """Inverse of ``bivariate_from_terms``, sorted by exponents."""
    return [{"c": format_rational(c), "i": e[0], "j": e[1]}
            for e, c in sorted(g.items())]


# -- the x-dependence verdict -------------------------------------------


def degeneracy_test(g: Poly) -> dict:
    """Decide whether y2 - y1 divides g(x1, y1) - g(x2, y2): the dict
    {"degenerate": bool, "witness": str} that the degeneracy report carries.

    The criterion: the slice difference g(x1, y) - g(x2, y) is
    identically zero.  Each term c*x^i*y^j with i > 0 gives
    c*x1^i*y^j - c*x2^i*y^j there and every other term cancels, so it is
    zero exactly when g has no term involving x.  When the verdict is
    "degenerate" the witness carries the exact cofactor q with
    g(x1,y1) - g(x2,y2) = (y2 - y1) * q, in closed form: each term c*y^j
    gives -c * sum over k < j of y1^k * y2^(j-1-k).
    """
    diff = {}
    for (i, j), c in g.items():
        if i:
            diff[(i, 0, j)], diff[(0, i, j)] = c, -c
    if diff:
        return {"degenerate": False, "witness": "g(x1,y) - g(x2,y) = "
                f"{_format_terms(diff, ('x1', 'x2', 'y'))}, not identically zero"}
    cofactor = {(k, j - 1 - k): -c for (_, j), c in g.items() for k in range(j)}
    return {"degenerate": True, "witness": "g has no x-dependent term; g(x1,y1) - g(x2,y2) = "
            f"(y2 - y1) * ({_format_terms(cofactor, ('y1', 'y2'))})"}
