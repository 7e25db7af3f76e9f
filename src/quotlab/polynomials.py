"""Sparse exact-coefficient polynomials and the x-dependence test.

``Poly`` stores a map from exponent tuples to nonzero Fraction
coefficients.  Bivariate polynomials g(x, y) are the main clients; the
generic arity carries the slice difference in (x1, x2, y) and the
degenerate cofactor in (x1, x2, y1, y2), which the verdict prints.

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
from typing import Mapping, NamedTuple, Sequence

from .errors import InputError
from .rationals import as_rational, format_rational

# Variable name conventions by arity, used only for printing.
_DEFAULT_NAMES = {
    1: ("x",),
    2: ("x", "y"),
    3: ("x1", "x2", "y"),
    4: ("x1", "x2", "y1", "y2"),
}


class Poly:
    """Sparse polynomial with exact rational coefficients.

    Immutable by convention: no method mutates ``terms`` after
    construction, so instances are safe to share across workers.
    """

    __slots__ = ("nvars", "terms", "names")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        self.names = _DEFAULT_NAMES.get(nvars) or tuple(f"x{i}" for i in range(nvars))
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise InputError(f"exponent tuple {exps} does not match arity {nvars}")
                if any(e < 0 for e in exps):
                    raise InputError(f"negative exponent in {exps}")
                c = as_rational(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Max sum of exponents; None marks the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality only

    # -- evaluation and printing ----------------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise InputError(f"point arity {len(point)} does not match {self.nvars}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(point, exps):
                if e:
                    term *= value ** e
            total += term
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = [f"{name}^{e}" if e > 1 else name
                       for name, e in zip(self.names, exps) if e]
            if not factors:
                parts.append(format_rational(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(format_rational(coeff) + "*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"


# -- bivariate JSON interface -------------------------------------------


def bivariate_from_terms(entries) -> Poly:
    """Build g(x, y) from the term-list form [{"c": "p/q", "i": int, "j": int}, ...].

    Duplicate (i, j) entries are an input error.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
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
    return Poly(2, terms)


def bivariate_to_terms(g: Poly) -> list[dict]:
    """Inverse of ``bivariate_from_terms``, sorted by exponents."""
    if g.nvars != 2:
        raise InputError("expected a bivariate polynomial")
    return [{"c": format_rational(c), "i": e[0], "j": e[1]}
            for e, c in sorted(g.terms.items())]


# -- slice difference and the x-dependence verdict -----------------------


def slice_difference(g: Poly) -> Poly:
    """g(x1, y) - g(x2, y) in the ring (x1, x2, y): the substitution
    y2 := y1 applied to the pair difference."""
    if g.nvars != 2:
        raise InputError("expected a bivariate polynomial")
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), c in g.terms.items():
        k1 = (i, 0, j)
        k2 = (0, i, j)
        out[k1] = out.get(k1, Fraction(0)) + c
        out[k2] = out.get(k2, Fraction(0)) - c
    return Poly(3, {k: v for k, v in out.items() if v != 0})


class DegeneracyVerdict(NamedTuple):
    degenerate: bool
    witness: str


def degeneracy_test(g: Poly) -> DegeneracyVerdict:
    """Decide whether y2 - y1 divides g(x1, y1) - g(x2, y2).

    The criterion: the slice difference g(x1, y) - g(x2, y) is
    identically zero, which happens exactly when g has no term involving
    x.  When the verdict is "degenerate" the witness carries the exact
    cofactor q with g(x1,y1) - g(x2,y2) = (y2 - y1) * q, in closed form:
    each term c*y^j gives -c * sum over k < j of y1^k * y2^(j-1-k).
    """
    if g.nvars != 2:
        raise InputError("expected a bivariate polynomial")
    diff = slice_difference(g)
    if diff.is_zero():
        cofactor = Poly(4, {(0, 0, k, j - 1 - k): -c
                            for (_, j), c in g.terms.items() for k in range(j)})
        witness = (f"g has no x-dependent term; "
                   f"g(x1,y1) - g(x2,y2) = (y2 - y1) * ({cofactor})")
        return DegeneracyVerdict(True, witness)
    return DegeneracyVerdict(False, f"g(x1,y) - g(x2,y) = {diff}, not identically zero")
