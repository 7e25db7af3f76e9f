"""Exact rational scalars in canonical form.

Every scalar quotlab takes is a ``fractions.Fraction``: arbitrary
precision, reduced eagerly on construction, with denominator > 0 and zero
stored as 0/1.  That makes equality structural, so rationals serve
directly as sort keys and dict/set keys.

The module adds the strict text form used by config and report files
("p/q", or "p" when the denominator is 1).  The hot
enumeration loops use no Fractions: they run on integers over one common
denominator (much less overhead than Fraction objects), and the quotient
set and the histogram keep those integer keys.  ``format_key`` writes
such a key in the text form directly, with one gcd and no Fraction, which
is how every CSV and the listed quotient values are written; it is the
one read-out of those results.  ``format_rational`` writes a Fraction
through it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import InputError

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional leading minus, base-10 digits only)."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise InputError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise InputError("zero denominator")
    return Fraction(num, den)


def format_key(key: int, scale: tuple[int, int]) -> str:
    """The text form "p/q", or "p" when q is 1, of key * num / den in
    lowest terms, ``scale`` = (num, den) with den > 0."""
    num, den = scale
    p = key * num
    common = gcd(p, den)
    p, q = p // common, den // common
    return str(p) if q == 1 else f"{p}/{q}"


def format_rational(value: Fraction) -> str:
    """The text form of a Fraction."""
    return format_key(value.numerator, (1, value.denominator))


def as_rational(value) -> Fraction:
    """Coerce int / str / Fraction into a canonical Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"not a rational value: {value!r}")

