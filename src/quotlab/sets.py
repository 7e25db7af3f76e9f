"""Finite ground sets and the reproducible set generators.

A GroundSet is a sorted tuple of distinct canonical rationals; every
experiment consumes one (or two).  SetSpec describes how to make one:
arithmetic or geometric progressions, seeded uniform random integers, or
an explicit value list.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .errors import InputError
from .rationals import as_rational, format_rational


class GroundSet(tuple):
    """Sorted tuple of distinct rationals."""

    __slots__ = ()

    def __new__(cls, values: Iterable[Fraction]):
        vals = sorted(values)
        for a, b in zip(vals, vals[1:]):
            if a == b:
                raise InputError(f"ground set has duplicate element {format_rational(a)}")
        return super().__new__(cls, vals)

    @classmethod
    def of(cls, *values) -> "GroundSet":
        return cls(as_rational(v) for v in values)

    def __repr__(self) -> str:
        inner = ", ".join(format_rational(v) for v in self[:8])
        if len(self) > 8:
            inner += ", ..."
        return f"GroundSet({{{inner}}}, size={len(self)})"


# each kind's fields, in the order they are read, with defaults (None: required)
KINDS = {
    "arithmetic": {"size": None, "start": 1, "step": 1},
    "geometric": {"size": None, "start": 1, "ratio": 2},
    "uniform-random-integer": {"size": None, "range": None, "seed": 0},
    "explicit": {"values": None},
}


def _read(field: str, raw):
    """The canonical JSON form of one spec field; refuses a malformed value."""
    if field == "values" and (not isinstance(raw, list) or not raw):
        raise InputError("explicit set needs a nonempty 'values' list")
    if field in ("values", "start", "step", "ratio"):
        try:
            return ([format_rational(as_rational(v)) for v in raw] if field == "values"
                    else format_rational(as_rational(raw)))
        except InputError as err:
            raise InputError(f"{field}: {err}") from None
    if field == "size" and (type(raw) is not int or raw < 1):
        raise InputError("set spec needs integer size >= 1")
    if field == "range" and (not isinstance(raw, list) or len(raw) != 2
                             or not all(type(v) is int for v in raw)):
        raise InputError("uniform-random-integer needs 'range': [lo, hi]")
    if field == "range" and raw[0] > raw[1]:
        raise InputError(f"range {raw} has lo > hi")
    if field == "seed" and type(raw) is not int:
        raise InputError("seed must be an integer")
    return raw


class SetSpec(dict):
    """Recipe for a ground set: its ``kind`` and exactly that kind's fields,
    in canonical JSON form (rationals as "p/q" text, defaults filled in)."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "SetSpec":
        if not isinstance(raw, dict):
            raise InputError("set spec must be an object")
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise InputError(f"unknown set kind: {kind!r}")
        unknown = set(raw) - {"kind", *KINDS[kind]}
        if unknown:
            raise InputError(f"unknown set spec field(s) for kind {kind}: {sorted(unknown)}")
        return cls(kind=kind, **{field: _read(field, raw.get(field, default))
                                 for field, default in KINDS[kind].items()})

    @property
    def size(self) -> int:
        return self["size"] if "size" in self else len(self["values"])

    def with_size(self, size: int) -> "SetSpec":
        """Same family, different cardinality (for exponent scans)."""
        if "size" not in self:
            raise InputError("explicit sets cannot be resized for a scan")
        return SetSpec(self, size=size)


def generate_set(spec: SetSpec) -> GroundSet:
    """Materialize a SetSpec; guarantees exactly ``size`` distinct elements."""
    kind, size = spec["kind"], spec.size
    if kind == "explicit":
        return GroundSet.of(*spec["values"])
    if size < 1:
        raise InputError("set size must be >= 1")
    if kind == "arithmetic":
        start, step = as_rational(spec["start"]), as_rational(spec["step"])
        if step == 0 and size > 1:
            raise InputError("arithmetic step 0 cannot produce distinct elements")
        vals = [start + k * step for k in range(size)]
    elif kind == "geometric":
        start, ratio = as_rational(spec["start"]), as_rational(spec["ratio"])
        if size > 1 and (ratio == 0 or ratio == 1 or start == 0):
            raise InputError("geometric set with ratio 0 or 1 (or start 0) is not distinct")
        vals = [start * ratio ** k for k in range(size)]
    else:
        lo, hi = spec["range"]
        if hi - lo + 1 < size:
            raise InputError(f"range [{lo}, {hi}] smaller than requested size {size}")
        rng = random.Random(spec["seed"])
        vals = [Fraction(v) for v in rng.sample(range(lo, hi + 1), size)]

    if len(set(vals)) != size:
        raise InputError(f"{kind} spec does not produce {size} distinct elements")
    return GroundSet(vals)
