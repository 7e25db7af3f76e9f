"""Finite ground sets and the reproducible set generators.

A GroundSet is a sorted tuple of distinct canonical rationals; every
experiment consumes one (or two).  SetSpec describes how to make one:
arithmetic or geometric progressions, seeded uniform random integers, or
an explicit value list.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import InputError
from .rationals import as_rational, format_rational

SET_KINDS = ("arithmetic", "geometric", "uniform-random-integer", "explicit")


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


class SetSpec(NamedTuple):
    """Recipe for a ground set; reproducible from its fields alone."""

    kind: str
    size: int = 0
    start: Fraction | None = None
    step: Fraction | None = None
    ratio: Fraction | None = None
    range: tuple[int, int] | None = None
    seed: int | None = None
    values: tuple[Fraction, ...] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "SetSpec":
        if not isinstance(raw, dict):
            raise InputError("set spec must be an object")
        kind = raw.get("kind")
        if kind not in SET_KINDS:
            raise InputError(f"unknown set kind: {kind!r}")
        allowed = {
            "arithmetic": {"kind", "size", "start", "step"},
            "geometric": {"kind", "size", "start", "ratio"},
            "uniform-random-integer": {"kind", "size", "range", "seed"},
            "explicit": {"kind", "values"},
        }[kind]
        unknown = set(raw) - allowed
        if unknown:
            raise InputError(f"unknown set spec field(s) for kind {kind}: {sorted(unknown)}")

        if kind == "explicit":
            vals = raw.get("values")
            if not isinstance(vals, list) or not vals:
                raise InputError("explicit set needs a nonempty 'values' list")
            parsed = tuple(as_rational(v) for v in vals)
            return cls(kind="explicit", size=len(parsed), values=parsed)

        size = raw.get("size")
        if type(size) is not int or size < 1:
            raise InputError("set spec needs integer size >= 1")
        if kind == "arithmetic":
            return cls(kind=kind, size=size,
                       start=as_rational(raw.get("start", 1)),
                       step=as_rational(raw.get("step", 1)))
        if kind == "geometric":
            return cls(kind=kind, size=size,
                       start=as_rational(raw.get("start", 1)),
                       ratio=as_rational(raw.get("ratio", 2)))
        rng = raw.get("range")
        if (not isinstance(rng, list) or len(rng) != 2
                or not all(type(v) is int for v in rng)):
            raise InputError("uniform-random-integer needs 'range': [lo, hi]")
        seed = raw.get("seed", 0)
        if type(seed) is not int:
            raise InputError("seed must be an integer")
        return cls(kind=kind, size=size, range=(rng[0], rng[1]), seed=seed)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "explicit":
            out["values"] = [format_rational(v) for v in self.values or ()]
            return out
        out["size"] = self.size
        if self.kind == "arithmetic":
            out["start"] = format_rational(self.start)
            out["step"] = format_rational(self.step)
        elif self.kind == "geometric":
            out["start"] = format_rational(self.start)
            out["ratio"] = format_rational(self.ratio)
        else:
            out["range"] = list(self.range)
            out["seed"] = self.seed
        return out

    def with_size(self, size: int) -> "SetSpec":
        """Same family, different cardinality (for exponent scans)."""
        if self.kind == "explicit":
            raise InputError("explicit sets cannot be resized for a scan")
        return self._replace(size=size)


def generate_set(spec: SetSpec) -> GroundSet:
    """Materialize a SetSpec; guarantees exactly ``size`` distinct elements."""
    if spec.kind == "explicit":
        return GroundSet(spec.values)
    if spec.size < 1:
        raise InputError("set size must be >= 1")

    if spec.kind == "arithmetic":
        vals = [spec.start + k * spec.step for k in range(spec.size)]
        if spec.step == 0 and spec.size > 1:
            raise InputError("arithmetic step 0 cannot produce distinct elements")
    elif spec.kind == "geometric":
        if spec.size > 1 and (spec.ratio == 0 or spec.ratio == 1 or spec.start == 0):
            raise InputError("geometric set with ratio 0 or 1 (or start 0) is not distinct")
        vals = [spec.start * spec.ratio ** k for k in range(spec.size)]
    elif spec.kind == "uniform-random-integer":
        lo, hi = spec.range
        if hi - lo + 1 < spec.size:
            raise InputError(f"range [{lo}, {hi}] smaller than requested size {spec.size}")
        rng = random.Random(spec.seed)
        vals = [Fraction(v) for v in rng.sample(range(lo, hi + 1), spec.size)]
    else:
        raise InputError(f"unknown set kind: {spec.kind!r}")

    if len(set(vals)) != spec.size:
        raise InputError(f"{spec.kind} spec does not produce {spec.size} distinct elements")
    return GroundSet(vals)
