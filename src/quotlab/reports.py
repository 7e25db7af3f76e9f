"""Report and artifact emission: versioned JSON plus sorted CSV streams.

Numeric report content is a pure function of the configuration (counts
are exact, ratios deterministic floats); wall-clock timing lives under a
separate "timing" key so reruns can be compared byte-for-byte on
everything else.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable

from .rationals import format_key

TOOL_NAME = "quotlab"
TOOL_VERSION = "0.1.0"

SCHEMA_VERSION = 1


def build_report(experiment: str, config: dict, results: dict,
                 elapsed_s: float | None = None) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "experiment": experiment,
        "config": config,
        "results": results,
    }
    if elapsed_s is not None:
        report["timing"] = {"elapsed_s": elapsed_s}
    return report


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def write_report(path: str | Path, report: dict) -> None:
    Path(path).write_text(dump_report(report) + "\n")


def write_csv(path: str | Path, header: list[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def points_csv_rows(weights) -> Iterable[tuple]:
    """Rows (x, y, n) of the points a sweep kept (crossing_weights with
    points=True), sorted by (x, y)."""
    num, den = weights.key_scale
    # both keys share the positive denominator, so their order is that of (x, y)
    for (xk, yk), n in sorted(weights.points.items()):
        yield (format_key(xk, (num, den)), format_key(yk, (1, den)), n)


def histogram_csv_rows(hist) -> Iterable[tuple]:
    """Rows (x, Q(x)) of a QuadrupleHistogram, ascending in x."""
    pairs = hist.pairs_by_key
    for key in sorted(pairs):
        yield (format_key(key, hist.scale), 2 * pairs[key])


def values_csv_rows(values) -> Iterable[tuple]:
    """Rows (value,) of a QuotientSet, ascending: its keys negated."""
    for key in sorted(values.keys, reverse=True):
        yield (format_key(-key, values.scale),)


def scan_csv_rows(scan) -> Iterable[tuple]:
    for n, m in scan.rows:
        yield (n, m, math.log(n), math.log(m))
