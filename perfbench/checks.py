"""Correctness gate for one benchmark run.

A run fails if the CLI exits non-zero, if its ``results`` (or histogram
CSV) differ from the committed golden ones, or if they differ from
another run of the same seed and set.  Golden results exist for every
set of the default seed; for other seeds of a seeded workload the exact
identities that any correct bisector report satisfies are checked instead.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_golden(workload: Workload) -> dict:
    return json.loads((GOLDEN_DIR / f"{workload.name}.json").read_text())


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_results(workload: Workload, seed: int, set_index: int, results: dict,
                  csv_sha256: str | None, golden: dict) -> list[str]:
    """Problems with one run's output on set ``set_index``; an empty list
    means it is correct."""
    problems = []
    if not workload.seeded or seed == golden["seed"]:
        expected = golden["sets"][set_index]
        if results != expected["results"]:
            keys = sorted(k for k in set(results) | set(expected["results"])
                          if results.get(k) != expected["results"].get(k))
            problems.append(f"results differ from golden in {keys}")
        if expected["csv_sha256"] != csv_sha256:
            problems.append("histogram CSV differs from golden")
    if workload.experiment == "bisector":
        if results.get("size_a") != workload.size:
            problems.append("size_a != the workload's set size")
        grid = results.get("size_a", 0) ** 2
        if results.get("grid_points") != grid:
            problems.append("grid_points != |A|^2")
        if results.get("quotient_crosscheck_ok") is not True:
            problems.append("quotient_crosscheck_ok is not true")
        if results.get("pairs_considered", 0) + results.get("pairs_skipped", 0) \
                != grid * (grid - 1) // 2:
            problems.append("pairs_considered + pairs_skipped != C(|A|^2, 2)")
    return problems
