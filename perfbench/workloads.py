"""The benchmark's workloads: what each runs and the inputs it generates.

Every workload is one ``quotlab`` CLI invocation per run of the program.
The benchmark makes the inputs itself from its seed and hands the program
only the generated set, so the same seed always gives the same command
lines.  A seeded workload draws ``sets`` ground sets from one seed and
cycles through them, so that its timings are medians over several random
sets rather than the luck of one draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

G_X_PLUS_Y2 = [{"c": "1", "i": 1, "j": 0}, {"c": "1", "i": 0, "j": 2}]

BISECTOR_RANGE = (1, 100)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    g: list | None
    size: int
    workers: int
    histogram_csv: bool
    seeded: bool
    sets: int = 1


WORKLOADS = {w.name: w for w in (
    # g = x + y^2 on an arithmetic progression: every chain layer works,
    # the crossing aggregation (lines layer) sets peak memory, and the pool,
    # the pickled partial results and the histogram CSV work only here.
    Workload("chain-xpy2-w2", "chain", G_X_PLUS_Y2, size=40, workers=2,
             histogram_csv=True, seeded=False),
    # Random sets: never touch the lines layer; Fraction building and
    # sorting in bisectors and quotient_set dominate.
    Workload("bisector-rand", "bisector", None, size=20, workers=1,
             histogram_csv=False, seeded=True, sets=4),
)}


def set_spec(workload: Workload, seed: int, set_index: int = 0) -> dict:
    """The ground-set spec the program receives; chain workloads ignore the seed.

    Set ``set_index`` of a seeded workload is the ``set_index``-th draw of
    one generator seeded with ``seed``.
    """
    if not workload.seeded:
        return {"kind": "arithmetic", "start": 1, "step": 1, "size": workload.size}
    lo, hi = BISECTOR_RANGE
    rng = random.Random(seed)
    for _ in range(set_index + 1):
        values = sorted(rng.sample(range(lo, hi + 1), workload.size))
    return {"kind": "explicit", "values": [str(v) for v in values]}


def cli_args(workload: Workload, seed: int, report_path: str,
             csv_path: str | None = None, set_index: int = 0) -> list[str]:
    """Arguments for ``quotlab.cli.main``; the report always goes to a file."""
    args = [workload.experiment]
    if workload.g is not None:
        args += ["--g", json.dumps(workload.g)]
    args += ["--set", json.dumps(set_spec(workload, seed, set_index)),
             "--workers", str(workload.workers), "--out", report_path]
    if workload.histogram_csv:
        args += ["--histogram-out", csv_path]
    return args


def work_units(workload: Workload, results: dict) -> int:
    """Exact work in one run: quadruples for chain, grid pairs for bisector."""
    if workload.experiment == "chain":
        n = results["size_a"]
        return n ** 3 * (n - 1)
    return results["pairs_considered"]
