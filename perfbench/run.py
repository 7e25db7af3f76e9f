"""quotlab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload chain-xpy2-w2 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all       # every workload, traced and not

Each measured run is a fresh ``quotlab`` CLI process (the code the console
script runs, with ``src`` on ``PYTHONPATH``); wall time is taken from launch
to exit, CPU time and peak RSS from ``os.wait4``.  A seeded workload cycles
through its sets, and its medians are taken over whole rounds of them.
With ``--trace 1`` the runs alternate between an untraced CLI process and
a traced one (``tracer.py``) on the first set, and the per-layer metrics
come from the traced spans.
Every run's results are checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, Workload, cli_args, set_spec, work_units

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 7
CHILD_TIMEOUT_S = 150
EXACT_UNITS = ("count", "B")

# What the ``quotlab`` console script runs.
CLI_CODE = "import sys\nfrom quotlab.cli import main\nsys.exit(main(sys.argv[1:]))"
# Set-up as a user pays it: a fresh interpreter imports the CLI and builds the set.
SETUP_CODE = ("import json, sys\nimport quotlab.cli\n"
              "from quotlab.sets import SetSpec, generate_set\n"
              "generate_set(SetSpec.from_dict(json.loads(sys.argv[1])))")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(argv: list[str], stderr_path: Path) -> Child:
    """Run ``python argv`` with quotlab importable; usage from ``os.wait4``.

    The child leads its own process group, so a run that overstays
    CHILD_TIMEOUT_S, or is interrupted, is killed together with any pool
    workers it started.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    # Reaped by wait4, so tell Popen; it would otherwise warn that the child still runs.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode)


class Gate:
    """Counts attempted and failed CLI runs of one workload and seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.golden = checks.load_golden(workload)
        self.first_output: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.runs: list[dict] = []

    def judge(self, child: Child, report: Path, csv: Path | None, tag: str,
              set_index: int = 0):
        """The run's ``results`` on set ``set_index`` if they are correct, else None."""
        self.attempted += 1
        results = None
        if child.exit_code != 0:
            tail = Path(f"{report}.stderr").read_text(errors="replace")[-300:]
            problems = [f"exit code {child.exit_code}: {tail.strip()}"]
        else:
            results = json.loads(report.read_text())["results"]
            digest = checks.file_sha256(csv) if csv else None
            problems = checks.check_results(self.workload, self.seed, set_index,
                                            results, digest, self.golden)
            first = self.first_output.setdefault(set_index, (results, digest))
            if (results, digest) != first:
                problems.append("output differs from an earlier run of the same set")
        self.runs.append(dict(tag=tag, ok=not problems, **asdict(child)))
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]
            return None
        return results


def cli_run(gate: Gate, k: int, traced: bool, set_index: int = 0):
    """One CLI process on set ``set_index``; returns (Child, results or None, spans path)."""
    w = gate.workload
    tag = f"{w.name}-{gate.seed}-s{set_index}-{k}{'-traced' if traced else ''}"
    report = OUT_DIR / f"{tag}.report.json"
    csv = OUT_DIR / f"{tag}.csv" if w.histogram_csv else None
    spans = OUT_DIR / f"{tag}.spans.json"
    for stale in (report, csv, spans):
        if stale is not None:
            stale.unlink(missing_ok=True)
    args = cli_args(w, gate.seed, str(report), csv and str(csv), set_index)
    argv = [str(BENCH_DIR / "tracer.py"), str(spans), *args] if traced \
        else ["-c", CLI_CODE, *args]
    child = run_child(argv, Path(f"{report}.stderr"))
    return child, gate.judge(child, report, csv, tag, set_index), spans


def measure_setup(workload: Workload, seed: int) -> tuple[float, int]:
    """Median wall time of fresh set-up processes, after one warm-up that
    leaves the byte-code cache filled (a user pays that once per install)."""
    argv = ["-c", SETUP_CODE, json.dumps(set_spec(workload, seed))]
    walls = []
    for k in range(SETUP_REPS + 1):
        child = run_child(argv, OUT_DIR / "setup.stderr")
        if child.exit_code != 0:
            raise BenchError("set-up process failed: "
                             + (OUT_DIR / "setup.stderr").read_text(errors="replace"))
        if k:
            walls.append(child.wall_s)
    return statistics.median(walls), len(walls)


def end_to_end(gate: Gate, seconds: float) -> dict[str, tuple[float, int]]:
    """Untraced runs for ``seconds`` (set-up included): metric -> (median, n).

    Run ``k`` uses set ``k % sets``.  The medians are over the first ``m``
    correct runs of every set, where ``m`` is the fewest any set got, so
    each set weighs the same whatever the time allowed.
    """
    w = gate.workload
    started = time.perf_counter()
    setup = measure_setup(w, gate.seed)
    by_set: list[list[tuple[Child, int]]] = [[] for _ in range(w.sets)]
    longest = 0.0
    k = 0
    while k < w.sets or time.perf_counter() - started + longest <= seconds:
        child, results, _ = cli_run(gate, k, traced=False, set_index=k % w.sets)
        longest = max(longest, child.wall_s)
        if results is not None:
            by_set[k % w.sets].append((child, work_units(w, results)))
        k += 1
    rounds = min(len(runs) for runs in by_set)
    samples = [run for runs in by_set for run in runs[:rounds]]
    if not samples:
        return {}

    def med(values):
        return statistics.median(values), len(samples)

    return {
        "wall_s": med([c.wall_s for c, _ in samples]),
        "cpu_s": med([c.cpu_s for c, _ in samples]),
        "peak_rss_mb": med([c.peak_rss_mb for c, _ in samples]),
        "work_per_s": med([work / c.wall_s for c, work in samples]),
        "setup_s": setup,
    }


def per_layer(gate: Gate, seconds: float, specs: dict[str, str]) -> dict[str, tuple[float, int]]:
    """Alternating untraced and traced runs for ``seconds``: metric -> (median, n).

    Exact counts must repeat between traced runs; ``trace.overhead_s`` is
    the traced median wall time minus the untraced one.
    """
    started = time.perf_counter()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    longest = 0.0
    k = 0
    while k == 0 or time.perf_counter() - started + longest <= seconds:
        pair_started = time.perf_counter()
        plain, plain_ok, _ = cli_run(gate, k, traced=False)
        if plain_ok is not None:
            plain_walls.append(plain.wall_s)
        traced, traced_ok, spans_path = cli_run(gate, k, traced=True)
        if traced_ok is not None:
            traced_walls.append(traced.wall_s)
            spans = json.loads(spans_path.read_text())
            layers.append(tracer.layer_metrics(spans["spans"], spans["counters"]))
        longest = max(longest, time.perf_counter() - pair_started)
        k += 1
    if not plain_walls or not traced_walls:
        return {}

    out = {}
    unsteady = []
    for name, unit in specs.items():
        if name == "trace.overhead_s":
            continue
        values = [m.get(name, 0) for m in layers]
        if unit not in EXACT_UNITS:
            out[name] = (statistics.median(values), len(values))
            continue
        if len(set(values)) > 1:
            unsteady.append(f"{name} {values}")
        out[name] = (statistics.median_low(values), len(values))
    if unsteady:
        gate.failed += 1
        gate.problems.append(f"counts differ between traced runs: {unsteady}")
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    out["trace.overhead_s"] = (overhead, min(len(traced_walls), len(plain_walls)))
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "loadavg_at_start": list(os.getloadavg())}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 bench: dict, env: dict) -> dict:
    """Measure one workload; print its metrics; return the result object."""
    specs = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    gate = Gate(workload, seed)
    measured = per_layer(gate, seconds, specs) if trace else end_to_end(gate, seconds)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env, "attempted": gate.attempted,
              "failed": gate.failed, "problems": gate.problems, "runs": gate.runs,
              "metrics": {name: {"value": v, "unit": specs[name], "samples": n}
                          for name, (v, n) in measured.items()}}
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for problem in gate.problems:
        print(f"FAILED {problem}")
    if not measured:
        raise BenchError(f"{workload.name}: no run succeeded")
    print(f"{workload.name:14s} {'failed_ratio':42s} {gate.failed / gate.attempted:16.6f} "
          f"{'':5s} ({gate.failed} of {gate.attempted} runs)")
    for name, unit in specs.items():
        value, n = measured[name]
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{workload.name:14s} {name:42s} {shown:>16s} {unit:5s} (median of {n})")
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": measured[name][0], "unit": unit}
                        for name, unit in specs.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not (SRC / "quotlab" / "cli.py").is_file():
            raise BenchError(f"no quotlab sources under {SRC}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if args.workload == "all":
            plan = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
        elif args.workload in WORKLOADS:
            plan = [(WORKLOADS[args.workload], bool(args.trace))]
        else:
            raise BenchError(f"unknown workload {args.workload!r}")
        env = environment()
        for w, _ in plan:
            if w.workers > env["nproc"]:
                raise BenchError(f"{w.name} needs {w.workers} workers; nproc is {env['nproc']}")
        print("environment " + json.dumps(env, sort_keys=True))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        results = [run_workload(w, args.seed, seconds, t, bench, env) for w, t in plan]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        summary = results[0]
    else:
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "metrics": {f"{w.name}/{name}": m for (w, _), r in zip(plan, results)
                               for name, m in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
