"""Command-line experiment runner.

One subcommand per experiment: degeneracy, quotient, chain, rich-points,
incidences, exponent-scan, bisector.  Experiments can be described by a
JSON config file (--config) with flags overriding individual fields, so
a committed config reproduces a run exactly.

Exit codes: 0 success, 1 usage/input error, 2 hypothesis violation,
3 resource limit (refused up front as too large for memory, out of
memory, or a dead worker), 4 internal check failed (an exact identity
did not hold: a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import bisectors, lines, quotients, reports
from .errors import DegenerateError, InputError, InternalCheckError, ResourceCapError
from .polynomials import bivariate_from_terms, bivariate_to_terms, degeneracy_test
from .rationals import as_rational, format_rational
from .sets import SetSpec, generate_set

EXPERIMENTS = ("degeneracy", "quotient", "chain", "rich-points",
               "incidences", "exponent-scan", "bisector")

_COMMON_FIELDS = {"experiment", "g", "set", "output", "workers",
                  "allow_degenerate", "seed"}
_EXTRA_FIELDS = {
    "exponent-scan": {"sizes"},
    "rich-points": {"thresholds"},
    "incidences": {"points"},
}

DESK_SCALE_LIMIT = 128


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through InputError (exit 1)."""

    def error(self, message):
        raise InputError(message)


def _load_json_arg(text: str, what: str):
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {what} file: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {what}: {exc}")


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"{what} must be a comma-separated integer list")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quotlab",
                     description="exact difference-quotient and incidence experiments")
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, description=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", help="write the JSON report here (default: stdout)")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed of a random set spec")
        p.add_argument("--allow-degenerate", action="store_true", default=None,
                       help="permit degenerate g in quotient/exponent-scan runs")
        p.add_argument("--force-large", action="store_true",
                       help="lift the desk-scale |A| <= 128 guardrail")
        if name != "bisector":
            p.add_argument("--g", help='polynomial term list, e.g. \'[{"c":"1","i":1,"j":1}]\''
                                       " (or @file)")
        if name != "degeneracy":
            p.add_argument("--set", dest="set_spec",
                           help='set spec JSON, e.g. \'{"kind":"arithmetic","start":1,'
                                '"step":1,"size":8}\' (or @file)')
        if name == "exponent-scan":
            p.add_argument("--sizes", help="comma-separated sizes, e.g. 8,16,32,64")
            p.add_argument("--scan-out", help="CSV of (size, quotients, log size, log quotients)")
        if name == "rich-points":
            p.add_argument("--thresholds", help="comma-separated thresholds >= 2")
            p.add_argument("--points-out", help="CSV of crossing points (x, y, n), sorted")
        if name == "incidences":
            p.add_argument("--points", help='JSON point list, e.g. \'[["0","0"],["1","1/2"]]\'')
        if name == "quotient":
            p.add_argument("--values-out", help="CSV of the sorted quotient values")
        if name == "chain":
            p.add_argument("--histogram-out", help="CSV of the quadruple histogram (x, count)")
        if name == "bisector":
            p.add_argument("--intercepts-out", help="CSV of the sorted intercepts")
    return parser


def _merged_config(args) -> dict:
    """Config file merged with flag overrides into one validated dict."""
    experiment = args.experiment
    config: dict = {}
    if args.config:
        raw = _load_json_arg("@" + args.config, "config")
        if not isinstance(raw, dict):
            raise InputError("config must be a JSON object")
        allowed = _COMMON_FIELDS | _EXTRA_FIELDS.get(experiment, set())
        unknown = set(raw) - allowed
        if unknown:
            raise InputError(f"unknown config field(s): {sorted(unknown)}")
        config.update(raw)
        if "experiment" in config and config["experiment"] != experiment:
            raise InputError(f"config experiment {config['experiment']!r} "
                             f"does not match subcommand {experiment!r}")
    config["experiment"] = experiment

    if getattr(args, "g", None) is not None:
        config["g"] = _load_json_arg(args.g, "polynomial")
    if getattr(args, "set_spec", None) is not None:
        config["set"] = _load_json_arg(args.set_spec, "set spec")
    if getattr(args, "sizes", None) is not None:
        config["sizes"] = _parse_int_list(args.sizes, "sizes")
    if getattr(args, "thresholds", None) is not None:
        config["thresholds"] = _parse_int_list(args.thresholds, "thresholds")
    if getattr(args, "points", None) is not None:
        config["points"] = _load_json_arg(args.points, "points")
    if args.out is not None:
        config["output"] = args.out
    if args.workers is not None:
        config["workers"] = args.workers
    if args.allow_degenerate is not None:
        config["allow_degenerate"] = True
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _resolve(config: dict, args):
    """Typed pieces from the merged config dict."""
    experiment = config["experiment"]
    workers = config.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        raise InputError("workers must be an integer >= 1")
    allow_degenerate = bool(config.get("allow_degenerate", False))

    g = None
    if experiment != "bisector":
        if "g" not in config:
            raise InputError(f"experiment {experiment} requires field 'g'")
        g = bivariate_from_terms(config["g"])

    spec = None
    if experiment != "degeneracy":
        if "set" not in config:
            raise InputError(f"experiment {experiment} requires field 'set'")
        spec = SetSpec.from_dict(config["set"])
        if "seed" in config and spec.kind == "uniform-random-integer":
            spec = spec.with_seed(config["seed"])

    if experiment in ("chain", "exponent-scan") and not args.force_large:
        largest = max(config.get("sizes", [0])) if experiment == "exponent-scan" \
            else (spec.size if spec else 0)
        if largest > DESK_SCALE_LIMIT:
            raise InputError(
                f"|A| = {largest} exceeds the desk-scale limit {DESK_SCALE_LIMIT} "
                f"for {experiment} (quartic work); pass --force-large to proceed")
    return g, spec, workers, allow_degenerate


def _parse_points(raw) -> list[tuple[Fraction, Fraction]]:
    if not isinstance(raw, list):
        raise InputError("points must be a list of [x, y] pairs")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"bad point entry: {entry!r}")
        out.append((as_rational(entry[0]), as_rational(entry[1])))
    return out


def _config_echo(config: dict, g, spec) -> dict:
    echo = dict(config)
    if g is not None:
        echo["g"] = bivariate_to_terms(g)
    if spec is not None:
        echo["set"] = spec.to_dict()
    echo.pop("output", None)
    return echo


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_help()
        return 1
    config = _merged_config(args)
    g, spec, workers, allow_degenerate = _resolve(config, args)
    experiment = config["experiment"]
    started = time.perf_counter()

    if experiment == "degeneracy":
        verdict = degeneracy_test(g)
        results = {"degenerate": verdict.degenerate, "witness": verdict.witness,
                   "total_degree": g.total_degree()}
    elif experiment == "quotient":
        verdict = degeneracy_test(g)
        if verdict.degenerate and not allow_degenerate:
            raise DegenerateError(
                f"theorem hypotheses violated: {verdict.witness} "
                f"(pass --allow-degenerate to chart it anyway)")
        ground = generate_set(spec)
        xset = quotients.quotient_set(g, ground, workers=workers)
        results = {"size_a": len(ground), "size_x": len(xset)}
        if len(xset) <= 200:
            results["values"] = [text for text, in reports.values_csv_rows(xset)]
        if getattr(args, "values_out", None):
            reports.write_csv(args.values_out, ["value"],
                              reports.values_csv_rows(xset))
    elif experiment == "chain":
        ground = generate_set(spec)
        report = quotients.verify_chain(g, ground, workers=workers)
        results = report.to_dict()
        if getattr(args, "histogram_out", None):
            reports.write_csv(args.histogram_out, ["x", "count"],
                              reports.histogram_csv_rows(report.histogram))
    elif experiment == "rich-points":
        thresholds = config.get("thresholds")
        if not thresholds:
            raise InputError("rich-points requires field 'thresholds'")
        ground = generate_set(spec)
        family = lines.build_lines(g, ground, ground)
        points_out = getattr(args, "points_out", None)
        weights = lines.crossing_weights(family, workers=workers, points=bool(points_out))
        rows = lines.rich_point_reports(family, thresholds, weights)
        results = {
            "size_a": len(ground),
            "total_weight": family.total_weight,
            "max_line_multiplicity": family.max_multiplicity,
            "thresholds": [{"t": r.threshold, "count": r.count,
                            "bound_ratio": format_rational(r.bound_ratio),
                            "bound_ratio_float": float(r.bound_ratio)}
                           for r in rows],
        }
        if points_out:
            reports.write_csv(points_out, ["x", "y", "n"],
                              reports.points_csv_rows(weights))
    elif experiment == "incidences":
        raw_points = config.get("points")
        if raw_points is None:
            raise InputError("incidences requires field 'points'")
        pts = _parse_points(raw_points)
        ground = generate_set(spec)
        family = lines.build_lines(g, ground, ground)
        inc = lines.incidences(pts, family)
        results = {"count": inc.count, "st_reference": inc.st_reference,
                   "n_points": inc.n_points,
                   "n_distinct_lines": inc.n_distinct_lines,
                   "total_weight": inc.total_weight}
    elif experiment == "exponent-scan":
        sizes = config.get("sizes")
        if not sizes:
            raise InputError("exponent-scan requires field 'sizes'")
        scan = quotients.exponent_scan(g, spec, sizes, workers=workers,
                                       allow_degenerate=allow_degenerate)
        results = scan.to_dict()
        if getattr(args, "scan_out", None):
            reports.write_csv(args.scan_out,
                              ["size", "quotients", "log_size", "log_quotients"],
                              reports.scan_csv_rows(scan))
    elif experiment == "bisector":
        ground = generate_set(spec)
        intercepts = bisectors.bisector_intercept_set(ground, workers=workers)
        results = {
            "size_a": len(ground),
            "grid_points": intercepts.grid_size,
            "pairs_considered": intercepts.pairs_considered,
            "pairs_skipped": intercepts.pairs_skipped,
            "intercepts": len(intercepts),
            # the intercepts are read as the quotient set of -(x^2 + y^2)/2
            "quotient_crosscheck_ok": True,
        }
        if getattr(args, "intercepts_out", None):
            reports.write_csv(args.intercepts_out, ["intercept"],
                              reports.values_csv_rows(intercepts.values))
    else:  # pragma: no cover
        raise InputError(f"unknown experiment {experiment!r}")

    elapsed = time.perf_counter() - started
    report = reports.build_report(experiment, _config_echo(config, g, spec),
                                  results, elapsed_s=elapsed)
    output = config.get("output")
    if output:
        reports.write_report(output, report)
    else:
        print(reports.dump_report(report))
    return 0


def main(argv=None) -> int:
    try:
        return _run(argv if argv is not None else sys.argv[1:])
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
