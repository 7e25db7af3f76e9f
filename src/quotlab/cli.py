"""Command-line experiment runner.

One subcommand per experiment: degeneracy, quotient, chain, rich-points,
incidences, exponent-scan, bisector.  Experiments can be described by a
JSON config file (--config) with flags overriding individual fields, so
a committed config reproduces a run exactly.

``EXPERIMENTS`` gives each experiment its run function, the fields it reads
(``_INPUTS``: each a flag and a config field; no others) and its optional CSV.
Run functions call kernels through module attributes at call time, so a
wrapper patched onto a module attribute sees every call.

Exit codes: 0 success, 1 usage/input error or unwritable output,
2 hypothesis violation, 3 resource limit (refused up front as too large
for memory, out of memory, or a dead worker), 4 internal check failed
(an exact identity did not hold: a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import bisectors, lines, quotients, reports
from .errors import OUT_OF_MEMORY, InputError, QuotlabError, ResourceCapError
from .polynomials import bivariate_from_terms, bivariate_to_terms, degeneracy_test
from .rationals import as_rational
from .sets import SetSpec, generate_set

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


def _int_list(raw, what: str) -> list[int]:
    if not isinstance(raw, list) or not raw or any(type(v) is not int for v in raw):
        raise InputError(f"{what} must be a nonempty list of integers")
    return raw


def _parse_points(raw) -> list[tuple[Fraction, Fraction]]:
    if not isinstance(raw, list):
        raise InputError("points must be a list of [x, y] pairs")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"bad point entry: {entry!r}")
        out.append((as_rational(entry[0]), as_rational(entry[1])))
    return out


def _workers(raw) -> int:
    if type(raw) is not int or raw < 1:
        raise InputError("workers must be an integer >= 1")
    return raw


def _allow_degenerate(raw) -> bool:
    if type(raw) is not bool:
        raise InputError("allow_degenerate must be true or false")
    return raw


# field: (flag, help, flag text -> config value, config value -> typed value);
# one with no flag parser is an on/off flag, and one in _OPTIONAL may be left out
_INPUTS = {
    "g": ("--g", 'polynomial term list, e.g. \'[{"c":"1","i":1,"j":1}]\' (or @file)',
          lambda text: _load_json_arg(text, "polynomial"), bivariate_from_terms),
    "set": ("--set", 'set spec JSON, e.g. \'{"kind":"arithmetic","start":1,'
                     '"step":1,"size":8}\' (or @file)',
            lambda text: _load_json_arg(text, "set spec"), SetSpec.from_dict),
    "sizes": ("--sizes", "comma-separated sizes, e.g. 8,16,32,64",
              lambda text: _parse_int_list(text, "sizes"), lambda raw: _int_list(raw, "sizes")),
    "thresholds": ("--thresholds", "comma-separated thresholds >= 2",
                   lambda text: _parse_int_list(text, "thresholds"),
                   lambda raw: _int_list(raw, "thresholds")),
    "points": ("--points", 'JSON point list, e.g. \'[["0","0"],["1","1/2"]]\'',
               lambda text: _load_json_arg(text, "points"), _parse_points),
    "workers": ("--workers", "worker processes (default 1)", int, _workers),
    "allow_degenerate": ("--allow-degenerate", "chart a degenerate g anyway",
                         None, _allow_degenerate),
}
_OPTIONAL = {"workers": 1, "allow_degenerate": False}


# Each run function takes the resolved inputs (``_resolve``) and returns
# (results, CSV rows); the rows are lazy and read only when the CSV is asked for.

def _degeneracy(inp):
    return {**degeneracy_test(inp.g)._asdict(), "total_degree": inp.g.total_degree()}, None


def _quotient(inp):
    quotients.require_nondegenerate(inp.g, inp.allow_degenerate)
    ground = generate_set(inp.set)
    xset = quotients.quotient_set(inp.g, ground, workers=inp.workers)
    results = {"size_a": len(ground), "size_x": len(xset)}
    if len(xset) <= 200:
        results["values"] = [text for text, in reports.values_csv_rows(xset)]
    return results, reports.values_csv_rows(xset)


def _chain(inp):
    results, hist = quotients.verify_chain(inp.g, generate_set(inp.set), workers=inp.workers)
    return results, reports.histogram_csv_rows(hist)


def _rich_points(inp):
    lines.check_thresholds(inp.thresholds)  # before the sweep, not after it
    ground = generate_set(inp.set)
    family = lines.build_lines(inp.g, ground, ground)
    weights = lines.crossing_weights(family, workers=inp.workers, points=bool(inp.csv_out))
    return {
        "size_a": len(ground),
        "total_weight": family.total_weight,
        "max_line_multiplicity": family.max_multiplicity,
        "thresholds": lines.rich_point_reports(family, inp.thresholds, weights),
    }, reports.points_csv_rows(weights)


def _incidences(inp):
    ground = generate_set(inp.set)
    family = lines.build_lines(inp.g, ground, ground)
    return lines.incidences(inp.points, family), None


def _exponent_scan(inp):
    scan = quotients.exponent_scan(inp.g, inp.set, inp.sizes, workers=inp.workers,
                                   allow_degenerate=inp.allow_degenerate)
    return scan, reports.scan_csv_rows(scan)


def _bisector(inp):
    ground = generate_set(inp.set)
    intercepts = bisectors.bisector_intercept_set(ground, workers=inp.workers)
    return {
        "size_a": len(ground),
        "grid_points": intercepts.grid_size,
        "pairs_considered": intercepts.pairs_considered,
        "pairs_skipped": intercepts.pairs_skipped,
        "intercepts": len(intercepts),
        # the intercept set is the quotient set of -(x^2 + y^2)/2
        "quotient_crosscheck_ok": True,
    }, reports.values_csv_rows(intercepts)


class Experiment(NamedTuple):
    run: Callable
    inputs: tuple[str, ...]
    csv: tuple[str, str, list[str]] | None = None  # flag, help, header
    desk_scale: bool = False  # |A| > DESK_SCALE_LIMIT needs --force-large


EXPERIMENTS = {
    "degeneracy": Experiment(_degeneracy, ("g",)),
    "quotient": Experiment(_quotient, ("g", "set", "workers", "allow_degenerate"), (
        "--values-out", "CSV of the sorted quotient values", ["value"]), desk_scale=True),
    "chain": Experiment(_chain, ("g", "set", "workers"), (
        "--histogram-out", "CSV of the quadruple histogram (x, count)", ["x", "count"]),
        desk_scale=True),
    "rich-points": Experiment(_rich_points, ("g", "set", "thresholds", "workers"), (
        "--points-out", "CSV of crossing points (x, y, n), sorted", ["x", "y", "n"]),
        desk_scale=True),
    "incidences": Experiment(_incidences, ("g", "set", "points")),
    "exponent-scan": Experiment(_exponent_scan,
                                ("g", "set", "sizes", "workers", "allow_degenerate"), (
        "--scan-out", "CSV of (size, quotients, log size, log quotients)",
        ["size", "quotients", "log_size", "log_quotients"]), desk_scale=True),
    "bisector": Experiment(_bisector, ("set", "workers"), (
        "--intercepts-out", "CSV of the sorted intercepts", ["intercept"]), desk_scale=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quotlab",
                     description="exact difference-quotient and incidence experiments")
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, description=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", dest="output",
                       help="write the JSON report here (default: stdout)")
        for field in experiment.inputs:
            flag, help_text, parse_flag, _ = _INPUTS[field]
            kind = {"type": parse_flag} if parse_flag else {"action": "store_true"}
            p.add_argument(flag, dest=field, help=help_text, default=None, **kind)
        if experiment.desk_scale:
            p.add_argument("--force-large", action="store_true",
                           help="lift the desk-scale |A| <= 128 guardrail")
        if experiment.csv:
            flag, help_text, _ = experiment.csv
            p.add_argument(flag, dest="csv_out", metavar="CSV", help=help_text)
    return parser


def _merged_config(args, experiment: Experiment) -> dict:
    """Config file merged with flag overrides into one dict."""
    fields = ("experiment", "output", *experiment.inputs)
    config: dict = {}
    if args.config:
        raw = _load_json_arg("@" + args.config, "config")
        if not isinstance(raw, dict):
            raise InputError("config must be a JSON object")
        unknown = set(raw) - set(fields)
        if unknown:
            raise InputError(f"unknown config field(s): {sorted(unknown)}")
        if raw.get("experiment", args.experiment) != args.experiment:
            raise InputError(f"config experiment {raw['experiment']!r} "
                             f"does not match subcommand {args.experiment!r}")
        config.update(raw)
    for field in fields:
        if getattr(args, field) is not None:
            config[field] = getattr(args, field)
    return config


def _resolve(config: dict, experiment: Experiment, args) -> argparse.Namespace:
    """The run's validated, typed inputs from the merged config."""
    inp = argparse.Namespace(**{**dict.fromkeys(_INPUTS), **_OPTIONAL},
                             csv_out=getattr(args, "csv_out", None))
    for field in experiment.inputs:
        if field in config:
            setattr(inp, field, _INPUTS[field][3](config[field]))
        elif field not in _OPTIONAL:
            raise InputError(f"experiment {args.experiment} requires field {field!r}")
    if experiment.desk_scale and not args.force_large:
        largest = max(inp.sizes or [inp.set.size])
        if largest > DESK_SCALE_LIMIT:
            raise InputError(
                f"|A| = {largest} exceeds the desk-scale limit {DESK_SCALE_LIMIT} "
                f"for {args.experiment} (quartic work); pass --force-large to proceed")
    return inp


def _config_echo(config: dict, inp) -> dict:
    echo = dict(config)
    if inp.g is not None:
        echo["g"] = bivariate_to_terms(inp.g)
    if inp.set is not None:
        echo["set"] = dict(inp.set)
    echo.pop("output", None)
    return echo


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_help()
        return 1
    experiment = EXPERIMENTS[args.experiment]
    config = _merged_config(args, experiment)
    inp = _resolve(config, experiment, args)
    output = config.get("output")
    for path in (output, inp.csv_out):  # refused before the run, not after it
        if path is not None and not (path and type(path) is str and Path(path).parent.is_dir()):
            raise InputError(f"cannot write {path!r}: not a path in an existing directory")
        if path and Path(path).is_dir():
            raise InputError(f"cannot write the output: {path!r} is a directory")
    if output and inp.csv_out and Path(output).resolve() == Path(inp.csv_out).resolve():
        raise InputError(f"cannot write the output: {inp.csv_out!r} is also the report path")
    started = time.perf_counter()
    results, csv_rows = experiment.run(inp)
    try:
        if inp.csv_out:
            reports.write_csv(inp.csv_out, experiment.csv[2], csv_rows)
        elapsed = time.perf_counter() - started
        report = reports.build_report(args.experiment, _config_echo(config, inp),
                                      results, elapsed_s=elapsed)
        if output:
            reports.write_report(output, report)
        else:
            print(reports.dump_report(report))
    except OSError as exc:
        raise InputError(f"cannot write the output: {exc}")
    return 0


def main(argv=None) -> int:
    try:
        return _run(argv if argv is not None else sys.argv[1:])
    except QuotlabError as exc:
        error = exc
    except MemoryError:
        error = ResourceCapError(OUT_OF_MEMORY)
    print(f"{error.label}: {error}", file=sys.stderr)
    return error.exit_status


if __name__ == "__main__":
    sys.exit(main())
