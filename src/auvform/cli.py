"""Command-line entry point: run, compare, flow-grid and validate verbs.

Exit codes: 0 success (--help included), 1 a malformed command line (an
unknown option, a missing argument or a value of the wrong type), a
scenario/validation error or an output location that cannot be written
(checked before simulating), 2 runtime abort.  Every error is one stderr
line, without a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .engine import SimulationAbort, compute_metrics, detect_convergence, run
from .export import compare_runs, export_flow_grid, export_results
from .scenario import ScenarioError, parse_scenario


class OutputError(Exception):
    """The -o location cannot be written."""


class UsageError(Exception):
    """The command line is malformed."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers, that raise UsageError instead of exiting with 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _check_out(out: Path, is_file: bool = False) -> None:
    """Raise OutputError if -o cannot be written: a directory for a file, or a file on the way."""
    if is_file and out.is_dir():
        raise OutputError(f"{out} is a directory")
    folder = out.parent if is_file else out
    nearest = next(p for p in (folder, *folder.parents) if p.exists())
    if not nearest.is_dir():
        raise OutputError(f"{nearest} exists and is not a directory")


def _load(args) -> "Scenario":
    scenario = parse_scenario(args.scenario)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "dt", None) is not None:
        overrides["dt"] = args.dt
    try:
        return replace(scenario, **overrides) if overrides else scenario
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _cmd_run(args) -> int:
    scenario = _load(args)
    _check_out(args.out)
    log = run(scenario)
    t_c = detect_convergence(log, scenario.convergence_threshold)
    metrics = compute_metrics(log, t_c) if t_c is not None else None
    bundle = export_results(log, metrics, args.out)
    if t_c is None:
        print("convergence: never (errors keep crossing the threshold)")
    else:
        print(f"convergence: t_c = {t_c:.2f} s")
    if metrics is not None:
        print("axis  speed_rmse[m/s]  pos_rmse[m]")
        for i, ax in enumerate("xyz"):
            print(
                f"  {ax}   {metrics.speed_rmse[i]:14.4f}  {metrics.pos_rmse[i]:11.4f}"
            )
    print(f"wrote {bundle.timeseries}")
    return 0


def _cmd_compare(args) -> int:
    scenario = _load(args)
    _check_out(args.out)
    result = compare_runs(scenario, args.out)
    print("axis  rmse_proposed[m]  rmse_baseline[m]  ratio")
    for i, ax in enumerate("xyz"):
        print(
            f"  {ax}   {result.rmse_proposed[i]:16.4f}  "
            f"{result.rmse_baseline[i]:16.4f}  {result.ratio[i]:6.3f}"
        )
    print(
        f"chatter: proposed {result.chatter_proposed}, "
        f"baseline {result.chatter_baseline}"
    )
    return 0


def _cmd_flow_grid(args) -> int:
    scenario = _load(args)
    try:
        t_samples = [float(v) for v in args.t.split(",")] if args.t else [0.0]
        if not all(map(math.isfinite, t_samples)):
            raise ValueError
    except ValueError:
        raise ScenarioError(
            f"--t must be comma-separated finite times, got {args.t!r}"
        ) from None
    _check_out(args.out, is_file=True)
    path = export_flow_grid(
        scenario.flow.params, scenario.flow.layers, t_samples, args.out
    )
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    _load(args)
    print("scenario valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="auvform",
        description="Leader-follower AUV formation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and export results")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("-o", "--out", type=Path, required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--dt", type=float)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="proposed vs first-order baseline")
    p_cmp.add_argument("scenario", type=Path)
    p_cmp.add_argument("-o", "--out", type=Path, required=True)
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--dt", type=float)
    p_cmp.set_defaults(func=_cmd_compare)

    p_grid = sub.add_parser("flow-grid", help="rasterize the current field")
    p_grid.add_argument("scenario", type=Path)
    p_grid.add_argument("-o", "--out", type=Path, required=True)
    p_grid.add_argument("--t", type=str, help="comma-separated sample times [s]")
    p_grid.set_defaults(func=_cmd_flow_grid)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", type=Path)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except SimulationAbort as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
