"""Command-line front end.

Subcommands reproduce the sweep data behind the reference figures (fig4,
fig6, fig7), run arbitrary sweeps, and solve or classify discrete models
loaded from JSON files. Exit codes: 0 success, 2 validation/usage error,
3 solver error, 4 I/O error. Re-running a command with the same flags and
seed produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverError, UsageError, ValidationError
from .models import (
    BinaryMrcd,
    GaussianMrcd,
    ParallelBinaryMrcd,
    _write_json,
    as_discrete,
    load_model,
)
from .rates import RateCurve, sweep
from .solver import (
    SolveConfig,
    classify_cutset_tightness,
    report_to_dict,
    solve_capacity,
)

__all__ = ["main", "build_parser"]

DEFAULT_STEPS = 201


class _Figure(NamedTuple):
    """A figure command: sweep ``param`` of ``model`` over [0, ``stop``].

    ``flags`` maps each command-line flag to the model field it overrides;
    the flag's default is the field's value in ``model``.
    """

    help: str
    model: object
    param: str
    stop: float
    flags: dict[str, str]


_FIGURES = {
    "fig4": _Figure(
        "parallel binary sweep over the noise parameter",
        ParallelBinaryMrcd(delta=0.0, p_z=0.15, r1=1.2), "delta", 0.5,
        {"--r1": "r1", "--pz": "p_z"},
    ),
    "fig6": _Figure(
        "gaussian sweep over the state correlation",
        GaussianMrcd(power=0.3, rho=0.0, r1=1.0), "rho", 1.0,
        {"--r1": "r1", "--power": "power"},
    ),
    "fig7": _Figure(
        "binary sweep over the noise parameter",
        BinaryMrcd(delta=0.0, p_z=0.5, r1=0.25), "delta", 0.5,
        {"--r1": "r1", "--pz": "p_z"},
    ),
}


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start_s, stop_s, steps_s = spec.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise UsageError(f"--grid expects start:stop:steps, got {spec!r}") from None
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise UsageError(f"--grid needs a finite start and stop, got {spec!r}")
    if steps < 2:
        raise UsageError(f"--grid needs at least 2 steps, got {steps}")
    if not stop > start:
        raise UsageError(f"--grid needs stop > start, got {spec!r}")
    try:
        return np.linspace(start, stop, steps)
    except (ValueError, MemoryError):  # numpy refuses the size before allocating
        raise UsageError(f"--grid has more steps than memory holds, got {steps}") from None


def _write_curve(curve: RateCurve, out_path: str, fmt: str) -> None:
    if fmt == "csv":
        curve.to_csv(out_path)
    else:  # argparse restricts --format to csv and json
        curve.to_json(out_path)


def _cmd_fig(args: argparse.Namespace) -> int:
    fig = _FIGURES[args.command]
    grid = _parse_grid(args.grid) if args.grid else np.linspace(0.0, fig.stop, DEFAULT_STEPS)
    # replace() reruns the model's validation on the overridden fields
    model = dataclasses.replace(
        fig.model, **{field: getattr(args, field) for field in fig.flags.values()}
    )
    _write_curve(sweep(model, fig.param, grid), args.out, args.format)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    curve = sweep(model, args.param, _parse_grid(args.grid))
    _write_curve(curve, args.out, args.format)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = SolveConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    report = solve_capacity(as_discrete(load_model(args.model)), cfg)
    _write_json(report_to_dict(report), args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    cases = classify_cutset_tightness(as_discrete(load_model(args.model)))
    _write_json({"cases": sorted(cases)}, args.out)
    return 0


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--grid", default=None, help="override grid as start:stop:steps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycap",
        description=(
            "Rates, bounds, and capacity solves for state-dependent orthogonal "
            "relay channels with destination side information."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fig in _FIGURES.items():
        p = sub.add_parser(name, help=fig.help)
        _add_output_flags(p)
        for flag, field in fig.flags.items():
            p.add_argument(flag, dest=field, metavar=flag[2:].upper(), type=float,
                           default=getattr(fig.model, field))
        p.set_defaults(func=_cmd_fig)

    sw = sub.add_parser("sweep", help="sweep one parameter of a model file")
    sw.add_argument("--model", required=True, help="model JSON path")
    sw.add_argument("--param", required=True, help="model field to sweep")
    sw.add_argument("--out", required=True)
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--grid", required=True, help="grid as start:stop:steps")
    sw.set_defaults(func=_cmd_sweep)

    sol = sub.add_parser("solve", help="solve the capacity expression for a model file")
    sol.add_argument("--model", required=True, help="model JSON path")
    sol.add_argument("--out", required=True)
    sol.add_argument("--restarts", type=int, default=SolveConfig.restarts)
    sol.add_argument("--seed", type=int, default=SolveConfig.seed)
    sol.add_argument("--max-iters", dest="max_iters", type=int, default=SolveConfig.max_iters)
    sol.set_defaults(func=_cmd_solve)

    cls = sub.add_parser("classify", help="report cut-set tightness cases for a model file")
    cls.add_argument("--model", required=True, help="model JSON path")
    cls.add_argument("--out", required=True)
    cls.set_defaults(func=_cmd_classify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use per process: parsing
    leaves it as it was, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value starting with "-" as a flag; a grid such as
    # -0.9:0.9:41 (fig6 sweeps rho over [-1, 1]) is joined to its --grid
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--grid" and re.match(r"-[0-9.]", argv[i + 1]):
            argv[i:i + 2] = [f"--grid={argv[i + 1]}"]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
