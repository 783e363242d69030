"""Command-line entry point.

Two subcommands:

  run    one experiment at a fixed configuration
  sweep  the same experiment repeated along one parameter axis

Flags mirror ExperimentConfig; a JSON config file may supply any of them,
with explicit flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ParameterError, ShuffleguardError
from .harness import (
    CHOICES,
    METRIC_COLS,
    SWEEP_FIELDS,
    ExperimentConfig,
    _fmt,
    emit,
    run_experiment,
    summary_row,
    sweep,
)


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one ``error: ...`` line with exit code 2
    (the subcommand parsers are of this class too)."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--query", choices=CHOICES["query"])
    p.add_argument("--protocol", choices=CHOICES["protocol"])
    p.add_argument("--n", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda", dest="lam", help="bottom group size or 'auto'")
    p.add_argument("--k", type=int)
    p.add_argument("--khat", dest="k_hat", type=int)
    p.add_argument("--attack", choices=CHOICES["attack"])
    p.add_argument("--attack-msgs", dest="attack_msgs", type=int)
    p.add_argument("--dist", choices=CHOICES["dist"])
    p.add_argument("--data", help="CSV dataset path, in place of --dist")
    p.add_argument("--col", help="CSV column name or index")
    p.add_argument("--cap", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=CHOICES["format"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shuffleguard",
        description="Shuffle-DP protocol simulator and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment")
    _add_common_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="sweep one parameter axis")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--axis", choices=list(SWEEP_FIELDS), required=True)
    sweep_p.add_argument(
        "--values", required=True,
        help="comma-separated axis values, e.g. 8,16,32",
    )
    return parser


def _number(convert, text, flag: str):
    """``convert(text)``, or a ParameterError naming the flag."""
    try:
        return convert(text)
    except (TypeError, ValueError):
        raise ParameterError(f"{flag} expects a number, got {text!r}") from None


def _coerce_lam(v):
    """Text (``--lambda 8``) as an int; ExperimentConfig checks the rest."""
    if isinstance(v, str) and v != "auto":
        return _number(int, v, "--lambda")
    return v


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ParameterError(
                f"--config {args.config}: {exc.strerror}"
            ) from None
        except ValueError as exc:
            raise ParameterError(f"--config {args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ParameterError(f"--config {args.config} must hold an object")
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for f in fields(ExperimentConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if "lam" in values:
        values["lam"] = _coerce_lam(values["lam"])
    return ExperimentConfig(**values)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, before any trial."""
    out = Path(path)
    if out.is_dir():
        raise ParameterError(f"--out {path}: Is a directory")
    # An existing file must be writable; a new one, its directory.
    if not os.access(out if out.exists() else out.parent, os.W_OK):
        raise ParameterError(f"--out {path}: cannot be written")


def _print_summaries(summaries) -> None:
    rows = [summary_row(s) for s in summaries]
    head = ["protocol", "query", "n", "lam", "k", "attack", *METRIC_COLS]
    print("\t".join(head))
    for row in rows:
        print("\t".join(_fmt(row[c]) for c in head))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if config.out:
            _check_out(config.out)
        if args.command == "run":
            summaries = [run_experiment(config)]
        else:
            axis_values = [
                _number(float if args.axis == "eps" else int, v, "--values")
                for v in args.values.split(",")
            ]
            summaries = sweep(config, args.axis, axis_values)
        if config.out:
            emit(summaries, config.format, config.out)
    except ShuffleguardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    _print_summaries(summaries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
