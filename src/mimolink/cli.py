"""Command-line entry point: run a configured sweep and write output.csv."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .simulate import (
    DETECTORS,
    EQUALIZERS,
    ESTIMATORS,
    _checked_columns,
    load_config,
    run_sweep,
    write_csv,
    write_extract,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo MIMO link-level simulation sweep over noise powers.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="key = value configuration file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--detector", choices=DETECTORS, help="symbol detector")
    parser.add_argument("--estimator", choices=ESTIMATORS, help="channel estimator")
    parser.add_argument("--equalizer", choices=EQUALIZERS, help="channel equalizer")
    parser.add_argument("--output", metavar="PATH", help="output CSV path")
    parser.add_argument("--extract", metavar="COL1,COL2",
                        help="also write the selected columns to a side file for plotting")
    parser.add_argument("--extract-output", metavar="PATH",
                        help="path of the extract file (default: <output>_extract.csv)")
    return parser


def _default_extract_path(output: str) -> str:
    out = Path(output)
    return str(out.with_name(out.stem + "_extract" + (out.suffix or ".csv")))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.extract_output is not None and args.extract is None:
        parser.error("--extract-output needs --extract")
    overrides = {
        "seed": args.seed,
        "detector": args.detector,
        "estimator": args.estimator,
        "equalizer": args.equalizer,
        "output": args.output,
    }
    try:
        config = load_config(args.config, overrides)
        extract_columns = None
        if args.extract is not None:
            extract_columns = _checked_columns(c.strip() for c in args.extract.split(",") if c.strip())
        records = run_sweep(config)
        write_csv(records, config.output)
        print(f"wrote {len(records)} records to {config.output}")
        if extract_columns is not None:
            extract_path = args.extract_output or _default_extract_path(config.output)
            write_extract(records, extract_columns, extract_path)
            print(f"wrote extract ({', '.join(extract_columns)}) to {extract_path}")
        return 0
    except (OSError, ValueError) as exc:  # ConfigError and FramingError are ValueErrors
        print(f"simulate: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
