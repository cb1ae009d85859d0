"""Command-line entry point: run a configured sweep and write output.csv; flags read as config text."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .simulate import (
    DETECTORS,
    EQUALIZERS,
    ESTIMATORS,
    ConfigError,
    _check_file_name,
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
    parser.add_argument("--seed", help="override the random seed")
    parser.add_argument("--detector", help=f"symbol detector: {' | '.join(DETECTORS)}")
    parser.add_argument("--estimator", help=f"channel estimator: {' | '.join(ESTIMATORS)}")
    parser.add_argument("--equalizer", help=f"channel equalizer: {' | '.join(EQUALIZERS)}")
    parser.add_argument("--output", metavar="PATH", help="output CSV path")
    parser.add_argument("--extract", metavar="COL1,COL2",
                        help="also write the selected columns to a side file for plotting")
    parser.add_argument("--extract-output", metavar="PATH",
                        help="path of the extract file (default: <output>_extract.csv)")
    return parser


def _default_extract_path(output: str) -> str:
    out = Path(output)
    return str(out.with_name(out.stem + "_extract" + (out.suffix or ".csv")))


def _check_destination(name: str, path: str) -> None:
    """Raise :class:`ConfigError` naming ``name``, the key or flag that gave
    ``path``, unless ``path`` names a file in a directory that exists, so a
    bad destination fails before the sweep rather than at the write."""
    _check_file_name(name, path)
    directory = Path(path).parent
    if not directory.is_dir():
        raise ConfigError(f"{name} = {path!r}: {str(directory)!r} is not a directory")
    if Path(path).is_dir():
        raise ConfigError(f"{name} = {path!r} is a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.extract_output is not None and args.extract is None:
        parser.error("--extract-output needs --extract")
    try:
        keys = ("seed", "detector", "estimator", "equalizer", "output")
        config = load_config(args.config, {key: getattr(args, key) for key in keys})
        _check_destination("output", config.output)
        extract_columns = None
        if args.extract is not None:
            extract_columns = _checked_columns(c.strip() for c in args.extract.split(",") if c.strip())
            extract_path = (_default_extract_path(config.output) if args.extract_output is None
                            else args.extract_output)
            _check_destination("--extract-output", extract_path)
            if Path(extract_path).resolve() == Path(config.output).resolve():
                raise ConfigError(f"--extract-output = {extract_path!r} is the output file {config.output!r}")
        records = run_sweep(config)
        write_csv(records, config.output)
        print(f"wrote {len(records)} records to {config.output}")
        if extract_columns is not None:
            write_extract(records, extract_columns, extract_path)
            print(f"wrote extract ({', '.join(extract_columns)}) to {extract_path}")
        return 0
    except (OSError, ValueError) as exc:  # ConfigError and FramingError are ValueErrors
        print(f"simulate: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
