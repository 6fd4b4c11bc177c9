"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numeric/simulation error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import load_config
from .errors import ConfigError, NumericError
from .runner import run

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitwpa",
        description="Kinetic-inductance traveling-wave parametric amplifier "
                    "design and simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_ in (
        ("design", "expand the design and emit its netlist"),
        ("dispersion", "Bloch dispersion curve and stopband report"),
        ("linear", "small-signal S-parameters (Touchstone + CSV)"),
        ("gain", "four-wave-mixing gain profile and metrics"),
        ("harmonics", "third-harmonic power along the line"),
        ("sweep", "metric sweep over a design or pump parameter"),
        ("calibrate", "fit the nonlinearity scale I* to a target peak gain"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: from the config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = run(args.subcommand, load_config(args.config),
                       out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for entry in manifest["files"]:
        print(f"wrote {entry['name']}  sha256 {entry['sha256'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
