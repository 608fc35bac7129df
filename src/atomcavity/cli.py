"""Command-line front end.

Usage:  atomcavity --scenario NAME [--config FILE] [--out DIR] [--plot]
                   [--cutoff N|auto] [--quiet]

Exit codes: 0 success, 1 verify-suite failure, 2 configuration/validation
error, 3 numerical failure, 64 usage error (unknown scenario).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import AtomCavityError
from .scenarios import SCENARIOS, ScenarioConfig, run_scenario

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomcavity",
        description=(
            "Liouvillian spectra, relaxation times and atomic correlations for "
            "two atoms in a driven leaky cavity. All rates and times are in "
            "units of kappa (kappa = 1)."
        ),
    )
    parser.add_argument("--scenario", required=True, help="one of: " + ", ".join(SCENARIOS))
    parser.add_argument("--config", help="JSON file with ScenarioConfig fields")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--plot", action="store_true", help="also write SVG plots")
    parser.add_argument("--cutoff", help="Fock cutoff: integer or 'auto'")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    payload: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
    payload["scenario"] = args.scenario or payload.get("scenario")
    if args.out:
        payload["output"] = args.out
    if args.cutoff:
        payload["cutoff"] = args.cutoff if args.cutoff == "auto" else int(args.cutoff)
    known = {f for f in ScenarioConfig.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return ScenarioConfig(**payload)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scenario not in SCENARIOS:
        print(
            f"error: unknown scenario {args.scenario!r}; choose from: "
            + ", ".join(SCENARIOS),
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        config = _load_config(args)
        config.validate()
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_scenario(config, plot=args.plot, quiet=args.quiet)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AtomCavityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
