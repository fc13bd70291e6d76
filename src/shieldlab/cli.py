"""Command-line front end: one subcommand per experiment family.

    shieldlab <experiment> --config FILE --out DIR [--seed N]

Results land in ``<out>/<experiment>.csv`` with a ``.meta.json`` sidecar and
a machine-readable verdict line on stdout. Exit code 0 on a passing verdict,
2 on a failing one, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import RUNNERS, load_config
from .tables import emit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shieldlab",
        description="Transverse-field Ising shielding experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        table = RUNNERS[args.experiment](cfg)
        path = emit(table, Path(args.out) / f"{args.experiment}.csv")
    except Exception as exc:  # noqa: BLE001 - report and signal via exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdict = table.metadata.get("verdict", {})
    print(f"wrote {path} ({len(table.rows)} rows)")
    print("VERDICT " + json.dumps(verdict, sort_keys=True))
    return 0 if verdict.get("status") == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
