"""Command-line entry point: ``python -m tools.ecolint [paths...]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from tools.ecolint.runner import lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.ecolint",
        description=(
            "AST-based invariant linter for the EcoLife reproduction: "
            "enforces the determinism, bit-identity, and state-bounding "
            "contracts (rules ECO001-ECO005; see docs/static_analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root anchoring rule scopes and report paths",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the structured JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--no-project-checks",
        action="store_true",
        help="skip the cross-file ECO005 archive-completeness contracts",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = Path(args.root)
    report = lint_paths(
        [root / p if not Path(p).is_absolute() else Path(p) for p in args.paths],
        root=root,
        project_checks=not args.no_project_checks,
    )
    if args.json == "-":
        sys.stdout.write(report.to_json())
    else:
        if args.json:
            Path(args.json).write_text(report.to_json(), encoding="utf-8")
        print(report.human_summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
