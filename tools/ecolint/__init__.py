"""ecolint: AST-based invariant linter for the EcoLife reproduction.

Mechanically enforces the contracts every PR in this repo has shipped by
hand so far -- replay determinism (no ambient RNG or wall clocks in hot
paths), bit-identity across retire/rehydrate cycles (archive
completeness), bounded state (no drifting float ledgers), and ordered
iteration. Run as ``python -m tools.ecolint src tests
benchmarks``; rule catalogue and suppression policy live in
``docs/static_analysis.md``.
"""

from tools.ecolint.rules import FILE_RULES, Rule
from tools.ecolint.runner import Report, lint_paths, lint_source
from tools.ecolint.violations import META_RULE, Violation

__all__ = [
    "FILE_RULES",
    "META_RULE",
    "Report",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_source",
]
