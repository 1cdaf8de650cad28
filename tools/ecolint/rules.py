"""Per-file AST rules encoding the repository's determinism invariants.

Each rule is a :class:`Rule` subclass with a stable ``code`` (used in
suppressions and CI reports) and a ``scope`` -- the repo-relative path
prefixes it applies to (``()`` means every linted file). Rules operate
on a parsed module AST plus a local-name -> dotted-module import table,
so aliased imports (``import numpy as np``, ``from numpy import random
as nr``) resolve uniformly.

The rule catalogue, with rationale and fix guidance, lives in
``docs/static_analysis.md``; keep the two in sync when adding a rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.ecolint.violations import Violation


# ---------------------------------------------------------------------------
# Shared AST helpers.
# ---------------------------------------------------------------------------


def import_table(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted module/object they were imported as.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from numpy import
    random as nr`` -> ``{"nr": "numpy.random"}``. Relative imports are
    project-internal and deliberately untracked.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    table[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def dotted_name(node: ast.AST, table: dict[str, str]) -> str | None:
    """Resolve an ``a.b.c`` expression to its imported dotted path."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = table.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def class_nodes(cls: ast.ClassDef) -> Iterator[ast.AST]:
    """Walk a class body without descending into nested classes."""
    stack: list[ast.AST] = list(cls.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.ClassDef):
                stack.append(child)


class Rule:
    """Base per-file rule; subclasses set the metadata and ``check``."""

    code: str = ""
    name: str = ""
    description: str = ""
    #: Repo-relative path prefixes (posix) this rule applies to; empty
    #: means every linted file.
    scope: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check(self, tree: ast.AST, relpath: str) -> list[Violation]:
        raise NotImplementedError

    def _violation(self, node: ast.AST, relpath: str, message: str) -> Violation:
        return Violation(
            code=self.code,
            path=relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ---------------------------------------------------------------------------
# ECO001 -- no ambient / module-level RNG.
# ---------------------------------------------------------------------------

#: ``numpy.random`` attributes that construct explicitly-seeded machinery
#: (allowed) rather than drawing from the ambient global stream (banned).
NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "Philox",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "SFC64",
    }
)


class Eco001AmbientRng(Rule):
    code = "ECO001"
    name = "ambient-rng"
    description = (
        "No module-level RNG: np.random.<fn> draws, np.random.seed, and the "
        "stdlib random module share hidden global state that breaks replay "
        "determinism; thread an explicit np.random.Generator instead."
    )

    def check(self, tree: ast.AST, relpath: str) -> list[Violation]:
        table = import_table(tree)
        out: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    out.append(
                        self._violation(
                            node,
                            relpath,
                            "import from the stdlib `random` module: its "
                            "draws come from hidden global state; use an "
                            "explicitly-threaded np.random.Generator",
                        )
                    )
                elif module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in NP_RANDOM_ALLOWED:
                            out.append(
                                self._violation(
                                    node,
                                    relpath,
                                    f"import of ambient numpy.random."
                                    f"{alias.name}: draws from the global "
                                    "stream; construct a Generator instead",
                                )
                            )
            elif isinstance(node, ast.Call):
                full = dotted_name(node.func, table)
                if full is None:
                    continue
                if full == "random" or full.startswith("random."):
                    out.append(
                        self._violation(
                            node,
                            relpath,
                            f"call to stdlib {full}(): global-state RNG "
                            "breaks replay determinism; thread a "
                            "np.random.Generator explicitly",
                        )
                    )
                elif full.startswith("numpy.random."):
                    attr = full.split(".")[2]
                    if attr not in NP_RANDOM_ALLOWED:
                        out.append(
                            self._violation(
                                node,
                                relpath,
                                f"call to {full}(): ambient global-stream "
                                "RNG; draw from an explicitly-threaded "
                                "np.random.Generator",
                            )
                        )
        return out


# ---------------------------------------------------------------------------
# ECO002 -- no wall-clock / ambient nondeterminism in hot paths.
# ---------------------------------------------------------------------------

BANNED_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getenv",
        "os.getpid",
        "os.cpu_count",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.choice",
    }
)

BANNED_AMBIENT_READS = frozenset({"os.environ"})


class Eco002WallClock(Rule):
    code = "ECO002"
    name = "ambient-nondeterminism"
    description = (
        "No wall-clock reads, environment reads, or OS entropy inside the "
        "simulator/optimizer/core hot paths: replay results must be a pure "
        "function of (trace, config, seed). The serving layer and the live "
        "carbon providers are in scope too -- their decision path is the "
        "replay engine, so ambient reads there would silently break the "
        "replay-equivalence contract. Telemetry-only clock reads (serving "
        "latency, retry backoff sleeps) need an explicit suppression "
        "explaining why they cannot leak into deterministic outputs."
    )
    scope = (
        "src/repro/simulator/",
        "src/repro/optimizers/",
        "src/repro/core/",
        "src/repro/service/",
        "src/repro/carbon/providers.py",
    )

    def check(self, tree: ast.AST, relpath: str) -> list[Violation]:
        table = import_table(tree)
        out: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                full = dotted_name(node.func, table)
                if full in BANNED_CLOCK_CALLS:
                    out.append(
                        self._violation(
                            node,
                            relpath,
                            f"{full}() is ambient nondeterminism in a hot "
                            "path; results must be a pure function of "
                            "(trace, config, seed)",
                        )
                    )
            elif isinstance(node, ast.Attribute):
                full = dotted_name(node, table)
                if full in BANNED_AMBIENT_READS:
                    out.append(
                        self._violation(
                            node,
                            relpath,
                            f"{full} read in a hot path: environment state "
                            "varies across runs/hosts; resolve it once at "
                            "config-construction time",
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# ECO003 -- no paired floating-point +=/-= running ledgers.
# ---------------------------------------------------------------------------


class Eco003FloatLedger(Rule):
    code = "ECO003"
    name = "float-ledger"
    description = (
        "No attribute that is both `+=`-credited and `-=`-debited within one "
        "class: paired float accumulators drift (each op rounds) and the "
        "gauge ends up != the sum of its parts -- the WarmPool._used_gb bug "
        "class. Recount from the source of truth (math.fsum over the live "
        "items) instead. Append-only accumulators are fine."
    )

    def check(self, tree: ast.AST, relpath: str) -> list[Violation]:
        out: list[Violation] = []
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            sites: dict[str, list[ast.AugAssign]] = {}
            ops: dict[str, set[str]] = {}
            for node in class_nodes(cls):
                if not isinstance(node, ast.AugAssign):
                    continue
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                target = node.target
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                sites.setdefault(attr, []).append(node)
                ops.setdefault(attr, set()).add(type(node.op).__name__)
            for attr, nodes in sorted(sites.items()):
                if ops[attr] >= {"Add", "Sub"}:
                    for node in nodes:
                        op = "+=" if isinstance(node.op, ast.Add) else "-="
                        out.append(
                            self._violation(
                                node,
                                relpath,
                                f"self.{attr} {op} ...: attribute is both "
                                f"credited and debited in {cls.name}; "
                                "paired float ledgers drift -- recount from "
                                "the source of truth (see "
                                "WarmPool._recount)",
                            )
                        )
        return out


# ---------------------------------------------------------------------------
# ECO004 -- no iteration over unordered sets feeding ordered outputs.
# ---------------------------------------------------------------------------

#: Order-insensitive consumers a set may flow into directly.
ORDER_FREE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "any", "all", "set", "frozenset"}
)
#: Consumers that materialise iteration order into an ordered value.
ORDER_MATERIALISERS = frozenset({"list", "tuple", "enumerate"})

_SET_ANNOTATIONS = ("set", "Set", "frozenset", "FrozenSet", "AbstractSet")


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    """Conservatively decide whether an expression evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set",
            "frozenset",
        ):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
            "copy",
        ):
            return _is_set_expr(node.func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


class _ScopeCollector(ast.NodeVisitor):
    """Track names bound to set values within one function/module scope."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.nested: list[ast.AST] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested.append(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.nested.append(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.set_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation) or (
                node.value is not None
                and _is_set_expr(node.value, self.set_names)
            ):
                self.set_names.add(node.target.id)
        self.generic_visit(node)


class Eco004SetIteration(Rule):
    code = "ECO004"
    name = "unordered-iteration"
    description = (
        "No iterating an unordered set (or materialising it with "
        "list()/tuple()) where the order can reach decisions, records, or "
        "reports: str hashing is randomised per process, so set order is "
        "not reproducible across runs. Iterate sorted(...) or keep an "
        "insertion-ordered dict instead. Membership tests and order-free "
        "reductions are fine."
    )
    scope = ("src/",)

    def check(self, tree: ast.AST, relpath: str) -> list[Violation]:
        out: list[Violation] = []
        scopes: list[tuple[ast.AST, set[str]]] = [(tree, set())]
        while scopes:
            scope, inherited = scopes.pop()
            collector = _ScopeCollector()
            body = getattr(scope, "body", [])
            collector.set_names |= inherited
            for stmt in body:
                collector.visit(stmt)
            names = collector.set_names
            for node in self._scope_walk(scope):
                if isinstance(node, ast.For):
                    if _is_set_expr(node.iter, names):
                        out.append(self._flag(node.iter, relpath))
                elif isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    for gen in node.generators:
                        if _is_set_expr(gen.iter, names):
                            out.append(self._flag(gen.iter, relpath))
                elif isinstance(node, ast.Call):
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id in ORDER_MATERIALISERS
                        and node.args
                        and _is_set_expr(node.args[0], names)
                    ):
                        out.append(self._flag(node.args[0], relpath))
            for nested in collector.nested:
                scopes.append((nested, set(names)))
        return out

    @staticmethod
    def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk one scope without descending into nested functions."""
        stack: list[ast.AST] = list(getattr(scope, "body", []))
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    stack.append(child)

    def _flag(self, node: ast.AST, relpath: str) -> Violation:
        return self._violation(
            node,
            relpath,
            "iteration over an unordered set: str hash randomisation makes "
            "the order differ across runs; iterate sorted(...) or an "
            "insertion-ordered dict",
        )


#: Per-file rules in report order (ECO005 is a project-level contract
#: check; see :mod:`tools.ecolint.contracts`).
FILE_RULES: tuple[Rule, ...] = (
    Eco001AmbientRng(),
    Eco002WallClock(),
    Eco003FloatLedger(),
    Eco004SetIteration(),
)
