"""ECO005 -- project-level archive-completeness contracts.

Unlike the per-file rules, these checks read *specific* project files and
cross-check structures against each other: a new mutable per-swarm field
in ``SwarmFleet`` that is not snapshotted by ``SwarmArchive`` (and
restored by ``rehydrate``) is a latent rehydration bug, and this pass
turns it into a lint error at commit time instead.

The anchor is ``SwarmFleet._ARCHIVE_PLAN`` -- a declarative map from
every stacked-state array to the :class:`SwarmArchive` field that
round-trips it (or ``None`` with a stated reason for bookkeeping-only
state such as slot occupancy). The checks enforce that the plan, the
stacked-state registry, the archive dataclass, ``retire()``'s snapshot
call, and ``rehydrate()``'s restore assignments all agree.

The same pass covers the arrival-estimator shelf: ``ArrivalRegistry``'s
peek (``get``) and ``revive`` paths must consult the ``_archived`` shelf.

Each check takes raw source text so the rule-regression suite can feed
synthetic violations; :func:`project_violations` wires them to the real
files and silently skips any that do not exist (the tool stays usable on
partial checkouts).
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.ecolint.violations import Violation

CODE = "ECO005"

#: Archive fields that are not stacked-array round-trips (checked
#: separately): the serialised RNG stream state.
_NON_STACKED_FIELDS = frozenset({"bit_generator_state"})


def _violation(node: ast.AST | None, relpath: str, message: str) -> Violation:
    return Violation(
        code=CODE,
        path=relpath,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def _find_class(tree: ast.AST, name: str) -> ast.ClassDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _class_dict(
    cls: ast.ClassDef, attr: str
) -> tuple[ast.AST, dict[str, ast.AST]] | None:
    """Locate ``attr = {...}`` / ``attr: T = {...}`` in a class body."""
    for node in cls.body:
        value: ast.AST | None = None
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == attr for t in node.targets
            ):
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == attr:
                value = node.value
        if isinstance(value, ast.Dict):
            out: dict[str, ast.AST] = {}
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    out[key.value] = val
            return node, out
    return None


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    return [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _self_attrs(fn: ast.FunctionDef) -> set[str]:
    """Every ``self.<attr>`` referenced anywhere in a method."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return out


def check_swarm_archive(
    source: str, relpath: str = "src/repro/optimizers/batch.py"
) -> list[Violation]:
    """Cross-check SwarmFleet stacked state against the archive plan.

    Enforced agreement: ``_ARCHIVE_PLAN`` keys == ``_STACKED_STATE``
    keys; every planned archive field exists on :class:`SwarmArchive`,
    is snapshotted by ``retire()``'s ``SwarmArchive(...)`` call, and is
    restored onto the planned stacked array in ``rehydrate()``; the RNG
    stream state round-trips; and no archive field is orphaned (held but
    never planned -- dead weight that hides a mapping mistake).
    """
    tree = ast.parse(source)
    fleet = _find_class(tree, "SwarmFleet")
    archive_cls = _find_class(tree, "SwarmArchive")
    if fleet is None or archive_cls is None:
        return [
            _violation(
                None,
                relpath,
                "expected SwarmFleet and SwarmArchive classes for the "
                "archive-completeness contract; found neither/only one",
            )
        ]
    out: list[Violation] = []

    stacked = _class_dict(fleet, "_STACKED_STATE")
    plan = _class_dict(fleet, "_ARCHIVE_PLAN")
    if stacked is None:
        return [
            _violation(
                fleet, relpath, "SwarmFleet has no _STACKED_STATE registry"
            )
        ]
    if plan is None:
        return [
            _violation(
                fleet,
                relpath,
                "SwarmFleet has no _ARCHIVE_PLAN: every stacked array must "
                "declare the SwarmArchive field that round-trips it (or "
                "None for bookkeeping-only state)",
            )
        ]
    stacked_node, stacked_items = stacked
    plan_node, plan_items = plan

    for name in stacked_items:
        if name not in plan_items:
            out.append(
                _violation(
                    plan_node,
                    relpath,
                    f"stacked array {name!r} is missing from _ARCHIVE_PLAN: "
                    "declare which SwarmArchive field checkpoints it (or "
                    "None if it is bookkeeping-only)",
                )
            )
    for name in plan_items:
        if name not in stacked_items:
            out.append(
                _violation(
                    plan_node,
                    relpath,
                    f"_ARCHIVE_PLAN entry {name!r} has no matching "
                    "_STACKED_STATE array; remove the stale entry",
                )
            )

    archive_fields = _dataclass_fields(archive_cls)
    planned_fields: dict[str, str] = {}
    for name, value in plan_items.items():
        if isinstance(value, ast.Constant) and value.value is None:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            planned_fields[name] = value.value
        else:
            out.append(
                _violation(
                    plan_node,
                    relpath,
                    f"_ARCHIVE_PLAN[{name!r}] must be a SwarmArchive field "
                    "name literal or None",
                )
            )
    for name, field in sorted(planned_fields.items()):
        if field not in archive_fields:
            out.append(
                _violation(
                    plan_node,
                    relpath,
                    f"_ARCHIVE_PLAN maps {name!r} to {field!r}, which is "
                    "not a SwarmArchive field",
                )
            )
    for field in archive_fields:
        if field in _NON_STACKED_FIELDS:
            continue
        if field not in planned_fields.values():
            out.append(
                _violation(
                    archive_cls,
                    relpath,
                    f"SwarmArchive.{field} is not the target of any "
                    "_ARCHIVE_PLAN entry: either map a stacked array to it "
                    "or delete the orphan field",
                )
            )

    # retire() must snapshot every planned field (plus the RNG state).
    retire = _find_method(fleet, "retire")
    if retire is None:
        out.append(_violation(fleet, relpath, "SwarmFleet has no retire()"))
    else:
        kwargs: set[str] = set()
        call_node: ast.Call | None = None
        for node in ast.walk(retire):
            if isinstance(node, ast.Call):
                func = node.func
                fname = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None)
                )
                if fname == "SwarmArchive":
                    call_node = node
                    kwargs = {k.arg for k in node.keywords if k.arg}
        if call_node is None:
            out.append(
                _violation(
                    retire,
                    relpath,
                    "retire() never constructs a SwarmArchive snapshot",
                )
            )
        else:
            for field in sorted(
                set(planned_fields.values()) | _NON_STACKED_FIELDS
            ):
                if field not in kwargs:
                    out.append(
                        _violation(
                            call_node,
                            relpath,
                            f"retire() does not snapshot {field!r} into the "
                            "SwarmArchive: a rehydrated swarm would resume "
                            "with stale state",
                        )
                    )

    # rehydrate() must restore every planned stacked array from its field.
    rehydrate = _find_method(fleet, "rehydrate")
    if rehydrate is None:
        out.append(_violation(fleet, relpath, "SwarmFleet has no rehydrate()"))
    else:
        arg_names = [a.arg for a in rehydrate.args.args if a.arg != "self"]
        archive_arg = arg_names[0] if arg_names else "archive"
        reads: set[str] = set()
        restored: set[str] = set()
        for node in ast.walk(rehydrate):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == archive_arg
            ):
                reads.add(node.attr)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and isinstance(target.value.value, ast.Name)
                        and target.value.value.id == "self"
                    ):
                        restored.add(target.value.attr)
        for name, field in sorted(planned_fields.items()):
            if field not in reads:
                out.append(
                    _violation(
                        rehydrate,
                        relpath,
                        f"rehydrate() never reads {archive_arg}.{field}; "
                        f"stacked array {name!r} would keep the previous "
                        "occupant's state",
                    )
                )
            if name not in restored:
                out.append(
                    _violation(
                        rehydrate,
                        relpath,
                        f"rehydrate() never assigns self.{name}[...]; the "
                        f"archived {field!r} value is not restored",
                    )
                )
        if "bit_generator_state" not in reads:
            out.append(
                _violation(
                    rehydrate,
                    relpath,
                    f"rehydrate() never reads {archive_arg}."
                    "bit_generator_state: the swarm's private RNG stream "
                    "would not resume bit-identically",
                )
            )
    return out


def check_estimator_shelf(
    source: str, relpath: str = "src/repro/core/arrival.py"
) -> list[Violation]:
    """ArrivalRegistry's read paths must cover the retirement shelf.

    ``get`` (the peek-without-revive path) and ``revive`` must consult
    the ``_archived`` shelf; a reader that misses it silently resurrects
    a fresh prior-only estimator and the warm replay diverges from the
    never-retired run.
    """
    tree = ast.parse(source)
    registry = _find_class(tree, "ArrivalRegistry")
    if registry is None:
        return [
            _violation(
                None, relpath, "expected an ArrivalRegistry class to check"
            )
        ]
    out: list[Violation] = []
    for method_name in ("get", "revive"):
        method = _find_method(registry, method_name)
        if method is None:
            out.append(
                _violation(
                    registry,
                    relpath,
                    f"ArrivalRegistry has no {method_name}() method",
                )
            )
            continue
        if "_archived" not in _self_attrs(method):
            out.append(
                _violation(
                    method,
                    relpath,
                    f"ArrivalRegistry.{method_name}() never consults the "
                    "_archived shelf: retired estimators would be invisible "
                    "to this read path",
                )
            )
    return out


#: (relative path, checker) pairs run by :func:`project_violations`.
PROJECT_CHECKS = (
    ("src/repro/optimizers/batch.py", check_swarm_archive),
    ("src/repro/core/arrival.py", check_estimator_shelf),
)


def project_violations(root: Path) -> list[Violation]:
    """Run every contract check that has its target file present."""
    out: list[Violation] = []
    for relpath, checker in PROJECT_CHECKS:
        path = root / relpath
        if not path.is_file():
            continue
        out.extend(checker(path.read_text(encoding="utf-8"), relpath))
    return out
