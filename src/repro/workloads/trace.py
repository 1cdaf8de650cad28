"""Invocation traces: the event stream that drives the simulator.

An :class:`InvocationTrace` is a time-ordered sequence of (timestamp,
function) pairs plus the profile of every function appearing in it. It also
provides the per-function *lookahead index* (``next_arrival``) that the
oracle schedulers use -- the paper's Oracle/CO2-Opt/Service-Time-Opt brute
force "every possible scheduling option for each function invocation",
which requires knowing when each function is invoked next.

Storage is columnar: the hot representation is a pair of parallel arrays
(``times_s: float64``, ``func_ids: int32``) plus an intern table
``names`` mapping ids back to function names. ``func_names`` and
iteration remain as lazy views so generator labels, cache keys, and
subset semantics are unchanged from the list-of-names era. The columns
are what make Azure-day-scale replays (millions of invocations) fit in
commodity memory and stream from disk (:meth:`save` / :meth:`open`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.workloads.functions import FunctionProfile

if TYPE_CHECKING:
    import pathlib


@lru_cache(maxsize=None)
def _crc32(name: str) -> int:
    """CRC32 of the UTF-8 name, memoized per unique function name."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass(frozen=True)
class Invocation:
    """One invocation request: function ``func`` arriving at time ``t``."""

    index: int
    t: float
    func: FunctionProfile


class InvocationTrace:
    """A sorted stream of invocations with per-function views.

    Build with :meth:`from_events`; direct construction expects
    already-sorted data, as either a per-event name list
    (``func_names=``, the legacy interface) or interned id columns
    (``func_ids=``, an int32 index into ``list(functions)``).
    """

    #: The intern table: ``names[func_ids[i]]`` is event *i*'s function.
    #: Always identical to ``list(self.functions)``.
    names: list[str]

    def __init__(
        self,
        functions: dict[str, FunctionProfile],
        times_s: np.ndarray,
        func_names: Sequence[str] | None = None,
        *,
        func_ids: np.ndarray | None = None,
    ) -> None:
        if (func_names is None) == (func_ids is None):
            raise ValueError("provide exactly one of func_names / func_ids")
        self.functions = dict(functions)
        self.names = list(self.functions)
        t = np.asarray(times_s, dtype=float)
        n_events = len(func_names) if func_ids is None else np.asarray(func_ids).size
        if t.ndim != 1 or t.size != n_events:
            raise ValueError("times_s and func_names must have equal length")
        if t.size and np.any(np.diff(t) < 0.0):
            raise ValueError("times_s must be sorted (non-decreasing)")
        if func_ids is None:
            assert func_names is not None
            index = {name: i for i, name in enumerate(self.names)}
            missing = set(func_names) - set(index)
            if missing:
                raise ValueError(
                    f"trace references unknown functions: {sorted(missing)}"
                )
            ids = np.fromiter(
                (index[n] for n in func_names),
                dtype=np.int32,
                count=len(func_names),
            )
        else:
            ids = np.asarray(func_ids, dtype=np.int32)
            if ids.ndim != 1:
                raise ValueError("func_ids must be one-dimensional")
            if ids.size and (
                int(ids.min()) < 0 or int(ids.max()) >= len(self.names)
            ):
                raise ValueError(
                    "func_ids reference ids outside the intern table"
                )
        self.times_s = t
        self.func_ids = ids
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._func_names: list[str] | None = None
        #: Lazily-built per-function time index; building on first access
        #: keeps constructions that never look it up (e.g. ``subset``
        #: chains over generated traces) O(n) instead of O(n + functions).
        self._per_func_times: dict[str, np.ndarray] | None = None

    # -- back-compat views ----------------------------------------------------

    @property
    def func_names(self) -> list[str]:
        """Per-event function names, materialized lazily from the columns."""
        if self._func_names is None:
            names = self.names
            self._func_names = [names[i] for i in self.func_ids.tolist()]
        return self._func_names

    @property
    def _per_func(self) -> dict[str, np.ndarray]:
        """The per-function index, built on first use via one argsort.

        Every function of the trace gets an entry -- functions with zero
        invocations (produced e.g. by low-rate generators or churn
        windows) map to an empty array, so lookups stay consistent
        across ``subset`` round trips.
        """
        if self._per_func_times is None:
            order = np.argsort(self.func_ids, kind="stable")
            sorted_ids = self.func_ids[order]
            sorted_times = self.times_s[order]
            # Arrivals are time-sorted and the argsort is stable, so each
            # function's slice keeps its original arrival order.
            sorted_times.flags.writeable = False
            bounds = np.searchsorted(
                sorted_ids, np.arange(len(self.names) + 1, dtype=np.int32)
            )
            self._per_func_times = {
                name: sorted_times[bounds[i] : bounds[i + 1]]
                for i, name in enumerate(self.names)
            }
        return self._per_func_times

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_events(
        cls,
        events: Iterable[tuple[float, FunctionProfile]],
        functions: Iterable[FunctionProfile] | None = None,
    ) -> "InvocationTrace":
        """Build a trace from (time, profile) pairs (sorted internally)."""
        ev = sorted(events, key=lambda e: e[0])
        funcs: dict[str, FunctionProfile] = {}
        if functions is not None:
            funcs.update({f.name: f for f in functions})
        for _, f in ev:
            existing = funcs.setdefault(f.name, f)
            if existing is not f and existing != f:
                raise ValueError(f"conflicting profiles for function {f.name!r}")
        index = {name: i for i, name in enumerate(funcs)}
        return cls(
            functions=funcs,
            times_s=np.array([t for t, _ in ev], dtype=float),
            func_ids=np.fromiter(
                (index[f.name] for _, f in ev), dtype=np.int32, count=len(ev)
            ),
        )

    # -- persistence ----------------------------------------------------------

    def save(self, path: "str | pathlib.Path", *, compress: bool = False) -> None:
        """Write the columnar on-disk format (see ``workloads/tracefile.py``).

        Uncompressed by default so :meth:`open` can memory-map the event
        columns; ``compress=True`` trades the mmap fast path for a
        smaller archival file.
        """
        from repro.workloads.tracefile import save_trace

        save_trace(self, path, compress=compress)

    @classmethod
    def open(
        cls, path: "str | pathlib.Path", *, mmap: bool = True
    ) -> "InvocationTrace":
        """Reopen a saved trace, memory-mapping the event columns.

        With ``mmap=True`` (and an uncompressed file) the ``times_s`` /
        ``func_ids`` columns are OS page-cache backed: a replay's
        resident set stays far below a fully materialized Python trace.
        """
        from repro.workloads.tracefile import open_trace

        return open_trace(path, mmap=mmap)

    def __getstate__(self) -> dict:
        # Materialize any memory-mapped columns and drop caches: a
        # pickled trace (e.g. a sweep job sent to a pool worker) must be
        # self-contained and as small as the columns themselves.
        return {
            "functions": self.functions,
            "times_s": np.asarray(self.times_s),
            "func_ids": np.asarray(self.func_ids),
        }

    def __setstate__(self, state: dict) -> None:
        self.functions = state["functions"]
        self.names = list(self.functions)
        self.times_s = state["times_s"]
        self.func_ids = state["func_ids"]
        self._reset_caches()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvocationTrace):
            return NotImplemented
        return (
            self.functions == other.functions
            and self.names == other.names
            and np.array_equal(self.times_s, other.times_s)
            and np.array_equal(self.func_ids, other.func_ids)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass era

    def __repr__(self) -> str:
        return (
            f"InvocationTrace(functions={len(self.functions)}, "
            f"events={len(self)}, duration_s={self.duration_s:g})"
        )

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return int(self.times_s.size)

    def __iter__(self) -> Iterator[Invocation]:
        profiles = [self.functions[n] for n in self.names]
        for i, (t, fid) in enumerate(
            zip(self.times_s.tolist(), self.func_ids.tolist())
        ):
            yield Invocation(index=i, t=t, func=profiles[fid])

    @property
    def duration_s(self) -> float:
        """Span from time zero to the last invocation."""
        return float(self.times_s[-1]) if len(self) else 0.0

    def invocation_counts(self) -> dict[str, int]:
        """Number of invocations per function (zero-invocation ones included)."""
        counts = np.bincount(self.func_ids, minlength=len(self.names))
        return dict(zip(self.names, (int(c) for c in counts)))

    def times_of(self, name: str) -> np.ndarray:
        """All invocation times of one function (empty if it never arrives)."""
        if name not in self.functions:
            raise KeyError(f"unknown function {name!r}")
        return self._per_func[name]

    def interarrival_s(self, name: str) -> np.ndarray:
        """Observed inter-arrival times of one function (may be empty)."""
        return np.diff(self.times_of(name))

    # -- lookahead (oracle) ----------------------------------------------------

    def next_arrival(self, name: str, after_t: float) -> float | None:
        """First invocation of ``name`` strictly after ``after_t`` (or None)."""
        ts = self._per_func.get(name)
        if ts is None or not ts.size:
            return None
        i = int(np.searchsorted(ts, after_t, side="right"))
        return float(ts[i]) if i < ts.size else None

    # -- aggregate statistics (used by DPSO's dF perception and reports) ------

    def rate_per_minute(self, t: float, window_s: float = 60.0) -> float:
        """Invocations per minute over ``[t - window_s, t]``."""
        if window_s <= 0.0:
            return 0.0
        # The method, not np.searchsorted: the wrapper's dispatch costs
        # more than the search on this per-decision path.
        lo = int(self.times_s.searchsorted(t - window_s, side="right"))
        hi = int(self.times_s.searchsorted(t, side="right"))
        return (hi - lo) * 60.0 / window_s

    def subset(self, names: Iterable[str]) -> "InvocationTrace":
        """Restrict the trace to a set of functions (keeps ordering)."""
        keep = set(names)
        functions = {n: f for n, f in self.functions.items() if n in keep}
        keep_table = np.fromiter(
            (n in keep for n in self.names), dtype=bool, count=len(self.names)
        )
        mask = keep_table[self.func_ids]
        new_index = {n: i for i, n in enumerate(functions)}
        remap = np.fromiter(
            (new_index.get(n, -1) for n in self.names),
            dtype=np.int32,
            count=len(self.names),
        )
        return InvocationTrace(
            functions=functions,
            times_s=self.times_s[mask],
            func_ids=remap[self.func_ids[mask]],
        )
