"""Per-invocation records and aggregated simulation results.

Every invocation produces one :class:`InvocationRecord` holding its service
time split and its carbon split. Keep-alive carbon is attributed to the
invocation that *decided* the keep-alive (that is the quantity the paper's
objective charges per function), so records are appended at execution time
and updated when their keep-alive segment closes.
"""

from __future__ import annotations

import math
import os
import pathlib
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.carbon.footprint import ZERO_CARBON, CarbonBreakdown
from repro.hardware.specs import Generation


@dataclass
class KeepAliveDecision:
    """Output of a scheduler's keep-alive decision.

    ``duration_s == 0`` means "do not keep alive" (the paper's third option
    besides the two hardware generations).
    """

    location: Generation
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s < 0.0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")

    @classmethod
    def none(cls) -> "KeepAliveDecision":
        """The "no keep-alive" decision."""
        return cls(location=Generation.NEW, duration_s=0.0)


@dataclass
class InvocationRecord:
    """Everything measured about one invocation."""

    index: int
    t: float
    func_name: str
    mem_gb: float
    location: Generation
    cold: bool
    setup_s: float
    cold_overhead_s: float
    exec_s: float
    service_carbon: CarbonBreakdown
    service_energy_wh: float
    keepalive_decision: KeepAliveDecision | None = None
    keepalive_carbon: CarbonBreakdown = ZERO_CARBON
    keepalive_energy_wh: float = 0.0
    keepalive_s: float = 0.0
    evicted: bool = False
    spilled: bool = False
    dropped: bool = False  # keep-alive wish could not be honoured at all
    #: Scheduler wall time charged to this invocation: its own ``place``
    #: call, plus an equal share (wall / group size) of the one
    #: ``keepalive_batch`` call that decided its group, plus any
    #: adjustment ranking its container triggered. Shares of a group sum
    #: to that call's wall, so ``total_decision_wall_s`` is the sum of
    #: all timed scheduler calls; a per-record value is a latency only
    #: for a group of one.
    decision_wall_s: float = 0.0

    @property
    def service_s(self) -> float:
        """Service time: cold-start overhead + setup + execution."""
        return self.cold_overhead_s + self.setup_s + self.exec_s

    @property
    def carbon_g(self) -> float:
        """Total attributed carbon: service + decided keep-alive."""
        return self.service_carbon.total + self.keepalive_carbon.total

    @property
    def energy_wh(self) -> float:
        return self.service_energy_wh + self.keepalive_energy_wh

    def add_keepalive(
        self, carbon: CarbonBreakdown, energy_wh: float, duration_s: float
    ) -> None:
        """Accrue one closed keep-alive segment onto this record."""
        self.keepalive_carbon = self.keepalive_carbon + carbon
        self.keepalive_energy_wh += energy_wh
        self.keepalive_s += duration_s


def _unicode_column(values: "Sequence[str] | np.ndarray") -> np.ndarray:
    """Build a unicode column with a non-degenerate dtype.

    A zero-invocation scenario yields an empty string column whose
    natural dtype is ``<U0`` (itemsize 0, numpy-version dependent); such
    arrays do not survive an ``.npz`` round trip with dtype equality, so
    persistence of empty traces would break cache comparisons. Normalise
    to ``<U1`` -- the values are unchanged (there are none).
    """
    arr = np.asarray(values, dtype=np.str_)
    if arr.dtype.itemsize == 0:
        arr = arr.astype("<U1")
    return arr


@dataclass(frozen=True)
class RecordArrays:
    """Per-invocation records as flat numpy arrays.

    The compact columnar form of ``SimulationResult.records`` used for
    persistence (compressed ``.npz`` next to the sweep runner's JSON
    summaries) and for CDF-style analyses over scenario grids. All
    arrays share one length (the invocation count); invocation *i* is
    the same row in every array.
    """

    t: np.ndarray  # arrival time (s)
    service_s: np.ndarray  # cold overhead + setup + execution
    carbon_g: np.ndarray  # attributed carbon: service + decided keep-alive
    energy_wh: np.ndarray
    keepalive_s: np.ndarray  # accrued keep-alive of the decision
    cold: np.ndarray  # bool: cold start?
    location: np.ndarray  # unicode: Generation value ("old"/"new")
    func_name: np.ndarray  # unicode

    def __post_init__(self) -> None:
        sizes = {f.name: getattr(self, f.name).shape for f in fields(self)}
        if len(set(sizes.values())) > 1:
            raise ValueError(f"record arrays must share one shape, got {sizes}")

    def __len__(self) -> int:
        return int(self.t.size)

    @classmethod
    def from_result(cls, result: "SimulationResult") -> "RecordArrays":
        rs = result.records
        return cls(
            t=np.array([r.t for r in rs], dtype=float),
            service_s=np.array([r.service_s for r in rs], dtype=float),
            carbon_g=np.array([r.carbon_g for r in rs], dtype=float),
            energy_wh=np.array([r.energy_wh for r in rs], dtype=float),
            keepalive_s=np.array([r.keepalive_s for r in rs], dtype=float),
            cold=np.array([r.cold for r in rs], dtype=bool),
            location=_unicode_column([r.location.value for r in rs]),
            func_name=_unicode_column([r.func_name for r in rs]),
        )

    # -- persistence ---------------------------------------------------------

    def to_npz(self, path: str | os.PathLike) -> None:
        """Write all columns as one compressed ``.npz`` (atomic rename)."""
        path = pathlib.Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh, **{f.name: getattr(self, f.name) for f in fields(self)}
            )
        tmp.replace(path)

    @classmethod
    def from_npz(cls, path: str | os.PathLike) -> "RecordArrays":
        with np.load(path) as data:
            cols = {f.name: data[f.name] for f in fields(cls)}
        # Normalise degenerate unicode dtypes written by older numpy so a
        # loaded empty trace compares dtype-equal to a freshly-built one.
        for key in ("location", "func_name"):
            cols[key] = _unicode_column(cols[key])
        return cls(**cols)


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run."""

    scheduler_name: str
    records: list[InvocationRecord]
    horizon_s: float
    wall_time_s: float = 0.0
    meta: dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    # -- arrays ---------------------------------------------------------------

    def service_times(self) -> np.ndarray:
        return np.array([r.service_s for r in self.records], dtype=float)

    def carbon_per_invocation(self) -> np.ndarray:
        return np.array([r.carbon_g for r in self.records], dtype=float)

    def record_arrays(self) -> RecordArrays:
        """Columnar view of all records (persistence / CDF analyses)."""
        return RecordArrays.from_result(self)

    # -- scalars ----------------------------------------------------------------
    #
    # Totals use ``math.fsum``: correctly-rounded summation, so the
    # result is a function of the record *multiset* only -- the order in
    # which records were appended can never perturb a float total. Plain
    # left-to-right ``sum`` would tie every reported figure to one
    # accumulation order.

    @property
    def total_service_s(self) -> float:
        return math.fsum(r.service_s for r in self.records)

    @property
    def mean_service_s(self) -> float:
        if not self.records:
            return 0.0
        return self.total_service_s / len(self.records)

    @property
    def p95_service_s(self) -> float:
        if not self.records:
            return 0.0
        return float(np.percentile(self.service_times(), 95))

    @property
    def total_carbon_g(self) -> float:
        return math.fsum(r.carbon_g for r in self.records)

    @property
    def total_energy_wh(self) -> float:
        return math.fsum(r.energy_wh for r in self.records)

    @property
    def total_service_carbon_g(self) -> float:
        return math.fsum(r.service_carbon.total for r in self.records)

    @property
    def total_keepalive_carbon_g(self) -> float:
        return math.fsum(r.keepalive_carbon.total for r in self.records)

    @property
    def total_operational_g(self) -> float:
        return math.fsum(
            r.service_carbon.operational + r.keepalive_carbon.operational
            for r in self.records
        )

    @property
    def total_embodied_g(self) -> float:
        return math.fsum(
            r.service_carbon.embodied + r.keepalive_carbon.embodied
            for r in self.records
        )

    @property
    def warm_ratio(self) -> float:
        if not self.records:
            return 0.0
        return sum(0 if r.cold else 1 for r in self.records) / len(self.records)

    @property
    def evicted_count(self) -> int:
        """Containers dropped (or force-closed) by warm-pool pressure."""
        return sum(1 for r in self.records if r.evicted)

    @property
    def spilled_count(self) -> int:
        """Keep-alive decisions honoured on the *other* generation's pool."""
        return sum(1 for r in self.records if r.spilled)

    @property
    def dropped_count(self) -> int:
        return sum(1 for r in self.records if r.dropped)

    @property
    def total_decision_wall_s(self) -> float:
        return math.fsum(r.decision_wall_s for r in self.records)

    def location_counts(self) -> dict[Generation, int]:
        """How many executions landed on each generation."""
        counts = {g: 0 for g in Generation}
        for r in self.records:
            counts[r.location] += 1
        return counts

    # -- reporting -------------------------------------------------------------

    def summary(self) -> str:
        """One human-readable block, used by examples and the CLI."""
        locs = self.location_counts()
        lines = [
            f"scheduler           : {self.scheduler_name}",
            f"invocations         : {len(self.records)}",
            f"mean service time   : {self.mean_service_s:.3f} s "
            f"(p95 {self.p95_service_s:.3f} s)",
            f"warm-start ratio    : {self.warm_ratio * 100.0:.1f} %",
            f"total carbon        : {self.total_carbon_g:.3f} g "
            f"(service {self.total_service_carbon_g:.3f}, "
            f"keep-alive {self.total_keepalive_carbon_g:.3f})",
            f"  operational       : {self.total_operational_g:.3f} g",
            f"  embodied          : {self.total_embodied_g:.3f} g",
            f"total energy        : {self.total_energy_wh:.2f} Wh",
            f"executions old/new  : {locs[Generation.OLD]}/{locs[Generation.NEW]}",
            f"evicted / spilled   : {self.evicted_count} / {self.spilled_count}",
            f"dropped keep-alives : {self.dropped_count}",
            f"decision overhead   : {self.total_decision_wall_s * 1000.0:.1f} ms wall",
        ]
        return "\n".join(lines)
