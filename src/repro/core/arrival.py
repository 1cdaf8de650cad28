"""Per-function arrival statistics.

The KDM's objective needs, for every candidate keep-alive period ``k``:

- ``P(warm | k)`` -- the probability the next invocation lands inside the
  keep-alive window, i.e. ``P(IAT <= k)``;
- ``E[min(IAT, k)]`` -- the expected keep-alive duration actually accrued
  (a warm hit ends the window early).

Both come from the empirical inter-arrival distribution of the function's
recent history ("different serverless functions need to be kept alive for
different amounts of time depending on a function's arrival probability",
Sec. I). With little history the estimator blends in an exponential prior
so brand-new functions get sensible keep-alive decisions instead of
extremes.

The KDM asks each estimator once per decision, on the whole K_AT grid
(:meth:`repro.core.objective.ObjectiveBuilder.objective_table`); the
swarm then searches that decision's table, so the queries are not
repeated per particle or per iteration.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence, cast

import numpy as np
import numpy.typing as npt

from repro.core.spill import ArchiveSpill


class ArrivalEstimator:
    """Sliding-window empirical IAT distribution for one function."""

    def __init__(
        self,
        history: int = 64,
        prior_mean_iat_s: float = 600.0,
        prior_strength: float = 2.0,
    ) -> None:
        if history < 2:
            raise ValueError("history must be >= 2")
        if prior_mean_iat_s <= 0.0:
            raise ValueError("prior_mean_iat_s must be > 0")
        if prior_strength < 0.0:
            raise ValueError("prior_strength must be >= 0")
        self.history = history
        self.prior_mean = prior_mean_iat_s
        self.prior_strength = prior_strength
        self._iats: deque[float] = deque(maxlen=history)
        self._last_arrival: float | None = None
        self._sorted: np.ndarray | None = None
        self._prefix: np.ndarray | None = None

    # -- observation ----------------------------------------------------------

    def observe(self, t: float) -> None:
        """Record an invocation arrival at time ``t``."""
        if self._last_arrival is not None:
            iat = t - self._last_arrival
            if iat < 0.0:
                raise ValueError("arrivals must be observed in time order")
            self._iats.append(iat)
            self._sorted = None  # invalidate cache
        self._last_arrival = t

    def observe_many(self, times: npt.ArrayLike) -> None:
        """Record a sorted run of arrivals in one call.

        Bit-identical to calling :meth:`observe` per instant: the gaps
        are float64 differences of the same operands (IEEE subtraction
        does not care whether the operands were boxed), appended as
        Python floats so the deque state -- including pickle/checkpoint
        round trips -- matches the per-event path exactly.
        """
        if isinstance(times, np.ndarray) and times.size > 32:
            ts = times.astype(float, copy=False)
            gaps_arr = (
                np.diff(ts)
                if self._last_arrival is None
                else np.concatenate(
                    ([float(ts[0]) - self._last_arrival], np.diff(ts))
                )
            )
            if gaps_arr.size and float(gaps_arr.min()) < 0.0:
                raise ValueError("arrivals must be observed in time order")
            if gaps_arr.size:
                # Only the trailing window survives the deque's maxlen.
                self._iats.extend(gaps_arr[-self.history :].tolist())
                self._sorted = None
            self._last_arrival = float(ts[-1])
            return
        # Short runs (the common sharded-replay chunk is a handful of
        # instants) skip ndarray round trips: float64 subtraction gives
        # the same IEEE doubles whether or not the operands were boxed.
        ts_list = times if type(times) is list else [float(t) for t in times]
        if not ts_list:
            return
        if len(ts_list) == 1:
            self.observe(ts_list[0])
            return
        prev = self._last_arrival
        if prev is None:
            prev = ts_list[0]
            rest = ts_list[1:]
        else:
            rest = ts_list
        gaps = []
        for t in rest:
            gaps.append(t - prev)
            prev = t
        if gaps and min(gaps) < 0.0:
            raise ValueError("arrivals must be observed in time order")
        if gaps:
            self._iats.extend(gaps[-self.history :])
            self._sorted = None
        self._last_arrival = ts_list[-1]

    @property
    def n_samples(self) -> int:
        return len(self._iats)

    @property
    def mean_iat_s(self) -> float:
        """Blended mean inter-arrival time (prior + observations)."""
        n = self.n_samples
        if n == 0:
            return self.prior_mean
        emp = float(np.mean(self._iats))
        w = n / (n + self.prior_strength)
        return w * emp + (1.0 - w) * self.prior_mean

    # -- queries (vectorised over candidate keep-alive periods) ---------------

    def _ensure_cache(self) -> None:
        if self._sorted is None:
            arr = np.sort(np.asarray(self._iats, dtype=float))
            self._sorted = arr
            self._prefix = np.concatenate(([0.0], np.cumsum(arr)))

    def p_warm(self, k_s: npt.ArrayLike) -> np.ndarray:
        """P(next IAT <= k) for an array of keep-alive periods (seconds)."""
        k = np.atleast_1d(np.asarray(k_s, dtype=float))
        prior = 1.0 - np.exp(-k / self.prior_mean)
        n = self.n_samples
        if n == 0:
            return prior
        self._ensure_cache()
        assert self._sorted is not None
        emp = np.searchsorted(self._sorted, k, side="right") / n
        w = n / (n + self.prior_strength)
        return w * emp + (1.0 - w) * prior

    def expected_keepalive_s(self, k_s: npt.ArrayLike) -> np.ndarray:
        """E[min(IAT, k)] for an array of keep-alive periods (seconds)."""
        k = np.atleast_1d(np.asarray(k_s, dtype=float))
        # Exponential prior: E[min(X, k)] = mean * (1 - exp(-k/mean)).
        prior = self.prior_mean * (1.0 - np.exp(-k / self.prior_mean))
        n = self.n_samples
        if n == 0:
            return prior
        self._ensure_cache()
        assert self._sorted is not None and self._prefix is not None
        idx = np.searchsorted(self._sorted, k, side="right")
        below_sum = self._prefix[idx]
        above_count = n - idx
        emp = (below_sum + k * above_count) / n
        w = n / (n + self.prior_strength)
        return w * emp + (1.0 - w) * prior


class ArrivalRegistry:
    """One :class:`ArrivalEstimator` per function, with a retirement shelf.

    The KDM's state-retirement sweep moves idle functions' estimators to
    an internal archive (:meth:`retire`) and brings them back when the
    function reappears (:meth:`revive`). :meth:`get` *peeks* at archived
    estimators without reviving them: readers that consult a retired
    function's history -- e.g. the warm-pool adjuster ranking a container
    that outlived its function's last decision -- see exactly the data a
    never-retired run would, which keeps overflow rankings bit-identical,
    without promoting the function back to the live ledger.

    When constructed with a ``spill`` store, the shelf itself is bounded:
    once more than ``spill_after`` estimators are archived, the
    least-recently-shelved overflow to disk. Estimators pickle exactly
    (a float deque plus cached numpy arrays), so a spilled history read
    back through :meth:`get` or :meth:`revive` is bit-identical to one
    that never left memory -- the peek path *reads through* the spill
    tier, parking the loaded estimator back on the in-memory shelf
    (most-recent, so it does not bounce straight back out) without
    promoting the function to the live ledger.
    """

    def __init__(
        self,
        history: int = 64,
        prior_mean_iat_s: float = 600.0,
        prior_strength: float = 2.0,
        spill: ArchiveSpill | None = None,
        spill_after: int = 256,
    ) -> None:
        if spill_after < 0:
            raise ValueError("spill_after must be >= 0")
        self._kw: dict[str, Any] = dict(
            history=history,
            prior_mean_iat_s=prior_mean_iat_s,
            prior_strength=prior_strength,
        )
        self._by_name: dict[str, ArrivalEstimator] = {}
        self._archived: dict[str, ArrivalEstimator] = {}
        self._spill = spill
        self._spill_after = spill_after

    def get(self, name: str) -> ArrivalEstimator:
        est = self._by_name.get(name)
        if est is None:
            # Read-only peek at archived history; revival is the KDM's
            # call (on the function's next arrival/decision).
            est = self._archived.get(name)
            if est is None and self._spill is not None and name in self._spill:
                # Peek-through: load the spilled history back onto the
                # in-memory shelf (still archived, not revived).
                est = cast(ArrivalEstimator, self._spill.take(name))
                self._archived[name] = est
                self._maybe_spill()
            if est is None:
                est = ArrivalEstimator(**self._kw)
                self._by_name[name] = est
        return est

    def p_warm_each(self, names: Sequence[str], k_s: Sequence[float]) -> np.ndarray:
        """``get(names[i]).p_warm([k_s[i]])[0]`` for every ``i``, in one pass.

        The warm-pool adjuster's arrival mass: one period per function (a
        container's remaining lifetime), not the K_AT grid. Estimators
        are fetched through :meth:`get` -- peek, spill read-through and
        create-on-miss as for a single query -- and each answers with one
        ``searchsorted``; the exponential prior is one ``np.exp`` over the
        whole vector. An empty history blends with ``w = 0``, and
        ``0.0 * 0.0 + 1.0 * prior`` is the scalar path's bare ``prior``,
        so every element equals the scalar query bit for bit.
        """
        prior_mean: list[float] = []
        emp: list[float] = []
        w: list[float] = []
        for name, k in zip(names, k_s):
            est = self.get(name)
            prior_mean.append(est.prior_mean)
            n = est.n_samples
            if n:
                est._ensure_cache()
                assert est._sorted is not None
                emp.append(int(est._sorted.searchsorted(k, side="right")) / n)
                w.append(n / (n + est.prior_strength))
            else:
                emp.append(0.0)
                w.append(0.0)
        prior = 1.0 - np.exp(-np.asarray(k_s, dtype=float) / np.array(prior_mean))
        w_arr = np.array(w)
        return w_arr * np.array(emp) + (1.0 - w_arr) * prior

    def observe(self, name: str, t: float) -> ArrivalEstimator:
        est = self.get(name)
        est.observe(t)
        return est

    def retire(self, name: str) -> None:
        """Shelve one function's estimator (state-retirement sweep).

        No-op if the function was never observed. The estimator object
        and its history survive untouched; only the live ledger shrinks.
        With a spill store attached, shelf overflow goes to disk.
        """
        est = self._by_name.pop(name, None)
        if est is not None:
            self._archived[name] = est
            self._maybe_spill()

    def revive(self, name: str) -> None:
        """Promote a shelved estimator back to the live ledger
        (rehydration). No-op if nothing is archived under ``name``
        in either shelf tier."""
        est = self._archived.pop(name, None)
        if est is None and self._spill is not None and name in self._spill:
            est = cast(ArrivalEstimator, self._spill.take(name))
        if est is not None:
            self._by_name[name] = est

    def export_shelf(self) -> dict[str, ArrivalEstimator]:
        """Every estimator (live, shelved, and spilled), for checkpoints.

        Non-destructive: spilled estimators are peeked, not taken, so
        the spill tier (which may sit on a checkpoint directory) keeps
        its records. Deterministic dict order: live ledger, in-memory
        shelf, then disk, each in insertion order.
        """
        out: dict[str, ArrivalEstimator] = dict(self._by_name)
        out.update(self._archived)
        if self._spill is not None:
            for name in self._spill.names():
                if name not in out:
                    out[name] = cast(ArrivalEstimator, self._spill.peek(name))
        return out

    def import_shelved(self, name: str, est: ArrivalEstimator) -> None:
        """Adopt one estimator onto the shelf (checkpoint restore).

        It stays archived -- exactly the state after a retirement sweep
        -- and revives through the normal path on the function's next
        arrival. Overflow spills to disk as usual.
        """
        if name in self._by_name or name in self._archived or (
            self._spill is not None and name in self._spill
        ):
            raise ValueError(f"estimator already present: {name!r}")
        self._archived[name] = est
        self._maybe_spill()

    def _maybe_spill(self) -> None:
        """Move least-recently-shelved estimators to disk past the cap."""
        if self._spill is None:
            return
        while len(self._archived) > self._spill_after:
            oldest = next(iter(self._archived))
            self._spill.put(oldest, self._archived.pop(oldest))

    def __len__(self) -> int:
        return len(self._by_name)

    @property
    def archived_count(self) -> int:
        """Shelved estimators across both tiers (memory + disk)."""
        return len(self._archived) + self.spilled_count

    @property
    def spilled_count(self) -> int:
        """Shelved estimators currently resident on disk only."""
        return len(self._spill) if self._spill is not None else 0
