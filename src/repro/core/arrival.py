"""Per-function arrival statistics.

The KDM's objective needs, for every candidate keep-alive period ``k``,
``P(warm | k)`` -- the probability the next invocation lands inside the
keep-alive window, i.e. ``P(IAT <= k)``. It comes from the empirical
inter-arrival distribution of the function's recent history ("different
serverless functions need to be kept alive for different amounts of time
depending on a function's arrival probability", Sec. I). With little
history the estimator blends in an exponential prior so brand-new
functions get sensible keep-alive decisions instead of extremes.

The KDM asks each estimator once per decision, on the whole K_AT grid
(:meth:`repro.core.objective.ObjectiveBuilder.objective_table`); the
swarm then searches that decision's table, so the queries are not
repeated per particle or per iteration. The exponential prior over that
fixed grid is the same on every decision; the objective builder computes
it once per prior mean and passes it in.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

import numpy as np
import numpy.typing as npt


def exponential_prior(k_s: np.ndarray, prior_mean: float | np.ndarray) -> np.ndarray:
    """``P(IAT <= k)`` under an exponential IAT of mean ``prior_mean``."""
    return 1.0 - np.exp(-k_s / prior_mean)


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

    @property
    def n_samples(self) -> int:
        return len(self._iats)

    # -- queries (vectorised over candidate keep-alive periods) ---------------

    def _ensure_cache(self) -> None:
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self._iats, dtype=float))

    def p_warm(
        self, k_s: npt.ArrayLike, prior: np.ndarray | None = None
    ) -> np.ndarray:
        """P(next IAT <= k) for an array of keep-alive periods (seconds).

        ``prior`` is ``exponential_prior(k, self.prior_mean)`` when the
        caller already holds it (the KDM computes it once per K_AT grid);
        with no history the result is ``prior`` itself.
        """
        k = np.atleast_1d(np.asarray(k_s, dtype=float))
        if prior is None:
            prior = exponential_prior(k, self.prior_mean)
        n = self.n_samples
        if n == 0:
            return prior
        self._ensure_cache()
        assert self._sorted is not None
        emp = np.searchsorted(self._sorted, k, side="right") / n
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
    """

    def __init__(
        self,
        history: int = 64,
        prior_mean_iat_s: float = 600.0,
        prior_strength: float = 2.0,
    ) -> None:
        self._kw: dict[str, Any] = dict(
            history=history,
            prior_mean_iat_s=prior_mean_iat_s,
            prior_strength=prior_strength,
        )
        self._by_name: dict[str, ArrivalEstimator] = {}
        self._archived: dict[str, ArrivalEstimator] = {}

    def get(self, name: str) -> ArrivalEstimator:
        est = self._by_name.get(name)
        if est is None:
            # Read-only peek at archived history; revival is the KDM's
            # call (on the function's next arrival/decision).
            est = self._archived.get(name)
            if est is None:
                est = ArrivalEstimator(**self._kw)
                self._by_name[name] = est
        return est

    def p_warm_each(self, names: Sequence[str], k_s: Sequence[float]) -> np.ndarray:
        """``get(names[i]).p_warm([k_s[i]])[0]`` for every ``i``, in one pass.

        The warm-pool adjuster's arrival mass: one period per function (a
        container's remaining lifetime), not the K_AT grid. Estimators
        are fetched through :meth:`get` -- peek and create-on-miss as for
        a single query -- and each answers with one ``searchsorted``; the
        exponential prior is one ``np.exp`` over the whole vector. An empty history blends with ``w = 0``, and
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
        prior = exponential_prior(np.asarray(k_s, dtype=float), np.array(prior_mean))
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
        """
        est = self._by_name.pop(name, None)
        if est is not None:
            self._archived[name] = est

    def revive(self, name: str) -> None:
        """Promote a shelved estimator back to the live ledger
        (rehydration). No-op if nothing is archived under ``name``."""
        est = self._archived.pop(name, None)
        if est is not None:
            self._by_name[name] = est

    def export_shelf(self) -> dict[str, ArrivalEstimator]:
        """Every estimator (live, then shelved), for checkpoints.

        Deterministic dict order: live ledger, then shelf, each in
        insertion order.
        """
        out: dict[str, ArrivalEstimator] = dict(self._by_name)
        out.update(self._archived)
        return out

    def import_shelved(self, name: str, est: ArrivalEstimator) -> None:
        """Adopt one estimator onto the shelf (checkpoint restore).

        It stays archived -- exactly the state after a retirement sweep
        -- and revives through the normal path on the function's next
        arrival.
        """
        if name in self._by_name or name in self._archived:
            raise ValueError(f"estimator already present: {name!r}")
        self._archived[name] = est

    def __len__(self) -> int:
        return len(self._by_name)

    @property
    def archived_count(self) -> int:
        """Shelved estimators."""
        return len(self._archived)
