"""Carbon-intensity traces (gCO2/kWh over time).

The paper gathers carbon intensity from Electricity Maps, expands it to
minute intervals, and drives the scheduler with it. This module provides the
trace abstraction: step-wise minute-level (or arbitrary-step) series with

- O(log n) point lookup (:meth:`CarbonIntensityTrace.at`),
- O(log n) exact integration over an interval (:meth:`integrate`), backed by
  a precomputed cumulative integral, used to convert a constant power draw
  over ``[t0, t1]`` into operational carbon without per-minute loops.

Synthetic region generators live in :mod:`repro.carbon.regions`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro import units


@dataclass(frozen=True)
class CarbonIntensityTrace:
    """A right-continuous step function of carbon intensity.

    ``times_s[i]`` is the start of segment ``i``; the value ``values[i]``
    holds until ``times_s[i+1]``.

    **Extension contract.** Outside the knot span the trace extends
    indefinitely as a flat step at the nearest edge value: ``values[0]``
    before the first knot, ``values[-1]`` after the last. Every query
    honours the same extension:

    - :meth:`at` / :meth:`at_many` return ``values[0]`` for ``t <
      times_s[0]`` (and ``values[-1]`` past the end);
    - :meth:`_cum_at` linearly extends the cumulative integral to the
      left at slope ``values[0]``, so it is *negative* before the first
      knot -- that sign is what makes :meth:`integrate` exact for any
      interval: an interval fully left of the trace integrates to
      ``(t1 - t0) * values[0]``, and one straddling the first knot picks
      up exactly ``(times_s[0] - t0) * values[0]`` for its left part;
    - consequently :meth:`mean` over any interval at or before the first
      knot equals ``values[0]``, matching the point queries.

    Boundary cases are pinned by tests (``t < t0``, ``t == t0``,
    interval fully left of the trace) in ``tests/test_carbon_intensity.py``.
    """

    times_s: np.ndarray
    values: np.ndarray
    name: str = "trace"
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``times_s``, ``values``, ``_cum`` and the running max of
    #: ``values`` as lists of Python floats for the scalar lookups:
    #: ``bisect`` on a list costs less per call than a numpy scalar
    #: ``searchsorted``. Rebuilt on unpickling, never pickled.
    _knots: tuple[list[float], list[float], list[float], list[float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        t = np.asarray(self.times_s, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ValueError("times_s and values must be equal-length 1-D arrays")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times_s must be strictly increasing")
        if np.any(v < 0.0):
            raise ValueError("carbon intensity must be non-negative")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "values", v)
        # Cumulative integral of CI dt at each knot, in (g/kWh)*s.
        seg = np.diff(t) * v[:-1]
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        object.__setattr__(self, "_cum", cum)
        self._set_knots()

    def _set_knots(self) -> None:
        knots = (
            self.times_s.tolist(),
            self.values.tolist(),
            self._cum.tolist(),
            np.maximum.accumulate(self.values).tolist(),
        )
        object.__setattr__(self, "_knots", knots)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_knots"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Also restores traces pickled before ``_knots`` existed.
        self.__dict__.update(state)
        self._set_knots()

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float, name: str | None = None) -> "CarbonIntensityTrace":
        """A flat trace (used by the paper's Fig. 3 CI=50 / CI=300 scenarios)."""
        units.require_non_negative(value, "value")
        return cls(
            times_s=np.array([0.0]),
            values=np.array([float(value)]),
            name=name or f"constant-{value:g}",
        )

    @classmethod
    def from_minute_values(
        cls, values, start_s: float = 0.0, name: str = "trace"
    ) -> "CarbonIntensityTrace":
        """Build a minute-resolution trace from a value sequence."""
        v = np.asarray(values, dtype=float)
        t = start_s + np.arange(v.size) * units.SECONDS_PER_MINUTE
        return cls(times_s=t, values=v, name=name)

    # -- queries ------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Span from the first knot to the last knot."""
        return float(self.times_s[-1] - self.times_s[0])

    def at(self, t: float) -> float:
        """Carbon intensity (g/kWh) at time ``t``."""
        times, values, _, _ = self._knots
        return values[max(bisect_right(times, t) - 1, 0)]

    def at_and_max(self, t: float) -> tuple[float, float]:
        """``(at(t), the largest value of any knot at or before t)``.

        Both read the knot that :meth:`at` reads (the first knot before
        the trace starts), from one lookup.
        """
        times, values, _, running_max = self._knots
        i = max(bisect_right(times, t) - 1, 0)
        return values[i], running_max[i]

    def at_many(self, t) -> np.ndarray:
        """Vectorised :meth:`at`."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times_s, t, side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]

    def _cum_at(self, t: float) -> float:
        """Cumulative integral of CI from the first knot to ``t``.

        Signed: negative for ``t < times_s[0]`` (linear left-extension at
        ``values[0]``), which keeps ``integrate(t0, t1)`` exact and
        consistent with :meth:`at`'s clamp for intervals left of, or
        straddling, the first knot -- see the class docstring.
        """
        times, values, cum, _ = self._knots
        t0 = times[0]
        if t <= t0:
            # Flat left-extension at values[0]: signed linear ramp.
            return float((t - t0) * values[0])
        idx = bisect_right(times, t) - 1
        return float(cum[idx] + (t - times[idx]) * values[idx])

    def integrate(self, t0: float, t1: float) -> float:
        """Exact integral of CI(t) dt over ``[t0, t1]`` in (g/kWh)*seconds."""
        if t1 < t0:
            raise ValueError(f"interval is reversed: [{t0}, {t1}]")
        return self._cum_at(t1) - self._cum_at(t0)

    def mean(self, t0: float, t1: float) -> float:
        """Time-average intensity over ``[t0, t1]`` (``at(t0)`` if empty)."""
        if t1 <= t0:
            return self.at(t0)
        return self.integrate(t0, t1) / (t1 - t0)

    def energy_to_carbon_g(self, power_w: float, t0: float, t1: float) -> float:
        """Operational carbon (g) of a constant ``power_w`` load over ``[t0, t1]``.

        Exact under the step-function model: g = P[kW] * integral(CI dt)[h].
        """
        units.require_non_negative(power_w, "power_w")
        integral_g_s_per_kwh = self.integrate(t0, t1)
        return power_w / 1000.0 * integral_g_s_per_kwh / units.SECONDS_PER_HOUR

    # -- statistics (used to validate region calibration) --------------------

    def hourly_series(self) -> np.ndarray:
        """Hour-average intensity values across the trace span.

        The final bucket may be shorter than an hour: a trace spanning
        90 minutes yields the first full hour plus the 30-minute remainder
        (dropping the remainder would skew fluctuation statistics on
        non-integer-hour traces).
        """
        t0, t1 = float(self.times_s[0]), float(self.times_s[-1])
        n_full = int((t1 - t0) // units.SECONDS_PER_HOUR)
        edges = list(t0 + np.arange(n_full + 1) * units.SECONDS_PER_HOUR)
        if t1 - edges[-1] > 1e-9:
            edges.append(t1)
        if len(edges) < 2:  # single-knot trace: one flat bucket
            return np.array([float(self.values[-1])])
        return np.array(
            [self.mean(edges[i], edges[i + 1]) for i in range(len(edges) - 1)],
            dtype=float,
        )

    def hourly_fluctuation_pct(self) -> float:
        """Mean absolute hour-over-hour change, in percent (paper: CISO ~ 6.75%)."""
        h = self.hourly_series()
        if h.size < 2:
            return 0.0
        prev = h[:-1]
        prev = np.where(prev == 0.0, 1.0, prev)
        return float(np.mean(np.abs(np.diff(h)) / prev) * 100.0)

    def std(self) -> float:
        """Standard deviation of the minute-level values (paper: CISO ~ 59.24)."""
        return float(np.std(self.values))

    def shifted(self, offset_s: float) -> "CarbonIntensityTrace":
        """Return a copy with all knots shifted by ``offset_s``."""
        return CarbonIntensityTrace(
            times_s=self.times_s + offset_s, values=self.values, name=self.name
        )
