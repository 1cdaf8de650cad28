"""Numpy scalar lookups on a carbon-intensity trace: an oracle.

:class:`~repro.carbon.intensity.CarbonIntensityTrace` answers its
scalar queries by ``bisect`` over lists of Python floats. These are the
``np.searchsorted`` versions they replaced; the list lookups must return
the same floats bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.carbon.intensity import CarbonIntensityTrace


def at(trace: CarbonIntensityTrace, t: float) -> float:
    """Carbon intensity at ``t``, clamped to the edge values."""
    idx = int(np.searchsorted(trace.times_s, t, side="right")) - 1
    idx = min(max(idx, 0), trace.values.size - 1)
    return float(trace.values[idx])


def cum_at(trace: CarbonIntensityTrace, t: float) -> float:
    """Signed cumulative integral of CI from the first knot to ``t``."""
    t0 = float(trace.times_s[0])
    if t <= t0:
        return float((t - t0) * trace.values[0])
    idx = int(np.searchsorted(trace.times_s, t, side="right")) - 1
    idx = min(idx, trace.values.size - 1)
    return float(trace._cum[idx] + (t - trace.times_s[idx]) * trace.values[idx])
