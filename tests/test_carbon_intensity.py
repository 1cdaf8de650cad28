"""Carbon-intensity trace: lookup, integration, statistics."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon import CarbonIntensityTrace
from tests.oracles import intensity as intensity_oracle


@pytest.fixture
def step_trace():
    """100 g/kWh for the first minute, 300 for the second, 200 after."""
    return CarbonIntensityTrace(
        times_s=np.array([0.0, 60.0, 120.0]),
        values=np.array([100.0, 300.0, 200.0]),
    )


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CarbonIntensityTrace(np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            CarbonIntensityTrace(np.array([0.0, 1.0]), np.array([1.0, -2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CarbonIntensityTrace(np.array([0.0, 1.0]), np.array([1.0]))

    def test_constant(self):
        tr = CarbonIntensityTrace.constant(250.0)
        assert tr.at(-5.0) == 250.0
        assert tr.at(1e9) == 250.0

    def test_from_minute_values(self):
        tr = CarbonIntensityTrace.from_minute_values([10, 20, 30])
        assert tr.at(0.0) == 10
        assert tr.at(61.0) == 20
        assert tr.times_s[-1] == 120.0


class TestLookup:
    def test_step_values(self, step_trace):
        assert step_trace.at(0.0) == 100.0
        assert step_trace.at(59.999) == 100.0
        assert step_trace.at(60.0) == 300.0
        assert step_trace.at(119.0) == 300.0
        assert step_trace.at(500.0) == 200.0

    def test_clamps_left(self, step_trace):
        assert step_trace.at(-10.0) == 100.0

    def test_at_many_matches_at(self, step_trace):
        ts = np.array([-5.0, 0.0, 30.0, 60.0, 90.0, 120.0, 1e6])
        many = step_trace.at_many(ts)
        assert many.tolist() == [step_trace.at(t) for t in ts]


class TestIntegration:
    def test_within_one_segment(self, step_trace):
        assert step_trace.integrate(10.0, 20.0) == pytest.approx(1000.0)

    def test_across_segments(self, step_trace):
        # 30 s at 100 + 60 s at 300 + 10 s at 200.
        expected = 30 * 100 + 60 * 300 + 10 * 200
        assert step_trace.integrate(30.0, 130.0) == pytest.approx(expected)

    def test_beyond_last_knot_extends(self, step_trace):
        assert step_trace.integrate(120.0, 180.0) == pytest.approx(60 * 200)

    def test_reversed_interval_raises(self, step_trace):
        with pytest.raises(ValueError, match="reversed"):
            step_trace.integrate(10.0, 5.0)

    def test_mean(self, step_trace):
        assert step_trace.mean(0.0, 120.0) == pytest.approx(200.0)
        # Empty interval falls back to the point value.
        assert step_trace.mean(70.0, 70.0) == 300.0

    def test_energy_to_carbon(self, step_trace):
        # 1 kW for the first minute at 100 g/kWh: (1/60) h * 100 g/kWh.
        g = step_trace.energy_to_carbon_g(1000.0, 0.0, 60.0)
        assert g == pytest.approx(100.0 / 60.0)


class TestLeftBoundary:
    """Pre-first-knot extension contract (see the class docstring).

    The trace extends flat at ``values[0]`` to the left; point queries,
    integration, and means must all agree on that extension.
    """

    @pytest.fixture
    def offset_trace(self):
        """First knot at t=100 s, so there is room to query left of it."""
        return CarbonIntensityTrace(
            times_s=np.array([100.0, 160.0, 220.0]),
            values=np.array([100.0, 300.0, 200.0]),
        )

    def test_point_queries_before_first_knot(self, offset_trace):
        assert offset_trace.at(-50.0) == 100.0
        assert offset_trace.at(0.0) == 100.0
        assert offset_trace.at(99.999) == 100.0
        assert offset_trace.at_many(np.array([-50.0, 0.0, 99.0])).tolist() == [
            100.0, 100.0, 100.0,
        ]

    def test_point_query_at_first_knot(self, offset_trace):
        assert offset_trace.at(100.0) == 100.0
        assert offset_trace._cum_at(100.0) == 0.0

    def test_interval_fully_left_of_trace(self, offset_trace):
        # Flat extension at values[0]: integral is width * values[0].
        assert offset_trace.integrate(0.0, 50.0) == pytest.approx(50.0 * 100.0)
        assert offset_trace.mean(0.0, 50.0) == pytest.approx(100.0)

    def test_interval_straddling_first_knot(self, offset_trace):
        # 40 s of left-extension at 100 plus 60 s of segment 0 at 100.
        assert offset_trace.integrate(60.0, 160.0) == pytest.approx(100.0 * 100.0)
        assert offset_trace.mean(60.0, 160.0) == pytest.approx(100.0)

    def test_interval_ending_exactly_at_first_knot(self, offset_trace):
        assert offset_trace.integrate(80.0, 100.0) == pytest.approx(20.0 * 100.0)

    def test_cum_at_is_signed_left_of_first_knot(self, offset_trace):
        # The signed ramp is what makes integrate() additive across t0.
        assert offset_trace._cum_at(90.0) == pytest.approx(-10.0 * 100.0)
        left = offset_trace.integrate(0.0, 100.0)
        right = offset_trace.integrate(100.0, 200.0)
        assert left + right == pytest.approx(offset_trace.integrate(0.0, 200.0))

    def test_mean_left_agrees_with_clamped_point_value(self, offset_trace):
        for t0, t1 in [(-100.0, -10.0), (0.0, 100.0), (-5.0, 5.0)]:
            assert offset_trace.mean(t0, t1) == pytest.approx(offset_trace.at(t0))


class TestStats:
    def test_hourly_series_constant(self):
        tr = CarbonIntensityTrace.from_minute_values([100.0] * 180)
        assert np.allclose(tr.hourly_series(), 100.0)
        assert tr.hourly_fluctuation_pct() == 0.0

    def test_hourly_series_includes_trailing_partial_hour(self):
        """A 90-minute trace must yield the full hour plus the remainder."""
        vals = [100.0] * 60 + [300.0] * 30
        tr = CarbonIntensityTrace.from_minute_values(vals)
        h = tr.hourly_series()
        assert h.shape == (2,)
        assert h[0] == pytest.approx(100.0)
        assert h[1] == pytest.approx(300.0)
        assert tr.hourly_fluctuation_pct() == pytest.approx(200.0)

    def test_hourly_series_subhour_trace(self):
        """A trace shorter than an hour averages over its real span only."""
        tr = CarbonIntensityTrace.from_minute_values([100.0, 200.0, 300.0])
        h = tr.hourly_series()
        assert h.shape == (1,)
        assert h[0] == pytest.approx(tr.mean(0.0, 120.0))

    def test_hourly_series_single_knot(self):
        tr = CarbonIntensityTrace.constant(250.0)
        assert tr.hourly_series().tolist() == [250.0]

    def test_hourly_series_exact_hours_unchanged(self):
        """Integer-hour spans keep exactly one bucket per hour."""
        tr = CarbonIntensityTrace.from_minute_values([100.0] * 121)
        assert tr.hourly_series().shape == (2,)

    def test_fluctuation_positive_for_varying(self):
        vals = 100 + 50 * np.sin(np.arange(240) / 10.0)
        tr = CarbonIntensityTrace.from_minute_values(vals)
        assert tr.hourly_fluctuation_pct() > 0.0

    def test_shifted(self, step_trace):
        sh = step_trace.shifted(1000.0)
        assert sh.at(1000.0) == step_trace.at(0.0)
        assert sh.integrate(1000.0, 1060.0) == step_trace.integrate(0.0, 60.0)


class TestListLookupsMatchOracle:
    """The list ``bisect`` lookups == the numpy ``searchsorted`` ones in
    ``tests/oracles/intensity.py``, bit for bit."""

    TRACES = {
        "offset": CarbonIntensityTrace(
            times_s=np.array([100.0, 160.0, 220.0]),
            values=np.array([100.0, 300.0, 200.0]),
        ),
        "irregular": CarbonIntensityTrace(
            times_s=np.array([0.1, 0.7, 61.3, 3600.0, 3600.5]),
            values=np.array([212.7, 0.0, 1e-3, 451.25, 97.3]),
        ),
        "constant": CarbonIntensityTrace.constant(250.0),
    }

    @staticmethod
    def _queries(trace):
        knots = trace.times_s
        mids = (knots[:-1] + knots[1:]) / 2.0
        near = np.concatenate(
            (np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf))
        )
        left = knots[0] - np.array([1e-9, 0.5, 60.0, 1e6])
        right = knots[-1] + np.array([1e-9, 0.5, 60.0, 1e6])
        return np.concatenate((knots, mids, near, left, right)).tolist()

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_cum_at_bit_equal(self, name):
        trace = self.TRACES[name]
        for t in self._queries(trace):
            got = trace._cum_at(t)
            want = intensity_oracle.cum_at(trace, t)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), t

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_at_bit_equal(self, name):
        trace = self.TRACES[name]
        for t in self._queries(trace):
            got = trace.at(t)
            assert type(got) is float
            assert got == intensity_oracle.at(trace, t), t

    def test_numpy_scalar_queries(self):
        trace = self.TRACES["irregular"]
        for t in self._queries(trace):
            t64 = np.float64(t)
            assert trace._cum_at(t64) == intensity_oracle.cum_at(trace, t64)
            assert trace.at(t64) == intensity_oracle.at(trace, t64)

    def test_pickles_without_knot_lists_and_restores_old_state(self):
        """The list copies are not pickled, and a state pickled before
        they existed (no ``_knots``) still answers once loaded."""
        trace = self.TRACES["irregular"]
        state = trace.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert "_knots" not in state
        old = object.__new__(CarbonIntensityTrace)
        old.__setstate__(dict(state))  # what unpickling an older pickle does
        restored = pickle.loads(pickle.dumps(trace))
        for t in self._queries(trace):
            want = intensity_oracle.cum_at(trace, t)
            assert old._cum_at(t) == restored._cum_at(t) == want
            assert old.at(t) == restored.at(t) == trace.at(t)


# -- property-based invariants -------------------------------------------------


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    gaps = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=600.0),
            min_size=n, max_size=n,
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=n, max_size=n,
        )
    )
    t = np.cumsum(np.asarray(gaps))
    return CarbonIntensityTrace(times_s=t, values=np.asarray(values))


@given(traces(), st.floats(0.0, 5000.0), st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
@settings(max_examples=60, deadline=None)
def test_integral_is_additive(trace, a, b, c):
    """integrate(a,c) == integrate(a,b) + integrate(b,c) for a <= b <= c."""
    a, b, c = sorted((a, b, c))
    whole = trace.integrate(a, c)
    parts = trace.integrate(a, b) + trace.integrate(b, c)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-6)


@given(traces(), st.floats(0.0, 5000.0), st.floats(0.1, 5000.0))
@settings(max_examples=60, deadline=None)
def test_mean_within_value_range(trace, a, width):
    """The interval mean never escapes [min(values), max(values)].

    Tolerance must scale with the cumulative-integral magnitude over the
    window width: mean() computes (cum(b) - cum(a)) / width, so its
    rounding error is ~eps * |cum| / width -- a flat 1e-9 is too tight
    for narrow windows far into the trace.
    """
    b = a + width
    m = trace.mean(a, b)
    vmax = float(trace.values.max())
    tol = 1e-9 + 8.0 * np.finfo(float).eps * vmax * max(b, 1.0) / width
    assert trace.values.min() - tol <= m <= vmax + tol


@given(traces(), st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
@settings(max_examples=60, deadline=None)
def test_integral_monotone_in_upper_limit(trace, a, b):
    a, b = min(a, b), max(a, b)
    assert trace.integrate(a, b) >= -1e-9
