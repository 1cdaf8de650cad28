"""Arrival estimator: empirical IAT statistics with prior blending."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrivalEstimator, ArrivalRegistry


def make_est(**kw):
    base = dict(history=64, prior_mean_iat_s=600.0, prior_strength=2.0)
    base.update(kw)
    return ArrivalEstimator(**base)


class TestObservation:
    def test_first_observation_yields_no_iat(self):
        est = make_est()
        est.observe(100.0)
        assert est.n_samples == 0

    def test_iats_recorded(self):
        est = make_est()
        for t in (0.0, 60.0, 180.0):
            est.observe(t)
        assert est.n_samples == 2

    def test_out_of_order_rejected(self):
        est = make_est()
        est.observe(10.0)
        with pytest.raises(ValueError, match="time order"):
            est.observe(5.0)

    def test_history_window(self):
        est = make_est(history=4)
        for t in np.arange(10) * 10.0:
            est.observe(t)
        assert est.n_samples == 4


class TestPWarm:
    def test_prior_only(self):
        est = make_est()
        p = est.p_warm([0.0, 600.0, 1e9])
        assert p[0] == pytest.approx(0.0)
        assert p[1] == pytest.approx(1 - np.exp(-1))
        assert p[2] == pytest.approx(1.0)

    def test_empirical_dominates_with_history(self):
        est = make_est(prior_strength=2.0)
        # Strictly periodic at 120 s.
        for t in np.arange(50) * 120.0:
            est.observe(t)
        p_low = est.p_warm([60.0])[0]
        p_high = est.p_warm([180.0])[0]
        assert p_low < 0.15  # almost never warm below the period
        assert p_high > 0.9  # almost surely warm above it

    def test_monotone_in_k(self):
        est = make_est()
        for t in np.cumsum(np.random.default_rng(0).exponential(100.0, 30)):
            est.observe(float(t))
        ks = np.linspace(0, 2000, 50)
        p = est.p_warm(ks)
        assert (np.diff(p) >= -1e-12).all()
        assert ((0.0 <= p) & (p <= 1.0)).all()


class TestRegistry:
    def test_per_function_isolation(self):
        reg = ArrivalRegistry()
        reg.observe("a", 0.0)
        reg.observe("a", 50.0)
        reg.observe("b", 10.0)
        assert reg.get("a").n_samples == 1
        assert reg.get("b").n_samples == 0
        assert len(reg) == 2

    def test_get_creates_once(self):
        reg = ArrivalRegistry()
        assert reg.get("x") is reg.get("x")


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            make_est(history=1)
        with pytest.raises(ValueError):
            make_est(prior_mean_iat_s=0.0)
        with pytest.raises(ValueError):
            make_est(prior_strength=-1.0)


@given(
    iats=st.lists(st.floats(1.0, 10_000.0), min_size=1, max_size=80),
    k=st.floats(0.0, 20_000.0),
)
@settings(max_examples=60, deadline=None)
def test_property_p_warm_matches_empirical_fraction(iats, k):
    """With zero prior weight, p_warm(k) is exactly the ECDF."""
    est = ArrivalEstimator(history=128, prior_mean_iat_s=600.0, prior_strength=0.0)
    times = np.cumsum([0.0] + iats)
    for t in times:
        est.observe(float(t))
    # Compare against the gaps the estimator actually saw (absolute-time
    # subtraction can differ from the raw gaps in the last ulp).
    seen = np.diff(times)
    expected = float(np.mean(seen <= k))
    assert est.p_warm([k])[0] == pytest.approx(expected)


class TestArrivalBatch:
    """The objective oracle's padded-matrix queries
    (``tests/oracles/objective.py``) == per-estimator scalar queries, bit
    for bit, across empty/short/full histories -- the oracle batch
    closure the KDM's table is checked against relies on it."""

    def _estimators(self, sizes, history=32):
        out = []
        t0 = 0.0
        for i, n_iats in enumerate(sizes):
            est = ArrivalEstimator(history=history)
            for j in range(n_iats + 1):  # n_iats+1 arrivals -> n_iats IATs
                est.observe(t0 + 13.0 * j * (i + 1))
            if n_iats < 0:  # negative marks "never observed"
                est = ArrivalEstimator(history=history)
            out.append(est)
        return out

    def test_rows_bit_identical_to_scalars(self):
        from tests.oracles.objective import ArrivalBatch

        # Empty, single-IAT, partial, and saturated histories together.
        ests = self._estimators([-1, 0, 1, 5, 31, 40], history=32)
        batch = ArrivalBatch(ests)
        k = np.random.default_rng(7).uniform(0.0, 3600.0, size=(6, 30))
        k[:, 0] = 0.0  # include the degenerate k = 0 column
        p = batch.p_warm(k)
        for i, est in enumerate(ests):
            assert np.array_equal(p[i], est.p_warm(k[i])), i

    def test_shape_validation(self):
        from tests.oracles.objective import ArrivalBatch

        batch = ArrivalBatch(self._estimators([2, 3]))
        with pytest.raises(ValueError, match="rows"):
            batch.p_warm(np.zeros(5))
        with pytest.raises(ValueError, match="rows"):
            batch.p_warm(np.zeros((3, 4)))

    def test_snapshot_semantics(self):
        """Observations after the batch is built do not leak in."""
        from tests.oracles.objective import ArrivalBatch

        est = make_est()
        for t in (0.0, 60.0, 120.0):
            est.observe(t)
        batch = ArrivalBatch([est])
        k = np.array([[30.0, 90.0, 600.0]])
        before = batch.p_warm(k).copy()
        est.observe(121.0)  # new 1 s IAT would shift the ECDF
        assert np.array_equal(batch.p_warm(k), before)

    @given(
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
        prior_strength=st.floats(0.0, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_batch_matches_scalars(self, sizes, seed, prior_strength):
        from tests.oracles.objective import ArrivalBatch

        rng = np.random.default_rng(seed)
        ests = []
        for n_iats in sizes:
            est = ArrivalEstimator(
                history=32, prior_mean_iat_s=600.0,
                prior_strength=prior_strength,
            )
            t = 0.0
            est.observe(t)
            for gap in rng.exponential(200.0, size=n_iats):
                t += float(gap)
                est.observe(t)
            ests.append(est)
        batch = ArrivalBatch(ests)
        k = rng.uniform(0.0, 7200.0, size=(len(sizes), 17))
        p = batch.p_warm(k)
        for i, est in enumerate(ests):
            assert np.array_equal(p[i], est.p_warm(k[i]))
