"""Record and result aggregation."""

import numpy as np
import pytest

from repro.carbon.footprint import CarbonBreakdown
from repro.hardware import Generation
from repro.simulator import InvocationRecord, KeepAliveDecision, SimulationResult
from repro.simulator.records import RecordArrays


def _record(i=0, exec_s=1.0, cold=False, op=1.0, emb=0.5, location=Generation.NEW):
    return InvocationRecord(
        index=i,
        t=float(i),
        func_name=f"f{i % 3}",
        mem_gb=0.5,
        location=location,
        cold=cold,
        setup_s=0.05,
        cold_overhead_s=0.7 if cold else 0.0,
        exec_s=exec_s,
        service_carbon=CarbonBreakdown(op_cpu=op, emb_cpu=emb),
        service_energy_wh=2.0,
    )


class TestKeepAliveDecision:
    def test_none_decision(self):
        d = KeepAliveDecision.none()
        assert d.duration_s == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            KeepAliveDecision(location=Generation.NEW, duration_s=-1.0)


class TestInvocationRecord:
    def test_service_time_composition(self):
        r = _record(cold=True)
        assert r.service_s == pytest.approx(0.7 + 0.05 + 1.0)

    def test_carbon_sum(self):
        r = _record()
        r.add_keepalive(CarbonBreakdown(op_dram=0.25), energy_wh=0.5, duration_s=60.0)
        assert r.carbon_g == pytest.approx(1.5 + 0.25)
        assert r.energy_wh == pytest.approx(2.5)
        assert r.keepalive_s == 60.0

    def test_multiple_keepalive_segments_accumulate(self):
        r = _record()
        r.add_keepalive(CarbonBreakdown(op_dram=0.1), 0.1, 30.0)
        r.add_keepalive(CarbonBreakdown(op_dram=0.2), 0.2, 40.0)
        assert r.keepalive_carbon.op_dram == pytest.approx(0.3)
        assert r.keepalive_s == pytest.approx(70.0)


class TestSimulationResult:
    def _result(self):
        records = [
            _record(0, exec_s=1.0),
            _record(1, exec_s=2.0, cold=True),
            _record(2, exec_s=3.0, location=Generation.OLD),
        ]
        records[0].evicted = True
        records[1].spilled = True
        records[2].dropped = True
        records[2].evicted = True
        return SimulationResult(
            scheduler_name="t", records=records, horizon_s=100.0
        )

    def test_aggregates(self):
        res = self._result()
        assert len(res) == 3
        assert res.total_service_s == pytest.approx(
            (0.05 + 1.0) + (0.7 + 0.05 + 2.0) + (0.05 + 3.0)
        )
        assert res.total_carbon_g == pytest.approx(3 * 1.5)
        assert res.total_operational_g == pytest.approx(3.0)
        assert res.total_embodied_g == pytest.approx(1.5)
        assert res.total_energy_wh == pytest.approx(6.0)

    def test_ratios_and_counts(self):
        res = self._result()
        assert res.warm_ratio == pytest.approx(2 / 3)
        assert res.evicted_count == 2
        assert res.spilled_count == 1
        assert res.dropped_count == 1
        locs = res.location_counts()
        assert locs[Generation.NEW] == 2 and locs[Generation.OLD] == 1

    def test_percentiles(self):
        res = self._result()
        assert res.p95_service_s >= res.mean_service_s

    def test_empty_result_safe(self):
        res = SimulationResult(scheduler_name="e", records=[], horizon_s=0.0)
        assert res.total_carbon_g == 0.0
        assert res.mean_service_s == 0.0
        assert res.warm_ratio == 0.0
        assert res.p95_service_s == 0.0

    def test_summary_reports_dropped(self):
        """Drops are charged ``evicted`` + ``dropped``; the report must
        show the dropped count, not fold it into evicted."""
        res = self._result()
        text = res.summary()
        assert "evicted / spilled   : 2 / 1" in text
        assert "dropped keep-alives : 1" in text


class TestRecordArrays:
    def _columns(self, ra):
        return {
            f: getattr(ra, f)
            for f in (
                "t",
                "service_s",
                "carbon_g",
                "energy_wh",
                "keepalive_s",
                "cold",
                "location",
                "func_name",
            )
        }

    def test_empty_round_trip_preserves_dtype_and_shape(self, tmp_path):
        """Zero-invocation scenarios produce degenerate (itemsize-0)
        unicode columns on some numpy versions; persistence must
        normalise them so the npz round trip is dtype/shape-equal."""
        empty = SimulationResult(scheduler_name="e", records=[], horizon_s=0.0)
        ra = RecordArrays.from_result(empty)
        assert len(ra) == 0
        assert ra.location.dtype.itemsize > 0
        assert ra.func_name.dtype.itemsize > 0
        path = tmp_path / "empty.npz"
        ra.to_npz(path)
        back = RecordArrays.from_npz(path)
        for name, col in self._columns(ra).items():
            loaded = getattr(back, name)
            assert loaded.dtype == col.dtype, name
            assert loaded.shape == col.shape, name
            assert np.array_equal(loaded, col), name

    def test_round_trip_nonempty(self, tmp_path):
        records = [
            InvocationRecord(
                index=i,
                t=float(i),
                func_name=f"fn{i}",
                mem_gb=0.5,
                location=Generation.NEW if i % 2 else Generation.OLD,
                cold=bool(i % 2),
                setup_s=0.05,
                cold_overhead_s=0.0,
                exec_s=1.0 + i,
                service_carbon=CarbonBreakdown(op_cpu=1.0),
                service_energy_wh=2.0,
            )
            for i in range(3)
        ]
        res = SimulationResult(scheduler_name="t", records=records, horizon_s=9.0)
        ra = res.record_arrays()
        path = tmp_path / "r.npz"
        ra.to_npz(path)
        back = RecordArrays.from_npz(path)
        for name, col in self._columns(ra).items():
            assert np.array_equal(getattr(back, name), col), name


class TestOrderInsensitiveAggregation:
    """Totals depend only on the record *multiset*, never on the
    summation order. ``math.fsum`` is correctly rounded, so any
    permutation of the same records produces the exact same float
    totals -- naive ``sum()`` drifts by ULPs under reordering."""

    def _adversarial_records(self):
        # Magnitude spread chosen so naive left-to-right addition loses
        # low-order bits depending on ordering.
        ops = [1e16, 1.0, -1e16, 1e-3, 3.14159, 1e8, -1e8, 2.5e-7] * 4
        return [_record(i=i, op=op) for i, op in enumerate(ops)]

    def test_totals_invariant_under_permutation(self):
        records = self._adversarial_records()
        base = SimulationResult(scheduler_name="s", records=records, horizon_s=1.0)
        rng = np.random.default_rng(42)
        for _ in range(5):
            perm = [records[j] for j in rng.permutation(len(records))]
            shuffled = SimulationResult(
                scheduler_name="s", records=perm, horizon_s=1.0
            )
            assert shuffled.total_carbon_g == base.total_carbon_g
            assert shuffled.total_operational_g == base.total_operational_g
            assert shuffled.total_service_s == base.total_service_s
            assert shuffled.total_energy_wh == base.total_energy_wh
            assert shuffled.mean_service_s == base.mean_service_s
