"""Carbon accounting: the paper's Sec. II formulas and calibration shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.carbon import CarbonBreakdown, CarbonIntensityTrace, CarbonModel
from repro.hardware import PAIR_A, PAIR_C
from repro.workloads import MOTIVATION_FUNCTIONS


class TestCarbonBreakdown:
    def test_totals(self):
        b = CarbonBreakdown(op_cpu=1, op_dram=2, emb_cpu=3, emb_dram=4, emb_platform=5)
        assert b.operational == 3
        assert b.embodied == 12
        assert b.total == 15

    def test_add(self):
        a = CarbonBreakdown(op_cpu=1.0)
        b = CarbonBreakdown(emb_dram=2.0)
        c = a + b
        assert c.op_cpu == 1.0 and c.emb_dram == 2.0

    def test_sum_builtin(self):
        parts = [CarbonBreakdown(op_cpu=1.0), CarbonBreakdown(op_cpu=2.0)]
        assert sum(parts).op_cpu == 3.0


class TestPaperFormulas:
    """Hand-computed checks of the exact Sec. II equations."""

    def setup_method(self):
        self.ci = 250.0
        self.model = CarbonModel(trace=CarbonIntensityTrace.constant(self.ci))
        self.server = PAIR_A.new
        self.mem = 0.5  # GB

    def test_cpu_embodied_service(self):
        """CPU service embodied = S / LT * EC (whole package)."""
        s = 10.0
        b = self.model.service(self.server, self.mem, 0.0, s)
        expected = s / self.server.lifetime_s * self.server.cpu.embodied_g
        assert b.emb_cpu == pytest.approx(expected)

    def test_cpu_embodied_keepalive_per_core(self):
        """CPU keep-alive embodied = k / LT * EC / Core_num."""
        k = 600.0
        b = self.model.keepalive(self.server, self.mem, 0.0, k)
        expected = (
            k / self.server.lifetime_s
            * self.server.cpu.embodied_g
            / self.server.cpu.cores
        )
        assert b.emb_cpu == pytest.approx(expected)

    def test_dram_embodied_share(self):
        """DRAM embodied = duration / LT * (Mf / M_DRAM) * EC_DRAM."""
        k = 600.0
        b = self.model.keepalive(self.server, self.mem, 0.0, k)
        share = self.mem / self.server.dram.capacity_gb
        expected = k / self.server.lifetime_s * share * self.server.dram.embodied_g
        assert b.emb_dram == pytest.approx(expected)

    def test_cpu_operational_service(self):
        """CPU service operational = full power x time x CI."""
        s = 10.0
        b = self.model.service(self.server, self.mem, 0.0, s)
        expected = units.operational_carbon_g(
            units.energy_wh(self.server.cpu.full_power_w, s), self.ci
        )
        assert b.op_cpu == pytest.approx(expected)

    def test_cpu_operational_keepalive_one_core(self):
        """CPU keep-alive operational = (E_ka / Core_num) x CI."""
        k = 600.0
        b = self.model.keepalive(self.server, self.mem, 0.0, k)
        expected = units.operational_carbon_g(
            units.energy_wh(self.server.cpu.idle_power_w / self.server.cpu.cores, k),
            self.ci,
        )
        assert b.op_cpu == pytest.approx(expected)

    def test_dram_operational_share(self):
        k = 600.0
        b = self.model.keepalive(self.server, self.mem, 0.0, k)
        share = self.mem / self.server.dram.capacity_gb
        expected = units.operational_carbon_g(
            units.energy_wh(share * self.server.dram.total_power_w, k), self.ci
        )
        assert b.op_dram == pytest.approx(expected)

    def test_cold_start_adds_operational(self):
        warm = self.model.service(self.server, self.mem, 0.0, 5.0)
        cold = self.model.service(self.server, self.mem, 0.0, 5.0, cold_overhead_s=3.0)
        assert cold.total > warm.total
        assert cold.op_cpu == pytest.approx(
            warm.op_cpu
            + units.operational_carbon_g(
                units.energy_wh(self.server.cpu.full_power_w, 3.0), self.ci
            )
        )

    def test_estimates_match_exact_on_flat_trace(self):
        """The scalar-CI estimators agree with trace accounting when CI is flat."""
        exact = self.model.service(self.server, self.mem, 0.0, 7.0, 2.0)
        est = self.model.est_service_g(self.server, self.mem, 7.0, 2.0, self.ci)
        assert est == pytest.approx(exact.total)

        exact_ka = self.model.keepalive(self.server, self.mem, 100.0, 700.0)
        rate = self.model.est_keepalive_rate_g_per_s(self.server, self.mem, self.ci)
        assert rate * 600.0 == pytest.approx(exact_ka.total)

    def test_platform_overhead_counted(self):
        server = self.server.with_platform_overhead(60.0)
        with_pf = self.model.keepalive(server, self.mem, 0.0, 600.0)
        without = self.model.keepalive(self.server, self.mem, 0.0, 600.0)
        assert with_pf.emb_platform > 0.0
        assert with_pf.total > without.total

    def test_energy_attribution(self):
        wh = self.model.keepalive_energy_wh(self.server, self.mem, 3600.0)
        expected = (
            self.server.cpu.idle_power_w / self.server.cpu.cores
            + self.mem / self.server.dram.capacity_gb * self.server.dram.total_power_w
        )
        assert wh == pytest.approx(expected)


class TestVaryingTrace:
    def test_keepalive_integrates_trace(self):
        trace = CarbonIntensityTrace.from_minute_values([100.0, 300.0])
        model = CarbonModel(trace=trace)
        server = PAIR_A.new
        lo = model.keepalive(server, 0.5, 0.0, 60.0)
        hi = model.keepalive(server, 0.5, 60.0, 120.0)
        # Same embodied, operational scales with CI.
        assert lo.embodied == pytest.approx(hi.embodied)
        assert hi.operational == pytest.approx(3.0 * lo.operational)

    def test_with_trace_rebinds(self):
        m = CarbonModel(trace=CarbonIntensityTrace.constant(100.0))
        m2 = m.with_trace(CarbonIntensityTrace.constant(200.0))
        s = PAIR_A.new
        a = m.service(s, 0.5, 0.0, 10.0)
        b = m2.service(s, 0.5, 0.0, 10.0)
        assert b.operational == pytest.approx(2 * a.operational)
        assert b.embodied == pytest.approx(a.embodied)


class TestCalibrationShapes:
    """DESIGN.md calibration targets (the paper's Figs. 1-3 shapes)."""

    def test_fig1_keepalive_fraction_grows(self):
        """Graph-BFS keep-alive share: ~18% at 2 min -> ~52% at 10 min."""
        model = CarbonModel(trace=CarbonIntensityTrace.constant(250.0))
        bfs = MOTIVATION_FUNCTIONS[1]
        new = PAIR_A.new
        sc = model.service(new, bfs.mem_gb, 0.0, bfs.exec_time_s(new)).total
        ka2 = model.keepalive(new, bfs.mem_gb, 0.0, 120.0).total
        ka10 = model.keepalive(new, bfs.mem_gb, 0.0, 600.0).total
        assert 0.10 <= ka2 / (ka2 + sc) <= 0.30
        assert 0.40 <= ka10 / (ka10 + sc) <= 0.65

    def test_fig1_keepalive_linear_in_k(self):
        model = CarbonModel(trace=CarbonIntensityTrace.constant(250.0))
        new = PAIR_A.new
        f = MOTIVATION_FUNCTIONS[0]
        kas = [model.keepalive(new, f.mem_gb, 0.0, 60.0 * k).total for k in (2, 4, 8)]
        assert kas[1] == pytest.approx(2 * kas[0], rel=1e-6)
        assert kas[2] == pytest.approx(4 * kas[0], rel=1e-6)

    def test_fig2_video_old_saves_carbon_costs_time(self):
        """Pair A, video-processing, 10-min keep-alive: old saves 10-30%
        carbon and runs 10-25% slower (paper: -23.8% CO2, +15.9% time)."""
        model = CarbonModel(trace=CarbonIntensityTrace.constant(250.0))
        video = MOTIVATION_FUNCTIONS[0]
        old, new = PAIR_A.old, PAIR_A.new

        def total(server):
            return (
                model.service(server, video.mem_gb, 0.0, video.exec_time_s(server)).total
                + model.keepalive(server, video.mem_gb, 0.0, 600.0).total
            )

        saving = 1.0 - total(old) / total(new)
        slowdown = video.exec_time_s(old) / video.exec_time_s(new) - 1.0
        assert 0.10 <= saving <= 0.30
        assert 0.10 <= slowdown <= 0.25

    @staticmethod
    def _fig3_cases(func, ci):
        """Case A: 15-min keep-alive + warm exec on C_OLD.
        Case B: 10-min keep-alive + cold start + exec on C_NEW."""
        model = CarbonModel(trace=CarbonIntensityTrace.constant(ci))
        old, new = PAIR_C.old, PAIR_C.new
        a = (
            model.service(old, func.mem_gb, 0.0, func.exec_time_s(old)).total
            + model.keepalive(old, func.mem_gb, 0.0, 900.0).total
        )
        b = (
            model.service(
                new, func.mem_gb, 0.0, func.exec_time_s(new), func.cold_overhead_s(new)
            ).total
            + model.keepalive(new, func.mem_gb, 0.0, 600.0).total
        )
        return a, b

    def test_fig3_high_ci_old_warm_wins(self):
        """At CI=300 every motivation function saves carbon in Case A."""
        for func in MOTIVATION_FUNCTIONS:
            a, b = self._fig3_cases(func, 300.0)
            assert a < b, func.name

    def test_fig3_low_ci_inversion_for_dna(self):
        """At CI=50 the DNA-visualization case inverts (paper Fig. 3 bottom)."""
        dna = MOTIVATION_FUNCTIONS[2]
        a, b = self._fig3_cases(dna, 50.0)
        assert a > b

    def test_fig3_service_time_savings(self):
        """Case A cuts video-processing service time by ~half (paper: 52.3%)."""
        video = MOTIVATION_FUNCTIONS[0]
        old, new = PAIR_C.old, PAIR_C.new
        s_a = video.exec_time_s(old)
        s_b = video.exec_time_s(new) + video.cold_overhead_s(new)
        assert 0.40 <= 1.0 - s_a / s_b <= 0.60


# -- property-based invariants -------------------------------------------------


@given(
    mem=st.floats(0.05, 8.0),
    dur=st.floats(0.0, 3600.0),
    ci=st.floats(0.0, 800.0),
)
@settings(max_examples=50, deadline=None)
def test_keepalive_monotone_in_duration_and_ci(mem, dur, ci):
    model = CarbonModel(trace=CarbonIntensityTrace.constant(ci))
    server = PAIR_A.old
    g1 = model.keepalive(server, mem, 0.0, dur).total
    g2 = model.keepalive(server, mem, 0.0, dur + 60.0).total
    assert g2 >= g1
    rate = model.est_keepalive_rate_g_per_s(server, mem, ci)
    assert rate * dur == pytest.approx(g1, rel=1e-9, abs=1e-12)


@given(
    mem=st.floats(0.05, 8.0),
    busy=st.floats(0.01, 120.0),
    cold=st.floats(0.0, 30.0),
    ci=st.floats(0.0, 800.0),
)
@settings(max_examples=50, deadline=None)
def test_service_carbon_nonnegative_and_cold_dominates(mem, busy, cold, ci):
    model = CarbonModel(trace=CarbonIntensityTrace.constant(ci))
    server = PAIR_A.new
    warm = model.service(server, mem, 0.0, busy).total
    coldb = model.service(server, mem, 0.0, busy, cold).total
    assert warm >= 0.0
    # A sub-epsilon cold overhead can land one ULP below the warm total
    # through the energy-sum round-off, so compare with a tiny tolerance.
    assert coldb >= warm * (1.0 - 1e-12)
