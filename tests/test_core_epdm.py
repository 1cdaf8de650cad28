"""The EPDM's vector scoring against the scalar ``min``-over-``fscore``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EcoLifeConfig, ExecutionPlacementDecisionMaker
from repro.core.objective import CostModel
from repro.hardware import Generation
from repro.workloads import FunctionProfile
from tests.oracles import adjustment as oracle
from tests.test_core_objective import make_env

OLD, NEW = Generation.OLD, Generation.NEW
_LOCATIONS = [(OLD, NEW), (NEW, OLD), (OLD,), (NEW,)]
_WARM = [(), (OLD,), (NEW,), (OLD, NEW)]


def _epdm(ci, locations, lambdas=(0.5, 0.5)):
    env = make_env(ci=ci)
    cfg = EcoLifeConfig(locations=locations, lambda_s=lambdas[0], lambda_c=lambdas[1])
    return ExecutionPlacementDecisionMaker(env, cfg, CostModel(env, cfg))


class TestChooseMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        mem=st.sampled_from([0.25, 0.5, 2.0]),
        exec_s=st.floats(0.05, 20.0),
        cold_s=st.floats(0.0, 10.0),
        ci=st.sampled_from([0.0, 1e-13, 40.0, 250.0, 900.0]),
        locations=st.sampled_from(_LOCATIONS),
        warm=st.sampled_from(_WARM),
        t=st.sampled_from([0.0, 1234.5]),
        lambdas=st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.9, 0.1)]),
    )
    def test_same_location(self, mem, exec_s, cold_s, ci, locations, warm, t, lambdas):
        func = FunctionProfile(
            name="f", mem_gb=mem, exec_ref_s=exec_s, cold_ref_s=cold_s
        )
        epdm = _epdm(ci, locations, lambdas)
        got = epdm.choose(func, t, warm)
        if len(warm) == 2 and len(locations) == 1:
            # Warm on both under a single-generation config (the engine
            # keeps at most one warm container per function, so replays
            # never get here): a location outside the config never wins.
            assert got is locations[0]
            return
        ref = _epdm(ci, locations, lambdas)
        assert got is oracle.choose(ref.costs, func, t, warm)

    def test_warm_on_both_picks_the_better_warm_score(self):
        func = FunctionProfile(name="f", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=1.0)
        epdm = _epdm(250.0, (OLD, NEW))
        ci = epdm.env.ci_at(0.0)
        scores = {
            g: oracle.fscore(epdm.costs, func, g, cold=False, ci=ci) for g in (OLD, NEW)
        }
        assert epdm.choose(func, 0.0, (OLD, NEW)) is min(scores, key=scores.get)

    def test_single_warm_location_reads_no_intensity(self, monkeypatch):
        epdm = _epdm(250.0, (OLD, NEW))

        def no_ci(t):
            raise AssertionError("ci_at read for a single warm location")

        monkeypatch.setattr(epdm.env, "ci_at", no_ci)
        func = FunctionProfile(name="f", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=1.0)
        assert epdm.choose(func, 0.0, (NEW,)) is NEW
