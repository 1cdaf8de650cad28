"""The counter-RNG equivalence contract (``rng_mode="counter"``).

Counter mode trades the stream contract (bit-identity with the
sequential per-function optimizers) for *self-consistency*: every draw
is a pure function of the swarm's private ``(key, step)`` counters, so a
swarm's trajectory is independent of

- batch composition (fused ``step`` vs ``step_one`` vs any subset
  grouping),
- slot placement (retire/rehydrate into different slots, compaction
  moves), and
- KDM-level decision grouping (``decide_batch`` vs per-item ``decide``).

These properties are what let the fused kernel draw ``r1``/``r2`` for
the whole batch in one call without a per-swarm Python loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EcoLifeConfig
from repro.core.arrival import ArrivalRegistry
from repro.core.kdm import KeepAliveDecisionMaker
from repro.optimizers import DPSOParams, SwarmFleet
from repro.optimizers.counter_rng import philox4x32, uniforms
from repro.workloads import FunctionProfile
from tests.test_core_objective import make_env

N_PARTICLES = 15


def sphere_at(target):
    return lambda x: ((x - target) ** 2).sum(axis=1)


def batch_spheres(targets):
    targets = np.asarray(targets)

    def fn(x):
        return ((x - targets[: len(x), None, None]) ** 2).sum(axis=2)

    return fn


def counter_fleet(n, dynamic=True, base=77):
    kw = dict(params=DPSOParams()) if dynamic else {}
    fleet = SwarmFleet(
        dim=2, n_particles=N_PARTICLES, rng_mode="counter", **kw
    )
    for i in range(n):
        fleet.add_swarm(np.random.default_rng(base + i))
    return fleet


def assert_rows_equal(a, slot_a, b, slot_b):
    assert np.array_equal(a.positions[slot_a], b.positions[slot_b])
    assert np.array_equal(a.velocities[slot_a], b.velocities[slot_b])
    assert np.array_equal(a.pbest_positions[slot_a], b.pbest_positions[slot_b])
    assert np.array_equal(a.pbest_scores[slot_a], b.pbest_scores[slot_b])
    assert a.best_scores[slot_a] == b.best_scores[slot_b]
    assert a._ctr_key[slot_a] == b._ctr_key[slot_b]
    assert a._ctr_step[slot_a] == b._ctr_step[slot_b]


class TestPhiloxKernel:
    """The vectorised Philox4x32-10 against the Random123 KAT vectors."""

    def test_known_answer_vectors(self):
        # From Random123's kat_vectors: philox4x32-10.
        zero = philox4x32(0, 0, 0, 0, 0, 0)
        assert [int(w) for w in zero] == [
            0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8,
        ]
        ones = philox4x32(*([0xFFFFFFFF] * 4), 0xFFFFFFFF, 0xFFFFFFFF)
        assert [int(w) for w in ones] == [
            0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD,
        ]
        pi = philox4x32(
            0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344,
            0xA4093822, 0x299F31D0,
        )
        assert [int(w) for w in pi] == [
            0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1,
        ]

    def test_uniforms_batch_shape_invariance(self):
        keys = np.uint64([3, 11, 2**63 + 5])
        steps = np.uint64([0, 7, 9])
        batched = uniforms(keys, steps, 0, 13)
        assert batched.shape == (3, 13)
        for i in range(3):
            solo = uniforms(keys[i], steps[i], 0, 13)
            assert np.array_equal(batched[i], solo)

    def test_uniforms_depend_on_every_coordinate(self):
        base = uniforms(np.uint64(5), np.uint64(1), 0, 8)
        assert not np.array_equal(base, uniforms(np.uint64(6), np.uint64(1), 0, 8))
        assert not np.array_equal(base, uniforms(np.uint64(5), np.uint64(2), 0, 8))
        assert not np.array_equal(base, uniforms(np.uint64(5), np.uint64(1), 1, 8))

    def test_uniforms_in_unit_interval(self):
        u = uniforms(np.uint64(123), np.uint64(0), 0, 40001)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01


class TestCounterFleetSelfConsistency:
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_step_equals_step_one(self, dynamic):
        """Fused stepping == single-swarm stepping, draw for draw."""
        n = 6
        targets = np.linspace(0.05, 0.95, n)
        fa = counter_fleet(n, dynamic)
        fb = counter_fleet(n, dynamic)
        deltas = [(0.0, 0.0), (3.0, 40.0), (0.01, 0.1), (5.0, 10.0)]
        for df, dci in deltas:
            for i in range(n):
                if dynamic:
                    fired_a = fa.perceive(i, df, dci)
                    fired_b = fb.perceive(i, df, dci)
                    assert fired_a == fired_b
            fa.step(np.arange(n), batch_spheres(targets), iterations=3)
            for i in range(n):
                fb.step_one(i, sphere_at(targets[i]), iterations=3)
            for i in range(n):
                assert_rows_equal(fa, i, fb, i)

    def test_batch_composition_invariance(self):
        """Any grouping of the same per-swarm step sequence agrees."""
        n = 8
        targets = np.linspace(0.1, 0.9, n)
        whole = counter_fleet(n)
        split = counter_fleet(n)
        for _ in range(4):
            whole.step(np.arange(n), batch_spheres(targets), iterations=2)
            for part in (np.array([0, 3, 4]), np.array([1, 2, 5, 6, 7])):
                split.step(part, batch_spheres(targets[part]), iterations=2)
        for i in range(n):
            assert_rows_equal(whole, i, split, i)

    def test_retire_rehydrate_compact_is_identity(self):
        """A retired, compacted-around, rehydrated swarm continues its
        counter stream exactly where it stopped -- in a different slot."""
        n = 8
        targets = np.linspace(0.1, 0.9, n)
        subject = counter_fleet(n)
        twin = counter_fleet(n)

        subject.step(np.arange(n), batch_spheres(targets), iterations=2)
        for i in range(n):
            twin.step_one(i, sphere_at(targets[i]), iterations=2)

        archives = {i: subject.retire(i) for i in (0, 1, 2, 5)}
        for a in archives.values():
            assert a.ctr_step > 0  # counters rode along
        remap = subject.compact()
        slot = {i: remap.get(i, i) for i in (3, 4, 6, 7)}

        # Survivors keep stepping while the others sit archived.
        live = sorted(slot, key=lambda i: slot[i])
        subject.step(
            [slot[i] for i in live], batch_spheres(targets[live]), iterations=3
        )
        for i in live:
            twin.step_one(i, sphere_at(targets[i]), iterations=3)

        for i, arch in archives.items():
            slot[i] = subject.rehydrate(arch)
        order = sorted(range(n), key=lambda i: slot[i])
        subject.step(
            [slot[i] for i in order], batch_spheres(targets[order]), iterations=2
        )
        for i in range(n):
            twin.step_one(i, sphere_at(targets[i]), iterations=2)
        for i in range(n):
            assert_rows_equal(subject, slot[i], twin, i)

    def test_perceive_batch_matches_scalar_perceive(self):
        """The fused redistribution draw (one counter-RNG call for all
        triggered swarms) == per-swarm redistribution draws."""
        n = 6
        targets = np.linspace(0.05, 0.95, n)
        batched = counter_fleet(n)
        scalar = counter_fleet(n)
        idx = np.arange(n)
        for df, dci in [(0.0, 0.0), (3.0, 40.0), (5.0, 10.0)]:
            fired = batched.perceive_batch(
                idx, np.full(n, df), np.full(n, dci)
            )
            assert fired.tolist() == [
                scalar.perceive(i, df, dci) for i in range(n)
            ]
            batched.step(idx, batch_spheres(targets), iterations=2)
            for i in range(n):
                scalar.step_one(i, sphere_at(targets[i]), iterations=2)
        for i in range(n):
            assert_rows_equal(batched, i, scalar, i)

    def test_redistribution_is_slot_independent(self):
        """Perceive-triggered redistribution draws from (key, step), so
        it survives a retire/rehydrate into a different slot."""
        fa = counter_fleet(3)
        fb = counter_fleet(3)
        # Make swarm 2 land in a different slot of fa (the free list is
        # LIFO, so retiring 2 before 0 hands its rehydration slot 0).
        moved = fa.retire(2)
        arch = fa.retire(0)
        slot2 = fa.rehydrate(moved)
        fa.rehydrate(arch)
        assert slot2 != 2
        assert fa.perceive(slot2, 5.0, 40.0)  # big change -> redistribute
        assert fb.perceive(2, 5.0, 40.0)
        fa.step_one(slot2, sphere_at(0.4), iterations=2)
        fb.step_one(2, sphere_at(0.4), iterations=2)
        assert_rows_equal(fa, slot2, fb, 2)

    def test_stream_and_counter_modes_differ(self):
        """Counter mode is a *different* contract -- same seeds must not
        reproduce the stream draws (that would mean the mode knob is
        dead)."""
        fa = counter_fleet(2)
        fb = SwarmFleet(dim=2, n_particles=N_PARTICLES, params=DPSOParams())
        for i in range(2):
            fb.add_swarm(np.random.default_rng(77 + i))
        targets = np.array([0.3, 0.7])
        fa.step(np.arange(2), batch_spheres(targets), iterations=2)
        fb.step(np.arange(2), batch_spheres(targets), iterations=2)
        assert not np.array_equal(fa.positions[:2], fb.positions[:2])

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["step", "retire", "rehydrate", "compact"]),
            min_size=4,
            max_size=14,
        ),
        data=st.data(),
    )
    def test_random_lifecycle_matches_solo_twin(self, ops, data):
        """Hypothesis: any interleaving of fused steps with retire/
        rehydrate/compact leaves every swarm exactly where a plain
        solo-stepped twin fleet is."""
        n = 5
        targets = np.linspace(0.15, 0.85, n)
        subject = counter_fleet(n, base=900)
        twin = counter_fleet(n, base=900)
        slot = {i: i for i in range(n)}
        archived: dict[int, object] = {}

        for op in ops:
            if op == "step":
                live = sorted(slot, key=lambda i: slot[i])
                if not live:
                    continue
                subject.step(
                    [slot[i] for i in live],
                    batch_spheres(targets[live]),
                    iterations=1,
                )
                for i in live:
                    twin.step_one(i, sphere_at(targets[i]), iterations=1)
            elif op == "retire" and slot:
                i = data.draw(st.sampled_from(sorted(slot)), label="retire")
                archived[i] = subject.retire(slot.pop(i))
            elif op == "rehydrate" and archived:
                i = data.draw(st.sampled_from(sorted(archived)), label="rehydrate")
                slot[i] = subject.rehydrate(archived.pop(i))
            elif op == "compact":
                remap = subject.compact()
                slot = {i: remap.get(s, s) for i, s in slot.items()}

        for i, arch in archived.items():
            slot[i] = subject.rehydrate(arch)
        for i in range(n):
            assert_rows_equal(subject, slot[i], twin, i)


class TestKDMCounterMode:
    """KDM-level: grouping invariance and contract wiring."""

    def _kdm(self, **cfg_kw):
        env = make_env()
        cfg = EcoLifeConfig(rng_mode="counter", **cfg_kw)
        arrivals = ArrivalRegistry()
        return KeepAliveDecisionMaker(env, cfg, arrivals), arrivals

    def _funcs(self, n=4):
        return [
            FunctionProfile(
                name=f"f{i}", mem_gb=0.5, exec_ref_s=1.5 + i, cold_ref_s=0.8
            )
            for i in range(n)
        ]

    def test_decide_batch_matches_item_by_item_decides(self):
        """Counter draws make decisions grouping-independent, so batched
        and per-item decisions agree even though neither matches the
        sequential stream path."""
        funcs = self._funcs()
        grouped, ga = self._kdm()
        itemised, ia = self._kdm()
        assert grouped._fleet_for_config().rng_mode == "counter"
        for t0 in (0.0, 120.0, 240.0):
            for f in funcs:
                ga.observe(f.name, t0)
                ia.observe(f.name, t0)
            batched = grouped.decide_batch([(f, t0 + 2.0) for f in funcs])
            solo = [itemised.decide(f, t0 + 2.0) for f in funcs]
            assert batched == solo
        assert grouped.redistributions == itemised.redistributions

    def test_retirement_is_identity_under_counter_mode(self):
        funcs = self._funcs(6)
        ret, ra = self._kdm(retire_after_s=300.0)
        plain, pa = self._kdm()
        schedule = [(120.0 * k, funcs[:3]) for k in range(4)]
        schedule += [(480.0 + 120.0 * k, funcs[3:]) for k in range(12)]
        schedule += [(2400.0, [funcs[0]])]
        for t, fs in schedule:
            for f in fs:
                ret.on_arrival(f.name, t)
                ra.observe(f.name, t)
                plain.on_arrival(f.name, t)
                pa.observe(f.name, t)
            assert ret.decide_batch([(f, t + 2.0) for f in fs]) == (
                plain.decide_batch([(f, t + 2.0) for f in fs])
            )
        assert ret.retired >= 3
        assert ret.rehydrated >= 1


class TestConfigKnob:
    def test_default_jobs_cache_per_rng_mode(self, monkeypatch, tmp_path):
        """config=None sweep jobs must not share cache entries across
        RNG modes (counter results differ from stream results); the
        stream token stays 'default' so existing caches remain valid."""
        from repro.experiments.runner import ResultCache, RunnerJob, ScenarioSpec

        cache = ResultCache(tmp_path)
        job = RunnerJob(scheduler="ecolife", spec=ScenarioSpec(n_functions=2))
        monkeypatch.delenv("ECOLIFE_RNG_MODE", raising=False)
        stream_key = cache.key(job)
        monkeypatch.setenv("ECOLIFE_RNG_MODE", "counter")
        assert cache.key(job) != stream_key

    def test_env_default(self, monkeypatch):
        from repro.core.config import rng_mode_default

        monkeypatch.delenv("ECOLIFE_RNG_MODE", raising=False)
        assert rng_mode_default() == "stream"
        monkeypatch.setenv("ECOLIFE_RNG_MODE", "counter")
        assert rng_mode_default() == "counter"
        assert EcoLifeConfig().rng_mode == "counter"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="rng_mode"):
            EcoLifeConfig(rng_mode="quantum")
        with pytest.raises(ValueError, match="rng_mode"):
            SwarmFleet(dim=2, rng_mode="quantum")
