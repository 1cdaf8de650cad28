"""Warm pool mechanics."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Generation
from repro.simulator import PoolFullError, WarmContainer, WarmPool
from repro.workloads import FunctionProfile


def _container(name, mem=1.0, gen=Generation.NEW, start=0.0, expire=600.0, idx=0):
    func = FunctionProfile(name=name, mem_gb=mem, exec_ref_s=1.0, cold_ref_s=1.0)
    return WarmContainer(
        func=func, location=gen, segment_start_s=start, expire_s=expire,
        decider_index=idx,
    )


class TestWarmPool:
    def test_insert_and_lookup(self):
        pool = WarmPool(generation=Generation.NEW, capacity_gb=4.0)
        c = _container("a", mem=1.5)
        pool.insert(c)
        assert "a" in pool
        assert pool.get("a") is c
        assert pool.used_gb == pytest.approx(1.5)
        assert pool.free_gb == pytest.approx(2.5)

    def test_capacity_enforced(self):
        pool = WarmPool(generation=Generation.NEW, capacity_gb=2.0)
        pool.insert(_container("a", mem=1.5))
        assert not pool.fits(1.0)
        with pytest.raises(PoolFullError):
            pool.insert(_container("b", mem=1.0))

    def test_exact_fit_allowed(self):
        pool = WarmPool(generation=Generation.NEW, capacity_gb=2.0)
        pool.insert(_container("a", mem=1.5))
        pool.insert(_container("b", mem=0.5))
        assert len(pool) == 2

    def test_remove_restores_capacity(self):
        pool = WarmPool(generation=Generation.NEW, capacity_gb=2.0)
        pool.insert(_container("a", mem=2.0))
        pool.remove("a")
        assert pool.used_gb == 0.0
        pool.insert(_container("b", mem=2.0))

    def test_remove_missing_raises(self):
        pool = WarmPool(generation=Generation.NEW)
        with pytest.raises(KeyError):
            pool.remove("ghost")

    def test_duplicate_insert_rejected(self):
        pool = WarmPool(generation=Generation.NEW, capacity_gb=10.0)
        pool.insert(_container("a"))
        with pytest.raises(ValueError, match="already"):
            pool.insert(_container("a"))

    def test_generation_mismatch_rejected(self):
        pool = WarmPool(generation=Generation.NEW)
        with pytest.raises(ValueError, match="location"):
            pool.insert(_container("a", gen=Generation.OLD))

    def test_unbounded_default(self):
        pool = WarmPool(generation=Generation.OLD)
        assert pool.capacity_gb == math.inf
        for i in range(50):
            pool.insert(_container(f"f{i}", mem=100.0, gen=Generation.OLD))
        assert len(pool) == 50

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            WarmPool(generation=Generation.NEW, capacity_gb=-1.0)

    def test_ledger_exact_under_long_churn(self):
        """The memory ledger must not drift: a running +=/-= ledger
        accumulates rounding error over insert/remove churn (0.1, 0.3,
        ... are not representable), which the old near-zero clamp only
        hid. ``used_gb`` must equal the exact (fsum) sum of the current
        members at every step, and exactly 0.0 whenever empty."""
        pool = WarmPool(generation=Generation.NEW, capacity_gb=64.0)
        sizes = [0.1, 0.3, 0.7, 1.1, 0.9, 0.2]
        live = {}
        for step in range(5000):
            name = f"f{step % 23}"
            if name in live:
                pool.remove(name)
                del live[name]
            else:
                mem = sizes[step % len(sizes)]
                pool.insert(_container(name, mem=mem))
                live[name] = mem
            assert pool.used_gb == math.fsum(live.values())
            assert pool.free_gb == pool.capacity_gb - pool.used_gb
        for name in list(live):
            pool.remove(name)
        assert pool.used_gb == 0.0
        assert len(pool) == 0

    def test_ledger_exact_at_capacity_boundary(self):
        """Ten 0.1 GB inserts then removes: the drifting ledger answered
        ``fits(0.5)`` wrong near the boundary; the exact one must accept
        a container that exactly fills remaining capacity."""
        pool = WarmPool(generation=Generation.NEW, capacity_gb=1.0)
        for i in range(10):
            pool.insert(_container(f"f{i}", mem=0.1))
        for i in range(9):
            pool.remove(f"f{i}")
        assert pool.used_gb == 0.1
        assert pool.fits(0.9)

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 11),
                st.floats(0.01, 8.0, allow_nan=False, allow_infinity=False),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_churn_ledger_is_fsum_of_members(self, ops):
        """Random insert/remove churn: ``used_gb`` is always the fsum of
        the current members' ``mem_gb``, and an emptied pool reads 0.0."""
        pool = WarmPool(generation=Generation.NEW)
        for slot, mem in ops:
            name = f"f{slot}"
            if name in pool:
                pool.remove(name)
            else:
                pool.insert(_container(name, mem=mem))
            assert pool.used_gb == math.fsum(c.mem_gb for c in pool.containers())
        for name in pool.names():
            pool.remove(name)
        assert pool.used_gb == 0.0
        assert pool.free_gb == math.inf

    def test_pickle_without_member_sizes_restores_ledger(self):
        """A pool pickled before the name -> size map existed restores
        with the map rebuilt from its members."""
        pool = WarmPool(generation=Generation.NEW, capacity_gb=4.0)
        pool.insert(_container("a", mem=0.1))
        pool.insert(_container("b", mem=0.7))
        state = dict(pool.__dict__)
        del state["_mems"]
        old = WarmPool.__new__(WarmPool)
        old.__setstate__(state)
        restored = pickle.loads(pickle.dumps(old))
        restored.remove("a")
        assert restored.used_gb == 0.7
        restored.insert(_container("c", mem=0.2))
        assert restored.used_gb == math.fsum([0.7, 0.2])
        assert restored.names() == ["b", "c"]


class TestWarmContainer:
    def test_remaining(self):
        c = _container("a", expire=100.0)
        assert c.remaining_s(40.0) == 60.0
        assert c.remaining_s(150.0) == 0.0

    def test_properties(self):
        c = _container("a", mem=2.5)
        assert c.name == "a"
        assert c.mem_gb == 2.5
