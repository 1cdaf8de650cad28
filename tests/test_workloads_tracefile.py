"""Columnar trace core + streaming trace files (ISSUE 10).

Covers the interned-column representation (``func_ids`` + ``names``
intern table) against the classic ``func_names`` construction and the
``.npz`` trace-file layer: save/open round trips (memory-mapped and
compressed), the chunked Azure-CSV compiler, and the deterministic
sample writer.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import FunctionProfile, InvocationTrace
from repro.workloads.tracefile import (
    compile_azure_csv,
    trace_info,
    write_azure_sample_csv,
)


def _f(name, mem=0.5):
    return FunctionProfile(name=name, mem_gb=mem, exec_ref_s=1.0, cold_ref_s=2.0)


def _trace(names_pool, events):
    functions = [_f(n) for n in names_pool]
    return InvocationTrace.from_events(
        [(t, functions[i]) for t, i in events], functions=functions
    )


# -- strategies ----------------------------------------------------------------

_names = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def _random_trace(draw):
    pool = draw(_names)
    n = draw(st.integers(min_value=0, max_value=40))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    idx = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=n,
            max_size=n,
        )
    )
    return _trace(pool, list(zip(times, idx)))


# -- columnar core -------------------------------------------------------------


class TestColumnarCore:
    @given(trace=_random_trace())
    @settings(max_examples=40, deadline=None)
    def test_columnar_matches_name_construction(self, trace):
        # Rebuilding through the legacy func_names constructor lands on
        # the same columns, and the lazy name view inverts the interning.
        rebuilt = InvocationTrace(
            functions=trace.functions,
            times_s=trace.times_s.copy(),
            func_names=trace.func_names,
        )
        assert rebuilt == trace
        assert rebuilt.func_names == [
            trace.names[i] for i in trace.func_ids.tolist()
        ]

    @given(trace=_random_trace())
    @settings(max_examples=40, deadline=None)
    def test_per_func_times_match_scan(self, trace):
        by_name = {}
        for t, n in zip(trace.times_s.tolist(), trace.func_names):
            by_name.setdefault(n, []).append(t)
        for name in trace.names:
            assert trace.times_of(name).tolist() == by_name.get(name, [])

    def test_per_func_zero_invocation_function(self):
        # Regression: a registered function with no arrivals must map to
        # an empty slice, not be dropped or shifted by the argsort.
        trace = _trace(["a", "b", "c"], [(1.0, 0), (2.0, 0), (3.0, 2)])
        assert trace.times_of("b").tolist() == []
        assert trace.invocation_counts() == {"a": 2, "b": 0, "c": 1}

    def test_func_ids_constructor_validates_range(self):
        with pytest.raises(ValueError, match="intern table"):
            InvocationTrace(
                functions={"a": _f("a")},
                times_s=np.array([1.0]),
                func_ids=np.array([5], dtype=np.int32),
            )



# -- trace files ---------------------------------------------------------------


class TestTraceFile:
    @given(trace=_random_trace())
    @settings(max_examples=20, deadline=None)
    def test_save_open_round_trip(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("tf") / "t.npz"
        trace.save(path)
        assert InvocationTrace.open(path) == trace
        assert InvocationTrace.open(path, mmap=False) == trace

    def test_compressed_round_trip_falls_back_to_ram(self, tmp_path):
        trace = _trace(["a", "b"], [(1.0, 0), (2.0, 1), (3.0, 0)])
        path = tmp_path / "t.npz"
        trace.save(path, compress=True)
        reopened = InvocationTrace.open(path)
        assert reopened == trace
        assert not trace_info(path)["mmap_able"]

    def test_mmap_open_is_memory_mapped(self, tmp_path):
        trace = _trace(["a", "b"], [(1.0, 0), (2.0, 1)])
        path = tmp_path / "t.npz"
        trace.save(path)
        reopened = InvocationTrace.open(path)
        assert isinstance(
            reopened.times_s if isinstance(reopened.times_s, np.memmap)
            else reopened.times_s.base,
            np.memmap,
        )
        assert trace_info(path)["mmap_able"]

    def test_opened_trace_supports_subset(self, tmp_path):
        trace = _trace(
            ["a", "b", "c"], [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 0)]
        )
        path = tmp_path / "t.npz"
        trace.save(path)
        reopened = InvocationTrace.open(path)
        assert reopened.subset(["a", "b"]) == trace.subset(["a", "b"])

    def test_opened_trace_pickles_materialized(self, tmp_path):
        import pickle

        trace = _trace(["a", "b"], [(1.0, 0), (2.0, 1)])
        path = tmp_path / "t.npz"
        trace.save(path)
        clone = pickle.loads(pickle.dumps(InvocationTrace.open(path)))
        assert clone == trace
        assert not isinstance(clone.times_s, np.memmap)
        assert clone.times_s.base is None or not isinstance(
            clone.times_s.base, np.memmap
        )

    def test_profiles_survive_round_trip(self, tmp_path):
        f = FunctionProfile(
            name="a",
            mem_gb=1.25,
            exec_ref_s=3.5,
            cold_ref_s=7.0,
            perf_sensitivity=0.6,
            cold_sensitivity=0.4,
        )
        trace = InvocationTrace.from_events([(1.0, f)], functions=[f])
        path = tmp_path / "t.npz"
        trace.save(path)
        assert InvocationTrace.open(path).functions["a"] == f


class TestAzureCsvCompiler:
    def test_sample_compile_round_trip(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        out = tmp_path / "s.npz"
        n_rows = write_azure_sample_csv(
            csv_path, n_functions=16, duration_hours=1.0, seed=5
        )
        info = compile_azure_csv(csv_path, out)
        assert info["n_rows"] == n_rows
        assert info["n_invocations"] == n_rows
        trace = InvocationTrace.open(out)
        assert len(trace) == n_rows
        assert np.all(np.diff(trace.times_s) >= 0.0)

    def test_chunk_size_does_not_change_output(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        write_azure_sample_csv(
            csv_path, n_functions=12, duration_hours=1.0, seed=9
        )
        compile_azure_csv(csv_path, tmp_path / "big.npz", chunk_rows=100_000)
        compile_azure_csv(csv_path, tmp_path / "small.npz", chunk_rows=17)
        assert InvocationTrace.open(tmp_path / "big.npz") == InvocationTrace.open(
            tmp_path / "small.npz"
        )

    def test_compiler_matches_from_events(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        write_azure_sample_csv(
            csv_path, n_functions=10, duration_hours=0.5, seed=3
        )
        compile_azure_csv(csv_path, tmp_path / "t.npz")
        trace = InvocationTrace.open(tmp_path / "t.npz")
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        arrivals = sorted(
            (
                float(r["end_timestamp"]) - float(r["duration"]),
                f"{r['app']}:{r['func']}",
            )
            for r in rows
        )
        assert trace.times_s.tolist() == pytest.approx([t for t, _ in arrivals])
        assert trace.func_names == [n for _, n in arrivals]

    def test_rejects_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,wrong\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            compile_azure_csv(bad, tmp_path / "t.npz")

    def test_sample_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_azure_sample_csv(a, n_functions=8, duration_hours=0.5, seed=4)
        write_azure_sample_csv(b, n_functions=8, duration_hours=0.5, seed=4)
        assert a.read_text() == b.read_text()


class TestFileWorkloadFamily:
    """The ``file`` generator family: replay a compiled trace from disk."""

    def _compiled(self, tmp_path):
        csv_path, npz_path = tmp_path / "az.csv", tmp_path / "az.npz"
        write_azure_sample_csv(csv_path, n_functions=6, duration_hours=0.5, seed=3)
        compile_azure_csv(csv_path, npz_path)
        return npz_path

    def test_generate_replays_the_file_verbatim(self, tmp_path):
        from repro.workloads.generators import WorkloadSpec, make_generator

        npz_path = self._compiled(tmp_path)
        gen = make_generator(WorkloadSpec.make("file", path=str(npz_path)))
        # n_functions / duration_s / seed are ignored: the file is the
        # workload. Two different calls yield the same trace.
        a, specs = gen.generate(4, 1800.0, seed=1)
        b, _ = gen.generate(99, 60.0, seed=2)
        direct = InvocationTrace.open(npz_path)
        assert np.array_equal(a.times_s, direct.times_s)
        assert a.func_names == direct.func_names == b.func_names
        assert {s.profile.name for s in specs} == set(direct.names)
        counts = direct.invocation_counts()
        for s in specs:
            if counts[s.profile.name]:
                assert s.mean_interarrival_s == pytest.approx(
                    direct.duration_s / counts[s.profile.name]
                )

    def test_spec_label_embeds_the_path(self, tmp_path):
        from repro.workloads.generators import WorkloadSpec

        npz_path = self._compiled(tmp_path)
        spec = WorkloadSpec.make("file", path=str(npz_path))
        # Cache identity: two different files must never share a label.
        assert str(npz_path) in spec.label

    def test_builds_through_build_trace(self, tmp_path):
        from repro.workloads import build_trace

        npz_path = self._compiled(tmp_path)
        trace = build_trace(f"file:path={npz_path}", 4, 1800.0, seed=1)
        assert len(trace) == len(InvocationTrace.open(npz_path))
