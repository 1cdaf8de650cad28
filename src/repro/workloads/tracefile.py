"""Columnar on-disk trace format + chunked Azure-CSV compiler.

One Azure day is millions of invocations. A full Python
:class:`~repro.workloads.trace.InvocationTrace` (names as a
``list[str]``, times boxed on iteration) is what made that impossible;
this module is the streaming side of the columnar core:

**Format (version 1)** -- a NumPy ``.npz`` archive:

========================  =========  ==========================================
member                    dtype      contents
========================  =========  ==========================================
``format_version``        int32      ``[1]``
``times_s``               float64    sorted arrival times (the hot column)
``func_ids``              int32      per-event index into ``names``
``names``                 unicode    intern table, position == id
``prof_mem_gb``           float64    per-id :class:`FunctionProfile` columns
``prof_exec_ref_s``       float64    ...
``prof_cold_ref_s``       float64    ...
``prof_perf_sensitivity`` float64    ...
``prof_cold_sensitivity`` float64    ...
========================  =========  ==========================================

Saved uncompressed (the default), the two event columns are STORED zip
members, so :func:`open_trace` can hand them straight to ``np.memmap``:
a replay's resident set is then the intern/profile tables plus
whatever event pages the OS keeps warm -- not one full in-memory trace
per process. ``compress=True`` produces a smaller archival file that
reopens into RAM instead.

The compiler (:func:`compile_azure_csv`) streams ``app,func,
end_timestamp,duration`` CSV rows (the Azure Functions 2021 trace
layout) in bounded-memory chunks, interning names as it goes, and
synthesizes a deterministic SeBS-clone profile per function (CRC32-seeded
base pick + memory perturbation, execution time calibrated to the mean
observed duration) -- so recompiling the same CSV anywhere yields a
bit-identical trace.
"""

from __future__ import annotations

import csv
import pathlib
import struct
import zipfile
from typing import Iterator, Sequence

import numpy as np

from repro.workloads.functions import FunctionProfile
from repro.workloads.sebs import SEBS_FUNCTIONS
from repro.workloads.trace import InvocationTrace, _crc32

FORMAT_VERSION = 1

#: Per-id profile columns, in FunctionProfile field order.
_PROFILE_COLUMNS = (
    "prof_mem_gb",
    "prof_exec_ref_s",
    "prof_cold_ref_s",
    "prof_perf_sensitivity",
    "prof_cold_sensitivity",
)

_CSV_HEADER = ("app", "func", "end_timestamp", "duration")


# ---------------------------------------------------------------------------
# Save / open.
# ---------------------------------------------------------------------------


def save_trace(
    trace: InvocationTrace,
    path: "str | pathlib.Path",
    *,
    compress: bool = False,
) -> None:
    """Write ``trace`` in the columnar format (uncompressed => mmap-able)."""
    profiles = [trace.functions[n] for n in trace.names]
    arrays = {
        "format_version": np.array([FORMAT_VERSION], dtype=np.int32),
        "times_s": np.ascontiguousarray(trace.times_s, dtype=np.float64),
        "func_ids": np.ascontiguousarray(trace.func_ids, dtype=np.int32),
        "names": np.array(trace.names, dtype=np.str_),
        "prof_mem_gb": np.array([p.mem_gb for p in profiles]),
        "prof_exec_ref_s": np.array([p.exec_ref_s for p in profiles]),
        "prof_cold_ref_s": np.array([p.cold_ref_s for p in profiles]),
        "prof_perf_sensitivity": np.array(
            [p.perf_sensitivity for p in profiles]
        ),
        "prof_cold_sensitivity": np.array(
            [p.cold_sensitivity for p in profiles]
        ),
    }
    writer = np.savez_compressed if compress else np.savez
    writer(pathlib.Path(path), **arrays)


def _mmap_member(path: pathlib.Path, member: str) -> np.ndarray | None:
    """Memory-map one STORED ``.npy`` member of an npz archive.

    ``np.load(mmap_mode=...)`` refuses zip archives, but an uncompressed
    member is a verbatim ``.npy`` byte range: locate it via the zip
    local header, parse the npy header, and map the data that follows.
    Returns None when the member is compressed (caller falls back to a
    RAM load).
    """
    with zipfile.ZipFile(path) as zf:
        try:
            info = zf.getinfo(member)
        except KeyError:
            return None
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        header_offset = info.header_offset
    with open(path, "rb") as fh:
        fh.seek(header_offset)
        local = fh.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            return None
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        fh.seek(header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            return None
        if fortran:
            return None
        offset = fh.tell()
    return np.memmap(path, dtype=dtype, mode="r", shape=shape, offset=offset)


def open_trace(
    path: "str | pathlib.Path", *, mmap: bool = True
) -> InvocationTrace:
    """Reopen a saved trace; event columns memory-mapped when possible."""
    path = pathlib.Path(path)
    times: np.ndarray | None = None
    ids: np.ndarray | None = None
    with np.load(path, allow_pickle=False) as npz:
        version = int(npz["format_version"][0])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: trace format version {version} is not supported "
                f"(expected {FORMAT_VERSION})"
            )
        names = [str(n) for n in npz["names"]]
        prof = {col: npz[col] for col in _PROFILE_COLUMNS}
        if not mmap:
            times, ids = npz["times_s"], npz["func_ids"]
    if mmap:
        times = _mmap_member(path, "times_s.npy")
        ids = _mmap_member(path, "func_ids.npy")
        if times is None or ids is None:  # compressed archive: RAM load
            with np.load(path, allow_pickle=False) as npz:
                times, ids = npz["times_s"], npz["func_ids"]
    functions = {
        name: FunctionProfile(
            name=name,
            mem_gb=float(prof["prof_mem_gb"][i]),
            exec_ref_s=float(prof["prof_exec_ref_s"][i]),
            cold_ref_s=float(prof["prof_cold_ref_s"][i]),
            perf_sensitivity=float(prof["prof_perf_sensitivity"][i]),
            cold_sensitivity=float(prof["prof_cold_sensitivity"][i]),
        )
        for i, name in enumerate(names)
    }
    return InvocationTrace(functions=functions, times_s=times, func_ids=ids)


def trace_info(path: "str | pathlib.Path") -> dict:
    """Cheap metadata for ``ecolife trace info`` (no full materialization)."""
    path = pathlib.Path(path)
    with zipfile.ZipFile(path) as zf:
        stored = {
            i.filename: i.compress_type == zipfile.ZIP_STORED
            for i in zf.infolist()
        }
    with np.load(path, allow_pickle=False) as npz:
        version = int(npz["format_version"][0])
        n_functions = int(npz["names"].shape[0])
    times = _mmap_member(path, "times_s.npy")
    if times is None:
        with np.load(path, allow_pickle=False) as npz:
            times = npz["times_s"]
    return {
        "path": str(path),
        "format_version": version,
        "size_bytes": path.stat().st_size,
        "mmap_able": stored.get("times_s.npy", False)
        and stored.get("func_ids.npy", False),
        "n_functions": n_functions,
        "n_invocations": int(times.size),
        "duration_s": float(times[-1]) if times.size else 0.0,
    }


# ---------------------------------------------------------------------------
# Azure-CSV compiler.
# ---------------------------------------------------------------------------


def _calibrated_profile(name: str, mean_duration_s: float) -> FunctionProfile:
    """Deterministic SeBS-clone profile for one trace function.

    Seeded by the name's CRC32 (the repo's deterministic-hash idiom), so
    every compilation of the same CSV -- on any host, in any process --
    produces the same profile: base SeBS pick + memory perturbation from
    the seeded RNG, execution time calibrated to the mean duration
    observed in the CSV.
    """
    base_names = sorted(SEBS_FUNCTIONS)
    crc = _crc32(name)
    base = SEBS_FUNCTIONS[base_names[crc % len(base_names)]]
    rng = np.random.default_rng(crc)
    mem_scale = float(rng.uniform(0.7, 1.3))
    if mean_duration_s > 0.0:
        exec_scale = float(
            np.clip(mean_duration_s / base.exec_ref_s, 0.05, 50.0)
        )
    else:
        exec_scale = 1.0
    return base.clone(name=name, mem_scale=mem_scale, exec_scale=exec_scale)


def _read_csv_chunks(
    csv_path: pathlib.Path, chunk_rows: int
) -> Iterator[list[Sequence[str]]]:
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(
            h.strip().lower() for h in header
        ) != _CSV_HEADER:
            raise ValueError(
                f"{csv_path}: expected CSV header {','.join(_CSV_HEADER)!r}, "
                f"got {header!r}"
            )
        chunk: list[Sequence[str]] = []
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(
                    f"{csv_path}: malformed row {row!r} (expected 4 columns)"
                )
            chunk.append(row)
            if len(chunk) >= chunk_rows:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


def compile_azure_csv(
    csv_path: "str | pathlib.Path",
    out_path: "str | pathlib.Path",
    *,
    chunk_rows: int = 100_000,
    compress: bool = False,
) -> dict:
    """Compile an Azure-layout CSV into the columnar trace format.

    Rows are ``app,func,end_timestamp,duration`` (seconds); the arrival
    instant is ``end_timestamp - duration``. Reading is chunked
    (``chunk_rows`` at a time) so compilation memory is the columns
    themselves, never a per-row Python object per event. Returns the
    :func:`trace_info` dict of the compiled file plus ``n_rows``.
    """
    csv_path = pathlib.Path(csv_path)
    intern: dict[str, int] = {}
    time_chunks: list[np.ndarray] = []
    id_chunks: list[np.ndarray] = []
    dur_sum: list[float] = []
    dur_count: list[int] = []
    for chunk in _read_csv_chunks(csv_path, chunk_rows):
        ids = np.empty(len(chunk), dtype=np.int32)
        times = np.empty(len(chunk), dtype=np.float64)
        for i, (app, func, end_ts, duration) in enumerate(chunk):
            name = f"{app}:{func}"
            fid = intern.get(name)
            if fid is None:
                fid = intern[name] = len(intern)
                dur_sum.append(0.0)
                dur_count.append(0)
            dur = float(duration)
            ids[i] = fid
            times[i] = float(end_ts) - dur
            dur_sum[fid] += dur
            dur_count[fid] += 1
        time_chunks.append(times)
        id_chunks.append(ids)
    if time_chunks:
        all_times = np.concatenate(time_chunks)
        all_ids = np.concatenate(id_chunks)
    else:
        all_times = np.empty(0, dtype=np.float64)
        all_ids = np.empty(0, dtype=np.int32)
    order = np.argsort(all_times, kind="stable")
    functions = {
        name: _calibrated_profile(
            name, dur_sum[fid] / dur_count[fid] if dur_count[fid] else 0.0
        )
        for name, fid in intern.items()
    }
    trace = InvocationTrace(
        functions=functions,
        times_s=all_times[order],
        func_ids=all_ids[order],
    )
    save_trace(trace, out_path, compress=compress)
    info = trace_info(out_path)
    info["n_rows"] = int(all_times.size)
    return info


def write_azure_sample_csv(
    path: "str | pathlib.Path",
    *,
    n_functions: int = 128,
    duration_hours: float = 24.0,
    seed: int = 2024,
    duration_noise: float = 0.05,
    median_interarrival_s: float | None = None,
    exec_floor_s: float = 0.0,
) -> int:
    """Write a deterministic downsampled Azure-day CSV sample.

    The sample is the synthetic Azure-shaped workload
    (:func:`~repro.workloads.azure.generate_azure_trace`) serialized in
    the CSV layout the compiler reads -- the bundled stand-in for the
    real (non-redistributable) Azure Functions trace that the
    ``azure-scale-smoke`` CI job compiles and replays. Deterministic
    given the arguments. Returns the number of data rows written.

    ``median_interarrival_s`` overrides the popularity median (lower =
    denser arrivals); ``exec_floor_s`` clamps every written duration
    from below, raising the minimum per-function runtime of the
    compiled profiles.
    """
    from repro import units
    from repro.workloads.azure import AzureTraceConfig, generate_azure_trace

    overrides: dict = {}
    if median_interarrival_s is not None:
        overrides["median_interarrival_s"] = median_interarrival_s
        overrides["min_interarrival_s"] = min(
            median_interarrival_s, AzureTraceConfig.min_interarrival_s
        )
    cfg = AzureTraceConfig(
        n_functions=n_functions,
        duration_s=duration_hours * units.SECONDS_PER_HOUR,
        seed=seed,
        **overrides,
    )
    trace, _specs = generate_azure_trace(cfg)
    rng = np.random.default_rng(seed)
    noise = 1.0 + duration_noise * rng.standard_normal(len(trace))
    path = pathlib.Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for inv, scale in zip(trace, np.clip(noise, 0.5, 1.5).tolist()):
            app, func = inv.func.name.split(":", 1)
            dur = max(inv.func.exec_ref_s, exec_floor_s) * scale
            writer.writerow(
                (app, func, f"{inv.t + dur:.6f}", f"{dur:.6f}")
            )
    return len(trace)
