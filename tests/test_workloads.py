from __future__ import annotations

import hashlib
import itertools
import os
import time

import numpy as np
import pytest

from skewbench import collector, schema, workloads
from skewbench.collector import HostAdapter, SessionConfig
from skewbench.probes import Component, CounterRegistry, CounterSource
from skewbench.schema import AGGREGATED_SCHEMA, DEFAULT_SCHEMA
from skewbench.workloads import (
    FEATURE_BINDINGS,
    FIXED_HASH_PAYLOAD,
    KINDS,
    GpuSurrogate,
    StorageScratch,
    WorkloadError,
    run_csv_read,
    run_fib,
    run_list_creation,
    run_mem_reserve,
    run_string_hash,
    run_urandom,
    write_csv_fixture,
)

# Frozen once from run_string_hash(FIXED_HASH_PAYLOAD, seed); the function is
# a fixed seeded FNV-1a so these must never change.
HASH_SEED0 = 0xC63041C7132375C5
HASH_SEED1 = 0x9700C8700CC0FFA4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def host_adapter(tmp_path, monkeypatch):
    """A set-up HostAdapter factory; the entropy buffer is kept small."""
    monkeypatch.setattr(workloads, "URANDOM_BYTES", 64 * 1024)
    made = []

    def make(seed=0, registry=None, name="host"):
        config = SessionConfig("02:00:00:00:00:01", "Host", tmp_path / name, seed=seed)
        adapter = HostAdapter(config, registry=registry)
        adapter.setup()
        made.append(adapter)
        return adapter

    yield make
    for adapter in made:
        adapter.teardown()


def bindings_of(kind_id: str):
    return [b for b in FEATURE_BINDINGS if b.workload_id == kind_id]


def measure_storage(adapter, kind_id: str) -> list[float]:
    """One bracket per repetition of a storage kind, run by collect_sample
    through the session plan. Every other entry of the plan is swapped for
    a no-op read by a counter that steps 1 per read."""
    plan = [
        entry if binding.workload_id == kind_id
        else (None, lambda: None, itertools.count().__next__, 1 << 64, entry[-1])
        for binding, entry in zip(FEATURE_BINDINGS, collector.bracket_plan(adapter))
    ]
    values = collector.collect_sample(adapter.config, adapter, plan)[schema.FEATURE_OFFSET:]
    return [float(v) for binding, v in zip(FEATURE_BINDINGS, values) if binding.workload_id == kind_id]


class TestRegistry:
    def test_thirteen_kinds(self):
        assert len(KINDS) == 13

    def test_expands_to_215_columns(self):
        assert len(FEATURE_BINDINGS) == 215

    def test_bindings_match_schema_order(self):
        assert tuple(b.column for b in FEATURE_BINDINGS) == schema.FEATURE_COLUMNS

    def test_bijection_with_workload_variant_pairs(self):
        pairs = {(b.workload_id, b.variant) for b in FEATURE_BINDINGS}
        assert len(pairs) == 215

    def test_fixed_params(self):
        by_id = {kind.id: kind for kind in KINDS}
        assert by_id["cpu_sleep"].variants == (1, 2, 5, 10, 120)
        assert [k.id for k in KINDS if k.sleep] == ["cpu_sleep"]
        assert workloads.FIB_N == 20
        assert workloads.URANDOM_BYTES == 100 * 1024 * 1024
        assert workloads.MEM_RESERVE_BYTES == 100 * 1024 * 1024
        assert workloads.LIST_LENGTH == 1000
        assert workloads.CSV_FIXTURE_BYTES == 500 * 1000
        assert workloads.STORAGE_BLOCK_BYTES == 100 * 1024
        for kind_id in ("storage_read", "storage_write"):
            assert by_id[kind_id].variants == tuple(range(1, 101))

    def test_unique_ids(self):
        ids = [kind.id for kind in KINDS]
        assert len(set(ids)) == len(ids)

    def test_components(self):
        by_component = {}
        for kind in KINDS:
            by_component.setdefault(kind.component, []).append(kind.id)
        assert by_component == {
            Component.CPU: ["cpu_sleep", "cpu_string_hash", "cpu_pseudo_random",
                            "cpu_urandom", "cpu_fib"],
            Component.GPU: ["gpu_matrixmul", "gpu_matrixsum", "gpu_scopy"],
            Component.MEMORY: ["mem_list_creation", "mem_reserve", "mem_csv_read"],
            Component.STORAGE: ["storage_read", "storage_write"],
        }

    def test_derived_layout_digests(self):
        # SHA-256 of the header rows and the bindings as they were when each
        # group of columns was still spelled out by hand.
        assert sha256(",".join(DEFAULT_SCHEMA.columns)) == (
            "b673c079c36f004cd15fdee3620681639445b650aee87acf2caeded3e1765805")
        assert sha256(",".join(AGGREGATED_SCHEMA.columns)) == (
            "353a0d911c8bc16beae00c5552fe9f3edb62f6f369e44cf1dd795b1394ff74fb")
        assert sha256("\n".join(
            f"{b.column},{b.workload_id},{b.variant},{b.target_component.value}"
            for b in FEATURE_BINDINGS
        )) == "f43c83a3572c51016054c376c066079b5e5efe080ec51fbaf2ea4dcb3fd8f11a"


class TestFib:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (20, 6765), (30, 832040)])
    def test_values(self, n, expected):
        assert run_fib(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(WorkloadError):
            run_fib(0)


class TestStringHash:
    def test_payload_is_1kb(self):
        assert len(FIXED_HASH_PAYLOAD) == 1024

    def test_deterministic(self):
        assert run_string_hash(FIXED_HASH_PAYLOAD, 0) == run_string_hash(FIXED_HASH_PAYLOAD, 0)

    def test_frozen_digests(self):
        assert run_string_hash(FIXED_HASH_PAYLOAD, 0) == HASH_SEED0
        assert run_string_hash(FIXED_HASH_PAYLOAD, 1) == HASH_SEED1

    def test_seeds_differ(self):
        assert HASH_SEED0 != HASH_SEED1

    def test_empty_payload_rejected(self):
        with pytest.raises(WorkloadError):
            run_string_hash(b"", 0)


class TestSmallWorkloads:
    def test_pseudo_random_session_seeded(self, host_adapter):
        (binding,) = bindings_of("cpu_pseudo_random")
        draws = [host_adapter(seed=7, name=name).executable(binding)[1]() for name in "ab"]
        assert draws[0] == draws[1]

    def test_list_creation(self):
        out = run_list_creation()
        assert len(out) == 1000
        assert out[0] == 0 and out[-1] == 999

    def test_mem_reserve_touches_pages(self):
        buf = run_mem_reserve(1024 * 1024)
        assert len(buf) == 1024 * 1024
        assert buf[4096] == 1

    def test_urandom_fills_buffer(self):
        buf = bytearray(64 * 1024)
        assert run_urandom(buf) == len(buf)
        assert any(buf)  # all-zero entropy is vanishingly unlikely

    def test_csv_fixture_size_and_read(self, tmp_path):
        path = write_csv_fixture(tmp_path / "fixture.csv", n_bytes=50_000)
        assert path.stat().st_size >= 50_000
        assert path.stat().st_size <= 50_000 + 64
        assert run_csv_read(path) > 1000


class TestGpuSurrogate:
    def test_matrixsum_additive_inverse(self):
        g = GpuSurrogate()
        g.b = -g.a
        g.matrixsum()
        assert np.allclose(g.out, 0.0)

    def test_matrixmul_identity(self):
        g = GpuSurrogate()
        g.b = np.eye(g.a.shape[0], dtype=np.float32)
        g.matrixmul()
        assert np.allclose(g.out, g.a, atol=1e-5)

    def test_scopy_bit_identical(self):
        g = GpuSurrogate()
        g.scopy()
        assert np.array_equal(g.out, g.a)

    def test_dispatch(self, host_adapter):
        adapter = host_adapter()
        (binding,) = bindings_of("gpu_scopy")
        adapter.executable(binding)[1]()
        surrogate = adapter._state.surrogate
        assert np.array_equal(surrogate.out, surrogate.a)

    def test_fixed_seed_matrices(self):
        assert np.array_equal(GpuSurrogate().a, GpuSurrogate().a)

    def test_surrogate_flagged(self):
        assert GpuSurrogate.backend_name == "cpu-surrogate"


class TestStorage:
    def test_hundred_positive_durations(self, host_adapter):
        adapter = host_adapter()
        writes = measure_storage(adapter, "storage_write")
        reads = measure_storage(adapter, "storage_read")
        assert len(writes) == 100 and len(reads) == 100
        assert all(v > 0 for v in writes + reads)

    def test_write_then_read_back_identical(self, tmp_path):
        with StorageScratch(tmp_path / "scratch.bin", block_bytes=4096, repetitions=4) as scratch:
            scratch.write_op(2)
        assert (tmp_path / "scratch.bin").read_bytes()[4096:8192] == workloads._deterministic_block(1, 4096)

    def test_block_size_is_100kb(self, tmp_path):
        with StorageScratch(tmp_path / "scratch.bin", repetitions=2) as scratch:
            assert scratch.block_bytes == 100 * 1024
            assert scratch.size == 2 * 100 * 1024

    def test_simulated_latency_mean(self, host_adapter, monkeypatch):
        # Simulator-style backend: each op advances a virtual clock by a
        # seeded normal draw around 2 ms; the sample mean over 100 ops must
        # fall within 3*sigma/sqrt(100) of the truth.
        rng = np.random.default_rng(123)
        clock = {"t": 0.0}

        class FakeScratch:
            def __init__(self, path):
                pass

            def invalidate(self, i):
                pass

            def read_op(self, i):
                clock["t"] += rng.normal(2e-3, 1e-4)

            def write_op(self, i):
                raise AssertionError("not used")

            def close(self):
                pass

        monkeypatch.setattr(collector, "StorageScratch", FakeScratch)
        reg = CounterRegistry()  # the timer observes the CPU work, which is not run
        reg.register(CounterSource("cpu-v", Component.CPU), lambda: int(clock["t"] * 1e9))
        deltas = measure_storage(host_adapter(registry=reg), "storage_read")
        assert len(deltas) == 100
        mean_s = np.mean(deltas) / 1e9
        assert abs(mean_s - 2e-3) <= 3 * 1e-4 / 10

    def test_side_effects_confined_to_scratch(self, host_adapter, tmp_path):
        adapter = host_adapter()
        before = set(tmp_path.rglob("*"))
        measure_storage(adapter, "storage_write")
        measure_storage(adapter, "storage_read")
        after = set(tmp_path.rglob("*"))
        scratch = tmp_path / "host" / "scratch"
        assert after == before
        assert {p for p in after if p.is_file()} == {scratch / "scratch.bin", scratch / "fixture.csv"}


class TestHostDispatch:
    """Every binding resolves through KINDS to a runnable host workload."""

    def test_all_bindings_resolve_and_run(self, host_adapter, monkeypatch):
        adapter = host_adapter()
        block = workloads.STORAGE_BLOCK_BYTES
        slept, reads, writes, dropped = [], [], [], []
        real_pread, real_pwrite, real_fadvise = os.pread, os.pwrite, os.posix_fadvise

        def pread(fd, n, offset):
            reads.append(offset)
            return real_pread(fd, n, offset)

        def pwrite(fd, data, offset):
            writes.append(offset)
            return real_pwrite(fd, data, offset)

        def fadvise(fd, offset, n, advice):
            dropped.append(offset)
            return real_fadvise(fd, offset, n, advice)

        monkeypatch.setattr(time, "sleep", slept.append)
        monkeypatch.setattr(os, "pread", pread)
        monkeypatch.setattr(os, "pwrite", pwrite)
        monkeypatch.setattr(os, "posix_fadvise", fadvise)
        pairs = [adapter.executable(b) for b in FEATURE_BINDINGS]
        assert len(pairs) == 215
        for binding, (prepare, workload) in zip(FEATURE_BINDINGS, pairs):
            assert callable(workload)
            assert prepare is None or binding.workload_id == "storage_read"
            if prepare is not None:
                prepare()
            workload()
        assert slept == [1.0, 2.0, 5.0, 10.0, 120.0]
        own_blocks = [i * block for i in range(100)]
        assert writes == own_blocks
        assert reads == own_blocks
        assert dropped == own_blocks
        surrogate = adapter._state.surrogate
        assert np.array_equal(surrogate.out, surrogate.a)  # gpu_scopy ran last on the GPU

    def test_not_set_up(self, tmp_path):
        adapter = HostAdapter(SessionConfig("02:00:00:00:00:01", "Host", tmp_path))
        with pytest.raises(collector.SessionError, match="not set up"):
            adapter.executable(FEATURE_BINDINGS[0])
