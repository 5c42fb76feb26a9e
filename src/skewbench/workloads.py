"""The 13 benchmark workload kinds that expand to the 215 feature columns.

:data:`KINDS` is the one declaration of the kinds: each entry gives the
kind's id, the component it loads, its variants, the rule that names its
feature column(s) and the factory of its host workload. The dataset schema,
:data:`FEATURE_BINDINGS`, the simulator's required kinds and the host
collector's dispatch are all derived from it, so a new kind (or a real GPU
backend for the GPU kinds) is one entry.

Workloads are deterministic, parameterized actions meant to run inside
measurement brackets. Side effects stay under a designated scratch
directory; stochastic workloads consume a session-seeded generator, except
``cpu_urandom`` which by definition reads the system entropy interface.
"""

from __future__ import annotations

import csv
import os
import random
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .probes import Component

CPU_SLEEP_DURATIONS_S: tuple[int, ...] = (1, 2, 5, 10, 120)
STORAGE_REPETITIONS = 100
URANDOM_BYTES = 100 * 1024 * 1024
MEM_RESERVE_BYTES = 100 * 1024 * 1024
CSV_FIXTURE_BYTES = 500 * 1000
STORAGE_BLOCK_BYTES = 100 * 1024
LIST_LENGTH = 1000
FIB_N = 20

# The GPU kernels run on 96x96 matrices: small enough to keep one sample's
# GPU section well under 50 ms on a desktop surrogate, large enough that the
# kernel dominates bracket overhead.
MATRIX_DIM = 96
MATRIX_SEED = 0x5EED

FIXED_HASH_PAYLOAD = bytes(range(256)) * 4
HASH_FUNCTION_NAME = "fnv1a64-seeded"

_PAGE = 4096


class WorkloadError(RuntimeError):
    """A workload could not run or violated its contract."""


def run_fib(n: int) -> int:
    """Iterative Fibonacci with F(1) = F(2) = 1."""
    if n < 1:
        raise WorkloadError(f"n must be >= 1, got {n}")
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return b if n > 1 else a


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def run_string_hash(payload: bytes, seed: int) -> int:
    """Seeded 64-bit FNV-1a over the payload.

    The interpreter's built-in string hash is not portable across builds, so
    the benchmark carries its own fixed, seedable, non-cryptographic hash;
    the function name is recorded in session metadata.
    """
    if not payload:
        raise WorkloadError("hash payload must be non-empty")
    h = _FNV_OFFSET
    for byte in (seed & _MASK64).to_bytes(8, "little") + bytes(payload):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def run_urandom(buffer: bytearray) -> int:
    """Fill ``buffer`` from the system entropy interface; returns bytes read."""
    try:
        with open("/dev/urandom", "rb", buffering=0) as fh:
            view = memoryview(buffer)
            filled = 0
            while filled < len(buffer):
                n = fh.readinto(view[filled:])
                if not n:
                    break
                filled += n
    except OSError:
        buffer[:] = os.urandom(len(buffer))
        filled = len(buffer)
    if filled != len(buffer):
        raise WorkloadError(f"short entropy read: {filled} of {len(buffer)} bytes")
    return filled


def run_list_creation() -> list[int]:
    return list(range(LIST_LENGTH))


def run_mem_reserve(n_bytes: int = MEM_RESERVE_BYTES) -> bytearray:
    """Allocate and touch every page of an n-byte buffer."""
    buf = bytearray(n_bytes)
    for offset in range(0, n_bytes, _PAGE):
        buf[offset] = 1
    return buf


def write_csv_fixture(path: str | Path, n_bytes: int = CSV_FIXTURE_BYTES) -> Path:
    """Deterministic CSV fixture of (at least) ``n_bytes`` bytes."""
    path = Path(path)
    row_template = "{i},{a},{b},{c}\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        size = 0
        i = 0
        while size < n_bytes:
            line = row_template.format(i=i, a=i * 3 + 1, b=(i * 7) % 997, c=i % 13)
            fh.write(line)
            size += len(line)
            i += 1
    return path


def run_csv_read(path: str | Path) -> int:
    """Read and parse the fixture; returns the row count."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        count = 0
        for _row in csv.reader(fh):
            count += 1
    return count


class GpuSurrogate:
    """CPU stand-in for the GPU kernels, flagged so surrogate data is never
    mixed with true-GPU data.

    Real GPU backends implement the same three methods against device
    buffers and report their own backend name.
    """

    backend_name = "cpu-surrogate"

    def __init__(self):
        rng = np.random.default_rng(MATRIX_SEED)
        self.a = rng.standard_normal((MATRIX_DIM, MATRIX_DIM), dtype=np.float32)
        self.b = rng.standard_normal((MATRIX_DIM, MATRIX_DIM), dtype=np.float32)
        self.out = np.empty_like(self.a)

    def matrixmul(self) -> None:
        np.matmul(self.a, self.b, out=self.out)

    def matrixsum(self) -> None:
        np.add(self.a, self.b, out=self.out)

    def scopy(self) -> None:
        np.copyto(self.out, self.a)


def _deterministic_block(index: int, size: int = STORAGE_BLOCK_BYTES) -> bytes:
    return bytes([(index * 31 + k) & 0xFF for k in range(256)]) * (size // 256)


class StorageScratch:
    """Preallocated scratch file for the per-op storage brackets.

    Offsets advance sequentially, one block per repetition index, and wrap
    at the file size. Writes are fsynced inside the measured operation;
    reads drop the page cache for their range first, where the platform
    allows.
    """

    def __init__(
        self,
        path: str | Path,
        block_bytes: int = STORAGE_BLOCK_BYTES,
        repetitions: int = STORAGE_REPETITIONS,
    ):
        self.path = Path(path)
        self.block_bytes = block_bytes
        self.repetitions = repetitions
        self.size = block_bytes * repetitions
        with open(self.path, "wb") as fh:
            for i in range(repetitions):
                fh.write(_deterministic_block(i, block_bytes))
            fh.flush()
            os.fsync(fh.fileno())
        self._fd = os.open(self.path, os.O_RDWR)
        self._blocks = [_deterministic_block(i, block_bytes) for i in range(repetitions)]

    def _offset(self, rep_index: int) -> int:
        return ((rep_index - 1) % self.repetitions) * self.block_bytes

    def invalidate(self, rep_index: int) -> None:
        """Drop cached pages for the block so the read hits the device."""
        try:
            os.posix_fadvise(
                self._fd, self._offset(rep_index), self.block_bytes, os.POSIX_FADV_DONTNEED
            )
        except (AttributeError, OSError):
            pass

    def read_op(self, rep_index: int) -> None:
        data = os.pread(self._fd, self.block_bytes, self._offset(rep_index))
        if len(data) != self.block_bytes:
            raise WorkloadError(f"short read at repetition {rep_index}")

    def write_op(self, rep_index: int) -> None:
        written = os.pwrite(self._fd, self._blocks[(rep_index - 1) % self.repetitions],
                            self._offset(rep_index))
        if written != self.block_bytes:
            raise WorkloadError(f"short write at repetition {rep_index}")
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "StorageScratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class HostState:
    """What a host session sets up once and its workloads read."""

    surrogate: GpuSurrogate
    fixture: Path
    scratch: StorageScratch
    urandom_buf: bytearray
    rng: random.Random
    seed: int


Prepare = Callable[[], object] | None
HostFactory = Callable[[HostState, int | None], tuple[Prepare, Callable[[], object]]]


@dataclass(frozen=True)
class Kind:
    """One workload kind.

    ``variants`` holds one entry per feature column: the sleep duration in
    seconds when ``sleep`` is set, the 1-based repetition index for the
    storage kinds, and None for a kind with one column. ``column`` names a
    variant's column, with ``{id}`` and ``{v}`` filled in. ``host`` maps the
    session's :class:`HostState` and a variant to the ``(prepare, workload)``
    pair the collector brackets; ``prepare`` runs outside the bracket.
    """

    id: str
    component: Component
    host: HostFactory
    variants: tuple[int | None, ...] = (None,)
    column: str = "{id}"
    sleep: bool = False


_REPETITIONS = tuple(range(1, STORAGE_REPETITIONS + 1))

KINDS: tuple[Kind, ...] = (
    Kind("cpu_sleep", Component.CPU, lambda s, v: (None, partial(time.sleep, float(v))),
         variants=CPU_SLEEP_DURATIONS_S, column="{id}_{v}s", sleep=True),
    Kind("cpu_string_hash", Component.CPU,
         lambda s, v: (None, partial(run_string_hash, FIXED_HASH_PAYLOAD, s.seed))),
    Kind("cpu_pseudo_random", Component.CPU, lambda s, v: (None, s.rng.random)),
    Kind("cpu_urandom", Component.CPU, lambda s, v: (None, partial(run_urandom, s.urandom_buf))),
    Kind("cpu_fib", Component.CPU, lambda s, v: (None, partial(run_fib, FIB_N))),
    Kind("gpu_matrixmul", Component.GPU, lambda s, v: (None, s.surrogate.matrixmul)),
    Kind("gpu_matrixsum", Component.GPU, lambda s, v: (None, s.surrogate.matrixsum)),
    Kind("gpu_scopy", Component.GPU, lambda s, v: (None, s.surrogate.scopy)),
    Kind("mem_list_creation", Component.MEMORY, lambda s, v: (None, run_list_creation)),
    Kind("mem_reserve", Component.MEMORY, lambda s, v: (None, run_mem_reserve)),
    Kind("mem_csv_read", Component.MEMORY, lambda s, v: (None, partial(run_csv_read, s.fixture))),
    Kind("storage_read", Component.STORAGE,
         lambda s, v: (partial(s.scratch.invalidate, v), partial(s.scratch.read_op, v)),
         variants=_REPETITIONS, column="{id}_{v}"),
    Kind("storage_write", Component.STORAGE, lambda s, v: (None, partial(s.scratch.write_op, v)),
         variants=_REPETITIONS, column="{id}_{v}"),
)

KIND_BY_ID = {kind.id: kind for kind in KINDS}


@dataclass(frozen=True)
class FeatureBinding:
    """Maps one feature column to its (workload kind, variant) pair;
    ``variant`` is one entry of the kind's :attr:`Kind.variants`."""

    column: str
    workload_id: str
    variant: int | None
    target_component: Component


# One binding per performance column, in schema order.
FEATURE_BINDINGS: tuple[FeatureBinding, ...] = tuple(
    FeatureBinding(kind.column.format(id=kind.id, v=v), kind.id, v, kind.component)
    for kind in KINDS
    for v in kind.variants
)
