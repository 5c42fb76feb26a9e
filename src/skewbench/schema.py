"""Dataset schema and on-disk interchange for device benchmark samples.

A dataset is a directory with one CSV file per device, named after the
device MAC address, plus a ``MAC-Model.txt`` file mapping each MAC to its
hardware model tag. Every CSV row is one sample: Unix timestamp, core
temperature, 215 performance features, and the MAC label, in the fixed order
of :data:`DEFAULT_SCHEMA`'s 218 columns. That is the only file layout: a
file's first line is either exactly its header or already a sample row, and
the writer always puts the header first. The feature columns, and
:data:`AGGREGATED_SCHEMA` (the in-memory identification layout that
collapses each storage kind's columns to four statistics), are derived from
:data:`skewbench.workloads.KINDS`, the one declaration of the workload kinds.

This module alone knows the file layout and the row check; the collector
appends through it. ``MAC-Model.txt`` has one ``MAC,model`` line per device.
MACs are case-insensitive (stored lower-case) and listed once, whitespace
around a field is ignored, and a model tag has no ``,`` or newline.

The row bytes have one definition, :func:`format_rows`: each numeric cell
is ``repr`` of its float64 value, so floats round-trip exactly and a
re-write of a freshly read dataset is byte-identical. Bulk writes and the
collector's one-row appends both go through it. A row whose feature cells
are all integral counts below 1e16 (what the simulator and the collector
record) prints them as ``%d.0``, which gives the same text as ``repr``
without its shortest-round-trip search; every other row takes ``repr``
cell by cell.

The reader parses a whole device file with numpy's C text reader,
``np.loadtxt`` (numpy >= 1.24, the declared floor, has it), after checking
each line's column count and label. If any check fails, or the reader
rejects a cell, it parses the file row by row with ``float``, which names
the first bad row and cell; so a file reads, or fails with the same error,
exactly as a row-by-row ``float`` parse alone would have it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .probes import Component
from .workloads import FEATURE_BINDINGS, KINDS

CONTEXT_COLUMNS = ("timestamp", "temperature")
FEATURE_COLUMNS = tuple(b.column for b in FEATURE_BINDINGS)
STORAGE_AGGREGATE_STATS = ("avg", "median", "min", "max")
LABEL_COLUMN = "mac"

MAC_MODEL_FILENAME = "MAC-Model.txt"

# Numeric-part indices (label excluded).
TIMESTAMP_INDEX = 0
TEMPERATURE_INDEX = 1
FEATURE_OFFSET = 2

# Storage kinds are the aggregated ones: each one's block of columns
# collapses to STORAGE_AGGREGATE_STATS in the aggregated schema.
_AGGREGATED_KINDS = tuple(k.id for k in KINDS if k.component is Component.STORAGE)
_KEPT_INDEX = [TIMESTAMP_INDEX, TEMPERATURE_INDEX] + [
    FEATURE_OFFSET + i for i, b in enumerate(FEATURE_BINDINGS)
    if b.workload_id not in _AGGREGATED_KINDS
]


def _numeric_slice(kind_id: str) -> slice:
    index = [FEATURE_OFFSET + i for i, b in enumerate(FEATURE_BINDINGS) if b.workload_id == kind_id]
    return slice(index[0], index[-1] + 1)


STORAGE_SLICES = tuple(_numeric_slice(k) for k in _AGGREGATED_KINDS)
STORAGE_READ_SLICE, STORAGE_WRITE_SLICE = STORAGE_SLICES

# Temperature sentinel for platforms with no readable thermal zone.
TEMPERATURE_UNAVAILABLE_C = -273.0

_MAC_PATTERN = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")

# np.loadtxt strips these ASCII separators around a number as whitespace,
# where float rejects the cell.
_LOADTXT_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


class DatasetError(Exception):
    """Base class for dataset format and I/O errors."""


class SchemaViolation(DatasetError):
    """A row or file does not conform to the fixed column contract."""


class CellParseError(DatasetError):
    """A cell that must be numeric could not be parsed."""


class DatasetWriteError(DatasetError):
    """Write aborted partway; carries the files already written."""

    def __init__(self, message: str, written: list[str]):
        super().__init__(message)
        self.written = written


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column names; the label column is always last."""

    columns: tuple[str, ...]

    def __post_init__(self):
        if self.columns[-1] != LABEL_COLUMN:
            raise ValueError(f"last column must be {LABEL_COLUMN!r}")
        if self.columns[:2] != CONTEXT_COLUMNS:
            raise ValueError(f"first columns must be {CONTEXT_COLUMNS}")

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def n_numeric(self) -> int:
        return len(self.columns) - 1

    @property
    def feature_columns(self) -> tuple[str, ...]:
        """Performance columns: everything between the context pair and the label."""
        return self.columns[FEATURE_OFFSET:-1]

    def index(self, column: str) -> int:
        return self.columns.index(column)

    @property
    def header(self) -> str:
        """The CSV header line, without its newline."""
        return ",".join(self.columns)

    def check_rows(self, rows: np.ndarray, mac: str) -> None:
        """Raise :class:`SchemaViolation` naming device ``mac`` unless ``rows``
        is ``(n, n_numeric)``, all finite, with performance cells > 0."""
        if rows.ndim != 2 or rows.shape[1] != self.n_numeric:
            raise SchemaViolation(
                f"device {mac}: expected shape (n, {self.n_numeric}), got {rows.shape}"
            )
        if not np.isfinite(rows).all():
            raise SchemaViolation(f"device {mac}: non-finite values")
        if not (rows[:, FEATURE_OFFSET:] > 0).all():
            raise SchemaViolation(f"device {mac}: non-positive performance values")


DEFAULT_SCHEMA = FeatureSchema(CONTEXT_COLUMNS + FEATURE_COLUMNS + (LABEL_COLUMN,))

AGGREGATED_SCHEMA = FeatureSchema(
    tuple(DEFAULT_SCHEMA.columns[i] for i in _KEPT_INDEX)
    + tuple(f"{k}_{stat}" for k in _AGGREGATED_KINDS for stat in STORAGE_AGGREGATE_STATS)
    + (LABEL_COLUMN,)
)

assert DEFAULT_SCHEMA.n_columns == 218
assert AGGREGATED_SCHEMA.n_columns == 26


def is_valid_mac(mac: str) -> bool:
    return bool(_MAC_PATTERN.match(mac))


def canonical_mac(mac: str) -> str:
    """``mac`` as a dataset keys it: stripped and lower-cased."""
    return mac.strip().lower()


@dataclass(frozen=True)
class DeviceRecord:
    """A device MAC, lower-cased, and its hardware model tag, both stripped."""

    mac: str
    model: str

    def __post_init__(self):
        object.__setattr__(self, "mac", canonical_mac(self.mac))
        object.__setattr__(self, "model", self.model.strip())
        if not is_valid_mac(self.mac):
            raise ValueError(f"not a MAC address: {self.mac!r}")
        if not self.model or any(c in self.model for c in ",\n\r"):
            raise ValueError(f"invalid model tag: {self.model!r}")


@dataclass
class Dataset:
    """Devices plus per-device sample matrices in :data:`DEFAULT_SCHEMA` order.

    ``samples`` maps each MAC to an ``(n, 217)`` float64 array; the label
    column is implied by the key.
    """

    devices: list[DeviceRecord]
    samples: dict[str, np.ndarray]

    def validate(self) -> None:
        macs = [d.mac for d in self.devices]
        if len(set(macs)) != len(macs):
            raise SchemaViolation("duplicate MAC in device records")
        unknown = set(self.samples) - set(macs)
        if unknown:
            raise SchemaViolation(f"samples for unknown devices: {sorted(unknown)}")
        for mac, rows in self.samples.items():
            DEFAULT_SCHEMA.check_rows(rows, mac)
            ts = rows[:, TIMESTAMP_INDEX]
            if np.any(np.diff(ts) < 0):
                raise SchemaViolation(f"device {mac}: timestamps decrease")

    def rows(self, mac: str) -> np.ndarray:
        return self.samples.get(mac, np.empty((0, DEFAULT_SCHEMA.n_numeric)))

    @property
    def n_samples(self) -> int:
        return sum(len(rows) for rows in self.samples.values())

    def equals(self, other: "Dataset") -> bool:
        return (
            self.devices == other.devices
            and set(self.samples) == set(other.samples)
            and all(np.array_equal(self.samples[m], other.samples[m]) for m in self.samples)
        )


def csv_path(directory: str | Path, mac: str) -> Path:
    """A device's CSV file: ``<mac>.csv``."""
    return Path(directory) / f"{mac}.csv"


def journal_path(directory: str | Path, mac: str) -> Path:
    """A device's session journal: ``<mac>.session.jsonl``, ``:`` as ``-``."""
    return Path(directory) / f"{mac.replace(':', '-')}.session.jsonl"


def mac_model_line(device: DeviceRecord) -> str:
    """``device``'s ``MAC-Model.txt`` line, newline included."""
    return f"{device.mac},{device.model}\n"


def read_mac_model(path: Path) -> dict[str, DeviceRecord]:
    """The devices a ``MAC-Model.txt`` lists, by MAC in file order; a bad or
    repeated entry raises :class:`SchemaViolation` naming its line."""
    devices: dict[str, DeviceRecord] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            mac, sep, model = line.partition(",")
            if not sep:
                raise SchemaViolation(f"{path}: line {lineno}: expected 'MAC,model'")
            try:
                record = DeviceRecord(mac, model)
            except ValueError as exc:
                raise SchemaViolation(f"{path}: line {lineno}: {exc}") from None
            if record.mac in devices:
                raise SchemaViolation(f"{path}: line {lineno}: duplicate MAC {record.mac}")
            devices[record.mac] = record
    return devices


def format_value(v: float) -> str:
    """Shortest decimal representation that round-trips to the same float."""
    return repr(float(v))


def format_rows(rows: np.ndarray, label: str) -> str:
    """CSV lines for ``(n, n_numeric)`` rows, each ending in ``,<label>``
    and a newline.

    Every cell is :func:`format_value` of its value. Most feature cells are
    counts, and for an integral float ``v`` with ``0 < v < 1e16``,
    ``repr(v)`` is ``"%d.0" % v``: below 1e16 ``repr`` prints no exponent,
    and the open lower bound keeps ``-0.0`` out. So a row whose feature
    cells all pass that test is printed with one format string, ``%r`` for
    its timestamp and temperature and ``%d.0`` for each feature cell, and
    skips the shortest-round-trip search for the counts. Every other row
    (hand-made data, for one) takes ``repr`` cell by cell. Both give the
    same bytes.
    """
    rows = np.asarray(rows, dtype=np.float64)
    tail = f",{label}\n"
    context, feats = rows[:, :FEATURE_OFFSET], rows[:, FEATURE_OFFSET:]
    integral = ((feats > 0) & (feats < 1e16) & (np.rint(feats) == feats)).all(axis=1)
    int_rows = iter(feats[integral].astype(np.int64))
    counts_line = ",".join(["%r"] * context.shape[1] + ["%d.0"] * feats.shape[1])
    # tolist per row: on the whole matrix it would hold an object for every
    # cell at once and raise peak memory.
    lines = []
    for row, ctx, is_int in zip(rows, context.tolist(), integral.tolist()):
        if is_int:
            lines.append(counts_line % (*ctx, *next(int_rows).tolist()) + tail)
        else:
            lines.append(",".join(map(repr, row.tolist())) + tail)
    return "".join(lines)


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write one ``<MAC>.csv`` per device plus ``MAC-Model.txt``.

    Raises :class:`DatasetWriteError` on I/O failure, listing the files
    already written so the caller can report or clean up the partial state.
    """
    dataset.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    try:
        mac_model = directory / MAC_MODEL_FILENAME
        with open(mac_model, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(map(mac_model_line, dataset.devices)))
        written.append(str(mac_model))
        for dev in dataset.devices:
            path = csv_path(directory, dev.mac)
            rows = dataset.rows(dev.mac)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(DEFAULT_SCHEMA.header + "\n" + format_rows(rows, dev.mac))
            written.append(str(path))
    except OSError as exc:
        raise DatasetWriteError(
            f"dataset write aborted ({exc}); files already written: {written}", written
        ) from exc


def _parse_row(cells: list[str], mac: str, path: Path, lineno: int) -> np.ndarray:
    columns = DEFAULT_SCHEMA.columns
    if len(cells) != len(columns):
        raise SchemaViolation(
            f"{path}: row {lineno}: expected {len(columns)} columns, got {len(cells)}"
        )
    if cells[-1].lower() != mac:
        raise SchemaViolation(
            f"{path}: row {lineno}: label {cells[-1]!r} does not match device MAC {mac}"
        )
    out = np.empty(DEFAULT_SCHEMA.n_numeric)
    for i, cell in enumerate(cells[:-1]):
        try:
            out[i] = float(cell)
        except ValueError:
            raise CellParseError(
                f"{path}: row {lineno}: column {columns[i]!r}: not numeric: {cell!r}"
            ) from None
        if not math.isfinite(out[i]):
            raise SchemaViolation(
                f"{path}: row {lineno}: column {columns[i]!r}: non-finite value"
            )
    return out


def _read_device_csv(path: Path, mac: str) -> np.ndarray:
    """The rows of one device file. A first line whose first cell is
    ``timestamp`` must be the whole header; any other first line is a row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln.rstrip("\r\n") for ln in fh if ln.strip()]
    start = 1
    if lines and lines[0].partition(",")[0] == "timestamp":
        if lines[0] != DEFAULT_SCHEMA.header:
            raise SchemaViolation(f"{path}: header does not match any known schema")
        lines, start = lines[1:], 2
    rows = _parse_rows_fast(lines, mac)
    if rows is None:
        # Some row is malformed: parse row by row so the first bad row, in
        # file order, raises the error _parse_row defines for it.
        rows = np.empty((len(lines), DEFAULT_SCHEMA.n_numeric))
        for i, line in enumerate(lines):
            rows[i] = _parse_row(line.split(","), mac, path, start + i)
    return rows


def _parse_rows_fast(lines: list[str], mac: str) -> np.ndarray | None:
    """All rows in one call of numpy's C text reader, or None if any row
    fails a check or holds a cell the reader and ``float`` might disagree on.

    ``comments=None`` keeps a ``#`` inside a cell from ending the line. The
    reader rejects some cells that ``float`` accepts (``1_0``, non-ASCII
    digits); those files go to the row-by-row parse, which reads them as
    ``float`` does.
    """
    commas = DEFAULT_SCHEMA.n_columns - 1
    if not all(ln.count(",") == commas and ln.rpartition(",")[2].lower() == mac for ln in lines):
        return None
    if any(c in ln for ln in lines for c in _LOADTXT_ONLY_SPACES):
        return None
    if not lines:
        return np.empty((0, commas))
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=range(commas), comments=None,
                            dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values


def read_dataset(directory: str | Path) -> Dataset:
    """Inverse of :func:`write_dataset`; values round-trip exactly."""
    directory = Path(directory)
    mac_model = directory / MAC_MODEL_FILENAME
    if not mac_model.exists():
        raise DatasetError(f"missing {MAC_MODEL_FILENAME} in {directory}")
    devices = list(read_mac_model(mac_model).values())
    samples = {}
    for dev in devices:
        path = csv_path(directory, dev.mac)
        samples[dev.mac] = (_read_device_csv(path, dev.mac) if path.exists()
                            else np.empty((0, DEFAULT_SCHEMA.n_numeric)))
    dataset = Dataset(devices, samples)
    dataset.validate()
    return dataset


def aggregate_storage_matrix(values: np.ndarray) -> np.ndarray:
    """Collapse each storage kind's columns of an ``(n, 217)`` numeric matrix
    to avg/median/min/max, giving rows of :data:`AGGREGATED_SCHEMA`.

    The median of an even-length block is the mean of its two central
    order statistics.
    """
    out = [values[:, _KEPT_INDEX]]
    for sl in STORAGE_SLICES:
        block = values[:, sl]
        out.append(
            np.column_stack(
                [
                    block.mean(axis=1),
                    np.median(block, axis=1),
                    block.min(axis=1),
                    block.max(axis=1),
                ]
            )
        )
    return np.hstack(out)
