from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewbench import schema
from skewbench.schema import (
    AGGREGATED_SCHEMA,
    DEFAULT_SCHEMA,
    CellParseError,
    Dataset,
    DatasetError,
    DeviceRecord,
    SchemaViolation,
    aggregate_storage_matrix,
    format_rows,
    read_dataset,
    write_dataset,
)
from skewbench.simulator import DEFAULT_START_TIME, default_farm_config, make_farm, simulate_dataset


def make_row(rng: np.random.Generator, timestamp: float) -> np.ndarray:
    row = np.empty(217)
    row[0] = timestamp
    row[1] = 40.0 + rng.normal(0, 2)
    row[2:] = rng.uniform(1e3, 1e9, size=215)
    return row


def make_dataset(n_devices: int = 2, n_samples: int = 3, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    devices = []
    samples = {}
    for d in range(n_devices):
        mac = f"02:00:00:00:{d >> 8:02x}:{d & 0xFF:02x}"
        devices.append(DeviceRecord(mac, f"model{d % 3}"))
        rows = np.stack([make_row(rng, 1.6e9 + 140.0 * k) for k in range(n_samples)])
        samples[mac] = rows
    return Dataset(devices, samples)


class TestSchemaShape:
    def test_default_column_count(self):
        assert DEFAULT_SCHEMA.n_columns == 218

    def test_default_column_order(self):
        cols = DEFAULT_SCHEMA.columns
        assert cols[0] == "timestamp"
        assert cols[1] == "temperature"
        assert cols[2:7] == ("cpu_sleep_1s", "cpu_sleep_2s", "cpu_sleep_5s",
                             "cpu_sleep_10s", "cpu_sleep_120s")
        assert cols[7:11] == ("cpu_string_hash", "cpu_pseudo_random",
                              "cpu_urandom", "cpu_fib")
        assert cols[11:14] == ("gpu_matrixmul", "gpu_matrixsum", "gpu_scopy")
        assert cols[14:17] == ("mem_list_creation", "mem_reserve", "mem_csv_read")
        assert cols[17] == "storage_read_1"
        assert cols[116] == "storage_read_100"
        assert cols[117] == "storage_write_1"
        assert cols[216] == "storage_write_100"
        assert cols[217] == "mac"

    def test_aggregated_column_count(self):
        # 218 - 200 + 8 = 26
        assert AGGREGATED_SCHEMA.n_columns == 26

    def test_feature_columns_count(self):
        assert len(DEFAULT_SCHEMA.feature_columns) == 215

    def test_mac_validation(self):
        assert schema.is_valid_mac("dc:a6:32:14:a8:d8")
        assert not schema.is_valid_mac("dc:a6:32:14:a8")
        assert not schema.is_valid_mac("DC:A6:32:14:A8:D8")
        with pytest.raises(ValueError):
            DeviceRecord("nonsense", "RPi4")

    def test_model_tag_rejects_separators(self):
        with pytest.raises(ValueError):
            DeviceRecord("02:00:00:00:00:01", "bad,model")


class TestWriteRead:
    def test_single_device_line_count(self, tmp_path):
        ds = make_dataset(n_devices=1, n_samples=2)
        write_dataset(ds, tmp_path)
        csv_path = tmp_path / f"{ds.devices[0].mac}.csv"
        assert len(csv_path.read_text().splitlines()) == 3  # header + 2 rows
        assert len((tmp_path / "MAC-Model.txt").read_text().splitlines()) == 1

    def test_empty_dataset(self, tmp_path):
        ds = Dataset([], {})
        write_dataset(ds, tmp_path)
        assert (tmp_path / "MAC-Model.txt").read_text() == ""
        assert list(tmp_path.glob("*.csv")) == []
        back = read_dataset(tmp_path)
        assert back.devices == []

    def test_45_device_fleet_shape(self, tmp_path):
        ds = make_dataset(n_devices=45, n_samples=1)
        write_dataset(ds, tmp_path)
        assert len(list(tmp_path.glob("*.csv"))) == 45
        assert len((tmp_path / "MAC-Model.txt").read_text().splitlines()) == 45

    def test_round_trip_identity(self, tmp_path):
        ds = make_dataset(n_devices=3, n_samples=4, seed=7)
        write_dataset(ds, tmp_path)
        back = read_dataset(tmp_path)
        assert back.equals(ds)

    def test_rewrite_byte_identical(self, tmp_path):
        ds = make_dataset(seed=11)
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_dataset(ds, first)
        write_dataset(read_dataset(first), second)
        for path in first.iterdir():
            assert (second / path.name).read_bytes() == path.read_bytes()

    def test_headerless_round_trip(self, tmp_path):
        ds = make_dataset(n_devices=1, n_samples=2, seed=3)
        write_dataset(ds, tmp_path)
        csv_path = tmp_path / f"{ds.devices[0].mac}.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[1:]) + "\n")
        back = read_dataset(tmp_path)
        assert back.equals(ds)

    def test_column_count_mismatch_names_row(self, tmp_path):
        ds = make_dataset(n_devices=1, n_samples=2)
        write_dataset(ds, tmp_path)
        csv_path = tmp_path / f"{ds.devices[0].mac}.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join(cells[:216] + cells[217:])  # drop one column -> 217
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation, match="row 3"):
            read_dataset(tmp_path)

    def test_non_numeric_cell_location(self, tmp_path):
        ds = make_dataset(n_devices=1, n_samples=1)
        write_dataset(ds, tmp_path)
        csv_path = tmp_path / f"{ds.devices[0].mac}.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[5] = "oops"
        lines[1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CellParseError, match="cpu_sleep_10s"):
            read_dataset(tmp_path)

    def test_missing_mac_model(self, tmp_path):
        with pytest.raises(DatasetError, match="MAC-Model.txt"):
            read_dataset(tmp_path)

    def test_duplicate_mac_rejected(self, tmp_path):
        dev = DeviceRecord("02:00:00:00:00:01", "m")
        ds = Dataset([dev, DeviceRecord("02:00:00:00:00:01", "m2")], {})
        with pytest.raises(SchemaViolation, match="duplicate"):
            write_dataset(ds, tmp_path)

    def test_label_mismatch_detected(self, tmp_path):
        ds = make_dataset(n_devices=1, n_samples=1)
        write_dataset(ds, tmp_path)
        csv_path = tmp_path / f"{ds.devices[0].mac}.csv"
        text = csv_path.read_text().replace(ds.devices[0].mac + "\n", "02:ff:ff:ff:ff:ff\n")
        csv_path.write_text(text)
        with pytest.raises(SchemaViolation, match="label"):
            read_dataset(tmp_path)

    def test_decreasing_timestamp_rejected(self, tmp_path):
        ds = make_dataset(n_devices=1, n_samples=2)
        mac = ds.devices[0].mac
        ds.samples[mac][1, 0] = ds.samples[mac][0, 0] - 10.0
        with pytest.raises(SchemaViolation, match="timestamps"):
            write_dataset(ds, tmp_path)

    def test_nan_cell_rejected(self, tmp_path):
        ds = make_dataset(n_devices=1, n_samples=1)
        write_dataset(ds, tmp_path)
        csv_path = tmp_path / f"{ds.devices[0].mac}.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "nan"
        lines[1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation, match="non-finite"):
            read_dataset(tmp_path)


def repr_lines(rows, mac: str) -> list[str]:
    """The per-cell ``repr`` oracle for :func:`format_rows`, one line per row."""
    return [",".join(repr(float(v)) for v in row) + f",{mac}\n" for row in rows]


# SHA-256 over each file's name and bytes, in name order, of the directory
# write_dataset makes from the seed-1009 default fleet at 20 samples a device.
FLEET_1009_SHA256 = "0903b16205f2ae4f05e27dbddaac0e18a4abb130989d04aea9489b38ab85a154"

integral_floats = st.integers(-(2**54), 2**54).map(float)
positive_counts = st.integers(1, 2**54).map(float)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def count_matrices(draw):
    """Rows of one width: up to two context cells of any finite float, then
    feature cells that, row by row, come from one of: positive integral
    floats, integral floats of either sign, or integral floats mixed with
    any finite float."""
    width = draw(st.integers(min_value=0, max_value=8))
    n_context = min(width, 2)
    kinds = st.sampled_from([positive_counts, integral_floats, integral_floats | finite_floats])
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        context = draw(st.lists(finite_floats, min_size=n_context, max_size=n_context))
        rows.append(context + draw(st.lists(draw(kinds), min_size=width - n_context,
                                            max_size=width - n_context)))
    return rows


class TestFormatRows:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
        max_size=5,
    ))
    @example([[5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -5e-324]])
    @example([[1e16, 1e-5, 3.0, -0.0], [1.7976931348623157e308, -1.7976931348623157e308, 1e22, 0.0]])
    def test_cells_match_repr(self, rows):
        mac = "02:00:00:00:00:01"
        values = np.array(rows, dtype=np.float64).reshape(len(rows), 4)
        expected = "".join(",".join(repr(float(v)) for v in row) + f",{mac}\n" for row in values)
        assert format_rows(values, mac) == expected

    @settings(max_examples=300, deadline=None)
    @given(count_matrices())
    @example([[1.7e9, 41.5, 1e16 - 2, 2.0**53 + 2, 1.0]])
    @example([[1.7e9, 41.5, 1e16, 2.0**53 + 2, 1.0]])
    @example([[-0.0, -0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 5.0, -0.0, 3.0], [0.0, 0.0, 5.0, 0.0, 3.0]])
    @example([[-1.0, 2.5, -7.0, -(2.0**53), 4.0], [-1.0, 2.5, 7.0, 2.0**53, 4.0]])
    @example([[1.7e9, 41.5, 1.0, 2.0, 3.0], [1.7e9, 41.5, 1.5, 2.0, 3.0], [1.7e9, 41.5, 9.0, 8.0, 7.0]])
    def test_integral_rows_match_repr(self, rows):
        mac = "02:00:00:00:00:01"
        values = np.array(rows, dtype=np.float64).reshape(len(rows), len(rows[0]) if rows else 5)
        assert format_rows(values, mac) == "".join(repr_lines(values, mac))

    def test_fleet_bytes_pinned(self, tmp_path):
        ds = simulate_dataset(make_farm(default_farm_config(master_seed=1009)), 20, DEFAULT_START_TIME)
        write_dataset(ds, tmp_path)
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == FLEET_1009_SHA256
        for dev in ds.devices:
            rows = ds.rows(dev.mac)
            # Every feature cell of a simulated row is an integral count.
            assert np.array_equal(np.rint(rows[:, 2:]), rows[:, 2:])
            lines = (tmp_path / f"{dev.mac}.csv").read_text().splitlines(keepends=True)
            assert lines[1:] == repr_lines(rows, dev.mac)


def write_device_csv(directory, lines: list[str], newline: str = "\n") -> str:
    """A one-device dataset whose CSV holds exactly ``lines``; returns the MAC."""
    mac = "02:00:00:00:00:00"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "MAC-Model.txt").write_text(f"{mac},model0\n")
    (directory / f"{mac}.csv").write_bytes(newline.join(lines).encode() + newline.encode())
    return mac


def good_lines(n_samples: int = 3) -> list[str]:
    ds = make_dataset(n_devices=1, n_samples=n_samples, seed=5)
    mac = ds.devices[0].mac
    return [",".join(DEFAULT_SCHEMA.columns)] + format_rows(ds.rows(mac), mac).splitlines()


def set_cell(line: str, column: int, cell: str) -> str:
    cells = line.split(",")
    cells[column] = cell
    return ",".join(cells)


class TestReaderParity:
    """Malformed files raise the error of the first bad row, in file order,
    exactly as row-by-row parsing does; well-formed variants read as before."""

    def test_bad_cell_before_wrong_column_count(self, tmp_path):
        lines = good_lines()
        lines[2] = set_cell(lines[2], 4, "abc")
        lines[3] = lines[3].replace(",", ",1.0,", 1)
        write_device_csv(tmp_path, lines)
        with pytest.raises(CellParseError) as info:
            read_dataset(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / '02:00:00:00:00:00.csv'}: row 3: column 'cpu_sleep_5s': not numeric: 'abc'"
        )

    def test_wrong_column_count_before_bad_cell(self, tmp_path):
        lines = good_lines()
        lines[2] = lines[2].replace(",", ",1.0,", 1)
        lines[3] = set_cell(lines[3], 4, "abc")
        write_device_csv(tmp_path, lines)
        with pytest.raises(SchemaViolation) as info:
            read_dataset(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / '02:00:00:00:00:00.csv'}: row 3: expected 218 columns, got 219"
        )

    def test_inf_cell(self, tmp_path):
        lines = good_lines()
        lines[1] = set_cell(lines[1], 7, "inf")
        write_device_csv(tmp_path, lines)
        with pytest.raises(SchemaViolation) as info:
            read_dataset(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / '02:00:00:00:00:00.csv'}: row 2: column 'cpu_string_hash': "
            "non-finite value"
        )

    def test_underscore_digits_parse_as_float_does(self, tmp_path):
        lines = good_lines()
        lines[2] = set_cell(lines[2], 10, "1_0")
        mac = write_device_csv(tmp_path, lines)
        assert read_dataset(tmp_path).rows(mac)[1, 10] == float("1_0") == 10.0

    def test_hash_in_cell_is_not_a_comment(self, tmp_path):
        # In the last numeric column, a comment marker would drop only the label.
        lines = good_lines()
        lines[2] = set_cell(lines[2], 216, "1#2")
        write_device_csv(tmp_path, lines)
        with pytest.raises(CellParseError) as info:
            read_dataset(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / '02:00:00:00:00:00.csv'}: row 3: column 'storage_write_100': "
            "not numeric: '1#2'"
        )

    @pytest.mark.parametrize("cell", ["\x1c1", "1\x1f"])
    def test_ascii_separator_around_number_rejected_as_float_does(self, tmp_path, cell):
        lines = good_lines()
        lines[1] = set_cell(lines[1], 4, cell)
        write_device_csv(tmp_path, lines)
        with pytest.raises(CellParseError) as info:
            read_dataset(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / '02:00:00:00:00:00.csv'}: row 2: column 'cpu_sleep_5s': "
            f"not numeric: {cell!r}"
        )

    @pytest.mark.parametrize("cell", ["\u0661", "\u0663.\u0665"])
    def test_non_ascii_digits_parse_as_float_does(self, tmp_path, cell):
        lines = good_lines()
        lines[2] = set_cell(lines[2], 10, cell)
        mac = write_device_csv(tmp_path, lines)
        assert read_dataset(tmp_path).rows(mac)[1, 10] == float(cell)

    def test_random_bit_patterns_read_back_bit_identical(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1009)
        bits = rng.integers(0, 2**64 - 1, size=(300, 217), dtype=np.uint64, endpoint=True)
        rows = bits.view(np.float64).copy()
        rows[~np.isfinite(rows)] = 1.0
        rows[:, 2:] = np.abs(rows[:, 2:])
        rows[:, 2:][rows[:, 2:] == 0] = 5e-324
        specials = [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0]
        rows[: len(specials), 1] = specials
        rows[0, 2:6] = [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308]
        rows[:, 0] = np.sort(rows[:, 0])
        rows[0, 0], rows[-1, 0] = -1.7976931348623157e308, 1.7976931348623157e308
        # Integral counts below 1e16 take the integer formatting path.
        rows[200:, 2:] = rng.integers(1, 10**16, size=(100, 215))
        mac = "02:00:00:00:00:00"
        write_dataset(Dataset([DeviceRecord(mac, "model0")], {mac: rows}), tmp_path)

        def no_fallback(*args):
            raise AssertionError("row-by-row parse used")

        monkeypatch.setattr(schema, "_parse_row", no_fallback)
        back = read_dataset(tmp_path).rows(mac)
        assert np.array_equal(back.view(np.uint64), rows.view(np.uint64))

    def test_crlf_line_endings(self, tmp_path):
        write_device_csv(tmp_path / "lf", good_lines())
        mac = write_device_csv(tmp_path / "crlf", good_lines(), newline="\r\n")
        assert read_dataset(tmp_path / "crlf").equals(read_dataset(tmp_path / "lf"))
        assert read_dataset(tmp_path / "crlf").rows(mac).shape == (3, 217)

    def test_blank_lines_skipped(self, tmp_path):
        lines = good_lines()
        write_device_csv(tmp_path / "plain", lines)
        write_device_csv(tmp_path / "blank", ["", lines[0], "  ", lines[1], "", lines[2], lines[3], ""])
        assert read_dataset(tmp_path / "blank").equals(read_dataset(tmp_path / "plain"))

    def test_blank_lines_do_not_shift_row_numbers(self, tmp_path):
        lines = good_lines()
        lines[3] = set_cell(lines[3], 4, "abc")
        write_device_csv(tmp_path, [lines[0], "", lines[1], lines[2], "", lines[3]])
        with pytest.raises(CellParseError, match="row 4: column 'cpu_sleep_5s'"):
            read_dataset(tmp_path)

    def test_header_only_file(self, tmp_path):
        mac = write_device_csv(tmp_path, good_lines()[:1])
        ds = read_dataset(tmp_path)
        assert ds.rows(mac).shape == (0, 217)
        assert ds.n_samples == 0


@st.composite
def small_datasets(draw):
    n_devices = draw(st.integers(min_value=0, max_value=3))
    devices = []
    samples = {}
    for d in range(n_devices):
        mac = f"02:aa:00:00:00:{d:02x}"
        devices.append(DeviceRecord(mac, draw(st.sampled_from(["A", "B", "longer-tag"]))))
        n = draw(st.integers(min_value=0, max_value=4))
        vals = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1e12, allow_nan=False),
                min_size=n * 215,
                max_size=n * 215,
            )
        )
        rows = np.empty((n, 217))
        base_ts = draw(st.floats(min_value=0, max_value=2e9))
        for k in range(n):
            rows[k, 0] = base_ts + 10.0 * k
            rows[k, 1] = draw(st.floats(min_value=-273.0, max_value=120.0, allow_nan=False))
            rows[k, 2:] = vals[k * 215 : (k + 1) * 215]
        samples[mac] = rows
    return Dataset(devices, samples)


class TestRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(small_datasets())
    def test_read_write_inverse(self, tmp_path_factory, ds):
        directory = tmp_path_factory.mktemp("rt")
        write_dataset(ds, directory)
        assert read_dataset(directory).equals(ds)


def _storage_aggregates(block: np.ndarray) -> np.ndarray:
    # Median of an even-length block is the mean of the two central order
    # statistics, which is what np.median computes.
    return np.array([block.mean(), float(np.median(block)), block.min(), block.max()])


def aggregate_storage_features(row: np.ndarray) -> np.ndarray:
    """Per-row oracle for aggregate_storage_matrix, over the fixed layout:
    storage reads in numeric columns 17-116, writes in 117-216."""
    DEFAULT_SCHEMA.check_rows(row[None, :], "02:00:00:00:00:01")
    reads = _storage_aggregates(row[17:117])
    writes = _storage_aggregates(row[117:217])
    return np.concatenate([row[:17], reads, writes])


class TestStorageAggregation:
    def make_sample(self, reads, writes) -> np.ndarray:
        vals = np.empty(217)
        vals[0] = 1.6e9
        vals[1] = 45.0
        vals[2:17] = 1.0
        vals[17:117] = reads
        vals[117:217] = writes
        return vals

    def test_sequence_1_to_100(self):
        s = self.make_sample(np.arange(1.0, 101.0), np.full(100, 7.0))
        out = aggregate_storage_features(s)
        assert out.shape == (25,)
        reads = out[17:21]
        assert reads[0] == pytest.approx(50.5)
        assert reads[1] == pytest.approx(50.5)  # mean of 50th and 51st order stats
        assert reads[2] == 1.0
        assert reads[3] == 100.0

    def test_constant_block(self):
        s = self.make_sample(np.full(100, 7.0), np.full(100, 7.0))
        out = aggregate_storage_features(s)
        assert np.array_equal(out[17:21], [7.0, 7.0, 7.0, 7.0])
        assert np.array_equal(out[21:25], [7.0, 7.0, 7.0, 7.0])

    def test_non_storage_columns_unchanged(self):
        rng = np.random.default_rng(5)
        s = self.make_sample(rng.uniform(1, 10, 100), rng.uniform(1, 10, 100))
        out = aggregate_storage_features(s)
        assert np.array_equal(out[:17], s[:17])

    def test_matches_streaming_recomputation(self):
        # Independent oracle: recompute every aggregate with a direct loop.
        rng = np.random.default_rng(42)
        reads = rng.lognormal(mean=14.5, sigma=0.1, size=100)
        writes = rng.lognormal(mean=15.0, sigma=0.2, size=100)
        s = self.make_sample(reads, writes)
        out = aggregate_storage_features(s)

        def oracle(block):
            total = 0.0
            lo = float("inf")
            hi = float("-inf")
            for v in block:
                total += v
                lo = min(lo, v)
                hi = max(hi, v)
            ordered = sorted(block)
            median = (ordered[49] + ordered[50]) / 2.0
            return [total / len(block), median, lo, hi]

        assert np.allclose(out[17:21], oracle(list(reads)), rtol=1e-12)
        assert np.allclose(out[21:25], oracle(list(writes)), rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(100))))
    def test_permutation_invariant(self, perm):
        base = np.linspace(1.0, 3.0, 100)
        s1 = self.make_sample(base, base)
        s2 = self.make_sample(base[perm], base[perm])
        a = aggregate_storage_features(s1)
        b = aggregate_storage_features(s2)
        assert np.allclose(a[17:], b[17:], rtol=1e-12)

    def test_matrix_level_matches_per_sample(self):
        ds = make_dataset(n_devices=1, n_samples=5, seed=9)
        mac = ds.devices[0].mac
        rows = ds.samples[mac]
        mat = aggregate_storage_matrix(rows)
        for i in range(len(rows)):
            assert np.allclose(mat[i], aggregate_storage_features(rows[i]), rtol=1e-12)

    def test_slices_match_layout(self):
        assert schema.STORAGE_READ_SLICE == slice(17, 117)
        assert schema.STORAGE_WRITE_SLICE == slice(117, 217)

    @pytest.mark.parametrize("header", [True, False],
                             ids=["26-column header", "26 columns, no header"])
    def test_aggregated_file_refused(self, tmp_path, header):
        """The aggregated layout is in-memory only; no file may use it."""
        ds = make_dataset(n_devices=1, n_samples=3, seed=2)
        mac = ds.devices[0].mac
        lines = format_rows(aggregate_storage_matrix(ds.samples[mac]), mac).splitlines()
        if header:
            lines.insert(0, AGGREGATED_SCHEMA.header)
        write_device_csv(tmp_path, lines)
        with pytest.raises(SchemaViolation) as info:
            read_dataset(tmp_path)
        message = str(info.value)
        assert message.startswith(f"{tmp_path / '02:00:00:00:00:00.csv'}: ")
        if not header:
            assert message.endswith(": row 1: expected 218 columns, got 26")
