"""Trace archive persistence tests."""

import zipfile

import numpy as np
import pytest

from repro.core.samples import CounterTrace, ValueKind
from repro.core.traceio import load_traces, save_traces
from repro.errors import CorruptTraceError, DataFormatError
from repro.telemetry.metrics import scoped_registry
from repro.units import gbps, us


def sample_traces():
    byte_trace = CounterTrace.regular(
        us(25),
        np.cumsum(np.arange(10)).astype(np.int64),
        ValueKind.CUMULATIVE,
        name="down0.tx_bytes",
        rate_bps=gbps(10),
    )
    gauge = CounterTrace.regular(
        us(50),
        np.array([3, 9, 1], dtype=np.int64),
        ValueKind.GAUGE,
        name="shared_buffer.peak",
    )
    hist = CounterTrace.regular(
        us(25),
        np.cumsum(np.ones((4, 6), dtype=np.int64), axis=0),
        ValueKind.CUMULATIVE,
        name="down0.tx_size_hist",
    )
    return {t.name: t for t in (byte_trace, gauge, hist)}


class TestRoundTrip:
    def test_all_fields_preserved(self, tmp_path):
        path = tmp_path / "window.npz"
        original = sample_traces()
        save_traces(path, original)
        loaded = load_traces(path)
        assert set(loaded) == set(original)
        for name, trace in original.items():
            restored = loaded[name]
            assert np.array_equal(restored.timestamps_ns, trace.timestamps_ns)
            assert np.array_equal(restored.values, trace.values)
            assert restored.kind is trace.kind
            assert restored.rate_bps == trace.rate_bps

    def test_histogram_shape_preserved(self, tmp_path):
        path = tmp_path / "window.npz"
        save_traces(path, sample_traces())
        loaded = load_traces(path)
        assert loaded["down0.tx_size_hist"].values.shape == (4, 6)

    def test_derived_statistics_survive(self, tmp_path):
        path = tmp_path / "window.npz"
        original = sample_traces()
        save_traces(path, original)
        loaded = load_traces(path)
        assert np.allclose(
            loaded["down0.tx_bytes"].utilization(),
            original["down0.tx_bytes"].utilization(),
        )

    def test_bit_exact_across_dtypes(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 1_000
        stamps = np.cumsum(rng.integers(20_000, 30_000, n)).astype(np.int64)
        original = {
            trace.name: trace
            for trace in (
                CounterTrace(
                    stamps,
                    np.cumsum(rng.integers(0, 2**40, n)).astype(np.int64),
                    ValueKind.CUMULATIVE,
                    name="down0.tx_bytes",
                    rate_bps=gbps(10),
                ),
                CounterTrace(
                    stamps,
                    np.concatenate([rng.standard_normal(n - 3), [-0.0, np.inf, 1e-308]]),
                    ValueKind.GAUGE,
                    name="down0.util",
                ),
                CounterTrace(
                    stamps,
                    np.cumsum(rng.integers(0, 50, (n, 6)), axis=0).astype(np.int64),
                    ValueKind.CUMULATIVE,
                    name="down0.tx_size_hist",
                ),
            )
        }
        path = tmp_path / "window.npz"
        save_traces(path, original)
        loaded = load_traces(path)
        for name, trace in original.items():
            restored = loaded[name]
            for before, after in (
                (trace.timestamps_ns, restored.timestamps_ns),
                (trace.values, restored.values),
            ):
                assert after.dtype == before.dtype
                assert after.shape == before.shape
                assert after.tobytes() == before.tobytes()


class TestArchiveFormat:
    def test_opens_with_plain_np_load_and_members_are_deflated(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        with np.load(path, allow_pickle=False) as archive:
            assert int(archive["__repro_trace_archive__"][0]) == 2
            values = archive["t0.values"]
        assert np.array_equal(values, sample_traces()["down0.tx_bytes"].values)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        expected = {f"{key}.npy" for key in _raw_members(path)}
        assert {member.filename for member in members} == expected
        assert all(member.compress_type == zipfile.ZIP_DEFLATED for member in members)

    def test_returns_archive_size(self, tmp_path):
        path = tmp_path / "w.npz"
        assert save_traces(path, sample_traces()) == path.stat().st_size

    def test_legacy_level6_savez_archive_loads_and_verifies(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        np.savez_compressed(path, **members)  # numpy's writer, zlib level 6
        with scoped_registry() as registry:
            loaded = load_traces(path)
            verified = registry.snapshot()["counters"]["traceio.crc_verified"]
        assert verified == len(sample_traces())
        for name, trace in sample_traces().items():
            assert loaded[name].values.tobytes() == trace.values.tobytes()
            assert loaded[name].timestamps_ns.tobytes() == trace.timestamps_ns.tobytes()


class TestValidation:
    def test_empty_archive_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            save_traces(tmp_path / "x.npz", {})

    def test_key_name_mismatch_rejected(self, tmp_path):
        traces = sample_traces()
        renamed = {"wrong": traces["down0.tx_bytes"]}
        with pytest.raises(DataFormatError):
            save_traces(tmp_path / "x.npz", renamed)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(5))
        with pytest.raises(DataFormatError):
            load_traces(path)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "w.npz"
        save_traces(path, sample_traces())
        assert path.exists()

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_traces(tmp_path / "absent.npz")


def _raw_members(path):
    """The archive's raw arrays, for building damaged variants."""
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}


class TestIntegrity:
    def test_truncated_archive_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        data = path.read_bytes()
        for cut in (len(data) // 4, len(data) // 2, len(data) - 7):
            path.write_bytes(data[:cut])
            with pytest.raises(CorruptTraceError):
                load_traces(path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(CorruptTraceError):
            load_traces(path)

    def test_crc_mismatch_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        key = "t0.values"
        tampered = members[key].copy()
        tampered.flat[0] += 1
        members[key] = tampered
        np.savez_compressed(path, **members)
        with pytest.raises(CorruptTraceError, match="CRC"):
            load_traces(path)

    def test_length_mismatch_detected(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        members["t0.timestamps"] = members["t0.timestamps"][:-1]
        members["t0.values"] = members["t0.values"][:-1]
        np.savez_compressed(path, **members)
        with pytest.raises(CorruptTraceError):
            load_traces(path)

    def test_missing_trace_detected_by_count(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        dropped = {
            key: value
            for key, value in members.items()
            if not key.startswith("t2.")
        }
        np.savez_compressed(path, **dropped)
        with pytest.raises(CorruptTraceError, match="header says"):
            load_traces(path)

    def test_version1_archive_without_integrity_still_loads(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        members = _raw_members(path)
        legacy = {
            key: value
            for key, value in members.items()
            if not key.endswith(".integrity") and key != "__n_traces__"
        }
        legacy["__repro_trace_archive__"] = np.array([1], dtype=np.int64)
        np.savez_compressed(path, **legacy)
        loaded = load_traces(path)
        assert set(loaded) == set(sample_traces())


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        save_traces(path, sample_traces())  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["w.npz"]

    def test_failed_write_preserves_existing_archive(self, tmp_path):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        before = path.read_bytes()
        with pytest.raises(DataFormatError):
            save_traces(path, {"wrong": sample_traces()["down0.tx_bytes"]})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.npz"]

    def test_crash_mid_write_preserves_existing_archive(self, tmp_path, monkeypatch):
        path = tmp_path / "w.npz"
        save_traces(path, sample_traces())
        before = path.read_bytes()
        real_write_array = np.lib.format.write_array
        calls = []

        def crash_on_second_member(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", crash_on_second_member)
        with pytest.raises(OSError, match="disk full"):
            save_traces(path, sample_traces())
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.npz"]
