"""Counter-trace persistence.

Campaigns produce large numbers of traces; this module stores them as
compressed ``.npz`` archives (one archive per campaign window or ad-hoc
collection) with enough metadata to reconstruct full
:class:`~repro.core.samples.CounterTrace` objects — name, semantics, and
line rate included.

Archives are written with deflate level 1 rather than zlib's default
level 6: on campaign counter data level 6 costs about five times the
write time for about 6 % fewer bytes.  The member layout (one
``<key>.npy`` per array) is the one :func:`numpy.savez_compressed`
produces, so archives open with plain :func:`numpy.load` and archives
written at any deflate level load alike.

Archives are written atomically (write to a temporary file, then rename)
and carry per-trace length/CRC32 integrity records, so a truncated or
corrupted file is detected as :class:`~repro.errors.CorruptTraceError`
instead of being silently parsed as a shorter trace.  Version-1 archives
(no integrity records) still load.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.core.samples import CounterTrace, ValueKind
from repro.errors import CorruptTraceError, DataFormatError
from repro.telemetry.metrics import get_registry

_FORMAT_KEY = "__repro_trace_archive__"
_FORMAT_VERSION = 2
_COUNT_KEY = "__n_traces__"


def _crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def _normalized(path: Path) -> Path:
    """The final on-disk name (``.npz`` appended when absent, as numpy does)."""
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def save_traces(path: str | Path, traces: dict[str, CounterTrace]) -> int:
    """Write a named collection of traces to one compressed archive.

    The archive appears atomically: readers either see the previous file
    or the complete new one, never a half-written archive.  Returns the
    archive's size in bytes.
    """
    if not traces:
        raise DataFormatError("refusing to write an empty trace archive")
    path = _normalized(Path(path))
    payload: dict[str, np.ndarray] = {
        _FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64),
        _COUNT_KEY: np.array([len(traces)], dtype=np.int64),
    }
    for index, (name, trace) in enumerate(traces.items()):
        if name != trace.name:
            raise DataFormatError(
                f"archive key {name!r} does not match trace name {trace.name!r}"
            )
        prefix = f"t{index}"
        payload[f"{prefix}.timestamps"] = trace.timestamps_ns
        payload[f"{prefix}.values"] = trace.values
        payload[f"{prefix}.meta"] = np.array(
            [trace.name, trace.kind.value, repr(float(trace.rate_bps))]
        )
        payload[f"{prefix}.integrity"] = np.array(
            [len(trace), _crc(trace.timestamps_ns), _crc(trace.values)],
            dtype=np.int64,
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}.npz")
    try:
        with zipfile.ZipFile(
            tmp, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1, allowZip64=True
        ) as archive:
            for key, array in payload.items():
                # numpy.savez forces zip64 on every member too: without it
                # zipfile refuses to stream a member past 2 GiB
                with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)
        size = tmp.stat().st_size
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    registry = get_registry()
    registry.counter("traceio.archives_written", "trace archives persisted").inc()
    registry.counter(
        "traceio.bytes_written", "compressed bytes written to trace archives"
    ).inc(size)
    return size


def _verify(prefix: str, archive, trace: CounterTrace, path: Path) -> None:
    key = f"{prefix}.integrity"
    if key not in archive:
        raise CorruptTraceError(f"{path}: trace {trace.name!r} missing integrity record")
    n_samples, ts_crc, val_crc = (int(x) for x in archive[key])
    if n_samples != len(trace):
        raise CorruptTraceError(
            f"{path}: trace {trace.name!r} has {len(trace)} samples, header says "
            f"{n_samples} — truncated or corrupted archive"
        )
    if _crc(trace.timestamps_ns) != ts_crc or _crc(trace.values) != val_crc:
        get_registry().counter(
            "traceio.crc_failures", "trace loads rejected on CRC mismatch"
        ).inc()
        raise CorruptTraceError(f"{path}: CRC mismatch in trace {trace.name!r}")
    get_registry().counter(
        "traceio.crc_verified", "per-trace CRC integrity checks passed"
    ).inc()


def load_traces(path: str | Path) -> dict[str, CounterTrace]:
    """Load a trace archive written by :func:`save_traces`."""
    path = Path(path)
    try:
        archive_cm = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise CorruptTraceError(f"{path}: unreadable archive ({exc})") from exc
    with archive_cm as archive:
        try:
            if _FORMAT_KEY not in archive:
                raise DataFormatError(f"{path} is not a repro trace archive")
            version = int(archive[_FORMAT_KEY][0])
            if version not in (1, _FORMAT_VERSION):
                raise DataFormatError(f"{path}: unsupported archive version {version}")
            traces: dict[str, CounterTrace] = {}
            index = 0
            while f"t{index}.meta" in archive:
                name, kind_value, rate_repr = archive[f"t{index}.meta"]
                trace = CounterTrace(
                    timestamps_ns=archive[f"t{index}.timestamps"],
                    values=archive[f"t{index}.values"],
                    kind=ValueKind(str(kind_value)),
                    name=str(name),
                    rate_bps=float(str(rate_repr)),
                )
                if version >= 2:
                    _verify(f"t{index}", archive, trace, path)
                traces[trace.name] = trace
                index += 1
            if version >= 2:
                expected = int(archive[_COUNT_KEY][0]) if _COUNT_KEY in archive else None
                if expected is not None and expected != len(traces):
                    raise CorruptTraceError(
                        f"{path}: archive holds {len(traces)} traces, header says "
                        f"{expected} — truncated archive"
                    )
        except (DataFormatError, FileNotFoundError):
            raise
        except Exception as exc:
            raise CorruptTraceError(f"{path}: damaged archive member ({exc})") from exc
    if not traces:
        raise DataFormatError(f"{path}: archive holds no traces")
    return traces
