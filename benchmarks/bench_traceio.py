"""Checkpoint I/O throughput guard (campaign windows are persisted here).

Runs ext-chaos at seed 0 and default scale with a checkpoint directory
(23 window archives: one of the 24 planned windows fails under the
injected faults), loads those windows into memory, then times writing
every window with ``save_traces`` and reading every archive back with
``load_traces``, best of ``ROUNDS``.  Reported:

* **write MB/s** and **read MB/s**: raw trace bytes (timestamps plus
  values) moved per wall-clock second,
* **bytes per sample**: archive bytes per stored counter sample.

The read-back traces are CRC-checked against a pinned digest, so a
faster writer that loses or alters a byte fails here.

The floor sits about 3x below the deflate-level-1 writer's rate and
about 2x above the level-6 ``np.savez_compressed`` writer it replaced
(rates recorded below), so slow shared CI runners do not flake while a
return to level 6 still fails.

Run::

    pytest benchmarks/bench_traceio.py -q

The artifact lands in ``benchmarks/artifacts/traceio_bytes_per_sec.json``
(override the directory with ``REPRO_BENCH_ARTIFACT_DIR``).
"""

import time

from pinned import traces_crc, write_artifact

from repro.core.traceio import load_traces, save_traces
from repro.experiments.registry import run_experiment

ROUNDS = 3

#: Write rate of this workload with the level-6 ``np.savez_compressed``
#: writer (2-vCPU cloud guest, Python 3.11, numpy 2.4: 26.8-28.2 MB/s
#: over ten runs, 5.60 bytes/sample).  Recorded history for the
#: artifact's ratio; the pass/fail floor is separate.
RECORDED_BASELINE_WRITE_MB_PER_SEC = 27.5

#: Conservative floor; the level-1 writer does 144-150 MB/s (5.96
#: bytes/sample) on the machine above.
MIN_WRITE_MB_PER_SEC = 50.0

#: crc32 of the read-back windows (``pinned.traces_crc`` chained over
#: windows in index order).
PINNED_WINDOWS_CRC = 0xD501341B


def _checkpoint_windows(directory):
    run_experiment("ext-chaos", seed=0, checkpoint_dir=str(directory))
    return [load_traces(path) for path in sorted(directory.glob("window_*.npz"))]


def test_traceio_bytes_per_sec(tmp_path):
    windows = _checkpoint_windows(tmp_path / "campaign")
    raw_bytes = sum(
        trace.timestamps_ns.nbytes + trace.values.nbytes
        for window in windows
        for trace in window.values()
    )
    n_samples = sum(len(trace) for window in windows for trace in window.values())

    best_write_s = best_read_s = float("inf")
    for round_index in range(ROUNDS):
        # a fresh directory per round, as a campaign writes: renaming over
        # an archive just written costs ext4 about 50 ms a file
        out = tmp_path / f"round{round_index}"
        paths = [out / f"window_{index:05d}.npz" for index in range(len(windows))]
        start = time.perf_counter()
        archive_bytes = sum(map(save_traces, paths, windows))
        best_write_s = min(best_write_s, time.perf_counter() - start)
        start = time.perf_counter()
        loaded = [load_traces(path) for path in paths]
        best_read_s = min(best_read_s, time.perf_counter() - start)

    crc = 0
    for window in loaded:
        crc = traces_crc(window, crc)
    assert crc == PINNED_WINDOWS_CRC, (
        f"checkpoint windows changed on a write/read round trip or upstream "
        f"(crc {crc:#x} != {PINNED_WINDOWS_CRC:#x})"
    )

    write_mb_per_sec = raw_bytes / best_write_s / 1e6
    payload = {
        "workload": f"ext-chaos seed 0 checkpoint windows ({len(windows)} archives)",
        "rounds": ROUNDS,
        "raw_bytes": raw_bytes,
        "archive_bytes": archive_bytes,
        "samples": n_samples,
        "bytes_per_sample": round(archive_bytes / n_samples, 3),
        "best_write_s": round(best_write_s, 4),
        "best_read_s": round(best_read_s, 4),
        "write_mb_per_sec": round(write_mb_per_sec, 1),
        "read_mb_per_sec": round(raw_bytes / best_read_s / 1e6, 1),
        "recorded_baseline_write_mb_per_sec": RECORDED_BASELINE_WRITE_MB_PER_SEC,
        "ratio_vs_recorded_baseline": round(
            write_mb_per_sec / RECORDED_BASELINE_WRITE_MB_PER_SEC, 2
        ),
        "min_write_mb_per_sec_floor": MIN_WRITE_MB_PER_SEC,
        "golden_crc_ok": True,
    }
    path = write_artifact("traceio_bytes_per_sec.json", payload)
    print(f"\ntraceio bench: write {payload['write_mb_per_sec']} MB/s "
          f"({payload['ratio_vs_recorded_baseline']}x recorded baseline), "
          f"read {payload['read_mb_per_sec']} MB/s, "
          f"{payload['bytes_per_sample']} bytes/sample -> {path}")

    assert write_mb_per_sec > MIN_WRITE_MB_PER_SEC
