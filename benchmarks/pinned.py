"""Pinned workloads and helpers shared by the layer benchmarks.

``bench_netsim`` and ``bench_telemetry`` time the same netsim window, so
its scale and plan live here once; ``traces_crc`` is the digest every
CRC-locked benchmark checks, and ``write_artifact`` puts a benchmark's
JSON payload where CI uploads it from.
"""

import json
import os
import zlib
from pathlib import Path

from repro.backends import NetsimScale
from repro.backends.base import single_port_plan
from repro.units import ms, seconds


def pinned_scale() -> NetsimScale:
    """The pre-pass default scale, pinned so the benchmark workload (and
    its golden CRC and baseline) stay comparable across releases even as
    the backend's default scale grows."""
    return NetsimScale(
        n_downlinks=8,
        n_uplinks=4,
        n_remote_hosts=12,
        warmup_ns=ms(10),
        max_window_ns=ms(20),
    )


def pinned_window():
    plan = single_port_plan("cache", 1, seconds(2), seed=0, port="down0")
    return plan.windows[0]


def traces_crc(traces, crc: int = 0) -> int:
    """crc32 of values then timestamps, traces in sorted-name order;
    pass a previous result as ``crc`` to chain several collections."""
    for name in sorted(traces):
        trace = traces[name]
        crc = zlib.crc32(trace.values.tobytes(), crc)
        crc = zlib.crc32(trace.timestamps_ns.tobytes(), crc)
    return crc


def write_artifact(name: str, payload: dict) -> Path:
    """Write ``payload`` as ``name`` under ``benchmarks/artifacts/``
    (override the directory with ``REPRO_BENCH_ARTIFACT_DIR``)."""
    directory = Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "benchmarks/artifacts"))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
