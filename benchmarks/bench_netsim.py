"""Netsim hot-path performance guard.

Measures the event engine on the exact workload the performance pass was
profiled against: the window phase (sampler polling loop over live
traffic, warmup excluded) of a cache window on the pinned pre-pass
backend scale.  Two numbers are reported and written as a CI artifact:

* **events/sec** — engine events processed per wall-clock second,
* **sim-ns per wall-second** — how much simulated time one second of
  wall time buys, which is what sets campaign turnaround.

The benchmark also re-checks the golden window CRC: a speedup that
changes a single trace byte is a determinism break, not an optimisation
(see ``tests/backends/test_backend_parity.py``).

The asserted floor is deliberately far below the reference machine's
post-pass rate (~490k events/s, up from the 197k pre-pass baseline
recorded below) so slow shared CI runners do not flake, while a
regression anywhere near the pre-pass engine still fails everywhere.

Run::

    pytest benchmarks/bench_netsim.py --benchmark-only

The artifact lands in ``benchmarks/artifacts/netsim_events_per_sec.json``
(override the directory with ``REPRO_BENCH_ARTIFACT_DIR``).
"""

import time

from pinned import pinned_scale, pinned_window, traces_crc, write_artifact

from repro.backends import NetsimBackend
from repro.core.counters import bind_tx_bytes
from repro.core.sampler import HighResSampler, SamplerConfig

#: Pre-performance-pass rate on the reference machine for this exact
#: workload (window phase, cache, ``pinned.pinned_scale``).  Kept as recorded
#: history so the artifact can report the speedup ratio; the pass/fail
#: floor is machine-tolerant and separate.
RECORDED_BASELINE_EVENTS_PER_SEC = 197_171

#: Conservative floor: ~4x below the reference machine's post-pass rate,
#: ~2.5x above what the pre-pass engine would score there.
MIN_EVENTS_PER_SEC = 120_000

#: Golden CRC of the traces this workload produces (values||timestamps,
#: traces in sorted-name order) — pinned before the performance pass.
PINNED_WINDOW_CRC = 0x5E144EF5


def test_netsim_window_events_per_sec(benchmark):
    """Engine throughput on the backend window workload, CRC-locked."""
    backend = NetsimBackend(seed=0, scale=pinned_scale())
    window = pinned_window()

    def run():
        # The backend's own window recipe, split open so warmup can be
        # excluded and the event count read off the engine: _build is the
        # exact code path sample_window uses.
        sim, surface = backend._build(window)
        events_before = sim.events_processed
        sampler = HighResSampler(
            SamplerConfig(interval_ns=backend.scale.interval_ns),
            [bind_tx_bytes(surface, "down0")],
            rng=backend._window_seed(window, "sampler"),
        )
        start = time.perf_counter()
        report = sampler.run_in_sim(sim, backend._duration_ns(window))
        wall_s = time.perf_counter() - start
        return report, sim.events_processed - events_before, wall_s

    report, events, wall_s = benchmark.pedantic(run, rounds=3, iterations=1)

    crc = traces_crc(report.traces)
    assert crc == PINNED_WINDOW_CRC, (
        f"netsim window traces changed (crc {crc:#x} != {PINNED_WINDOW_CRC:#x}): "
        "a faster engine that alters a single byte is a determinism break"
    )

    events_per_sec = events / wall_s
    simulated_ns = backend._duration_ns(window)
    sim_ns_per_wall_s = simulated_ns / wall_s
    payload = {
        "workload": "cache window, pinned 8-down/4-up scale, 20 ms window",
        "events": events,
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(events_per_sec),
        "sim_ns_per_wall_s": round(sim_ns_per_wall_s),
        "recorded_baseline_events_per_sec": RECORDED_BASELINE_EVENTS_PER_SEC,
        "ratio_vs_recorded_baseline": round(
            events_per_sec / RECORDED_BASELINE_EVENTS_PER_SEC, 2
        ),
        "min_events_per_sec_floor": MIN_EVENTS_PER_SEC,
        "golden_crc_ok": True,
    }
    path = write_artifact("netsim_events_per_sec.json", payload)
    print(f"\nnetsim bench: {payload['events_per_sec']:,} events/s "
          f"({payload['ratio_vs_recorded_baseline']}x recorded baseline), "
          f"{payload['sim_ns_per_wall_s']:,} sim-ns/wall-s -> {path}")

    assert events_per_sec > MIN_EVENTS_PER_SEC


def test_netsim_default_scale_window_affordable(benchmark):
    """The raised default scale (paper's 16-down rack, 40 ms cap) must
    stay cheaper per window than the old 8-down/20 ms default was before
    the performance pass (~1 s on the reference machine)."""
    backend = NetsimBackend(seed=0)
    window = pinned_window()

    def run():
        return backend.sample_window(window)

    traces = benchmark.pedantic(run, rounds=1, iterations=1)
    assert traces  # produced something
    # Generous machine-tolerant ceiling; the reference machine sits ~0.6 s.
    assert benchmark.stats["mean"] < 5.0
