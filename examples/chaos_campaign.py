#!/usr/bin/env python
"""Chaos campaign: fault injection, retry, and checkpoint/resume.

Runs a small measurement campaign through the fault injector — window
collection failures (half transient, half persistent), sample loss, and
32-bit counter wraparound — with the resilient runner checkpointing every
completed window.  The run is then interrupted partway on purpose and
resumed from the checkpoint; the resumed campaign reproduces exactly the
traces an uninterrupted run yields, because every fault decision is keyed
by (seed, window) rather than call order.

Run:  python examples/chaos_campaign.py [--seed N] [--rate 0.15]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import extract_bursts_gap_aware
from repro.core.campaign import MeasurementCampaign, RetryPolicy, WindowStatus
from repro.faults import FaultInjector, FaultPlan, FaultyWindowSource
from repro.synth.dataset import SyntheticCampaignSource, default_plan
from repro.units import seconds


class InterruptAfter:
    """Wraps a window source and simulates a crash after N collections."""

    def __init__(self, inner, n_calls):
        self.inner = inner
        self.n_calls = n_calls
        self.calls = 0

    def sample_window(self, window):
        if self.calls >= self.n_calls:
            raise KeyboardInterrupt("simulated operator interrupt")
        self.calls += 1
        return self.inner.sample_window(window)


def make_source(seed, rate):
    injector = FaultInjector(
        FaultPlan(
            seed=seed + 1,
            window_failure_rate=rate,
            transient_fraction=0.5,
            sample_loss_rate=0.02,
            wrap_bits=32,
        )
    )
    return FaultyWindowSource(SyntheticCampaignSource(seed=seed), injector), injector


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=0.15,
                        help="injected window-failure rate")
    args = parser.parse_args(argv)

    plan = default_plan(
        racks_per_app=2, hours=3, window_duration_ns=seconds(0.5), seed=args.seed
    )
    retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
    print(f"plan: {len(plan.windows)} windows, "
          f"{args.rate:.0%} injected window-failure rate\n")

    # -- reference: one uninterrupted chaos run -------------------------------
    source, injector = make_source(args.seed, args.rate)
    reference = MeasurementCampaign(plan, source, retry=retry).run()
    counts = reference.status_counts()
    print("uninterrupted run:")
    print(f"  ok / degraded / failed: {counts[WindowStatus.OK.value]} / "
          f"{counts[WindowStatus.DEGRADED.value]} / "
          f"{counts[WindowStatus.FAILED.value]}")
    print(f"  completion: {reference.completion_fraction:.1%}  "
          f"(transient faults retried: {injector.stats.transient_faults}, "
          f"persistent: {injector.stats.persistent_faults})")

    # -- the same campaign, crashed and resumed -------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        interrupted = InterruptAfter(
            make_source(args.seed, args.rate)[0], n_calls=len(plan.windows) // 3
        )
        try:
            MeasurementCampaign(
                plan, interrupted, retry=retry, checkpoint_dir=ckpt
            ).run()
        except KeyboardInterrupt:
            n_done = len(list(ckpt.glob("window_*.json")))
            print(f"\ninterrupted after {interrupted.calls} collections "
                  f"({n_done} windows checkpointed)")

        resumed = MeasurementCampaign(
            plan, make_source(args.seed, args.rate)[0], retry=retry,
            checkpoint_dir=ckpt,
        ).run(resume=True)

    identical = all(
        set(a) == set(b)
        and all(
            np.array_equal(a[k].timestamps_ns, b[k].timestamps_ns)
            and np.array_equal(a[k].values, b[k].values)
            for k in a
        )
        for a, b in zip(reference.traces, resumed.traces)
    )
    print(f"resumed run completion: {resumed.completion_fraction:.1%}")
    print(f"traces byte-identical to uninterrupted run: {identical}")

    # -- gap-aware analysis of the degraded traces ----------------------------
    print("\ngap-aware burst analysis of degraded traces:")
    shown = 0
    for window, traces in resumed.completed():
        for trace in traces.values():
            stats = extract_bursts_gap_aware(trace)
            if stats.n_missing_instants == 0 or shown >= 3:
                continue
            shown += 1
            print(f"  {window.rack_id}/h{window.hour}: "
                  f"{stats.stats.n_bursts} bursts over {stats.n_segments} segments, "
                  f"coverage {stats.coverage:.1%}, "
                  f"CDF shift bound {stats.cdf_delta_bound:.3f}")
    if shown == 0:
        print("  (no window lost samples this run)")
    return 0


if __name__ == "__main__":
    main()
