"""Golden determinism suite for sharded parallel campaigns.

The contract under test (see ``repro.core.campaign``): a campaign run
serially, with 2 workers, and with 4 workers produces **byte-identical**
results — same trace bytes (compared via the traceio integrity CRCs),
same per-window outcomes — including under injected faults and across
checkpoint interrupt/resume at a *different* worker count or shard size.
"""

import numpy as np
import pytest

from repro.core.campaign import MeasurementCampaign, RetryPolicy, shard_plan
from repro.core.traceio import _crc
from repro.errors import CollectionError, ConfigError
from repro.faults import FaultInjector, FaultPlan, FaultyWindowSource
from repro.experiments import run_experiment
from repro.synth.dataset import SyntheticCampaignSource, default_plan
from repro.telemetry.metrics import scoped_registry
from repro.units import seconds

SEED = 7


def small_plan():
    # 3 apps x 1 rack x 3 hours = 9 windows; enough shards to exercise
    # out-of-order completion at 2 and 4 workers.
    return default_plan(
        racks_per_app=1, hours=3, window_duration_ns=seconds(0.2), seed=SEED
    )


def clean_source():
    return SyntheticCampaignSource(seed=SEED)


def faulty_source():
    injector = FaultInjector(
        FaultPlan(
            seed=SEED + 1,
            window_failure_rate=0.3,
            transient_fraction=0.5,
            sample_loss_rate=0.05,
            wrap_bits=32,
        )
    )
    return FaultyWindowSource(clean_source(), injector)


def digest(result):
    """Byte-level fingerprint of a campaign result.

    npz archives are not byte-stable (zip metadata), so golden comparisons
    use the same CRC32-over-array-bytes that traceio's integrity records
    use: equal digests == byte-identical trace payloads.
    """
    fingerprint = []
    for window, traces in result.iter_windows():
        entry = [window.rack_id, window.hour]
        for name in sorted(traces):
            trace = traces[name]
            entry.append((name, _crc(trace.timestamps_ns), _crc(trace.values)))
        fingerprint.append(tuple(entry))
    return tuple(fingerprint)


def outcome_digest(result):
    return [
        (o.index, o.status.value, o.attempts, o.error) for o in result.outcomes
    ]


class TestGoldenIdentity:
    def test_serial_vs_2_vs_4_workers_byte_identical(self):
        plan = small_plan()
        serial = MeasurementCampaign(plan, clean_source()).run()
        golden = digest(serial)
        for workers in (1, 2, 4):
            parallel = MeasurementCampaign(
                plan, clean_source(), workers=workers
            ).run()
            assert digest(parallel) == golden, f"workers={workers} diverged"
            assert np.array_equal(
                parallel.traces[0][next(iter(parallel.traces[0]))].values,
                serial.traces[0][next(iter(serial.traces[0]))].values,
            )

    def test_identical_under_fault_injection(self):
        plan = small_plan()
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
        serial = MeasurementCampaign(plan, faulty_source(), retry=retry).run()
        golden, golden_outcomes = digest(serial), outcome_digest(serial)
        fault_stats = []
        for workers in (1, 4):
            campaign = MeasurementCampaign(
                plan, faulty_source(), retry=retry, workers=workers
            )
            parallel = campaign.run()
            assert digest(parallel) == golden, f"workers={workers} diverged"
            assert outcome_digest(parallel) == golden_outcomes
            fault_stats.append(campaign.fault_stats)
        # The aggregated fault tally is itself order-independent.
        assert fault_stats[0] == fault_stats[1]
        assert fault_stats[0] is not None

    def test_max_windows_per_shard_does_not_change_results(self):
        plan = small_plan()
        golden = digest(MeasurementCampaign(plan, clean_source()).run())
        chunked = MeasurementCampaign(
            plan, clean_source(), workers=2, max_windows_per_shard=1
        )
        assert len(chunked.shards) == len(plan.windows)
        assert digest(chunked.run()) == golden


class TestCheckpointResume:
    def interrupt(self, plan, ckpt, stop_after):
        class Interrupting:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def sample_window(self, window):
                if self.calls >= stop_after:
                    raise RuntimeError("simulated crash")
                self.calls += 1
                return self.inner.sample_window(window)

        campaign = MeasurementCampaign(
            plan,
            Interrupting(clean_source()),
            retry=RetryPolicy(backoff_s=0.0),
            checkpoint_dir=ckpt,
            workers=1,
        )
        with pytest.raises(RuntimeError):
            campaign.run()

    def test_resume_at_different_worker_count_matches_clean_run(self, tmp_path):
        plan = small_plan()
        golden = digest(MeasurementCampaign(plan, clean_source()).run())
        ckpt = tmp_path / "ckpt"
        self.interrupt(plan, ckpt, stop_after=4)
        # The interrupted run left a header and per-window records behind.
        assert (ckpt / "checkpoint.json").exists()
        assert len(list(ckpt.glob("window_*.json"))) == 4
        resumed = MeasurementCampaign(
            plan,
            clean_source(),
            retry=RetryPolicy(backoff_s=0.0),
            checkpoint_dir=ckpt,
            workers=4,
        ).run(resume=True)
        assert digest(resumed) == golden

    def test_resume_under_faults_matches_uninterrupted_run(self, tmp_path):
        plan = small_plan()
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0)
        golden = digest(
            MeasurementCampaign(plan, faulty_source(), retry=retry).run()
        )
        ckpt = tmp_path / "ckpt"
        first = MeasurementCampaign(
            plan, faulty_source(), retry=retry, checkpoint_dir=ckpt, workers=1
        )
        first.run()
        # Re-running with resume=True replays everything from checkpoint.
        replayed = MeasurementCampaign(
            plan, faulty_source(), retry=retry, checkpoint_dir=ckpt, workers=4
        ).run(resume=True)
        assert digest(replayed) == golden

    def test_resume_across_shard_size_change(self, tmp_path):
        plan = small_plan()
        golden = digest(MeasurementCampaign(plan, clean_source()).run())
        ckpt = tmp_path / "ckpt"
        self.interrupt(plan, ckpt, stop_after=4)
        relaid = MeasurementCampaign(
            plan,
            clean_source(),
            checkpoint_dir=ckpt,
            workers=2,
            max_windows_per_shard=1,
        )
        with scoped_registry() as registry:
            resumed = relaid.run(resume=True)
            counters = registry.snapshot()["counters"]
        assert digest(resumed) == golden
        assert counters["campaign.windows_resumed"] == 4

    def test_resume_refuses_different_plan(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        MeasurementCampaign(small_plan(), clean_source(), checkpoint_dir=ckpt).run()
        other = default_plan(
            racks_per_app=1, hours=3, window_duration_ns=seconds(0.2), seed=SEED + 9
        )
        with pytest.raises(CollectionError):
            MeasurementCampaign(
                other, clean_source(), checkpoint_dir=ckpt
            ).run(resume=True)


class TestShardLayout:
    def test_shards_partition_the_plan_by_rack(self):
        plan = small_plan()
        shards = shard_plan(plan)
        covered = sorted(i for shard in shards for i in shard.indices)
        assert covered == list(range(len(plan.windows)))
        for shard in shards:
            racks = {plan.windows[i].rack_id for i in shard.indices}
            assert len(racks) == 1

    def test_layout_is_worker_count_invariant(self):
        plan = small_plan()
        assert shard_plan(plan) == shard_plan(plan)
        for campaign_workers in (1, 2, 4, 8):
            campaign = MeasurementCampaign(
                plan, clean_source(), workers=campaign_workers
            )
            assert campaign.shards == shard_plan(plan)

    def test_invalid_configuration_rejected(self):
        plan = small_plan()
        with pytest.raises(ConfigError):
            MeasurementCampaign(plan, clean_source(), workers=0)
        with pytest.raises(ConfigError):
            shard_plan(plan, max_windows_per_shard=0)


def test_run_campaign_workers_flag_matches_serial():
    plan = small_plan()
    from repro.synth.dataset import run_campaign

    serial = run_campaign(plan, seed=SEED)
    parallel = run_campaign(plan, seed=SEED, workers=2)
    assert digest(parallel) == digest(serial)


# -- ext-chaos end to end: one checkpoint layout at every worker count ----------

#: ext-chaos reports the transient faults its *own* collections retried, so
#: a run that restores every window from checkpoint reports 0 there.
RETRY_ROW = "transient faults recovered by retry"


def chaos(ckpt, workers, seed=0, resume=False):
    """One small ext-chaos run (24 campaign windows) and its counters."""
    with scoped_registry() as registry:
        result = run_experiment(
            "ext-chaos",
            seed=seed,
            n_windows=2,
            window_s=0.5,
            campaign_window_s=0.25,
            checkpoint_dir=str(ckpt),
            resume=resume,
            workers=workers,
        )
        counters = registry.snapshot()["counters"]
    return result.to_dict(), counters


def split_retry_row(payload):
    rows = [row for row in payload["rows"] if row["metric"] != RETRY_ROW]
    (retry_row,) = [row for row in payload["rows"] if row["metric"] == RETRY_ROW]
    return {**payload, "rows": rows}, retry_row["measured"]


@pytest.mark.parametrize(
    "written_at, resumed_at", [(1, 2), (2, 1)], ids=["serial-to-2", "2-to-serial"]
)
def test_ext_chaos_resumes_across_worker_counts(tmp_path, written_at, resumed_at):
    ckpt = tmp_path / "ckpt"
    uninterrupted, _ = chaos(ckpt, written_at)
    resumed, counters = chaos(ckpt, resumed_at, resume=True)
    assert counters["campaign.windows_resumed"] == 24
    # Nothing was re-collected: the only windows collected are the two
    # of the loss sweep, which runs without a checkpoint.
    collected = sum(
        counters.get(f"campaign.windows_{status}", 0)
        for status in ("ok", "degraded", "failed")
    )
    assert collected == 2
    expected, _ = split_retry_row(uninterrupted)
    got, retried = split_retry_row(resumed)
    assert got == expected
    assert retried == "0"


@pytest.mark.parametrize("workers", [1, 2])
def test_fresh_run_into_used_checkpoint_then_resume(tmp_path, workers):
    ckpt = tmp_path / "ckpt"
    chaos(ckpt, workers, seed=0)
    fresh, _ = chaos(ckpt, workers, seed=1)
    resumed, counters = chaos(ckpt, workers, seed=1, resume=True)
    assert counters["campaign.windows_resumed"] == 24
    assert split_retry_row(resumed)[0] == split_retry_row(fresh)[0]
