"""High-resolution counter collection framework.

This is the paper's primary contribution: a polling framework that reads
switch ASIC counters every 10s-to-100s of microseconds from the switch
CPU, tolerating best-effort timing (missed intervals keep correct
timestamps and cumulative values), batching samples to a collector.

The framework is hardware-agnostic: it polls anything exposing the
counter-surface protocol — the packet-level simulator's
:class:`repro.netsim.tracing.SwitchCounterSurface` or the synthetic
campaign generator.
"""

from repro.core.samples import CounterTrace, ValueKind
from repro.core.counters import CounterBinding, CounterKind, CostClass, CounterSpec
from repro.core.asic import AsicTimingModel, ReadCost
from repro.core.sampler import HighResSampler, SamplerConfig, SamplerReport, TimingStats
from repro.core.collector import CollectorService
from repro.core.campaign import (
    CampaignPlan,
    CampaignResult,
    CampaignWindow,
    MeasurementCampaign,
    RetryPolicy,
    Shard,
    WindowOutcome,
    WindowStatus,
    shard_plan,
)
from repro.core.seeding import site_rng, stable_site_key, window_rng
from repro.core.snmp import CoarseSample, coarse_resample
from repro.core.adaptive import AdaptiveConfig, AdaptiveSampler, AdaptiveStats
from repro.core.streaming import ReservoirSampler, StreamingBurstStats

__all__ = [
    "CounterTrace",
    "ValueKind",
    "CounterBinding",
    "CounterKind",
    "CostClass",
    "CounterSpec",
    "AsicTimingModel",
    "ReadCost",
    "HighResSampler",
    "SamplerConfig",
    "SamplerReport",
    "TimingStats",
    "CollectorService",
    "CampaignPlan",
    "CampaignResult",
    "CampaignWindow",
    "MeasurementCampaign",
    "RetryPolicy",
    "WindowOutcome",
    "WindowStatus",
    "Shard",
    "shard_plan",
    "site_rng",
    "stable_site_key",
    "window_rng",
    "CoarseSample",
    "coarse_resample",
    "AdaptiveConfig",
    "AdaptiveSampler",
    "AdaptiveStats",
    "ReservoirSampler",
    "StreamingBurstStats",
]
