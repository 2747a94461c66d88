"""Whole-rack synthetic window generation.

Produces everything the cross-port analyses need for one campaign
window: per-downlink utilization with the application's correlation
structure (Fig 8), per-uplink egress/ingress utilization with flow-level
ECMP imbalance (Fig 7), hot-sample directionality (Fig 9), and counter
traces (byte counters and packet-size histograms) in the exact format
the real sampler produces.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.core.samples import CounterTrace, ValueKind
from repro.errors import ConfigError
from repro.synth.calibration import APP_PROFILES, BASE_TICK_NS, AppProfile, PortProfile
from repro.synth.onoff import OnOffGenerator, correlated_utilization
from repro.units import NS_PER_S, gbps


def fill_utilization(
    mask: np.ndarray, profile: PortProfile, rng: np.random.Generator
) -> np.ndarray:
    """Turn a hot mask into a utilization series using a port profile.

    Each maximal hot run gets one intensity draw (plus per-tick noise);
    cold ticks draw from the cold-utilization model.
    """
    mask = np.asarray(mask, dtype=bool)
    util = np.empty(len(mask))
    util[~mask] = profile.cold.sample(rng, int((~mask).sum()))
    padded = np.concatenate(([False], mask, [False]))
    diff = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diff == 1)
    stops = np.flatnonzero(diff == -1)
    lengths = stops - starts
    intensities = profile.intensity.sample(rng, len(lengths))
    per_tick = np.repeat(intensities, lengths)
    noise = rng.normal(0.0, profile.intensity.tick_noise, size=len(per_tick))
    util[mask] = np.clip(per_tick + noise, 0.501, 1.0)
    return util


def _ecmp_weight_segments(
    n_ticks: int,
    n_links: int,
    n_flows: int,
    mean_lifetime_ticks: float,
    weight_shape: float,
    rng: np.random.Generator,
    link_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-tick per-link traffic shares under churning flow-level ECMP.

    Simulates ``n_flows`` flow aggregates, each hashed to one link with a
    Gamma-distributed weight; when a flow ends (exponential lifetime) a
    fresh flow replaces it.  Returns (n_ticks, n_links) shares summing to
    1 per tick.

    ``link_weights`` biases the hash toward healthy links (WCMP-style
    reweighting after failures): a weight of 0 removes a link from the
    hash entirely, fractional weights shrink its share of flows.
    """
    if link_weights is None:
        probabilities = np.full(n_links, 1.0 / n_links)
    else:
        link_weights = np.asarray(link_weights, dtype=np.float64)
        if link_weights.shape != (n_links,) or link_weights.min() < 0:
            raise ConfigError("link_weights must be non-negative, one per link")
        total = link_weights.sum()
        if total <= 0:
            raise ConfigError("at least one link must have positive weight")
        probabilities = link_weights / total

    # rng.choice(n_links, size=k, p=probabilities) is exactly this CDF
    # search over rng.random(k), minus the per-call validation.
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    cdf_list = cdf.tolist()

    first_links = cdf.searchsorted(rng.random(n_flows), side="right")
    first_weights = rng.gamma(weight_shape, 1.0, size=n_flows)
    lifetimes = rng.exponential(mean_lifetime_ticks, size=n_flows).tolist()
    # Remaining lifetimes, kept sorted with the flows they belong to.
    # Subtracting one elapsed span from every entry keeps the order, so
    # the next death is the head and the dead are a prefix.
    by_death = sorted(range(n_flows), key=lifetimes.__getitem__)
    deaths = [lifetimes[flow] for flow in by_death]
    # Draws stay per segment between flow deaths, because a segment's end
    # depends on the previous exponential draws.  Each replacement is
    # logged as (flow, first segment it applies to, link, weight); a
    # single death takes the scalar path, which consumes the same stream
    # as a size-1 array draw.
    log_flow: list[int] = []
    log_segment: list[int] = []
    log_link: list[int] = []
    log_weight: list[float] = []
    spans: list[int] = []
    bisect_right = bisect.bisect_right
    random, gamma, exponential = rng.random, rng.gamma, rng.exponential
    t = 0
    while t < n_ticks:
        next_death = deaths[0]
        segment_end = min(n_ticks, math.ceil(next_death) + t) if next_death > 0 else t + 1
        segment_end = max(segment_end, t + 1)
        elapsed = segment_end - t
        spans.append(elapsed)
        # Repeated subtraction, not absolute death times: those round
        # differently.
        deaths = [death - elapsed for death in deaths]
        n_dead = bisect_right(deaths, 0.0)
        if n_dead == 1:
            flow = by_death.pop(0)
            del deaths[0]
            log_flow.append(flow)
            log_segment.append(len(spans))
            log_link.append(bisect_right(cdf_list, random()))
            log_weight.append(gamma(weight_shape, 1.0))
            lifetime = exponential(mean_lifetime_ticks)
            at = bisect_right(deaths, lifetime)
            deaths.insert(at, lifetime)
            by_death.insert(at, flow)
        elif n_dead:
            dead = sorted(by_death[:n_dead])
            del by_death[:n_dead], deaths[:n_dead]
            log_flow.extend(dead)
            log_segment.extend([len(spans)] * n_dead)
            log_link.extend(cdf.searchsorted(random(n_dead), side="right").tolist())
            log_weight.extend(gamma(weight_shape, 1.0, size=n_dead).tolist())
            lifetimes = exponential(mean_lifetime_ticks, size=n_dead).tolist()
            for flow, lifetime in zip(dead, lifetimes):
                at = bisect_right(deaths, lifetime)
                deaths.insert(at, lifetime)
                by_death.insert(at, flow)
        t = segment_end

    # Per-segment link totals, accumulated flow by flow in flow order
    # exactly as np.bincount(links, weights) does for one segment.
    n_segments = len(spans)
    flows = np.array(log_flow, dtype=np.int64)
    segments = np.array(log_segment, dtype=np.int64)
    new_links = np.array(log_link, dtype=np.int64)
    new_weights = np.array(log_weight, dtype=np.float64)
    order = np.argsort(flows, kind="stable")
    bounds = np.searchsorted(flows[order], np.arange(n_flows + 1))
    segment_index = np.arange(n_segments)
    rows = np.zeros((n_segments, n_links))
    for flow in range(n_flows):
        events = order[bounds[flow] : bounds[flow + 1]]
        held = np.diff(np.concatenate(([0], segments[events], [n_segments])))
        links = np.repeat(np.concatenate(([first_links[flow]], new_links[events])), held)
        weights = np.repeat(np.concatenate(([first_weights[flow]], new_weights[events])), held)
        rows[segment_index, links] += weights
    totals = rows.sum(axis=1, keepdims=True)
    idle = totals[:, 0] <= 0
    rows[idle] = 1.0  # an all-zero segment gets 1.0 / n_links per link
    totals[idle] = n_links
    rows /= totals
    return np.repeat(rows, spans, axis=0)


@dataclass(slots=True)
class RackWindow:
    """One synthesized campaign window for a whole rack."""

    app: str
    tick_ns: int
    downlink_rate_bps: float
    uplink_rate_bps: float
    downlink_util: np.ndarray  # (n_ticks, n_downlinks)
    uplink_egress_util: np.ndarray  # (n_ticks, n_uplinks)
    uplink_ingress_util: np.ndarray  # (n_ticks, n_uplinks)

    @property
    def n_ticks(self) -> int:
        return self.downlink_util.shape[0]

    @property
    def n_downlinks(self) -> int:
        return self.downlink_util.shape[1]

    @property
    def n_uplinks(self) -> int:
        return self.uplink_egress_util.shape[1]

    def all_egress_util(self) -> np.ndarray:
        """(n_ticks, n_down + n_up) egress utilization of every port."""
        return np.concatenate([self.downlink_util, self.uplink_egress_util], axis=1)

    def downlink_byte_trace(self, index: int, start_ns: int = 0) -> CounterTrace:
        return utilization_to_byte_trace(
            self.downlink_util[:, index],
            self.downlink_rate_bps,
            self.tick_ns,
            name=f"down{index}.tx_bytes",
            start_ns=start_ns,
        )

    def uplink_byte_trace(
        self, index: int, direction: str = "egress", start_ns: int = 0
    ) -> CounterTrace:
        if direction == "egress":
            util = self.uplink_egress_util[:, index]
        elif direction == "ingress":
            util = self.uplink_ingress_util[:, index]
        else:
            raise ConfigError(f"unknown direction {direction!r}")
        return utilization_to_byte_trace(
            util,
            self.uplink_rate_bps,
            self.tick_ns,
            name=f"up{index}.{'tx' if direction == 'egress' else 'rx'}_bytes",
            start_ns=start_ns,
        )


def utilization_to_byte_trace(
    utilization: np.ndarray,
    rate_bps: float,
    tick_ns: int,
    name: str = "",
    start_ns: int = 0,
) -> CounterTrace:
    """Convert per-tick utilization into a cumulative byte-counter trace.

    The result has n_ticks + 1 samples (the counter is read at the start
    and end of every interval), exactly like the sampler's output on a
    miss-free run.
    """
    utilization = np.asarray(utilization, dtype=np.float64)
    bytes_per_tick = utilization * rate_bps * tick_ns / NS_PER_S / 8.0
    cumulative = np.concatenate(([0.0], np.cumsum(bytes_per_tick)))
    values = np.round(cumulative).astype(np.int64)
    timestamps = start_ns + tick_ns * np.arange(len(values), dtype=np.int64)
    return CounterTrace(
        timestamps_ns=timestamps,
        values=values,
        kind=ValueKind.CUMULATIVE,
        name=name,
        rate_bps=rate_bps,
    )


def synthesize_size_histogram(
    utilization: np.ndarray,
    hot: np.ndarray,
    profile: AppProfile,
    rate_bps: float,
    tick_ns: int,
    rng: np.random.Generator,
    name: str = "tx_size_hist",
    start_ns: int = 0,
) -> CounterTrace:
    """Cumulative packet-size histogram trace consistent with a byte trace.

    Packet counts per tick follow the regime's mean packet size; bin
    splits are Poisson draws around the regime's histogram shares (a
    faithful approximation of per-packet multinomial sampling at these
    counts).
    """
    utilization = np.asarray(utilization, dtype=np.float64)
    hot = np.asarray(hot, dtype=bool)
    bytes_per_tick = utilization * rate_bps * tick_ns / NS_PER_S / 8.0
    mean_size = np.where(hot, profile.mean_packet_inside, profile.mean_packet_outside)
    packets_per_tick = bytes_per_tick / mean_size
    mix_out = np.asarray(profile.size_mix_outside)
    mix_in = np.asarray(profile.size_mix_inside)
    shares = np.where(hot[:, None], mix_in[None, :], mix_out[None, :])
    expected = packets_per_tick[:, None] * shares
    counts = rng.poisson(expected)
    cumulative = np.concatenate(
        [np.zeros((1, counts.shape[1]), dtype=np.int64), np.cumsum(counts, axis=0)]
    )
    timestamps = start_ns + tick_ns * np.arange(cumulative.shape[0], dtype=np.int64)
    return CounterTrace(
        timestamps_ns=timestamps,
        values=cumulative,
        kind=ValueKind.CUMULATIVE,
        name=name,
        rate_bps=rate_bps,
    )


class RackSynthesizer:
    """Synthesizes whole-rack windows for one application profile."""

    def __init__(
        self,
        profile: AppProfile | str,
        n_downlinks: int = 16,
        n_uplinks: int = 4,
        downlink_rate_bps: float = gbps(10),
        uplink_rate_bps: float = gbps(10),
        tick_ns: int = BASE_TICK_NS,
    ) -> None:
        if isinstance(profile, str):
            try:
                profile = APP_PROFILES[profile]
            except KeyError:
                raise ConfigError(
                    f"unknown app {profile!r}; choose from {sorted(APP_PROFILES)}"
                ) from None
        if n_downlinks <= 0 or n_uplinks <= 0:
            raise ConfigError("need at least one downlink and uplink")
        self.profile = profile
        self.n_downlinks = n_downlinks
        self.n_uplinks = n_uplinks
        self.downlink_rate_bps = downlink_rate_bps
        self.uplink_rate_bps = uplink_rate_bps
        self.tick_ns = tick_ns

    # -- pieces --------------------------------------------------------------

    def downlink_matrix(self, n_ticks: int, rng: np.random.Generator) -> np.ndarray:
        """(n_ticks, n_downlinks) utilization with correlation structure."""
        corr = self.profile.correlation
        util = np.empty((n_ticks, self.n_downlinks), dtype=np.float64)
        group_size = min(corr.group_size, self.n_downlinks)
        start = 0
        while start < self.n_downlinks:
            size = min(group_size, self.n_downlinks - start)
            group_util, _hot = correlated_utilization(
                n_members=size,
                n_ticks=n_ticks,
                profile=self.profile.downlink,
                participation=corr.participation,
                shared_fraction=corr.shared_fraction,
                rng=rng,
            )
            util[:, start : start + size] = group_util
            start += size
        return util

    def uplink_matrix(
        self,
        n_ticks: int,
        rng: np.random.Generator,
        capacity_factors: np.ndarray | None = None,
    ) -> np.ndarray:
        """(n_ticks, n_uplinks) utilization for one direction.

        A per-link baseline activity process (the uplink port profile)
        modulated by churning ECMP share multipliers:
        ``util_link = baseline * clip(n_uplinks * share, 0, 2) * noise``.
        The multiplier has mean ~1, so the baseline's hot fraction is
        approximately the per-link hot fraction, while the share spread
        produces Fig 7's dispersion.

        ``capacity_factors`` (from
        :meth:`repro.netsim.clos.ClosFabric.uplink_capacity_factors`)
        injects failure asymmetry: flows avoid degraded paths and the
        survivors absorb the displaced load.
        """
        generator = OnOffGenerator(self.profile.uplink)
        baseline = generator.generate(n_ticks, rng).utilization
        ecmp = self.profile.ecmp
        shares = _ecmp_weight_segments(
            n_ticks,
            self.n_uplinks,
            ecmp.n_flows,
            ecmp.mean_lifetime_ticks,
            ecmp.weight_shape,
            rng,
            link_weights=capacity_factors,
        )
        # In place, in the order (baseline * multiplier) * noise.
        util = shares
        util *= self.n_uplinks
        np.clip(util, 0.0, 2.0, out=util)
        noise = rng.lognormal(0.0, ecmp.tick_noise, size=(n_ticks, self.n_uplinks))
        util *= baseline[:, None]
        util *= noise
        return np.clip(util, 0.0, 1.0, out=util)

    # -- full window -----------------------------------------------------------

    def synthesize(
        self, n_ticks: int, rng: np.random.Generator, activity: float = 1.0
    ) -> RackWindow:
        """One rack window; ``activity`` scales burst frequency (diurnal)."""
        if n_ticks <= 0:
            raise ConfigError("n_ticks must be positive")
        synthesizer = self
        if activity != 1.0:
            synthesizer = RackSynthesizer(
                self.profile.with_activity(activity),
                n_downlinks=self.n_downlinks,
                n_uplinks=self.n_uplinks,
                downlink_rate_bps=self.downlink_rate_bps,
                uplink_rate_bps=self.uplink_rate_bps,
                tick_ns=self.tick_ns,
            )
        return RackWindow(
            app=self.profile.name,
            tick_ns=self.tick_ns,
            downlink_rate_bps=self.downlink_rate_bps,
            uplink_rate_bps=self.uplink_rate_bps,
            downlink_util=synthesizer.downlink_matrix(n_ticks, rng),
            uplink_egress_util=synthesizer.uplink_matrix(n_ticks, rng),
            uplink_ingress_util=synthesizer.uplink_matrix(n_ticks, rng),
        )
