"""Synthetic campaign dataset generation.

Bridges the synthesiser to the campaign machinery in
:mod:`repro.core.campaign`: a :class:`SyntheticCampaignSource` plays the
role of the production switch fleet, producing counter traces for each
(rack, hour) window the plan requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.campaign import CampaignPlan, CampaignWindow, MeasurementCampaign
from repro.core.samples import CounterTrace
from repro.core.seeding import window_rng
from repro.errors import ConfigError
from repro.synth.calibration import APP_PROFILES, BASE_TICK_NS
from repro.synth.onoff import OnOffGenerator
from repro.synth.rackmodel import utilization_to_byte_trace
from repro.units import gbps, seconds


@dataclass(slots=True)
class SyntheticCampaignSource:
    """Window source backed by the per-port on/off synthesiser.

    Produces single-port byte traces — the paper's single-counter
    campaigns (Sec 4.1: highest-resolution results use one counter per
    campaign).  Port names starting with ``up`` use the app's uplink
    profile; anything else the downlink profile.
    """

    seed: int = 0
    tick_ns: int = BASE_TICK_NS
    rate_bps: float = gbps(10)

    def sample_window(self, window: CampaignWindow) -> dict[str, CounterTrace]:
        try:
            profile = APP_PROFILES[window.rack_type]
        except KeyError:
            raise ConfigError(f"unknown rack type {window.rack_type!r}") from None
        port_profile = (
            profile.uplink if window.port_name.startswith("up") else profile.downlink
        )
        # Window identity -> deterministic, independent stream, so serial,
        # sharded-parallel, and resumed runs all see the same randomness.
        rng = window_rng(self.seed, window.rack_id, window.hour)
        n_ticks = window.duration_ns // self.tick_ns
        series = OnOffGenerator(port_profile).generate(int(n_ticks), rng)
        trace = utilization_to_byte_trace(
            series.utilization,
            self.rate_bps,
            self.tick_ns,
            name=f"{window.port_name}.tx_bytes",
            start_ns=window.start_ns,
        )
        return {trace.name: trace}


def default_plan(
    racks_per_app: int = 10,
    hours: int = 24,
    window_duration_ns: int = seconds(120),
    seed: int = 0,
    apps: tuple[str, ...] = ("web", "cache", "hadoop"),
    n_downlinks: int = 16,
    n_uplinks: int = 4,
) -> CampaignPlan:
    """The paper's campaign: ``racks_per_app`` racks per application, one
    random port per rack, one random window per hour."""
    rng = np.random.default_rng(seed)
    racks = [
        (f"{app}-rack{i}", app) for app in apps for i in range(racks_per_app)
    ]
    port_names = [f"down{i}" for i in range(n_downlinks)] + [
        f"up{i}" for i in range(n_uplinks)
    ]

    def choose_port(_rack_id: str, rng: np.random.Generator) -> str:
        return port_names[int(rng.integers(len(port_names)))]

    return CampaignPlan.generate(
        racks=racks,
        port_chooser=choose_port,
        rng=rng,
        hours=hours,
        window_duration_ns=window_duration_ns,
    )


def synthesize_app_windows(
    app: str,
    n_windows: int,
    window_duration_ns: int,
    seed: int = 0,
    tick_ns: int = BASE_TICK_NS,
    port: str | None = None,
    rate_bps: float = gbps(10),
    n_downlinks: int = 16,
    n_uplinks: int = 4,
) -> list[CounterTrace]:
    """Convenience: ``n_windows`` single-port byte traces for one app.

    This is the fast path used by the Fig 3/4/6 and Table 2 benchmarks.
    ``port=None`` mirrors the paper's campaign, which measured one
    *random* port per rack — so roughly 80 % of windows are downlinks.
    Port choice goes through the crc32 site-key scheme of
    :mod:`repro.core.seeding` (keyed per ``(seed, app, window index)``),
    the same discipline the backends use for trace content, so the
    schedule is independent of call order and worker count.
    """
    # Imported lazily: repro.backends wraps this module, so a module-level
    # import would be circular.
    from repro.backends.base import single_port_plan

    source = SyntheticCampaignSource(seed=seed, tick_ns=tick_ns, rate_bps=rate_bps)
    plan = single_port_plan(
        app,
        n_windows,
        window_duration_ns,
        seed=seed,
        port=port,
        n_downlinks=n_downlinks,
        n_uplinks=n_uplinks,
    )
    traces = []
    for window in plan.windows:
        traces.extend(source.sample_window(window).values())
    return traces


def run_campaign(
    plan: CampaignPlan,
    seed: int = 0,
    tick_ns: int = BASE_TICK_NS,
    workers: int = 1,
    backend=None,
):
    """Execute a plan against a measurement backend (synth by default).

    ``workers`` is the :class:`MeasurementCampaign` process count: above
    one it shards the plan by rack across a process pool, and the
    per-window seeding contract of the backends guarantees the result is
    byte-identical to the serial run.  ``backend`` accepts a backend name
    (``"synth"`` / ``"netsim"``) or instance; ``None`` keeps the
    historical synthetic source path.
    """
    if backend is None:
        resolved = SyntheticCampaignSource(seed=seed, tick_ns=tick_ns)
    else:
        from repro.backends import resolve_backend

        resolved = resolve_backend(backend, seed=seed, tick_ns=tick_ns)
    return MeasurementCampaign(plan, resolved, workers=workers).run()
