"""Traced run: spans around calls into each layer, from outside the program.

:class:`LayerTracer` replaces each function in :data:`LAYER_CALLS` with
a timing wrapper for the traced passes only, then puts the originals
back.  Module-level functions are replaced in every loaded ``repro``
module that imported them by name, so ``from x import f`` call sites
are traced too.  Spans are kept in memory and written out at the end.

A span's *self* time is its duration minus the time of the traced
calls made inside it; self times of all layers plus the experiment's
own self time add up to the unit's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


#: (layer tag, module, qualified name) of every traced call.
LAYER_CALLS: tuple[tuple[str, str, str], ...] = (
    # repro.backends: the measurement-backend protocol
    *(
        (f"backends.{name}", f"repro.backends.{name}", f"{cls}.{method}")
        for name, cls in (("synth", "SynthBackend"), ("netsim", "NetsimBackend"))
        for method in (
            "sample_window",
            "sample_histogram_window",
            "sample_rack_window",
            "sample_buffer_window",
        )
    ),
    # repro.synth: rack synthesiser, on/off port generator, buffer model
    ("synth.rack", "repro.synth.rackmodel", "RackSynthesizer.synthesize"),
    ("synth.port", "repro.synth.dataset", "SyntheticCampaignSource.sample_window"),
    ("synth.buffer", "repro.synth.buffermodel", "BufferResponseModel.sample"),
    # repro.netsim: rack construction and the event engine
    ("netsim", "repro.netsim.topology", "build_rack"),
    ("netsim", "repro.netsim.engine", "Simulator.run_until"),
    # repro.core
    ("sampler", "repro.core.sampler", "HighResSampler.run_in_sim"),
    ("campaign", "repro.core.campaign", "MeasurementCampaign.run"),
    ("traceio.write", "repro.core.traceio", "save_traces"),
    ("traceio.read", "repro.core.traceio", "load_traces"),
    # repro.faults
    ("faults", "repro.faults.sources", "FaultyWindowSource.sample_window"),
    ("faults.degrade", "repro.faults.injector", "FaultInjector.degrade_trace"),
    ("faults", "repro.faults.injector", "FaultInjector.wrap_trace"),
    # repro.analysis
    ("analysis.bursts", "repro.analysis.bursts", "extract_bursts_from_trace"),
    ("analysis.bursts", "repro.analysis.bursts", "extract_bursts_gap_aware"),
    ("analysis.bursts", "repro.analysis.bursts", "trace_hot_mask"),
    ("analysis.bursts", "repro.analysis.bursts", "burst_cdf_delta_bound"),
    ("analysis.cdf", "repro.analysis.cdf", "EmpiricalCdf.__init__"),
    ("analysis.cdf", "repro.analysis.cdf", "EmpiricalCdf.__call__"),
    ("analysis.cdf", "repro.analysis.cdf", "EmpiricalCdf.percentile"),
    ("analysis.cdf", "repro.analysis.cdf", "EmpiricalCdf.ks_distance"),
    ("analysis.cdf", "repro.analysis.report", "cdf_series"),
    ("analysis.cdf", "repro.analysis.kstest", "exponential_ks_test"),
    ("analysis.markov", "repro.analysis.markov", "fit_pooled_transition_matrix"),
    ("analysis.rack", "repro.analysis.mad", "normalized_mad_series"),
    ("analysis.rack", "repro.analysis.mad", "resample_utilization"),
    ("analysis.rack", "repro.analysis.correlation", "pearson_matrix"),
    ("analysis.rack", "repro.analysis.correlation", "mean_offdiagonal"),
    ("analysis.rack", "repro.analysis.correlation", "block_mean_correlation"),
    ("analysis.rack", "repro.analysis.hotports", "hot_share_by_direction"),
    ("analysis.rack", "repro.analysis.hotports", "max_simultaneous_hot_fraction"),
    ("analysis.rack", "repro.analysis.hotports", "window_hot_port_counts"),
    ("analysis.rack", "repro.analysis.bufferstats", "occupancy_by_hot_ports"),
)

#: The tag of the span around a whole unit (one experiment call).
UNIT_TAG = "experiments"


def count_samples(value) -> int:
    """Counter samples in a backend or trace-archive return value: a
    trace dict, a single trace, or a whole-rack utilization window."""
    if isinstance(value, dict):
        return sum(len(trace) for trace in value.values())
    if hasattr(value, "downlink_util"):
        return int(
            value.downlink_util.size
            + value.uplink_egress_util.size
            + value.uplink_ingress_util.size
        )
    return len(value)


class LayerTracer:
    """Installs timing wrappers and accumulates per-layer time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [child_ns, span_id] per open span
        self._open_tags: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.unit_index = -1
        self.reset()

    def reset(self) -> None:
        """Clear the per-unit accumulators (spans are kept)."""
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples = 0
        self.saved_samples = 0

    # -- spans -------------------------------------------------------------------

    def _note_result(self, tag: str, args: tuple, result) -> None:
        if tag.startswith("backends.") or tag == "traceio.read":
            self.samples += count_samples(result)
        elif tag == "traceio.write":
            self.saved_samples += count_samples(args[1])

    def timed(self, tag: str, name: str, fn):
        """``fn`` wrapped in a span of layer ``tag``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._open_tags[tag] == 0
            frame = [0, self._next_id]
            self._next_id += 1
            parent = self._stack[-1][1] if self._stack else None
            self._stack.append(frame)
            self._open_tags[tag] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open_tags[tag] -= 1
                self._stack.pop()
                duration = end - start
                self.self_ns[tag] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
                if outermost:
                    self.incl_ns[tag] += duration
                    self.calls[tag] += 1
                self.spans.append(
                    (frame[1], parent, self.unit_index, tag, name, start, end)
                )
            if outermost:
                self._note_result(tag, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers already installed")
        modules = [m for name, m in sys.modules.items() if name.startswith("repro")]
        for tag, module_name, qualname in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.timed(tag, qualname, original))
                continue
            original = getattr(module, qualname)
            wrapper = self.timed(tag, qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: Path, units: list[str]) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, unit, tag, name, start, end in sorted(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "unit": units[unit] if 0 <= unit < len(units) else None,
                            "layer": tag,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


class PassTotals:
    """One traced pass's layer times in reference milliseconds.

    Each unit's wall-clock layer times are scaled by that unit's own
    calibration factor (reference seconds over wall seconds)."""

    def __init__(self) -> None:
        self.self_ms: dict[str, float] = defaultdict(float)
        self.incl_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.unit_ms = 0.0
        self.samples = 0
        self.saved_samples = 0

    def add_unit(self, tracer: LayerTracer, ref_s: float, wall_s: float) -> None:
        factor = ref_s / wall_s / 1e6 if wall_s > 0 else 0.0
        for tag, ns in tracer.self_ns.items():
            self.self_ms[tag] += ns * factor
        for tag, ns in tracer.incl_ns.items():
            self.incl_ms[tag] += ns * factor
        for tag, n in tracer.calls.items():
            self.calls[tag] += n
        self.unit_ms += ref_s * 1e3
        self.samples += tracer.samples
        self.saved_samples += tracer.saved_samples
        tracer.reset()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(totals: PassTotals, counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (harness diagnostics are
    added by the caller)."""
    incl, own, calls = totals.incl_ms, totals.self_ms, totals.calls
    unit_ms = totals.unit_ms
    events = counters.get("netsim.events_processed", 0)
    scheduled = counters.get("sampler.instants_scheduled", 0)
    analysis = {
        part: own.get(f"analysis.{part}", 0.0)
        for part in ("bursts", "cdf", "markov", "rack")
    }
    covered = sum(ms for tag, ms in own.items() if tag != UNIT_TAG)
    return {
        "synth.rack_window_ms": _ratio(incl["synth.rack"], calls["synth.rack"]),
        "synth.rack_share": _ratio(incl["synth.rack"], unit_ms),
        "synth.port_window_ms": _ratio(incl["synth.port"], calls["synth.port"]),
        "synth.port_share": _ratio(incl["synth.port"], unit_ms),
        "netsim.window_ms": _ratio(incl["netsim"], calls["backends.netsim"]),
        "netsim.share": _ratio(incl["netsim"], unit_ms),
        "netsim.events": events,
        "netsim.events_per_ref_s": _ratio(events, incl["netsim"] / 1e3),
        "sampler.instants_scheduled": scheduled,
        "sampler.missed_frac": _ratio(counters.get("sampler.instants_missed", 0), scheduled),
        "campaign.self_ms": own["campaign"],
        "campaign.windows": sum(
            counters.get(f"campaign.windows_{status}", 0)
            for status in ("ok", "degraded", "failed")
        ),
        "campaign.window_retries": counters.get("campaign.window_retries", 0),
        "campaign.windows_failed": counters.get("campaign.windows_failed", 0),
        "campaign.windows_degraded": counters.get("campaign.windows_degraded", 0),
        "campaign.windows_resumed": counters.get("campaign.windows_resumed", 0),
        "traceio.write_ms": incl["traceio.write"],
        "traceio.read_ms": incl["traceio.read"],
        "traceio.share": _ratio(incl["traceio.write"] + incl["traceio.read"], unit_ms),
        "traceio.bytes_written": counters.get("traceio.bytes_written", 0),
        "checkpoint_bytes_per_sample": _ratio(
            counters.get("campaign.checkpoint_bytes", 0), totals.saved_samples
        ),
        # transient/persistent only classify the window faults already counted
        "faults.injected": sum(
            value
            for name, value in counters.items()
            if name.startswith("faults.")
            and name not in ("faults.transient_faults", "faults.persistent_faults")
        ),
        "faults.degrade_ms": incl["faults.degrade"],
        "analysis.bursts_ms": analysis["bursts"],
        "analysis.cdf_ms": analysis["cdf"],
        "analysis.markov_ms": analysis["markov"],
        "analysis.rack_ms": analysis["rack"],
        "analysis.share": _ratio(sum(analysis.values()), unit_ms),
        "experiments.self_ms": own[UNIT_TAG],
        "layers.coverage": _ratio(covered, unit_ms),
        "samples.per_pass": totals.samples,
    }
