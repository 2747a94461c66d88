"""The benchmark's workloads: fixed jobs over the experiment runners.

Each workload is a list of *units*; one pass runs every unit once.  A
unit is one call of :func:`repro.experiments.run_experiment` and is the
piece of work the calibrated clock times.  Why each workload exists,
and which layers it stresses or bypasses, is recorded in
``perfbench/README.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

#: Seeds with pinned output digests.  Seeds are taken modulo this, so
#: every unit of every run is checked against a pin.
N_PINNED_SEEDS = 16


@dataclass(frozen=True)
class Unit:
    """One experiment call.  ``checkpoint`` is ``"fresh"`` (write a new
    checkpoint directory) or ``"resume"`` (read the fresh one back)."""

    name: str
    experiment: str
    kwargs: dict = field(default_factory=dict)
    checkpoint: str | None = None


_NETSIM = {"backend": "netsim", "n_windows": 1, "window_s": 0.5}

WORKLOADS: dict[str, tuple[Unit, ...]] = {
    "rack-figs": (
        Unit("fig7", "fig7", {"duration_s": 1.0}),
        Unit("fig8", "fig8", {"duration_s": 1.0}),
        Unit("fig9", "fig9", {"duration_s": 1.0}),
        Unit("fig10", "fig10", {"duration_s": 2.0, "n_activity_windows": 4}),
    ),
    "port-campaign": (
        Unit("fig3", "fig3"),
        Unit("fig4", "fig4"),
        Unit("fig6", "fig6"),
        Unit("tab2", "tab2"),
        Unit("ext-chaos", "ext-chaos", checkpoint="fresh"),
        Unit("ext-chaos-resume", "ext-chaos", checkpoint="resume"),
    ),
    # fig3 is not a netsim unit: with one 40 ms window per app it raises
    # AnalysisError (no bursts to build a CDF from) on most seeds.  fig5
    # never fails, and its histogram windows are keyed apart from fig6's
    # byte windows, so a pass simulates six distinct windows, not three.
    "netsim-windows": (
        Unit("fig6", "fig6", _NETSIM),
        Unit("fig5", "fig5", {"backend": "netsim", "duration_s": 0.5}),
    ),
}

#: The backend each workload's experiments resolve (built during set-up).
BACKEND = {"rack-figs": "synth", "port-campaign": "synth", "netsim-windows": "netsim"}

#: Calibration-probe kernels per workload (``perfbench/calib.py``).
#: port-campaign spends about a third of its time in zlib, which a host
#: slow-down hits less than the interpreter: probing it with the
#: interpreter kernel alone left its calibrated unit times spreading
#: 9.7 % (log standard deviation, same unit and seed), against 3.3 %
#: with the zlib kernel added.
PROBES = {
    "rack-figs": ("interp",),
    "port-campaign": ("interp", "zlib"),
    "netsim-windows": ("interp",),
}

#: The exact count that measures how much work a seed's pass does.  A
#: pass's calibrated time is scaled by the pinned mean of this count over
#: its pinned value for the pass's seed, so inputs that differ in size
#: compare as one average input.  Packet-level traffic is heavy-tailed:
#: events per netsim pass range from 1.8 to 2.7 million across the
#: pinned seeds, and time follows them.
WORK_COUNT = {
    "rack-figs": "samples.per_pass",
    "port-campaign": "samples.per_pass",
    "netsim-windows": "netsim.events",
}


def pinned_seed(seed: int) -> int:
    return seed % N_PINNED_SEEDS


def result_digest(result_dict: dict) -> str:
    """Digest of an ``ExperimentResult.to_dict()``."""
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class UnitRunner:
    """Runs units for one seed, owning the checkpoint directory that the
    ext-chaos units write and read back."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.checkpoint_dir = work_dir / "checkpoint"

    def call(self, unit: Unit):
        """Run one unit and return its ``ExperimentResult``."""
        from repro.experiments import run_experiment

        kwargs = dict(unit.kwargs)
        if unit.checkpoint == "fresh":
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
            kwargs["checkpoint_dir"] = str(self.checkpoint_dir)
        elif unit.checkpoint == "resume":
            kwargs.update(checkpoint_dir=str(self.checkpoint_dir), resume=True)
        return run_experiment(unit.experiment, seed=self.seed, workers=1, **kwargs)

    def close(self) -> None:
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)

