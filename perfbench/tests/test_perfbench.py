"""Tests for the benchmark's own code (not the program it measures).

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import calib
from perfbench.calib import KERNEL_REF_S, CalibratedClock, calibrated_units, to_ref_s
from perfbench.run import Harness, _import_program
from perfbench.workloads import N_PINNED_SEEDS, WORKLOADS, Unit, pinned_seed, result_digest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())


# -- calibration arithmetic --------------------------------------------------------


def test_calibrated_units_divide_by_mean_probe():
    assert calibrated_units(2.0, [0.04, 0.06]) == pytest.approx(40.0)


def test_reference_seconds_use_the_probe_kernels_reference_time():
    assert to_ref_s(40.0, ("interp",)) == pytest.approx(40.0 * KERNEL_REF_S["interp"])
    both = KERNEL_REF_S["interp"] + KERNEL_REF_S["zlib"]
    assert to_ref_s(40.0, ("interp", "zlib")) == pytest.approx(40.0 * both)


def test_uniform_host_slowdown_cancels():
    fast = calibrated_units(1.5, [0.05, 0.05, 0.05])
    slow = calibrated_units(3.0, [0.10, 0.10])
    assert fast == pytest.approx(slow)


@pytest.mark.parametrize("work, probes", [(-1.0, [0.05]), (1.0, []), (1.0, [0.05, 0.0])])
def test_calibrated_units_rejects_bad_times(work, probes):
    with pytest.raises(ValueError):
        calibrated_units(work, probes)


def test_clock_probes_during_work_and_subtracts_them(monkeypatch):
    clock = CalibratedClock(("interp",))
    monkeypatch.setattr(clock, "probe", lambda: 0.001)
    before = signal.getsignal(signal.SIGALRM)
    ref_s, wall_s, result = clock.measure(lambda: time.sleep(0.3) or "done")
    assert result == "done"
    during = len(clock.probe_samples_s) - 2
    assert during >= 3  # one probe every PROBE_INTERVAL_S of the sleep
    assert ref_s == pytest.approx(to_ref_s((wall_s - 0.001 * during) / 0.001, ("interp",)))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_clock_stops_probing_when_work_raises():
    before = signal.getsignal(signal.SIGALRM)
    clock = CalibratedClock(("interp", "zlib"))
    with pytest.raises(ZeroDivisionError):
        clock.measure(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_work_scale_maps_each_seed_to_the_average_input():
    harness = Harness("netsim-windows", 0)
    harness.pins = {"0": {"work": 100}, "1": {"work": 300}}
    harness.use_seed(0)
    assert harness.work_scale() == pytest.approx(2.0)
    harness.use_seed(1)
    assert harness.work_scale() == pytest.approx(2.0 / 3.0)


# -- output checks -----------------------------------------------------------------


class _Result:
    def __init__(self, payload: dict) -> None:
        self.payload = payload

    def to_dict(self) -> dict:
        return self.payload


class _Runner:
    seed = 0

    def __init__(self, outcome) -> None:
        self.outcome = outcome

    def call(self, unit):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return _Result(self.outcome)


def _harness(outcome, pinned: dict) -> Harness:
    harness = Harness("rack-figs", 0)
    harness.runner = _Runner(outcome)
    harness.pin = {"digests": pinned}
    return harness


def test_matching_digest_is_not_a_failure():
    payload = {"experiment_id": "fig7", "rows": [["a", 1, 2]]}
    harness = _harness(payload, {"fig7": result_digest(payload)})
    harness.run_unit(Unit("fig7", "fig7"))
    assert (harness.attempted, harness.failed) == (1, 0)


def test_tampered_digest_counts_as_failure():
    payload = {"experiment_id": "fig7", "rows": [["a", 1, 2]]}
    tampered = result_digest({**payload, "rows": [["a", 1, 3]]})
    harness = _harness(payload, {"fig7": tampered})
    harness.run_unit(Unit("fig7", "fig7"))
    assert (harness.attempted, harness.failed) == (1, 1)


def test_missing_pin_and_raising_unit_count_as_failures():
    harness = _harness({"x": 1}, {})
    harness.run_unit(Unit("fig7", "fig7"))
    harness.runner = _Runner(RuntimeError("boom"))
    assert harness.run_unit(Unit("fig7", "fig7")) == (0.0, 0.0)
    assert (harness.attempted, harness.failed) == (2, 2)


def test_every_workload_seed_and_unit_is_pinned():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    for workload, units in WORKLOADS.items():
        for seed in range(N_PINNED_SEEDS):
            pin = PINS[workload][str(seed)]
            assert set(pin["digests"]) == {unit.name for unit in units}
            assert pin["samples_per_pass"] > 0 and pin["work"] > 0
    assert pinned_seed(N_PINNED_SEEDS + 3) == 3


# -- sample counts -----------------------------------------------------------------


def test_per_pass_sample_count_is_fixed_for_a_seed():
    _import_program(ROOT)
    from perfbench.layers import LayerTracer
    from perfbench.workloads import UnitRunner

    runner = UnitRunner(5, ROOT / ".perfbench")
    fig9 = next(unit for unit in WORKLOADS["rack-figs"] if unit.name == "fig9")
    counts = []
    tracer = LayerTracer()
    tracer.install()
    try:
        for _ in range(2):
            runner.call(fig9)
            counts.append(tracer.samples)
            tracer.reset()
    finally:
        tracer.uninstall()
    # 3 apps x 40 000 ticks of 25 us x (16 downlinks + 4 uplinks each way)
    assert counts == [3 * 40_000 * 24] * 2


# -- the command, run as a separate process ------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "rack-figs", "--seed", "17", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "1":
        samples = result["metrics"]["samples.per_pass"]["value"]
        assert samples == PINS["rack-figs"][str(pinned_seed(17))]["samples_per_pass"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "rack-figs", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
