"""Fig 3/4 on windows with no bursts or too few gaps.

Short windows (one 40 ms netsim window per app) can hold no burst at
all.  The experiments must then report the app's rows as ``n/a``, skip
its series and say why in a note, while apps that do burst are reported
exactly as before.
"""

import numpy as np

from repro.experiments import run_experiment
from repro.synth.calibration import BASE_TICK_NS
from repro.synth.rackmodel import utilization_to_byte_trace
from repro.units import gbps


class StubBackend:
    """Byte traces at a flat 20 % utilization, with single-tick bursts
    at ``hot_ticks[app]`` for the apps listed there."""

    name = "stub"

    def __init__(self, hot_ticks=None):
        self.hot_ticks = hot_ticks or {}

    def sample_window(self, window):
        util = np.full(int(window.duration_ns // BASE_TICK_NS), 0.2)
        util[self.hot_ticks.get(window.rack_type, [])] = 0.9
        name = f"{window.port_name}.tx_bytes"
        trace = utilization_to_byte_trace(
            util, gbps(10), BASE_TICK_NS, name=name, start_ns=window.start_ns
        )
        return {name: trace}


def _run(experiment, backend):
    return run_experiment(experiment, seed=0, n_windows=2, window_s=0.04, backend=backend)


def _measured(result, app):
    return [measured for metric, _paper, measured in result.rows if metric.startswith(f"{app}:")]


def test_fig3_no_bursts_anywhere():
    result = _run("fig3", StubBackend())
    assert [measured for _m, _p, measured in result.rows] == ["n/a (0 bursts)"] * 9
    assert result.series == {}
    for app in ("web", "cache", "hadoop"):
        assert any(note.startswith(f"{app}: no bursts") for note in result.notes)


def test_fig3_reports_apps_that_burst():
    result = _run("fig3", StubBackend({"web": slice(10, None, 50)}))
    assert _measured(result, "web") == [25.0, 1.0, 1.0]
    assert _measured(result, "cache") == ["n/a (0 bursts)"] * 3
    assert set(result.series) == {"web_duration_cdf_us"}
    assert not any(note.startswith("web:") for note in result.notes)


def test_fig4_no_gaps_anywhere():
    # One burst per window: bursts, but no gap between two of them.
    result = _run("fig4", StubBackend({app: [500] for app in ("web", "cache", "hadoop")}))
    assert [measured for _m, _p, measured in result.rows] == ["n/a (0 gaps)"] * 9
    assert result.series == {}
    assert sum("no inter-burst gaps" in note for note in result.notes) == 3


def test_fig4_too_few_gaps_for_the_ks_test():
    result = _run("fig4", StubBackend({"web": [100, 300, 500], "cache": slice(10, None, 50)}))
    small, _p99, ks = _measured(result, "web")
    assert small == 0.0
    assert ks == "n/a (4 gaps)"
    assert not _measured(result, "cache")[2].startswith("n/a")
    assert _measured(result, "hadoop") == ["n/a (0 gaps)"] * 3
