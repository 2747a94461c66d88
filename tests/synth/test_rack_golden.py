"""Golden lock on the rack synthesiser.

crc32 pins of whole-rack windows, uplink matrices and correlated group
utilization.  Every pin also hashes a few uniforms drawn from the
generator afterwards, so a change that consumes the random stream
differently fails here even when the arrays happen to agree.  The
values were computed before the synthesiser's hot loops were made
array-native; any rewrite of the rack synthesiser must keep them.
"""

import zlib

import numpy as np
import pytest

from repro.synth.calibration import APP_PROFILES
from repro.synth.onoff import correlated_utilization
from repro.synth.rackmodel import RackSynthesizer

#: Ticks per pinned window (0.3 s at the 25 us base tick).
N_TICKS = 12_000


def _crc(*arrays: np.ndarray, rng: np.random.Generator) -> int:
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
    return zlib.crc32(rng.random(4).tobytes(), crc)


#: crc32 over (down || egress || ingress || rng.random(4)) of
#: ``RackSynthesizer(app).synthesize(N_TICKS, default_rng(seed), activity)``.
RACK_WINDOW_CRCS = {
    ("web", 1.0): 0x717F86CE,
    ("web", 0.3): 0xA31FC185,
    ("cache", 1.0): 0x8211C2FF,
    ("cache", 0.3): 0xA7CE5708,
    ("hadoop", 1.0): 0xE0E2F4D2,
    ("hadoop", 0.3): 0x0974D97B,
}

#: crc32 over (matrix || rng.random(4)) of ``uplink_matrix`` with these
#: capacity factors (a failed and a degraded fourth uplink).
UPLINK_CRCS = {
    (1.0, 1.0, 1.0, 0.0): 0x70F9193A,
    (1.0, 1.0, 1.0, 0.25): 0x5709929A,
}

#: crc32 over (util || hot || rng.random(4)) of ``correlated_utilization``
#: with the hadoop downlink profile and its group correlation model.
GROUP_CRCS = {
    1: 0x565F47AB,
    4: 0xA14FC487,
    16: 0x5D152A48,
}


@pytest.mark.parametrize("app, activity", sorted(RACK_WINDOW_CRCS))
def test_rack_window_golden(app, activity):
    rng = np.random.default_rng(zlib.crc32(app.encode()) + int(activity * 10))
    window = RackSynthesizer(app).synthesize(N_TICKS, rng, activity=activity)
    crc = _crc(
        window.downlink_util,
        window.uplink_egress_util,
        window.uplink_ingress_util,
        rng=rng,
    )
    assert crc == RACK_WINDOW_CRCS[(app, activity)], hex(crc)


@pytest.mark.parametrize("factors", sorted(UPLINK_CRCS))
def test_uplink_matrix_golden(factors):
    rng = np.random.default_rng(7)
    matrix = RackSynthesizer("hadoop").uplink_matrix(
        N_TICKS, rng, capacity_factors=np.array(factors)
    )
    crc = _crc(matrix, rng=rng)
    assert crc == UPLINK_CRCS[factors], hex(crc)


@pytest.mark.parametrize("n_members", sorted(GROUP_CRCS))
def test_correlated_utilization_golden(n_members):
    profile = APP_PROFILES["hadoop"]
    rng = np.random.default_rng(100 + n_members)
    util, hot = correlated_utilization(
        n_members=n_members,
        n_ticks=N_TICKS,
        profile=profile.downlink,
        participation=profile.correlation.participation,
        shared_fraction=profile.correlation.shared_fraction,
        rng=rng,
    )
    crc = _crc(util, hot, rng=rng)
    assert crc == GROUP_CRCS[n_members], hex(crc)
