"""The array-native rack synthesiser against its original loops.

``_rack_reference`` keeps the per-segment ``rng.choice`` ECMP loop and the
per-burst ``paint`` loop as oracles.  Every case asserts bitwise-equal
arrays *and* an identical generator state afterwards: the rewrite may
regroup draws only where that consumes exactly the same stream.
"""

import numpy as np
import pytest
from _rack_reference import _ecmp_weight_segments as reference_ecmp
from _rack_reference import correlated_utilization as reference_correlated
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth import onoff
from repro.synth.calibration import APP_PROFILES
from repro.synth.onoff import correlated_utilization
from repro.synth.rackmodel import _ecmp_weight_segments


def _assert_same(new, old, rng_new, rng_old):
    for a, b in zip(new, old):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def _check_ecmp(seed, *args, generator=np.random.default_rng, **kwargs):
    rng_new, rng_old = generator(seed), generator(seed)
    new = _ecmp_weight_segments(*args, rng_new, **kwargs)
    old = reference_ecmp(*args, rng_old, **kwargs)
    _assert_same([new], [old], rng_new, rng_old)


class _ZeroUniforms(np.random.Generator):
    """A generator whose uniforms are all exactly 0.0, the one value at
    which a left- and a right-sided CDF search disagree."""

    def random(self, size=None, dtype=np.float64, out=None):
        return 0.0 if size is None else np.zeros(size)


def _check_correlated(seed, app="hadoop", **kwargs):
    profile = APP_PROFILES[app]
    params = dict(
        profile=profile.downlink,
        participation=profile.correlation.participation,
        shared_fraction=profile.correlation.shared_fraction,
    )
    params.update(kwargs)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = correlated_utilization(rng=rng_new, **params)
    old = reference_correlated(rng=rng_old, **params)
    _assert_same(new, old, rng_new, rng_old)


class TestEcmpSegments:
    @pytest.mark.parametrize("app", ["web", "cache", "hadoop"])
    def test_profiles(self, app):
        ecmp = APP_PROFILES[app].ecmp
        _check_ecmp(1, 20_000, 4, ecmp.n_flows, ecmp.mean_lifetime_ticks, ecmp.weight_shape)

    @pytest.mark.parametrize(
        "link_weights",
        [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 2.5], [0.3, 1.0, 0.7, 0.25]],
    )
    def test_zero_and_fractional_link_weights(self, link_weights):
        _check_ecmp(2, 5_000, 4, 12, 40.0, 1.5, link_weights=np.array(link_weights))

    def test_zero_uniform_never_picks_a_zero_weight_link(self):
        def generator(seed):
            return _ZeroUniforms(np.random.PCG64(seed))

        weights = np.array([0.0, 1.0, 1.0, 0.0])
        _check_ecmp(8, 200, 4, 8, 5.0, 1.0, generator=generator, link_weights=weights)
        shares = _ecmp_weight_segments(200, 4, 8, 5.0, 1.0, generator(8), link_weights=weights)
        assert np.all(shares[:, 1] == 1.0)

    def test_several_deaths_per_segment(self):
        # Lifetimes well under a tick: most segments retire many flows.
        _check_ecmp(3, 2_000, 4, 16, 0.4, 1.0)

    def test_many_flows(self):
        _check_ecmp(4, 5_000, 4, 64, 100.0, 2.0)

    @pytest.mark.parametrize("n_links", [1, 3, 8, 16])
    def test_link_counts(self, n_links):
        _check_ecmp(5, 5_000, n_links, 24, 60.0, 0.7)

    @pytest.mark.parametrize("n_ticks", [1, 2])
    def test_tiny_windows(self, n_ticks):
        _check_ecmp(6, n_ticks, 4, 8, 150.0, 2.0)
        _check_ecmp(6, n_ticks, 4, 8, 0.3, 2.0)

    def test_lifetimes_past_the_window(self):
        _check_ecmp(7, 300, 4, 5, 1e6, 0.7)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_ticks=st.integers(1, 400),
        n_links=st.integers(1, 6),
        n_flows=st.integers(1, 40),
        lifetime=st.floats(0.05, 500.0),
        shape=st.floats(0.2, 3.0),
    )
    def test_random_parameters(self, seed, n_ticks, n_links, n_flows, lifetime, shape):
        _check_ecmp(seed, n_ticks, n_links, n_flows, lifetime, shape)


class TestCorrelatedUtilization:
    @pytest.mark.parametrize("app", ["web", "cache", "hadoop"])
    def test_profiles(self, app):
        group = APP_PROFILES[app].correlation.group_size
        _check_correlated(11, app, n_members=group, n_ticks=20_000)

    def test_single_member(self):
        _check_correlated(12, n_members=1, n_ticks=5_000)

    @pytest.mark.parametrize("participation", [0.0, 1.0])
    @pytest.mark.parametrize("shared_fraction", [0.0, 1.0])
    def test_extreme_sharing(self, participation, shared_fraction):
        _check_correlated(
            13,
            n_members=6,
            n_ticks=5_000,
            participation=participation,
            shared_fraction=shared_fraction,
        )

    @pytest.mark.parametrize("n_ticks", [1, 2])
    def test_tiny_windows(self, n_ticks):
        for seed in range(20):
            _check_correlated(seed, n_members=4, n_ticks=n_ticks)

    @pytest.mark.parametrize("batch", [1, 2, 5, 37])
    def test_batch_limit_crossed_mid_burst(self, monkeypatch, batch):
        # Slices down to one tick put slice edges inside bursts, and the
        # overlapping shared and private paints of one cell land in
        # different maximum.at calls.
        monkeypatch.setattr(onoff, "PAINT_BATCH_TICKS", batch)
        _check_correlated(14, n_members=16, n_ticks=3_000)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        app=st.sampled_from(["web", "cache", "hadoop"]),
        n_members=st.integers(1, 8),
        n_ticks=st.integers(1, 3_000),
        participation=st.floats(0.0, 1.0),
        shared_fraction=st.floats(0.0, 1.0),
    )
    def test_random_parameters(
        self, seed, app, n_members, n_ticks, participation, shared_fraction
    ):
        _check_correlated(
            seed,
            app,
            n_members=n_members,
            n_ticks=n_ticks,
            participation=participation,
            shared_fraction=shared_fraction,
        )
