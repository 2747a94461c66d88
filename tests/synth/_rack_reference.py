"""Reference copies of the rack synthesiser's original hot loops.

Test oracles only: ``_ecmp_weight_segments`` and
``correlated_utilization`` exactly as they were before the loops were
made array-native (one ``rng.choice`` per flow death, one ``paint`` call
per burst and member).  The equivalence tests assert that the production
versions return bitwise-identical arrays and leave the generator in the
same state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.synth.calibration import PortProfile
from repro.synth.onoff import OnOffGenerator


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

    def choose_links(count: int) -> np.ndarray:
        return rng.choice(n_links, size=count, p=probabilities)

    links = choose_links(n_flows)
    weights = rng.gamma(weight_shape, 1.0, size=n_flows)
    deaths = rng.exponential(mean_lifetime_ticks, size=n_flows)
    shares = np.empty((n_ticks, n_links))
    t = 0
    while t < n_ticks:
        next_death = float(deaths.min())
        segment_end = min(n_ticks, int(np.ceil(next_death)) + t) if next_death > 0 else t + 1
        segment_end = max(segment_end, t + 1)
        link_weights = np.bincount(links, weights=weights, minlength=n_links)
        total = link_weights.sum()
        shares[t:segment_end] = link_weights / total if total > 0 else 1.0 / n_links
        elapsed = segment_end - t
        deaths -= elapsed
        dead = deaths <= 0
        n_dead = int(dead.sum())
        if n_dead:
            links[dead] = choose_links(n_dead)
            weights[dead] = rng.gamma(weight_shape, 1.0, size=n_dead)
            deaths[dead] = rng.exponential(mean_lifetime_ticks, size=n_dead)
        t = segment_end
    return shares


def correlated_utilization(
    n_members: int,
    n_ticks: int,
    profile: PortProfile,
    participation: float,
    shared_fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Utilization for ``n_members`` servers sharing group bursts (Fig 8).

    A master process supplies shared bursts; each member joins each with
    probability ``participation`` and — critically for the Pearson
    correlation the paper measures — participating members share the
    burst's intensity (scatter-gather responses are near-identical in
    size).  Each member additionally runs a private process thinned to
    ``1 - shared_fraction`` so marginal statistics stay at the profile's.

    Returns ``(utilization, hot)`` arrays of shape (n_ticks, n_members).
    """
    if n_members <= 0:
        raise ConfigError("need at least one member")
    generator = OnOffGenerator(profile)
    util = np.zeros((n_ticks, n_members))
    hot = np.zeros((n_ticks, n_members), dtype=bool)

    def paint(member: int, start: int, length: int, intensity: float) -> None:
        stop = start + length
        noise = rng.normal(0.0, profile.intensity.tick_noise, size=stop - start)
        segment = np.clip(intensity + noise, 0.501, 1.0)
        util[start:stop, member] = np.maximum(util[start:stop, member], segment)
        hot[start:stop, member] = True

    if shared_fraction > 0.0 and participation > 0.0 and n_members > 1:
        starts, lengths = generator.generate_mask_runs(n_ticks, rng)
        intensities = profile.intensity.sample(rng, len(starts))
        for index in range(len(starts)):
            members = np.flatnonzero(rng.random(n_members) < participation)
            for member in members:
                paint(int(member), int(starts[index]), int(lengths[index]), float(intensities[index]))

    private_share = 1.0 - shared_fraction if n_members > 1 else 1.0
    if private_share > 0.0:
        for member in range(n_members):
            starts, lengths = generator.generate_mask_runs(n_ticks, rng)
            keep = np.flatnonzero(rng.random(len(starts)) < private_share)
            intensities = profile.intensity.sample(rng, len(keep))
            for intensity, index in zip(intensities, keep):
                paint(member, int(starts[index]), int(lengths[index]), float(intensity))

    for member in range(n_members):
        cold = ~hot[:, member]
        util[cold, member] = profile.cold.sample(rng, int(cold.sum()))
    return util, hot
