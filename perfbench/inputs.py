"""Workload inputs: every spec the benchmark runs, generated from its seed.

The program under test receives only these specs; nothing else about a
workload reaches it.  One seed always yields the same specs, and two
seeds yield disjoint spec seeds, so a second seed is an unused input
set to confirm a claim on.
"""

from __future__ import annotations

import numpy as np

from repro import CampaignSpec, FaultSpec, NetworkRef, SamplerSpec

#: Random probe inputs per scenario (``CampaignSpec.batch``).
PROBES = 16
#: One SAMPLE_BLOCK: the size of the warm-up spec run during set-up.
WARMUP_SCENARIOS = 1024

SCENARIOS = {
    "campaign-wide": 8192,
    "campaign-taxonomy": 65536,
    "service-zipf": 8192,
}

#: Result-latency limit per workload for ``slo_share`` (milliseconds).
SLO_MS = {
    "campaign-wide": 2000.0,
    "campaign-taxonomy": 1500.0,
    "service-zipf": 250.0,
}

#: service-zipf: specs in the popular pool, the daemon's memory-cache
#: size, the popularity exponent, the open-loop arrival rate and the
#: spacing of never-seen specs.  The pool is larger than the cache, so
#: both cache tiers serve hits; every MISS_EVERY-th request names a new
#: spec, so misses are a fixed share spread over the whole window (a
#: cold Zipf stream front-loads them instead, and timing that burst
#: measures a queue that drains once).  The rate is about half of what
#: two closed-loop clients sustain on a 2-core machine.
POOL_SIZE = 128
CACHE_ENTRIES = 48
ZIPF_ALPHA = 1.1
RATE_PER_S = 32.0
MISS_EVERY = 20
#: Served specs re-run directly after the load to compare result bytes.
SERVED_CHECKS = 8

#: The wide campaign's fault distribution, checked against its Fep bound.
WIDE_DISTRIBUTION = (3, 2)


def _derive(seed: int, *path: int) -> int:
    """A spec seed drawn from the benchmark seed and a position."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def network_ref(workload: str, seed: int) -> NetworkRef:
    """The network a workload runs on; its weights follow the seed."""
    if workload == "campaign-wide":
        params = {"input_dim": 784, "hidden": [256, 256], "n_outputs": 10}
    else:
        params = {"input_dim": 4, "hidden": [16, 12]}
    params["seed"] = _derive(seed, 0)
    return NetworkRef(builder="mlp", params=params)


def _sampler(workload: str) -> SamplerSpec:
    if workload == "campaign-taxonomy":
        return SamplerSpec(
            kind="mixed",
            components=(
                SamplerSpec(
                    kind="fixed", distribution=(2, 1),
                    fault=FaultSpec(kind="noise", sigma=0.1),
                ),
                SamplerSpec(
                    kind="fixed", distribution=(1, 1),
                    fault=FaultSpec(kind="intermittent", p=0.5),
                ),
                SamplerSpec(
                    kind="fixed", distribution=(2, 1, 1),
                    fault=FaultSpec(kind="synapse_byzantine"),
                ),
            ),
        )
    if workload == "campaign-wide":
        return SamplerSpec(kind="fixed", distribution=WIDE_DISTRIBUTION)
    return SamplerSpec(kind="fixed", distribution=(2, 1))


def _campaign(workload: str, seed: int, spec_seed: int, n_scenarios: int):
    return CampaignSpec(
        network=network_ref(workload, seed),
        sampler=_sampler(workload),
        fault=FaultSpec(kind="crash"),
        n_scenarios=n_scenarios,
        batch=PROBES,
        seed=spec_seed,
    )


def spec(workload: str, seed: int, index: int) -> CampaignSpec:
    """The ``index``-th spec of a workload.  Campaign workloads run
    indices 0, 1, 2, ... in order; service-zipf's pool is 0..POOL_SIZE-1.
    """
    return _campaign(workload, seed, _derive(seed, 1, index), SCENARIOS[workload])


def warmup_spec(workload: str, seed: int) -> CampaignSpec:
    """A one-block spec outside the timed sequence, run during set-up."""
    return _campaign(workload, seed, _derive(seed, 4), WARMUP_SCENARIOS)


def service_schedule(seed: int, seconds: float):
    """The request stream: (warm-up pool indices, due offsets in
    seconds, spec indices).

    The warm-up submits every pool spec once before the window, least
    popular first, so the popular ones end up in the memory cache.
    ``RATE_PER_S * seconds`` arrivals placed uniformly at random over
    the window — a Poisson process conditioned on its count, so every
    seed offers the same load.  Indices below POOL_SIZE name pool specs
    drawn Zipf(ZIPF_ALPHA) over a seeded popularity order; every
    MISS_EVERY-th request names a new spec (index POOL_SIZE + j).
    """
    rng = np.random.default_rng(_derive(seed, 2))
    n = max(2, int(round(RATE_PER_S * seconds)))
    dues = np.sort(rng.uniform(0.0, seconds, size=n))
    weights = np.arange(1, POOL_SIZE + 1, dtype=np.float64) ** -ZIPF_ALPHA
    weights /= weights.sum()
    order = rng.permutation(POOL_SIZE)
    # Stratified draws: every seed requests each rank close to its
    # expected count, so the cache-tier mix varies little between seeds.
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    ranks = np.minimum(np.searchsorted(np.cumsum(weights), u), POOL_SIZE - 1)
    picks = [int(i) for i in order[ranks]]
    for j, k in enumerate(range(MISS_EVERY - 1, n, MISS_EVERY)):
        picks[k] = POOL_SIZE + j
    return [int(i) for i in order[::-1]], dues.tolist(), picks


def check_sample(seed: int, served: list) -> list:
    """The seeded sample of served pool indices re-run directly."""
    rng = np.random.default_rng(_derive(seed, 3))
    served = sorted(set(served))
    k = min(SERVED_CHECKS, len(served))
    return [served[i] for i in sorted(rng.choice(len(served), k, replace=False))]
