"""The rank-k stage of the mask engine (DESIGN.md "Streaming evaluation").

A batch whose layer-1 faults are few and deterministic forms stage 2's
received sums as ``nominal + D @ W[F, :]`` instead of the dense GEMM.
Audited here:

* **equivalence** — over random small ``mlp`` nets, the neuron-fault
  kinds and the fixed / Bernoulli / exhaustive samplers, the engine
  matches the dense :class:`FaultInjector` oracle, and the slice
  counters show that exactly the batches the eligibility rule admits
  took the rank-k stage;
* **Theorem 2** — ``repro.run``'s worst error stays within
  ``network_fep`` on a rank-k campaign (crash, and Byzantine at the
  capacity);
* **eligibility** — noise, intermittent, synapse and quantized-tier
  campaigns never take the stage;
* **determinism** — bitwise identical with observation on or off,
  serial vs parallel, and against the threaded tier at a matched
  slice layout.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import network_fep
from repro.backends.threaded import ThreadedMaskEngine
from repro.faults.injector import FaultInjector
from repro.faults.masks import (
    RANK_K_CROSSOVER,
    BernoulliSampler,
    FixedDistributionSampler,
    MaskCampaignEngine,
    combination_index_array,
    masks_from_flat_indices,
    sampled_campaign_errors,
)
from repro.faults.types import (
    ByzantineFault,
    CrashFault,
    OffsetFault,
    SignFlipFault,
    StuckAtFault,
)
from repro.network import build_mlp
from repro.obs import RunObserver
from repro.profiling import PhaseProfile
from repro.specs import (
    CampaignSpec,
    EngineSpec,
    FaultSpec,
    NetworkRef,
    SamplerSpec,
    run,
)

FAULTS = (
    CrashFault(),
    ByzantineFault(),
    ByzantineFault(value=0.8),
    OffsetFault(offset=-0.3),
    SignFlipFault(),
    StuckAtFault(value=0.25),
)

#: Most rows an exhaustive example evaluates (a strided subsample of the
#: combination table beyond that).
EXHAUSTIVE_ROWS = 200


def _net(data):
    depth = data.draw(st.integers(1, 3), label="depth")
    widths = [data.draw(st.integers(4, 64), label=f"N{l}") for l in range(depth)]
    scale = data.draw(st.floats(0.1, 0.9), label="w_scale")
    return build_mlp(
        data.draw(st.integers(1, 4), label="d"),
        widths,
        activation={"name": "sigmoid", "k": data.draw(st.floats(0.5, 2.0))},
        init={"name": "uniform", "scale": scale},
        output_scale=scale,
        n_outputs=data.draw(st.integers(1, 3), label="outputs"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )


def _batch(data, net, rng):
    n1 = net.layer_sizes[0]
    kind = data.draw(st.sampled_from(["fixed", "bernoulli", "exhaustive"]))
    if kind == "exhaustive":
        n_fail = data.draw(st.integers(1, 2), label="n_fail")
        flat = combination_index_array(net.num_neurons, n_fail)
        step = max(1, math.ceil(flat.shape[0] / EXHAUSTIVE_ROWS))
        return masks_from_flat_indices(net.layer_sizes, flat[::step])
    fault = data.draw(st.sampled_from(FAULTS), label="fault")
    n = data.draw(st.integers(1, 160), label="scenarios")
    if kind == "bernoulli":
        p = data.draw(st.floats(0.0, 0.3), label="p")
        return BernoulliSampler(net, p, fault=fault).sample(n, rng)
    # Layer-1 counts straddle the crossover; zero rows included.
    edge = n1 // RANK_K_CROSSOVER
    f1 = data.draw(
        st.sampled_from(sorted({0, 1, max(edge - 1, 0), edge, edge + 1})),
        label="f1",
    )
    rest = [
        data.draw(st.integers(0, min(2, w)), label=f"f{l + 2}")
        for l, w in enumerate(net.layer_sizes[1:])
    ]
    return FixedDistributionSampler(net, [min(f1, n1), *rest], fault=fault).sample(
        n, rng
    )


class TestOracleEquivalence:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_engine_matches_dense_injector(self, data):
        net = _net(data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        batch = _batch(data, net, rng)
        injector = FaultInjector(net, capacity=net.output_bound)
        x = rng.random((data.draw(st.integers(1, 6), label="B"), net.input_dim))
        chunk = data.draw(st.sampled_from([7, 64, 1024]), label="chunk")
        engine = MaskCampaignEngine(injector, x, chunk_size=chunk)
        engine.profile = PhaseProfile()

        got = engine.evaluate(batch)
        np.testing.assert_allclose(
            got, injector.output_errors_many(x, batch), rtol=1e-12, atol=1e-14
        )
        slices = math.ceil(batch.num_scenarios / chunk)
        layer1 = [batch.zero_masks, batch.set_masks, batch.add_masks,
                  batch.scale_masks]
        k_max = np.logical_or.reduce(
            [m[0] for m in layer1 if m is not None]
        ).sum(axis=1).max()
        eligible = k_max * RANK_K_CROSSOVER <= net.layer_sizes[0]
        # The path is decided per batch: every slice takes the same one.
        assert engine.profile.slices == {
            "rank_k": slices if eligible else 0,
            "dense": 0 if eligible else slices,
        }


WIDE = NetworkRef(
    builder="mlp",
    params={"input_dim": 8, "hidden": [64, 48], "n_outputs": 3, "seed": 5},
)


def _campaign(**kw):
    base = dict(
        network=WIDE,
        sampler=SamplerSpec(kind="fixed", distribution=(3, 2)),
        fault=FaultSpec(kind="crash"),
        n_scenarios=2048,
        batch=8,
        seed=3,
    )
    base.update(kw)
    return CampaignSpec(**base)


def _slices(obs, path):
    return obs.metrics.value("repro_masks_slices", path=path) or 0


class TestFepBound:
    @pytest.mark.parametrize(
        "fault, mode", [("crash", "crash"), ("byzantine", "byzantine")]
    )
    def test_run_max_error_within_network_fep(self, fault, mode):
        spec = _campaign(fault=FaultSpec(kind=fault))
        obs = RunObserver()
        result = run(spec, obs=obs)
        net = spec.network.resolve()
        bound = network_fep(net, (3, 2), capacity=net.output_bound, mode=mode)
        assert np.max(result.errors) <= bound
        assert _slices(obs, "rank_k") > 0 and _slices(obs, "dense") == 0


class TestSlicePaths:
    def test_crash_campaign_takes_rank_k(self):
        obs = RunObserver()
        run(_campaign(), obs=obs)
        assert _slices(obs, "rank_k") == 2  # two 1024-scenario blocks
        assert _slices(obs, "dense") == 0

    def test_reused_observer_counts_each_run_once(self):
        obs = RunObserver()
        run(_campaign(), obs=obs)
        run(_campaign(), obs=obs)
        assert obs.metrics.value("repro_blocks") == 4
        assert obs.metrics.value("repro_scenarios") == 4096
        assert _slices(obs, "rank_k") == 4
        assert _slices(obs, "dense") == 0

    @pytest.mark.parametrize(
        "sampler",
        [
            SamplerSpec(
                kind="fixed", distribution=(3, 2),
                fault=FaultSpec(kind="noise", sigma=0.1),
            ),
            SamplerSpec(
                kind="fixed", distribution=(3, 2),
                fault=FaultSpec(kind="intermittent", p=0.5),
            ),
            SamplerSpec(
                kind="fixed", distribution=(2, 1, 1),
                fault=FaultSpec(kind="synapse_byzantine"),
            ),
        ],
        ids=["noise", "intermittent", "synapse"],
    )
    def test_stochastic_and_synapse_campaigns_stay_dense(self, sampler):
        obs = RunObserver()
        run(_campaign(sampler=sampler), obs=obs)
        assert _slices(obs, "rank_k") == 0
        assert _slices(obs, "dense") == 2

    @pytest.mark.parametrize("backend", ["quantized-int8", "float16"])
    def test_quantized_tiers_stay_dense(self, backend):
        obs = RunObserver()
        run(_campaign(engine=EngineSpec(backend=backend)), obs=obs)
        assert _slices(obs, "rank_k") == 0
        assert _slices(obs, "dense") == 2

    def test_past_the_crossover_stays_dense(self):
        obs = RunObserver()
        many = 64 // RANK_K_CROSSOVER + 1
        run(
            _campaign(sampler=SamplerSpec(kind="fixed", distribution=(many, 0))),
            obs=obs,
        )
        assert _slices(obs, "rank_k") == 0


class TestDeterminism:
    def test_bitwise_identical_obs_on_off(self):
        spec = _campaign()
        assert np.array_equal(
            run(spec).errors, run(spec, obs=RunObserver()).errors
        )

    def test_serial_and_parallel_agree_bitwise(self):
        net = WIDE.resolve()
        injector = FaultInjector(net, capacity=net.output_bound)
        x = np.random.default_rng(2).random((8, net.input_dim))
        sampler = BernoulliSampler(net, 0.02)
        obs = RunObserver()
        serial = sampled_campaign_errors(
            injector, x, sampler, 2100, seed=4, obs=obs
        )
        profile = obs.profile
        assert profile.slices["rank_k"] > 0
        folded_obs = RunObserver()
        parallel = sampled_campaign_errors(
            injector, x, sampler, 2100, seed=4, n_workers=2, obs=folded_obs
        )
        folded = folded_obs.profile
        assert np.array_equal(serial, parallel)
        # Worker profiles fold the slice counts home too.
        assert folded.slices == profile.slices

    def test_threaded_matches_numpy_bitwise(self):
        net = WIDE.resolve()
        injector = FaultInjector(net, capacity=net.output_bound)
        x = np.random.default_rng(2).random((8, net.input_dim))
        batch = FixedDistributionSampler(net, (3, 2)).sample(
            700, np.random.default_rng(1)
        )
        # Matched slice layout, the threaded tier's bitwise contract.
        reference = MaskCampaignEngine(injector, x, chunk_size=96).evaluate(batch)
        with ThreadedMaskEngine(injector, x, workers=2, tile=96) as eng:
            assert np.array_equal(reference, eng.evaluate(batch))
