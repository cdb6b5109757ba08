"""Per-layer probes: traced calls into each module's public functions.

They run outside the timed window, on the workload's own specs and
results, and read their numbers back from the tracer's spans.
"""

from __future__ import annotations

import json

import numpy as np

from repro import spec_from_dict
from repro.artifacts import ArtifactStore
from repro.faults import FaultInjector, MaskCampaignEngine
from repro.obs import profile_from_metrics
from repro.profiling import PHASES
from repro.service.protocol import PROTOCOL_VERSION, encode, result_payload

#: Calls per probe: enough for a stable median, cheap at every width.
SPEC_CALLS = 256
NETWORK_CALLS = 5
PROTOCOL_CALLS = 15
ARTIFACT_RECORDS = 16


class PhaseTotals:
    """The engine's phase split summed over observed ``repro.run`` calls."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.blocks = 0
        self.scenarios = 0

    def add(self, obs) -> None:
        profile = profile_from_metrics(obs.metrics)
        for phase in PHASES:
            self.seconds[phase] += profile.seconds[phase]
        self.blocks += int(obs.metrics.value("repro_blocks") or 0)
        self.scenarios += profile.scenarios

    def metrics(self) -> dict:
        total = sum(self.seconds.values())
        out = {}
        for phase in PHASES:
            out[f"masks.{phase}_s"] = self.seconds[phase]
            out[f"masks.{phase}.share"] = self.seconds[phase] / total if total else 0.0
        out["masks.blocks"] = self.blocks
        out["masks.scenarios"] = self.scenarios
        return out


def probe(specs, outcome, tracer, workdir) -> dict:
    """Time specs, network, engine build, protocol and artifacts calls.

    ``specs`` are the workload's specs; ``outcome`` is the direct
    ``repro.run`` result of ``specs[0]``.
    """
    payloads = [s.to_dict() for s in specs]
    for i in range(SPEC_CALLS):
        with tracer.span("specs.parse"):
            parsed = spec_from_dict(payloads[i % len(payloads)])
        with tracer.span("specs.hash"):
            parsed.content_hash()

    for _ in range(NETWORK_CALLS):
        with tracer.span("network.resolve"):
            net = specs[0].network.resolve()
    injector = FaultInjector(net, capacity=net.output_bound)
    x = np.random.default_rng(specs[0].seed).random((specs[0].batch, net.input_dim))
    for _ in range(NETWORK_CALLS):
        with tracer.span("masks.engine_build"):
            MaskCampaignEngine(injector, x, chunk_size=1024, dtype=np.float64)

    for _ in range(PROTOCOL_CALLS):
        with tracer.span("protocol.lower"):
            payload = result_payload(specs[0], outcome)
        frame = {
            "type": "result", "protocol": PROTOCOL_VERSION,
            "cached": True, "coalesced": False, "result": payload,
        }
        with tracer.span("protocol.encode"):
            wire = encode(frame)
        with tracer.span("protocol.decode"):
            json.loads(wire)
    mb = len(wire) / 1e6

    store = ArtifactStore(workdir / "artifacts")
    for s in specs[:ARTIFACT_RECORDS]:
        key = s.content_hash()
        record = {
            "version": 1, "spec_hash": key, "kind": s.spec_tag,
            "spec": s.to_dict(), "result": payload,
        }
        with tracer.span("artifacts.save"):
            store.save_run_result(key, record)
        with tracer.span("artifacts.load"):
            store.load_run_result(key)

    return {
        "specs.parse_ms": tracer.p50_ms("specs.parse"),
        "specs.hash_ms": tracer.p50_ms("specs.hash"),
        "network.resolve_ms": tracer.p50_ms("network.resolve"),
        "masks.engine_build_ms": tracer.p50_ms("masks.engine_build"),
        "protocol.lower_ms_per_mb": tracer.p50_ms("protocol.lower") / mb,
        "protocol.encode_ms_per_mb": tracer.p50_ms("protocol.encode") / mb,
        "protocol.decode_ms_per_mb": tracer.p50_ms("protocol.decode") / mb,
        "protocol.result_bytes": len(wire),
        "artifacts.save_ms": tracer.p50_ms("artifacts.save"),
        "artifacts.load_ms": tracer.p50_ms("artifacts.load"),
    }
