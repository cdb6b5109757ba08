"""The three workloads: two on ``spec -> repro.run -> result``, one on
``client -> daemon -> result bytes``.

Each returns an :class:`Outcome`: operations attempted and failed, the
end-to-end metrics (from untraced operations) and, when traced, the
per-layer metrics.  Correctness checks run outside the timed window
unless they are per-operation and cheap.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import network_fep, run
from repro.obs import RunObserver

import inputs
import layers
from reference import Reference, scaled
from tracer import Tracer
from service import Daemon, daemon_layers, drive, errors_digest, request_layers

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: service-zipf's window is cut into segments this long, with reference
#: samples between them (none can run beside the open loop without
#: taking a core from it).
SEGMENT_S = 4.0
#: Reference passes in each pause: a pause sits beside a whole segment,
#: not one operation, so it averages several.
PAUSE_PASSES = 3
#: The entry point, re-run as a fresh interpreter to time set-up.
RUN_PY = Path(__file__).resolve().with_name("run.py")
#: Client connections the generator opens: two, and at most ``nproc``.
CONNECTIONS = min(2, len(os.sched_getaffinity(0)))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    #: The end-to-end metrics before scaling to reference seconds.
    raw: dict = field(default_factory=dict)
    #: Every reference sample of the run, in seconds.
    reference: list = field(default_factory=list)

    def fail(self, problem: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(problem)


def setup_child(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first result."""
    cmd = [sys.executable, str(RUN_PY),
           "--setup-child", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {child.returncode})")
    return elapsed


def _latency_metrics(latencies_ms, slo_ms) -> dict:
    """Percentiles over answered operations; ``slo_share`` counts an
    unanswered one (latency ``inf``) as a miss."""
    answered = [ms for ms in latencies_ms if math.isfinite(ms)]
    return {
        "latency_p50_ms": float(np.percentile(answered, 50)),
        "latency_p99_ms": float(np.percentile(answered, 99)),
        "slo_share": sum(ms <= slo_ms for ms in latencies_ms) / len(latencies_ms),
    }


def _overhead(traced, untraced) -> float:
    """Traced against untraced median time, minus one."""
    untraced = [t for t in untraced if math.isfinite(t)]
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def run_campaign(workload, seed, seconds, tracer, workdir) -> Outcome:
    """Serial ``repro.run`` over the workload's spec sequence, with a
    reference sample before the first and after every set-up and call.

    When tracing, every second call carries a :class:`RunObserver` and a
    span; the others stay untraced so the two can be compared.
    """
    out = Outcome()
    refs = out.reference
    with Reference() as ref:
        refs.append(ref.sample())
        setup = []  # (seconds, reference seconds) per set-up
        for _ in range(SETUP_REPEATS):
            dt = setup_child(workload, seed)
            refs.append(ref.sample())
            setup.append((dt, scaled(dt, refs[-2], refs[-1])))
        run(inputs.warmup_spec(workload, seed))
        bound = None
        if workload == "campaign-wide":
            net = inputs.network_ref(workload, seed).resolve()
            bound = network_fep(
                net, inputs.WIDE_DISTRIBUTION, capacity=net.output_bound, mode="crash"
            )
        n = inputs.SCENARIOS[workload]
        calls = []  # (seconds, reference seconds, answered correctly, traced)
        digests = []
        phases = layers.PhaseTotals()
        first = None
        refs.append(ref.sample())
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            i = len(calls)
            traced = tracer.enabled and i % 2 == 1
            obs = RunObserver() if traced else None
            result, problem = None, None
            t0 = time.perf_counter()
            try:
                with tracer.span("repro.run", req=i) if traced else nullcontext():
                    result = run(inputs.spec(workload, seed, i), obs=obs)
            except Exception as exc:  # a raising run is a failed operation
                problem = f"repro.run raised {exc!r}"
            dt = time.perf_counter() - t0
            refs.append(ref.sample())
            if result is not None:
                errors = np.asarray(result.errors)
                if errors.shape != (n,) or not np.all(np.isfinite(errors)):
                    problem = f"{errors.shape} errors, expected ({n},) finite"
                elif bound is not None and errors.max() > bound:
                    problem = f"max error {errors.max():.6g} > Fep {bound:.6g}"
                digests.append(errors_digest(errors))
                if obs is not None:
                    phases.add(obs)
                if first is None:
                    first = result
            else:
                digests.append(None)
            if problem:
                out.fail(f"spec {i}: {problem}")
            calls.append((dt, scaled(dt, refs[-2], refs[-1]), problem is None, traced))
    out.attempted = len(calls)

    # Determinism, outside the window: spec 0 again gives the same bytes.
    out.attempted += 1
    again = run(inputs.spec(workload, seed, 0))
    if errors_digest(again.errors) != digests[0]:
        out.fail("spec 0: a repeated run gave different errors")

    untraced = [c for c in calls if not c[3]]
    traced_s = [dt for dt, _, ok, traced in calls if traced and ok]

    def end_to_end(k):  # k = 0: raw seconds, k = 1: reference seconds
        answered = [c[k] for c in untraced if c[2]]
        return {
            "setup_s": statistics.median(t[k] for t in setup),
            "scenarios_per_s": n / statistics.median(answered),
            "throughput_rps": len(answered) / sum(c[k] for c in untraced),
            **_latency_metrics(
                [c[k] * 1e3 if c[2] else math.inf for c in untraced],
                inputs.SLO_MS[workload],
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    out.raw, out.end_to_end = end_to_end(0), end_to_end(1)
    if tracer.enabled:
        specs = [inputs.spec(workload, seed, k) for k in range(min(len(calls), 64))]
        out.per_layer = {
            **layers.probe(specs, first, tracer, workdir),
            **phases.metrics(),
            **_served_sample(out, specs[:2], digests[:2], tracer, workdir),
            "obs.overhead_share": _overhead(
                traced_s, [dt for dt, _, ok, _ in untraced if ok]
            ),
        }
    return out


def _served_sample(out, specs, digests, tracer, workdir) -> dict:
    """Serve two of a campaign workload's specs twice each (both misses,
    then both hits) and check the served bytes against the direct runs."""
    with Daemon(workdir / "daemon", inputs.CACHE_ENTRIES) as daemon:
        records = []
        for _ in ("miss", "hit"):
            _, served = drive(
                daemon.socket, specs, [0.0, 0.0], [0, 1], tracer,
                connections=CONNECTIONS, first=len(records),
            )
            records += served
        samples = daemon.metrics()
        daemon.stop()
    out.attempted += len(records)
    for r in records:
        if not r.ok or r.digest != digests[r.spec]:
            out.fail(f"served spec {r.spec}: {r.kind}, bytes differ from repro.run")
    return {**request_layers(records, tracer), **daemon_layers(samples, {})}


def _segments(dues, picks) -> list:
    """The window's schedule cut into SEGMENT_S pieces, each as
    (due offsets from the piece's start, spec indices)."""
    pieces = {}
    for due, pick in zip(dues, picks):
        j = int(due // SEGMENT_S)
        piece = pieces.setdefault(j, ([], []))
        piece[0].append(due - j * SEGMENT_S)
        piece[1].append(pick)
    return [pieces[j] for j in sorted(pieces)]


def run_service(seed, seconds, tracer, workdir) -> Outcome:
    """Open-loop Zipf traffic against a daemon in its own process.

    The window runs in segments; each segment's requests are scaled by
    the reference samples taken in the pauses before and after it.
    """
    out = Outcome()
    refs = out.reference
    warmup, dues, picks = inputs.service_schedule(seed, seconds)
    pool = [inputs.spec("service-zipf", seed, k) for k in range(max(inputs.POOL_SIZE, max(picks) + 1))]
    with Reference() as ref:
        refs.append(ref.sample())
        setup = []  # (seconds, reference seconds) per daemon spawn
        for k in range(SETUP_REPEATS - 1):
            with Daemon(workdir / f"daemon{k}", inputs.CACHE_ENTRIES) as daemon:
                daemon.stop()
            refs.append(ref.sample())
            setup.append((daemon.ready_s, scaled(daemon.ready_s, refs[-2], refs[-1])))
        with Daemon(workdir / "daemon", inputs.CACHE_ENTRIES) as daemon:
            refs.append(ref.sample())
            setup.append((daemon.ready_s, scaled(daemon.ready_s, refs[-2], refs[-1])))
            _, warm = drive(
                daemon.socket, pool, [0.0] * len(warmup), warmup, Tracer(False),
                connections=CONNECTIONS,
            )
            refs.append(ref.sample(PAUSE_PASSES))
            before = daemon.metrics()
            records, scales, window = [], [], 0.0
            for seg_dues, seg_picks in _segments(dues, picks):
                seg_start, seg = drive(
                    daemon.socket, pool, seg_dues, seg_picks, tracer,
                    connections=CONNECTIONS, trace_block=inputs.MISS_EVERY,
                    first=len(records),
                )
                refs.append(ref.sample(PAUSE_PASSES))
                window += max(r.done for r in seg) - seg_start
                records += seg
                scales += [scaled(1.0, refs[-2], refs[-1])] * len(seg)
            samples = daemon.metrics()
            peak_rss_mb = daemon.stop()
    out.attempted = len(warm) + len(records)

    # Wrong bytes: every serve of a spec must match, and a seeded sample
    # must match a direct repro.run, bit for bit.
    n = inputs.SCENARIOS["service-zipf"]
    served = {}
    for r in warm + records:
        if not r.ok:
            out.fail(f"request {r.index}: {r.kind}")
        elif r.n_errors != n:
            out.fail(f"request {r.index}: {r.n_errors} errors, expected {n}")
        elif served.setdefault(r.spec, r.digest) != r.digest:
            out.fail(f"request {r.index}: spec {r.spec} served different bytes")
    phases = layers.PhaseTotals()
    first = None
    for k in inputs.check_sample(seed, list(served)):
        obs = RunObserver() if tracer.enabled else None
        result = run(pool[k], obs=obs)
        if obs is not None:
            phases.add(obs)
        first = first or (pool[k], result)
        if errors_digest(result.errors) != served[k]:
            bad = sum(1 for r in warm + records if r.spec == k)
            out.fail(f"spec {k}: served bytes differ from repro.run", bad)

    ok = [r for r in records if r.ok]
    untraced = [
        (r.latency_ms if r.ok else math.inf, f)
        for r, f in zip(records, scales) if not r.traced
    ]

    def end_to_end(k):  # k = 0: raw, k = 1: reference seconds
        # The open loop fixes the rates in real time, so they stay unscaled.
        return {
            "setup_s": statistics.median(t[k] for t in setup),
            "scenarios_per_s": len(ok) * n / window,
            "throughput_rps": len(ok) / window,
            **_latency_metrics(
                [ms * f if k else ms for ms, f in untraced],
                inputs.SLO_MS["service-zipf"],
            ),
            "peak_rss_mb": peak_rss_mb,
        }

    out.raw, out.end_to_end = end_to_end(0), end_to_end(1)
    if tracer.enabled:
        traced = [r.latency_ms for r in ok if r.traced]
        spec0, result0 = first
        out.per_layer = {
            **layers.probe([spec0] + pool, result0, tracer, workdir),
            **phases.metrics(),
            **request_layers(records, tracer),
            **daemon_layers(samples, before),
            "obs.overhead_share": _overhead(traced, [ms for ms, _ in untraced]),
        }
    return out


RUNNERS = {
    "campaign-wide": lambda *a: run_campaign("campaign-wide", *a),
    "campaign-taxonomy": lambda *a: run_campaign("campaign-taxonomy", *a),
    "service-zipf": run_service,
}
