"""The client -> daemon -> result-bytes path.

The daemon is its own process (``python -m repro serve`` on a unix
socket, with a fresh ``--results-dir``).  The benchmark process is the
single load generator: an open loop over at most two connections, each
request sent at its due time (or as soon as a connection frees up) and
timed from that due time to its terminal message.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import repro
from repro.service import ServiceClient, ServiceError, ServiceUnavailable

#: The daemon runs the same ``repro`` the benchmark imported.
SRC = str(Path(repro.__file__).resolve().parents[1])
#: Seconds a daemon may take to answer its first ping.
READY_TIMEOUT_S = 60.0
#: Daemon engine threads (``--max-inflight``).  One: on two cores, two
#: engine threads in one interpreter contend for the GIL with each other
#: and with the event loop, and made p99 swing by a quarter between
#: seeds; one engine thread leaves a core to the loop and the generator.
MAX_INFLIGHT = 1


def errors_digest(errors) -> str:
    """Digest of an error vector's float64 bytes (bitwise identity)."""
    return hashlib.sha256(np.asarray(errors, dtype=np.float64).tobytes()).hexdigest()


class Daemon:
    """One ``repro serve`` process; ``ready_s`` is spawn to first pong."""

    def __init__(self, workdir: Path, cache_entries: int):
        workdir.mkdir(parents=True)
        # Relative to the shared working directory: unix socket paths
        # are limited to ~100 bytes and the checkout path may be long.
        self.socket = os.path.relpath(workdir / "d.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket,
            "--results-dir", os.path.relpath(workdir / "store"),
            "--cache-entries", str(cache_entries),
            "--max-inflight", str(MAX_INFLIGHT),
        ]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        try:
            self._wait_ready(start + READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - start

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()

    def _wait_ready(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode} before serving"
                )
            try:
                with ServiceClient(self.socket, connect_timeout=1.0) as client:
                    client.ping()
                return
            except ServiceUnavailable:
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not answer a ping in time")
                time.sleep(0.002)

    def metrics(self) -> dict:
        """The ``metrics`` op's OpenMetrics samples, keyed by series."""
        with ServiceClient(self.socket) as client:
            text = client.metrics_text()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                series, value = line.rsplit(" ", 1)
                samples[series] = float(value)
        return samples

    def stop(self) -> float:
        """Drain and stop the daemon; returns its peak RSS in MB."""
        ServiceClient(self.socket).shutdown(drain=True)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited with code {self.proc.returncode}")
        return usage.ru_maxrss / 1024.0  # Linux reports KiB

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Request:
    index: int           # position in the schedule
    spec: int            # index into the served specs
    due: float
    send: float
    done: float
    kind: str            # terminal type, or "unavailable"
    traced: bool = False
    cached: bool = False
    digest: Optional[str] = None
    n_errors: int = 0

    @property
    def ok(self) -> bool:
        return self.kind == "result"

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def drive(socket, specs, dues, picks, tracer, *, connections, trace_block=0, first=0):
    """Send ``specs[picks[k]]`` at offset ``dues[k]`` over ``connections``
    client connections; returns the schedule's start time and one
    :class:`Request` per entry, numbered from ``first``.  With
    ``trace_block`` > 0 only every second block of that many requests
    (by number) is traced, so traced and untraced latencies can be
    compared over the same request mix.
    """
    n = len(dues)
    records: list = [None] * n
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker():
        client = ServiceClient(socket)
        try:
            while True:
                with lock:
                    k = cursor[0]
                    if k >= n:
                        return
                    cursor[0] = k + 1
                due = start + dues[k]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                traced = tracer.enabled and (
                    trace_block == 0 or ((first + k) // trace_block) % 2 == 1
                )
                accepted = []

                def on_event(message):
                    if message.get("type") == "accepted":
                        accepted.append(time.perf_counter())

                send = time.perf_counter()
                try:
                    terminal = client.submit(
                        specs[picks[k]], on_event=on_event if traced else None
                    )
                except (ServiceError, ValueError):
                    terminal = {"type": "unavailable"}
                done = time.perf_counter()
                req = first + k
                rec = Request(req, picks[k], due, send, done, terminal["type"], traced)
                if rec.ok:
                    rec.cached = bool(terminal.get("cached"))
                    errors = terminal["result"].get("errors", ())
                    rec.n_errors = len(errors)
                    rec.digest = errors_digest(errors)
                records[k] = rec
                if traced:
                    root = tracer.add("request", due, done, req=req)
                    tracer.add("generator.wait", due, send, req=req, parent=root)
                    if accepted:
                        tracer.add("service.accept", send, accepted[0], req=req, parent=root)
                        tracer.add("service.deliver", accepted[0], done, req=req, parent=root)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if None in records:
        raise RuntimeError("a generator thread died; see its traceback above")
    return start, records


def daemon_layers(samples: dict, before: dict) -> dict:
    """The daemon's own counters, per submit, between two ``metrics``
    snapshots."""
    samples = {k: v - before.get(k, 0.0) for k, v in samples.items()}
    submits = samples.get("repro_service_submits_total", 0.0)

    def per_submit(series):
        return samples.get(series, 0.0) / submits if submits else 0.0

    count = samples.get("repro_service_job_seconds_count", 0.0)
    return {
        "daemon.cache_hit_ratio.memory": per_submit(
            'repro_service_cache_hits_total{tier="memory"}'),
        "daemon.cache_hit_ratio.store": per_submit(
            'repro_service_cache_hits_total{tier="store"}'),
        "daemon.coalesce_ratio": per_submit("repro_service_coalesce_hits_total"),
        "daemon.engine_runs_per_submit": per_submit("repro_service_engine_runs_total"),
        "daemon.shed": samples.get("repro_service_shed_total", 0.0),
        "daemon.job_s_mean": (
            samples.get("repro_service_job_seconds_sum", 0.0) / count if count else 0.0
        ),
    }


def request_layers(records, tracer) -> dict:
    """Per-request splits measured by the generator."""
    done = [r for r in records if r.ok]
    hits = [r.latency_ms for r in done if r.cached]
    misses = [r.latency_ms for r in done if not r.cached]
    lateness = [(r.send - r.due) * 1e3 for r in records]
    return {
        "service.accept_ms": tracer.p50_ms("service.accept"),
        "service.deliver_ms": tracer.p50_ms("service.deliver"),
        "service.hit_latency_p50_ms": float(np.median(hits)) if hits else 0.0,
        "service.miss_latency_p50_ms": float(np.median(misses)) if misses else 0.0,
        "service.generator_lateness_p99_ms": float(np.percentile(lateness, 99)),
    }
