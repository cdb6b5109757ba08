#!/usr/bin/env python3
"""Benchmark both end-to-end paths of ``repro`` on named workloads.

    python3 perfbench/run.py --workload campaign-wide --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 2

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones from a traced run.  ``--workload all``
runs every workload both ways and prints one table.  The last line of
standard output is a JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  A failed
correctness check makes the command exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("campaign-wide", "campaign-taxonomy", "service-zipf")


def pin_blas_threads() -> int:
    """One BLAS thread here and in every child process (set before numpy
    loads, so the daemon and the reference inherit it); returns ``nproc``.

    The program and the reference run by turns, and idle OpenBLAS
    workers spin for a while after each call, so with more threads each
    would run against the other's spinning workers.  One thread also
    never waits for the slower of two shared vCPUs, and keeps the daemon
    and the load generator to one core each.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a repro checkout")


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check that
    ``repro`` comes from there, never from an installed copy."""
    require_program()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def blas_platform() -> dict:
    """The BLAS numpy was built against, and its live thread count."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def platform_info(nproc: int) -> dict:
    import numpy as np

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_platform(),
        "machine": platform.machine(),
    }


def warm_start(workload: str, seed: int) -> None:
    """A fresh interpreter: import repro, run the one-block warm-up spec."""
    import_program()
    import inputs
    from repro import run

    run(inputs.warmup_spec(workload, seed))
    print("ready", flush=True)


def declared_metrics() -> tuple:
    """(end-to-end, per-layer) metric units declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    return tuple(
        {m["name"]: m["unit"] for m in declared[key]}
        for key in ("end_to_end", "per_layer")
    )


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    nproc = pin_blas_threads()
    import_program()
    from reference import NOMINAL_S
    from tracer import Tracer
    from workloads import RUNNERS

    end_to_end, per_layer = declared_metrics()
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir = ROOT / ".perfbench_run" / tag
    tracer = Tracer(trace)
    try:
        out = RUNNERS[workload](seed, seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        tracer.dump(ROOT / ".perfbench_out" / f"trace-{tag}.json")

    print(f"platform: {json.dumps(platform_info(nproc))}")
    print(f"workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {int(trace)}")
    for problem in out.problems:
        print(f"FAILED: {problem}")
    units = per_layer if trace else end_to_end
    values = out.per_layer if trace else out.end_to_end
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    print(f"reference: median {statistics.median(out.reference) * 1e3:.2f} ms "
          f"over {len(out.reference)} samples (NOMINAL_S {NOMINAL_S * 1e3:g} ms)")
    print(f"  {'error_rate':<36} {out.failed / out.attempted:>14.6g} ratio")
    if trace:
        for name, value in out.end_to_end.items():
            print(f"  {name + ' (untraced half)':<36} {value:>14.6g} {end_to_end[name]}")
    else:
        print(f"  {'metric':<36} {'value':>14} {'unscaled':>14}")
    for name, value in values.items():
        raw = "" if trace else f" {out.raw[name]:>14.6g}"
        print(f"  {name:<36} {value:>14.6g}{raw} {units[name]}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if out.failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or proc.returncode
            try:
                summary[f"{workload}/trace{trace}"] = json.loads(lines[-1])
            except (IndexError, ValueError):  # crashed before its result line
                pass
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_program()
    if args.setup_child:
        warm_start(args.workload, args.seed)
        return 0
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
