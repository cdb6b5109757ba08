#!/usr/bin/env python3
"""Closed-loop capacity of the daemon on the service-zipf request mix.

    python3 perfbench/capacity.py --seed 1

Starts the daemon with the benchmark's settings, warms it with the pool
as ``run.py`` does, then sends the same requests as a service-zipf run
with no schedule: each connection submits its next request as soon as
the last one returns.  Prints the results per second it sustained.
It shows how far below saturation the open loop's ``RATE_PER_S`` sits.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from run import ROOT, pin_blas_threads, import_program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="length of the open-loop window whose requests are sent")
    args = parser.parse_args(argv)
    pin_blas_threads()
    import_program()
    import inputs
    from service import Daemon, drive
    from tracer import Tracer
    from workloads import CONNECTIONS

    warmup, dues, picks = inputs.service_schedule(args.seed, args.seconds)
    pool = [inputs.spec("service-zipf", args.seed, k) for k in range(max(picks) + 1)]
    workdir = ROOT / ".perfbench_run" / f"capacity-seed{args.seed}"
    try:
        with Daemon(workdir, inputs.CACHE_ENTRIES) as daemon:
            drive(daemon.socket, pool, [0.0] * len(warmup), warmup, Tracer(False),
                  connections=CONNECTIONS)
            start, records = drive(daemon.socket, pool, [0.0] * len(picks), picks,
                                   Tracer(False), connections=CONNECTIONS)
            daemon.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = sum(r.ok for r in records)
    window = max(r.done for r in records) - start
    print(f"seed {args.seed}: {ok}/{len(records)} results over {window:.2f} s, "
          f"{ok / window:.1f} req/s closed loop on {CONNECTIONS} connections "
          f"(open loop offers {inputs.RATE_PER_S:g} req/s)")
    return 0 if ok == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
