"""A fixed reference workload that gauges how fast the machine runs now.

A shared host runs this machine faster or slower by up to a half, in
spells that last from seconds to minutes.  Raw wall times then differ
more between two runs of the same code than any change worth measuring.
So the benchmark times this reference right before and after its
operations, in a process of its own, and reports each operation's time
scaled by ``NOMINAL_S`` over the mean of those two samples: the time
the operation would take on the machine in its faster spells.  The
reference never imports ``repro``, so no change to the program can
move it.

The reference is a single-threaded float64 GEMM.  Of the kinds of work
tried (a GEMM, small numpy draws and scatters, interpreter bytecode,
JSON encoding), it is the one whose slow-downs followed the workloads'
own; see perfbench/README.md.

    python3 perfbench/reference.py --samples 20   # print sample times

As a child process it reads one line per sample from standard input
and answers with the sample's seconds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

#: Reference seconds on the machine the figures are quoted at (a 2-vCPU
#: Intel Xeon VM in its faster spells), so that scaled times read close
#: to raw ones there.
NOMINAL_S = 0.028


class Reference:
    """The reference in a child process; ``sample`` times one pass."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--child"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference process failed to start")

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def sample(self, passes: int = 1) -> float:
        """Mean seconds of ``passes`` back-to-back passes.  Beside one
        operation, take a single short pass: a brief slow spell that
        stretches the operation also stretches that pass, and the
        scaling then cancels it."""
        total = 0.0
        for _ in range(passes):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            total += float(self.proc.stdout.readline())
        return total / passes

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference samples ``before`` and
    ``after``, in reference seconds."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)


def child() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads BLAS
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((2048, 784))
    b = rng.standard_normal((784, 256))
    a @ b  # warm the allocator and BLAS
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        for _ in range(2):
            a @ b
        print(repr(time.perf_counter() - start), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=10)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    with Reference() as ref:
        times = [ref.sample() for _ in range(args.samples)]
    print(" ".join(f"{t * 1e3:.1f}" for t in times), "ms")
    print(f"median {statistics.median(times) * 1e3:.1f} ms "
          f"(NOMINAL_S {NOMINAL_S * 1e3:g} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
