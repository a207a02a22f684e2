"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lenet-open --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it are a readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

# The program's compute runs on one vCPU at a time, like the host-speed kernel
# (see measure.HostSpeed): a BLAS call split over both vCPUs of the shared
# 2-vCPU reference box slows with whichever one a neighbour is using, and the
# serving workloads already keep both busy with their own threads.  Set before
# numpy loads; the tiny-http server process inherits it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import measure  # noqa: E402  (numpy must load after the thread settings)

WORKLOADS = ("lenet-open", "mlp-batch", "tiny-http")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    measure.import_program()
    if args.workload == "lenet-open":
        import lenet_open as workload
    elif args.workload == "mlp-batch":
        import mlp_batch as workload
    else:
        import tiny_http as workload
    tally, values, notes = workload.run(args.seed, args.seconds, bool(args.trace))
    measure.emit(args.workload, args.seed, bool(args.trace), tally, values, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
