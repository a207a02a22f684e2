"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage, from the root of a checkout::

    python3 perfbench/stability.py --workloads lenet-open,mlp-batch --seeds 1-10
    python3 perfbench/stability.py --workloads mlp-batch --seeds 1-5 --overhead

Runs ``run.py`` once per seed and workload, one run at a time, and prints for
each metric its median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside the
metric's bound from ``BENCHMARK.json``.  Every spread, ``setup_s``'s too, must
stay within its bound; exits 1 otherwise.  A spread above a third of its bound
is marked: a change that moves that metric by less than its bound may not
show.

``--overhead`` also makes a traced run per seed and prints, per metric, the
median of the traced run's ``trace.<metric>`` against the untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from measure import BENCHMARK_FILE, ROOT


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK_FILE.read_text())
    parser = argparse.ArgumentParser(description="end-to-end metric spread across seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--overhead", action="store_true",
                        help="also run traced and report the tracing overhead")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs, traced = [], []
        for seed in parse_seeds(args.seeds):
            result = run_once(spec, workload, seed, args.seconds, trace=False)
            runs.append(result)
            figures = " ".join(f"{name}={metric['value']:.4g}"
                               for name, metric in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  f"{figures}", flush=True)
            if args.overhead:
                traced.append(run_once(spec, workload, seed, args.seconds, trace=True))
        print(f"{workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            share = spread(values) if len(values) > 1 else 0.0
            ok = share <= bound
            steady = steady and ok
            verdict = "TOO WIDE" if not ok else "ok" if share <= bound / 3 else "ok, over a third"
            print(f"  {name:<20} median {statistics.median(values):>12.6g}  "
                  f"spread {share:7.2%}  bound {bound:.0%}  {verdict}", flush=True)
            key = f"trace.{name}"
            if traced and key in traced[0]["metrics"]:
                with_trace = statistics.median(run["metrics"][key]["value"] for run in traced)
                change = with_trace / statistics.median(values) - 1
                print(f"  {'':<20} traced {with_trace:>12.6g}  overhead {change:+7.2%}",
                      flush=True)
    return 0 if steady else 1


def run_once(spec, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of the benchmark command; its parsed last line."""
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(int(trace))]
    output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout
    return json.loads(output.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
