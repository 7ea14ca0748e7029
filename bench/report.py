#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric by name.

    python3 bench/report.py [--seed 1] [--seconds 20] [--out BENCH.json]

For each workload this prints the end-to-end metrics under the names the
benchmark was specified with (``query_p50_us``, ``cli_cold_p50_ms``,
``failed_ratio``, ...), then the ``BENCHMARK.json`` end-to-end metrics and
the per-layer metrics of a traced run. ``--out`` writes all of it, with
the environment, as one JSON file. Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="write the combined result here")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    combined = {}
    failed = False
    for w in spec["workloads"]:
        name = w["name"]
        combined[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if proc.returncode:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                failed = True
                continue
            with open(os.path.join(".bench_out", f"{name}-seed{args.seed}-trace{trace}.json")) as fh:
                combined[name][f"trace{trace}"] = json.load(fh)
            print("\n".join(proc.stdout.splitlines()[:-1]))  # all but the JSON line
            print()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(combined, fh, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
