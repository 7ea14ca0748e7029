#!/usr/bin/env python3
"""sploop benchmark: run one workload once and print its metrics.

    python3 bench/run.py --workload cli-1e7 --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports sploop from ``src/``. The
workloads, metrics and bounds are listed in ``BENCHMARK.json`` and
explained in ``bench/README.md``. With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The full
result, with the environment, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".bench_out"
BUDGET_S = 170  # every run must end within 180 seconds


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_child(argv: list[str], deadline: float) -> None:
    """Run argv in its own process group; kill the whole group at the deadline."""
    proc = subprocess.Popen(argv, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"bench: {argv[2:5]} ran past the {BUDGET_S} s budget")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftovers of a crashed child
        except ProcessLookupError:
            pass
    if code != 0:
        raise SystemExit(f"bench: worker exited with {code}")


def main() -> None:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--limit", type=int, help=argparse.SUPPRESS)  # self-test only
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "sploop", "__init__.py")):
        sys.exit("bench: src/sploop not found; run from the repository root")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import workloads as wl

    limit = args.limit or wl.LIMITS[args.workload]
    if limit not in wl.SP_COUNT:
        sys.exit(f"bench: no known answers at limit {limit}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(rundir)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
              args.workload, "--limit", str(limit), "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--dir", rundir]
    deadline = started + BUDGET_S
    try:
        if args.workload == "session-1e8":
            run_child(worker + ["--prepare"], deadline)
        run_child(worker, deadline)
        with open(os.path.join(rundir, "result.json")) as fh:
            result = json.load(fh)
    finally:
        for name in os.listdir(rundir):
            if name.endswith(".cache") or ".cache." in name:
                os.remove(os.path.join(rundir, name))

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: u for k, (_, u) in result["metrics"].items()}
    if got != declared:
        sys.exit(f"bench: metrics {sorted(set(got) ^ set(declared))} do not match "
                 f"BENCHMARK.json {kind}")
    result["environment"] = {
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": result.pop("numpy"),
        "limit": limit, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        os.replace(os.path.join(rundir, "spans.json"), os.path.join(OUT, f"{tag}-spans.json"))
    shutil.rmtree(rundir)

    env = result["environment"]
    print(f"workload {args.workload}  limit {limit}  seed {args.seed}  "
          f"trace {args.trace}  nproc {env['nproc']}  {env['cpu']}  "
          f"python {env['python']}  numpy {env['numpy']}  commit {env['commit']}")
    print(f"cache SHA-256 {result['cache_sha256']}")
    if args.trace:
        print("per-layer metrics (times are medians of untraced calls):")
    else:
        print("per-workload names:")
        for name, row in result["named"].items():
            print(f"  {name:24s} {row[0]:>14.6g} {row[1]:6s} {' '.join(row[2:])}")
        print("end-to-end metrics (BENCHMARK.json):")
        for name, (value, unit) in result["metrics"].items():
            print(f"  {name:24s} {value:>14.6g} {unit}")
    for line in result["lines"]:
        print(line)
    for err in result["errors"]:
        print(f"FAILED: {err}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
