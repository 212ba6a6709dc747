#!/usr/bin/env python3
"""dtnzeta benchmark: time to a checked verdict on two seeded workloads.

Usage (from the root of a checkout that holds ``src/dtnzeta``)::

    python3 perfbench/run.py --workload {identity,verify} --seed N \
        --seconds S --trace {0,1}

Every batch runs in a fresh worker interpreter (``worker.py``), one at a time,
so caches start empty as they do for each CLI call.  With ``--trace 0`` the
run measures the set-up time ten times, then runs cold batches until the
run would exceed ``--seconds`` (at least one batch), and prints the end-to-end
metrics of ``BENCHMARK.json``.  With ``--trace 1`` it runs one traced batch and
prints the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 10  # set-up-only workers per untraced run, besides the batch workers;
# one set-up is about 0.6 s and swings by a third between fresh interpreters
DEADLINE_S = 170.0  # a run must end within 180 s


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker(mode: str, args, workdir: str, deadline: float, spans: str = "") -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _verdicts(jobs: list[dict]) -> tuple[bool, int]:
    """(correct, failed): every failed job counts; only failures outside the
    documented known defect make the run incorrect."""
    failed = [j for j in jobs if not j["ok"]]
    return all(j["known_defect"] for j in failed), len(failed)


def _end_to_end(args, workdir: str, deadline: float) -> tuple[list[dict], dict]:
    start = time.monotonic()  # the set-up probes count against --seconds too
    setups = [_worker("setup", args, workdir, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    batches = []
    longest = 0.0
    while not batches or time.monotonic() - start + longest <= args.seconds:
        t = time.monotonic()
        batches.append(_worker("batch", args, workdir, deadline))
        longest = max(longest, time.monotonic() - t)
    setups += [b["setup_s"] for b in batches]
    jobs = [j for b in batches for j in b["jobs"]]
    values = {
        "setup_s": statistics.median(setups),
        "batch_s": statistics.median(b["batch_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }
    print(f"{args.workload} seed {args.seed}: {len(batches)} batch(es), "
          f"{len(setups)} set-ups, {len(jobs)} jobs")
    return jobs, values


def _traced(args, workdir: str, deadline: float) -> tuple[list[dict], dict]:
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    batch = _worker("trace", args, workdir, deadline, spans)
    print(f"{args.workload} seed {args.seed}: traced batch of {len(batch['jobs'])} "
          f"jobs, spans in {os.path.relpath(spans, ROOT)}")
    return batch["jobs"], batch["layers"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dtnzeta", "cli.py")):
        return _fail(f"no dtnzeta sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure = _traced if args.trace else _end_to_end
        jobs, values = measure(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    correct, failed = _verdicts(jobs)
    for j in jobs:
        if not j["ok"]:
            note = f" (known defect: {j['known_defect']})" if j["known_defect"] else ""
            print(f"FAILED job {j['id']} {j['kind']} {j['cfg'] or ''}{note}: "
                  f"{j['detail'].strip().splitlines()[-1]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
