#!/usr/bin/env python3
"""Record a baseline: run the benchmark over several seeds and summarize.

Usage (from the root of the checkout)::

    python3 perfbench/baseline.py [--seeds 10]

For every workload of ``BENCHMARK.json`` it makes one untraced run per seed
1..N and writes, to ``perfbench/baseline.json``, the median, quartiles, spread
(interquartile distance over median) and sample count of every end-to-end
metric, together with the machine and library versions.

Traced runs: the first ``OVERHEAD_PAIRS`` seeds also get a traced run next to
their untraced one, alternating which runs first.  The tracing overhead is the
median of the paired differences (traced ``trace.batch_s`` minus untraced
``batch_s``), reported with the distance between their quartiles; when that
distance exceeds the median's size, the overhead is marked unresolved.  One
more traced run at seed 1 checks that the exact counts repeat; the per-layer
metrics are the median of the two traced runs at seed 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
EXACT_UNITS = ("count", "bytes")
OVERHEAD_PAIRS = 4


def _run(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None, "values": values}


def _machine() -> dict:
    import mpmath
    import numpy
    import sympy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "sympy": sympy.__version__,
            "mpmath": mpmath.__version__, "numpy": numpy.__version__}


def _overhead(pairs: list[tuple[dict, dict]]) -> dict:
    diffs = [t["metrics"]["trace.batch_s"]["value"] - u["metrics"]["batch_s"]["value"]
             for u, t in pairs]
    q1, _, q3 = statistics.quantiles(diffs, n=4)
    med = statistics.median(diffs)
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "n": len(diffs), "diffs_s": diffs,
            "resolved": q3 - q1 <= abs(med)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    if args.seeds < OVERHEAD_PAIRS:
        ap.error(f"--seeds must be at least {OVERHEAD_PAIRS}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report = {"machine": _machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, pairs = [], []
        for seed in range(1, args.seeds + 1):
            if seed > OVERHEAD_PAIRS:
                runs.append(_run(spec, workload, seed, 0))
                continue
            order = (0, 1) if seed % 2 else (1, 0)
            done = {trace: _run(spec, workload, seed, trace) for trace in order}
            runs.append(done[0])
            pairs.append((done[0], done[1]))
        traced = [pairs[0][1], _run(spec, workload, 1, 1)]
        e2e = {name: _summary([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        layers = {name: statistics.median(t["metrics"][name]["value"] for t in traced)
                  for name in units}
        repeats = all(traced[0]["metrics"][n]["value"] == traced[1]["metrics"][n]["value"]
                      for n, unit in units.items() if unit in EXACT_UNITS)
        overhead = _overhead(pairs)
        report["workloads"][workload] = {
            "seeds": [1, args.seeds],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs + traced),
            "end_to_end": e2e,
            "per_layer": layers,
            "trace_seed": 1,
            "exact_counts_repeat": repeats,
            "tracing_overhead": overhead,
        }
        for name, s in e2e.items():
            flag = "ok" if s["spread"] is not None and s["spread"] <= bounds[name] else "WIDE"
            print(f"{workload:9s} {name:12s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}) {flag}")
        print(f"{workload:9s} exact counts repeat: {repeats}; tracing overhead "
              f"{overhead['median_s']:.2f} s (quartiles {overhead['q1_s']:.2f} .. "
              f"{overhead['q3_s']:.2f} s over {overhead['n']} pairs"
              f"{'' if overhead['resolved'] else ', unresolved'})", flush=True)
    with open(OUT, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
