"""One benchmark worker: a fresh interpreter that runs one cold batch.

Started by ``run.py`` once per batch, so sympy's global cache and the
package's ``lru_cache``s start empty, as for every CLI call.  Prints one JSON
object on its last line of standard output.

Modes: ``setup`` only imports ``dtnzeta.cli`` and generates the inputs;
``batch`` then runs every job; ``trace`` runs every job with each package
module's public functions wrapped in spans (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "batch", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--workdir", required=True, help="directory for generated inputs")
    ap.add_argument("--spans", default="", help="trace mode: write the spans here")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import dtnzeta.cli  # noqa: F401  (set-up includes the CLI import)
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    rec = None
    if args.mode == "trace":
        import tracing
        rec = tracing.Recorder()
        tracing.instrument(rec)

    records = []
    t_batch = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        try:
            if rec is None:
                ok, detail = workloads.run_job(job)
            else:
                rec.job = job["id"]
                ok, detail = rec.span(tracing.JOB, workloads.run_job, job)
        except Exception:  # a crashing job is a failed verdict, not a crashed run
            ok, detail = False, traceback.format_exc(limit=3)
        records.append({"id": job["id"], "kind": job["kind"],
                        "cfg": job.get("cfg"), "known_defect": job.get("known_defect"),
                        "ok": bool(ok), "detail": detail,
                        "seconds": time.perf_counter() - t})
    batch_s = time.perf_counter() - t_batch

    out.update(batch_s=batch_s, jobs=records,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if rec is not None:
        out["layers"] = tracing.rollup(rec, batch_s)
        if args.spans:
            tracing.dump(rec, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
