#!/usr/bin/env python3
"""Run the numeric verification battery and collect reports into one JSON file.

Usage: python3 scripts/run_verifications.py [outfile]
"""

import json
import sys

from dtnzeta.cli import RunConfig, run


def configs() -> list[RunConfig]:
    """The battery's jobs, in the order of the output file."""
    jobs = [RunConfig(command=command, m=2, q=q, a=a)
            for q in (0, 1) for a in (0.5, 1.0, 3.0)
            for command in ("verify-cylinder", "verify-zeta-zero")]
    jobs += [RunConfig(command="geom-constants", geometry="unit-disk", m=2, q=q)
             for q in (0, 1)]
    jobs += [RunConfig(command="geom-constants", geometry="unit-ball", m=3, q=q)
             for q in (0, 1, 2)]
    jobs.append(RunConfig(command="conformal-check", m=2))
    return jobs


def main() -> int:
    outfile = sys.argv[1] if len(sys.argv) > 1 else "verifications.json"
    reports = []
    failures = 0
    for cfg in configs():
        status, report = run(cfg)
        print(f"{cfg.command} m={cfg.m} q={cfg.q} a={cfg.a}: "
              f"{'PASS' if status == 0 else 'FAIL'}")
        failures += status
        reports.append(json.loads(report))
    with open(outfile, "w") as fh:
        json.dump(reports, fh, sort_keys=True, separators=(",", ":"))
    print(f"wrote {outfile}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
