#!/usr/bin/env python3
"""Run every symbolic derivation and collect the reports into one JSON file.

Usage: python3 scripts/run_derivations.py [outfile]
"""

import json
import sys

from dtnzeta.cli import RunConfig, run


def configs() -> list[RunConfig]:
    """The battery's jobs, in the order of the output file."""
    jobs = [RunConfig(command="specfun-selftest")]
    jobs += [RunConfig(command="derive-a0", m=2, q=q) for q in (0, 1)]
    jobs += [RunConfig(command="derive-a0", m=3, q=q) for q in (0, 1, 2)]
    jobs += [RunConfig(command="derive-terms", m=3, q=q) for q in (0, 1, 2)]
    return jobs


def main() -> int:
    outfile = sys.argv[1] if len(sys.argv) > 1 else "derivations.json"
    reports = []
    failures = 0
    for cfg in configs():
        status, report = run(cfg)
        print(f"{cfg.command} m={cfg.m} q={cfg.q}: "
              f"{'PASS' if status == 0 else 'FAIL'}")
        failures += status
        reports.append(json.loads(report))
    with open(outfile, "w") as fh:
        json.dump(reports, fh, sort_keys=True, separators=(",", ":"))
    print(f"wrote {outfile}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
