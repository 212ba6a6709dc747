#!/usr/bin/env python3
"""Print the SHA-256 digest of each report in a fixed list, then one combined
digest of them all.

Usage: python3 scripts/report_digests.py

The list is the jobs of both batteries, ``configs()`` of
``run_derivations.py`` and of ``run_verifications.py``, then
``specfun-selftest`` at dps 50 and 200, ``geom-constants --geometry
cylinder`` for q 0-1, and ``verify-cylinder`` and ``verify-zeta-zero`` for
q 0-1 and a 0.5 and 3 at L = 10, and ``verify-cylinder --a 1e30 --L 1`` for
q 0-1, where a zeta difference summed over the whole lattice loses the
cross-section zeta to rounding.  The script runs itself
under ``PYTHONHASHSEED=0``.  Two trees print the same lines exactly when every
report is byte-identical, so comparing the output of this script on each tree
checks a change that must not move a report.  Exits 1 if some report FAILs.
"""

import hashlib
import os
import sys
from dataclasses import fields

import run_derivations
import run_verifications
from dtnzeta.cli import RunConfig, run


def configs() -> list[RunConfig]:
    jobs = run_derivations.configs() + run_verifications.configs()
    jobs += [RunConfig(command="specfun-selftest", dps=dps) for dps in (50, 200)]
    jobs += [RunConfig(command="geom-constants", geometry="cylinder", q=q) for q in (0, 1)]
    jobs += [RunConfig(command=command, q=q, a=a, L=10.0)
             for command in ("verify-cylinder", "verify-zeta-zero")
             for q in (0, 1) for a in (0.5, 3.0)]
    jobs += [RunConfig(command="verify-cylinder", q=q, a=1e30, L=1.0) for q in (0, 1)]
    return jobs


def _label(cfg: RunConfig) -> str:
    """The command and every option that differs from its default."""
    return " ".join([cfg.command] + [f"--{f.name} {getattr(cfg, f.name)}"
                                     for f in fields(cfg)[1:]
                                     if getattr(cfg, f.name) != f.default])


def main() -> int:
    combined = hashlib.sha256()
    failed = 0
    for cfg in configs():
        status, report = run(cfg)
        digest = hashlib.sha256(report.encode()).hexdigest()
        combined.update(digest.encode())
        failed += status != 0
        print(f"{digest}  {_label(cfg)}{'  FAIL' if status else ''}")
    print(f"{combined.hexdigest()}  combined")
    return 1 if failed else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
