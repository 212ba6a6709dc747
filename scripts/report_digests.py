#!/usr/bin/env python3
"""Print the SHA-256 digest of each report in a fixed list, then one combined
digest of them all.

Usage: python3 scripts/report_digests.py

The list is ``derive-a0`` for the five fibers, ``derive-terms`` for q 0-2,
``specfun-selftest`` at dps 30, 50 and 200, ``geom-constants`` on each
built-in geometry and q, ``conformal-check``, and ``verify-cylinder`` and
``verify-zeta-zero`` on a small grid of q, a and L.  The script runs itself
under ``PYTHONHASHSEED=0``.  Two trees print the same lines exactly when every
report is byte-identical, so comparing the output of this script on each tree
checks a change that must not move a report.  Exits 1 if some report FAILs.
"""

import hashlib
import math
import os
import sys
from dataclasses import fields

from dtnzeta.cli import RunConfig, run


def configs() -> list[RunConfig]:
    jobs = [RunConfig(command="derive-a0", m=m, q=q)
            for m in (2, 3) for q in range(m)]
    jobs += [RunConfig(command="derive-terms", q=q) for q in (0, 1, 2)]
    jobs += [RunConfig(command="specfun-selftest", dps=dps) for dps in (30, 50, 200)]
    jobs += [RunConfig(command="geom-constants", geometry=name, q=q)
             for name, degrees in (("unit-disk", (0, 1)), ("unit-ball", (0, 1, 2)),
                                   ("cylinder", (0, 1)))
             for q in degrees]
    jobs.append(RunConfig(command="conformal-check"))
    jobs += [RunConfig(command=command, q=q, a=a, L=L)
             for command in ("verify-cylinder", "verify-zeta-zero")
             for q in (0, 1) for a in (0.5, 3.0) for L in (2 * math.pi, 10.0)]
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
