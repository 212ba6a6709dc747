"""Seeded job lists for the two workloads and the verdict check of each job.

A job is a plain dict, so the parent process can make the same list as the
worker.  ``make_jobs`` draws everything from ``random.Random(f"{workload}:{seed}")``
and writes the geometry files into ``workdir``; the program only ever sees the
generated ``RunConfig`` values and files.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

FIBERS = ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
# labelled pieces of r3 the negative control may perturb: the ones whose control
# costs within about 10% of each other (II, IV, V3, V4, V6 and V7 cost up to
# twice as much, which would make the batch time depend on the seed)
CONTROL_PIECES = ("I", "III", "V1", "V2", "V5", "V8")

# closed-form (a0, zeta0) constants of the unit disk and unit ball; rescaling
# the metric leaves both unchanged
CLOSED_FORM = {
    (2, 0): (1.0, 0.0),
    (2, 1): (1 - 2 * math.log(2), -2.0),
    (3, 0): (3 / 8, 1 / 3),
}
GEOM_TOL = 1e-10

# (command, q, jobs) of the cylinder part of the verify workload.  43 of the
# 100 jobs take under 0.1 s (zeta-zero, conformal, selftest, geometry with
# cached densities), so the median job falls inside the q=0 verify-cylinder
# cluster and the 90th percentile inside the q=1 cluster, not on a boundary
# between job kinds.
VERIFY_MIX = (("verify-cylinder", 0, 40), ("verify-cylinder", 1, 12),
              ("verify-zeta-zero", 0, 12), ("verify-zeta-zero", 1, 11))
# fibers of the rescaled geometry jobs; each derives its densities once per
# process (the two unit-ball fibers left out would add about 8 s per batch)
GEOM_FIBERS = ((2, 0), (2, 1), (3, 0))

# specfun-selftest misses its stated precision above 30 digits (the Riemann
# zeta kernel has a fixed Euler-Maclaurin order); such jobs are run and counted
# as failed, without marking the run incorrect
KNOWN_DEFECT = "specfun-selftest above 30 digits: fixed-order zeta kernel"


def _cli(**cfg):
    job = {"kind": "cli", "cfg": cfg}
    if cfg["command"] == "specfun-selftest" and cfg.get("dps", 30) > 30:
        job["known_defect"] = KNOWN_DEFECT
    return job


def _identity(rng):
    jobs = [{"kind": kind, "m": m, "q": q}
            for m, q in FIBERS for kind in ("riccati", "projected_square")]
    jobs += [{"kind": "parametrix", "m": 2, "q": q} for q in (0, 1)]
    m, q = rng.choice(FIBERS[:2])
    c = Fraction(rng.randint(1, 9), rng.choice((7, 10, 100, 1000)))
    jobs.append({"kind": "control", "m": m, "q": q, "piece": rng.choice(CONTROL_PIECES),
                 "c": [c.numerator, c.denominator]})
    return jobs


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _verify(rng, workdir):
    from dtnzeta import geom as G

    jobs = []
    for command, q, count in VERIFY_MIX:
        for _ in range(count):
            jobs.append(_cli(command=command, m=2, q=q,
                             a=_log_uniform(rng, 0.25, 4.0),
                             L=rng.uniform(math.pi, 4 * math.pi),
                             dps=rng.choice((30, 50))))
    base = {2: G.unit_disk(), 3: G.unit_ball()}
    for k, (m, q) in enumerate(GEOM_FIBERS * 4):
        path = os.path.join(workdir, f"geometry-{k}.json")
        with open(path, "w") as fh:
            fh.write(G.rescale(base[m], _log_uniform(rng, 0.5, 2.0)).to_json())
        job = _cli(command="geom-constants", m=m, q=q, file=path)
        job["kind"] = "geom"
        jobs.append(job)
    # the one derivation no other job makes: the eleven-piece term table
    jobs.append(_cli(command="derive-terms", m=3, q=0))
    jobs += [_cli(command="conformal-check", m=2) for _ in range(6)]
    jobs += [_cli(command="specfun-selftest", dps=dps) for dps in (30, 30, 40, 40, 60, 60)]
    return jobs


def make_jobs(workload: str, seed: int, workdir: str) -> list[dict]:
    """The seeded job list of one batch, in its seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "identity":
        jobs = _identity(rng)
    elif workload == "verify":
        jobs = _verify(rng, workdir)
        rng.shuffle(jobs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for jid, job in enumerate(jobs):
        job["id"] = jid
    return jobs


# ---------------------------------------------------------------------------
# Execution and verdicts
# ---------------------------------------------------------------------------

def _all_zero(matrices) -> bool:
    return all(e == 0 for M in matrices for e in M)


def _perturbed_defect(ch, piece: str, c):
    """Order -2 parametrix defect with ``r3`` replaced by ``r3 - c * piece``."""
    from dtnzeta import symbolcas as SC
    a1t, a0t, am1t = ch.alphas_tilde()
    res = ch.resolvent()
    A = {1: ch.mu * ch.Id_proj - a1t, 0: -a0t, -1: -am1t}
    B = {-1: res["r1"], -2: res["r2"], -3: res["r3"] - c * res[piece]}
    C = SC.star_compose(A, B, ch, orders=(-2,))[-2]
    return C.applyfunc(lambda e: SC.canonical_zero_form(ch, e))


def run_job(job: dict) -> tuple[bool, str]:
    """Execute one job through the public API; return (verdict ok, detail)."""
    import sympy as sp

    from dtnzeta import symbolcas as SC
    from dtnzeta.cli import RunConfig, run

    kind = job["kind"]
    if kind in ("cli", "geom"):
        status, report = run(RunConfig(**job["cfg"]))
        payload = json.loads(report)
        ok = status == 0 and payload["status"] == "PASS"
        if ok and kind == "geom":
            values = {r["quantity"]: r["value"] for r in payload["rows"]}
            cfg = job["cfg"]
            want_a0, want_z0 = CLOSED_FORM[(cfg["m"], cfg["q"])]
            ok = (abs(values["gluing-constant"] - want_a0) < GEOM_TOL
                  and abs(values["zeta-zero-constant"] - want_z0) < GEOM_TOL)
        return ok, payload["status"]
    ch = SC.chart(job["m"], job["q"])
    if kind == "riccati":
        return _all_zero(SC.riccati_residual(ch).values()), "riccati residual"
    if kind == "projected_square":
        return _all_zero([SC.projected_square_correction_defect(ch)]), "projected square"
    if kind == "parametrix":
        return _all_zero(SC.parametrix_defect(ch).values()), "parametrix defect"
    if kind == "control":
        c = sp.Rational(*job["c"])
        return not _all_zero([_perturbed_defect(ch, job["piece"], c)]), "negative control"
    raise ValueError(f"unknown job kind {kind!r}")
