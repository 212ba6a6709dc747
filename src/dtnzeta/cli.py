"""Command-line front end.

Each subcommand runs a derivation or verification pipeline and emits a JSON
report.  A report is a canonical-serialization object with one row per
computed quantity::

    {"quantity": ..., "value": ..., "expression": ..., "citation": ...,
     "status": "PASS" | "FAIL" | "INFO", "error_bound": ...}

The process exit status is nonzero exactly when some row FAILs.  Citations are
stable descriptive identifiers of the derived quantity (e.g.
``a0-density.dim3.q1``), usable as cross-references from external reports.

One table, ``_COMMANDS``, says for each command its pipeline, the dimensions
it models (``--m`` defaults to the last) and the options it reads; every
command reads ``--output``.  Without ``--m``, ``geom-constants`` takes the
dimension of its geometry: the built-in's, or the ``m`` of the ``--file``.  An
option counts as given when it differs from its default, and a given option
the command does not read is rejected with exit 2 (``invalid-config``), so an
explicit default value passes.
``geom-constants`` reads ``--a`` and ``--L`` only with ``--geometry cylinder``,
and no ``--geometry`` with ``--file``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import mpmath as mp
import sympy as sp

__all__ = ["RunConfig", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation; ``m`` defaults to the last
    dimension the command models.  With a ``geometry`` or a ``file`` and no
    ``m``, ``m`` stays None until the geometry is loaded."""

    command: str
    m: int | None = None
    q: int = 0
    a: float = 1.0
    L: float = 2 * math.pi
    geometry: str = ""
    file: str = ""
    output: str = ""
    dps: int = 30

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        _, dims, reads = _COMMANDS[self.command]
        if self.command == "geom-constants" and self.file:
            reads = reads - {"geometry"}  # a file replaces the built-in geometry
        elif self.command == "geom-constants" and self.geometry == "cylinder":
            reads = reads | {"a", "L"}
        unread = [f"--{f.name}" for f in fields(self)[1:] if f.name not in reads | {"output"}
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.command} does not read {', '.join(unread)}")
        if self.dps < 15:
            raise ValueError("precision must be at least 15 digits")
        if self.command == "specfun-selftest" and self.dps > _MAX_DPS:
            raise ValueError(f"specfun-selftest precision must be at most {_MAX_DPS} digits")
        if self.m is None and not (self.file or self.geometry):
            object.__setattr__(self, "m", dims[-1])
        if self.m is not None and self.m not in dims:
            raise ValueError(f"{self.command} models a {'- or '.join(map(str, dims))}"
                             f"-dimensional geometry, but dimension m = {self.m} was requested")
        if self.m is not None and not 0 <= self.q <= self.m - 1:
            raise ValueError(f"degree {self.q} out of range for dimension {self.m}")
        if not (math.isfinite(self.a) and math.isfinite(self.L)):
            raise ValueError("cylinder parameters must be finite")
        if self.a <= 0 or self.L <= 0:
            raise ValueError("cylinder parameters must be positive")


# mpmath's zeta'(0) alone takes seconds at 1000 digits and about seven times
# as long at 2000, so specfun-selftest stops there
_MAX_DPS = 1000


def _row(quantity: str, citation: str, *, value=None, expression=None,
         status: str = "INFO", error_bound=None) -> dict:
    return {
        "quantity": quantity,
        "value": value,
        "expression": expression,
        "citation": citation,
        "status": status,
        "error_bound": error_bound,
    }


def render_report(command: str, rows: list[dict]) -> str:
    """Canonical JSON serialization (stable key order, fixed separators)."""
    status = "PASS" if all(r["status"] != "FAIL" for r in rows) else "FAIL"
    payload = {"command": command, "status": status, "rows": rows}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _check(quantity, citation, residual, tol, **extra):
    """A row decided on ``residual`` and ``tol`` as given, mpf or float, and
    reported rounded to float64."""
    status = "PASS" if abs(residual) < tol else "FAIL"
    return _row(quantity, citation, value=float(residual), status=status,
                error_bound=float(tol), **extra)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _run_derive_a0(cfg: RunConfig) -> list[dict]:
    from .sfunc import exact_zero
    from .symbolint import a0_density, a0_reference, q_density, q_density_reference
    rows = []
    for name, density, reference in (("a0-density", a0_density, a0_reference),
                                     ("q-density", q_density, q_density_reference)):
        computed = density(cfg.m, cfg.q)
        expected = reference(cfg.m, cfg.q)
        ok = exact_zero(computed - expected)
        citation = f"{name}.dim{cfg.m}.q{cfg.q}"
        rows.append(_row(name, citation, expression=str(computed),
                         status="PASS" if ok else "FAIL"))
        rows.append(_row(f"{name}-reference", f"{citation}.reference",
                         expression=str(expected), status="INFO"))
    return rows


def _run_derive_terms(cfg: RunConfig) -> list[dict]:
    from .sfunc import exact_zero, rationalize
    from .symbolint import (TERM_LABELS, reference_table_sum, reference_term_table,
                            term_table)
    computed = term_table(cfg.q)
    expected = reference_term_table(cfg.q)
    rows = []
    for label in TERM_LABELS:
        ok = exact_zero(computed[label] - expected[label])
        rows.append(_row(f"trace-term-{label}", f"trace-term.dim3.q{cfg.q}.{label}",
                         expression=str(computed[label]),
                         status="PASS" if ok else "FAIL"))
    total = rationalize(sum(computed[label] for label in TERM_LABELS))
    ok = exact_zero(total - reference_table_sum(cfg.q))
    rows.append(_row("trace-term-sum", f"trace-term.dim3.q{cfg.q}.sum",
                     expression=str(total), status="PASS" if ok else "FAIL"))
    return rows


def _run_verify_cylinder(cfg: RunConfig) -> list[dict]:
    from .zetadet import verify_product_gluing
    out = verify_product_gluing(cfg.a, cfg.L, cfg.q)
    rows = [
        _check("dtn-logdet-identity", "cylinder.dtn-logdet", out["logdet_identity"], 1e-10),
        _check("zeta-difference-s2", "cylinder.zeta-difference",
               out["zeta_diff_s2"], max(1e-10, 10 * out["zeta_diff_s2_bound"])),
        _check("zeta-difference-s3", "cylinder.zeta-difference",
               out["zeta_diff_s3"], max(1e-10, 10 * out["zeta_diff_s3_bound"])),
        _check("dtn-zeta-at-zero", "cylinder.dtn-zeta-at-zero",
               out["zeta_q_at_zero"] - out["zeta_q_at_zero_expected"], 1e-8),
        _check("determinant-gluing", "cylinder.determinant-gluing",
               out["logdet_identity"], 1e-10),
    ]
    return rows


def _run_verify_zeta_zero(cfg: RunConfig) -> list[dict]:
    from .zetadet import zeta_zero_identity_sides
    lhs, rhs = zeta_zero_identity_sides(cfg.a, cfg.L, cfg.q)
    return [
        _row("zeta-zero-lhs", "cylinder.zeta-zero-identity", value=lhs),
        _row("zeta-zero-rhs", "cylinder.zeta-zero-identity", value=rhs),
        _check("zeta-zero-identity", "cylinder.zeta-zero-identity", lhs - rhs, 1e-10),
    ]


def _load_geometry(cfg: RunConfig):
    from . import geom as G
    if cfg.file:
        with open(cfg.file) as fh:
            geom = G.GeometrySpec.from_json(fh.read())
    else:
        name = cfg.geometry or ("unit-disk" if cfg.m == 2 else "unit-ball")
        builders = {"unit-disk": G.unit_disk, "unit-ball": G.unit_ball,
                    "cylinder": lambda: G.cylinder_boundary(cfg.a, cfg.L)}
        if name not in builders:
            raise ValueError(f"unknown geometry {name!r}")
        geom = builders[name]()
    if cfg.m not in (None, geom.m):
        raise ValueError(f"geometry {geom.label!r} has dimension {geom.m}, "
                         f"but dimension m = {cfg.m} was requested")
    return geom


_GOLDEN_CONSTANTS = {
    # (label, q): (a0, zeta0) closed-form values for the built-in geometries;
    # a --file geometry gets no golden rows, whatever its label
    ("unit-disk", 0): (sp.Integer(1), sp.Integer(0)),
    ("unit-disk", 1): (1 - 2 * sp.log(2), sp.Integer(-2)),
    ("unit-ball", 0): (sp.Rational(3, 8), sp.Rational(1, 3)),
    ("unit-ball", 1): (sp.Rational(-3, 4), sp.Rational(-1, 3)),
    ("unit-ball", 2): (sp.Rational(7, 8), sp.Rational(4, 3)),
}


def _run_geom_constants(cfg: RunConfig) -> list[dict]:
    from .geom import a0_constant, zeta0_constant
    geom = _load_geometry(cfg)
    cfg = replace(cfg, m=geom.m)  # a geometry loaded without --m: check --q against its m
    a0 = a0_constant(geom, cfg.q)
    z0 = zeta0_constant(geom, cfg.q)
    rows = [
        _row("gluing-constant", f"geometry-constant.a0.q{cfg.q}", value=a0),
        _row("zeta-zero-constant", f"geometry-constant.zeta0.q{cfg.q}", value=z0),
    ]
    golden = None if cfg.file else _GOLDEN_CONSTANTS.get((geom.label, cfg.q))
    if golden is not None:
        ga, gz = (float(v) for v in golden)
        rows.append(_check("gluing-constant-golden",
                           f"geometry-constant.a0.q{cfg.q}.golden", a0 - ga, 1e-10))
        rows.append(_check("zeta-zero-constant-golden",
                           f"geometry-constant.zeta0.q{cfg.q}.golden", z0 - gz, 1e-10))
    return rows


def _run_conformal_check(cfg: RunConfig) -> list[dict]:
    import numpy as np

    from .geom import conformal_variation_check, unit_disk
    geom = unit_disk()
    n = len(geom.w)
    th = np.arange(n) * 2 * math.pi / n
    cases = {
        "constant": (np.ones_like(th), np.zeros_like(th), lambda x, y: 1.0),
        "coordinate": (np.cos(th), -np.cos(th), lambda x, y: x),
        "radial-square": (np.ones_like(th), -2 * np.ones_like(th),
                          lambda x, y: x * x + y * y),
    }
    rows = []
    for name, (bv, nv, fn) in cases.items():
        res = conformal_variation_check(geom, bv, nv, fn)
        rows.append(_check(f"conformal-variation-{name}",
                           f"conformal-variation.disk.{name}", res, 1e-8))
    return rows


def _run_specfun_selftest(cfg: RunConfig) -> list[dict]:
    from .sfunc import (S, exact_zero, gamma_ratio_at_zero, rationalize, riemann_zeta,
                        xi_moment, zeta_deriv_at)
    rows = []
    with mp.workdps(cfg.dps + 10):
        tol = mp.mpf(10) ** -cfg.dps
        for s0, ref in ((2, mp.pi ** 2 / 6), (0, mp.mpf(-1) / 2), (-1, mp.mpf(-1) / 12)):
            rows.append(_check(f"riemann-zeta-{s0}", "specfun.riemann-zeta",
                               riemann_zeta(s0, cfg.dps + 10) - ref, tol))
        rows.append(_check("riemann-zeta-deriv-0", "specfun.riemann-zeta",
                           zeta_deriv_at(0, cfg.dps + 10) + mp.log(2 * mp.pi) / 2, tol))
    for k, (v_ref, d_ref) in ((1, (-1, -1)), (sp.Rational(1, 2), (0, -2 * sp.sqrt(sp.pi))),
                              (2, (sp.Rational(1, 2), sp.Rational(3, 4)))):
        v, d = gamma_ratio_at_zero(k)
        ok = exact_zero(v - v_ref) and exact_zero(d - d_ref)
        rows.append(_row(f"gamma-ratio-at-zero-{k}", "specfun.gamma-ratio",
                         expression=f"({v}, {d})", status="PASS" if ok else "FAIL"))
    table = [
        ((0, 0), S / 2, 1 / (2 * sp.pi * (S - 2))),
        ((0, 0), S / 2 + 1, 1 / (2 * sp.pi * S)),
        ((2, 0), S / 2 + 2, 1 / (2 * sp.pi * S * (S + 2))),
        ((2, 2), S / 2 + 3, 1 / (2 * sp.pi * S * (S + 2) * (S + 4))),
        ((4, 0), S / 2 + 3, 3 / (2 * sp.pi * S * (S + 2) * (S + 4))),
    ]
    for exps, p, ref in table:
        got = xi_moment(2, exps, p)
        ok = exact_zero(got - ref)
        rows.append(_row(f"momentum-integral-xi{exps[0]}{exps[1]}-p({p})",
                         "specfun.momentum-table", expression=str(rationalize(got)),
                         status="PASS" if ok else "FAIL"))
    return rows


# command -> (pipeline, the dimensions it models, the options it reads besides --output)
_Command = namedtuple("_Command", "pipeline dims reads")
_CYLINDER = frozenset({"m", "q", "a", "L", "dps"})
_COMMANDS = {
    "derive-a0": _Command(_run_derive_a0, (2, 3), frozenset({"m", "q"})),
    "derive-terms": _Command(_run_derive_terms, (3,), frozenset({"m", "q"})),
    "verify-cylinder": _Command(_run_verify_cylinder, (2,), _CYLINDER),
    "verify-zeta-zero": _Command(_run_verify_zeta_zero, (2,), _CYLINDER),
    "geom-constants": _Command(_run_geom_constants, (2, 3),
                               frozenset({"m", "q", "geometry", "file"})),
    "conformal-check": _Command(_run_conformal_check, (2,), frozenset({"m"})),
    # reads no --m; its m stays 3
    "specfun-selftest": _Command(_run_specfun_selftest, (3,), frozenset({"dps"})),
}


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute one pipeline; return (exit status, canonical JSON report)."""
    rows = _COMMANDS[cfg.command].pipeline(cfg)
    report = render_report(cfg.command, rows)
    status = 0 if all(r["status"] != "FAIL" for r in rows) else 1
    return status, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtnzeta",
        description="Derive and verify Dirichlet-to-Neumann zeta-determinant "
                    "constants on model geometries.")
    parser.add_argument("command", choices=_COMMANDS)
    dims = "; ".join(f"{c}: {' or '.join(map(str, d))}" for c, (_, d, r) in _COMMANDS.items()
                     if "m" in r)
    parser.add_argument("--m", type=int, default=None,
                        help=f"interior dimension ({dims}; default the last listed, "
                             "for geom-constants the geometry's)")
    parser.add_argument("--q", type=int, default=0, help="form degree")
    parser.add_argument("--a", type=float, default=1.0, help="cylinder length")
    parser.add_argument("--L", type=float, default=2 * math.pi,
                        help="cross-section circle length")
    parser.add_argument("--geometry", default="",
                        help="built-in geometry name (unit-disk, unit-ball, cylinder)")
    parser.add_argument("--file", default="", help="geometry JSON file")
    parser.add_argument("--output", default="", help="write the JSON report here")
    parser.add_argument("--dps", type=int, default=30,
                        help="working precision of specfun-selftest in decimal digits, "
                             f"15 to {_MAX_DPS} (the cylinder reports are float64 and do "
                             "not depend on it)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(command=args.command, m=args.m, q=args.q, a=args.a,
                        L=args.L, geometry=args.geometry, file=args.file,
                        output=args.output, dps=args.dps)
    except ValueError as exc:
        print(f"error: invalid-config: {exc}", file=sys.stderr)
        return 2
    try:
        status, report = run(cfg)
    except OSError as exc:  # reading the --file input
        reason = ("file-not-found" if isinstance(exc, FileNotFoundError)
                  else f"input: {exc.strerror}")
        print(f"error: {reason}: {exc.filename}", file=sys.stderr)
        return 3
    except (KeyError, ValueError) as exc:
        print(f"error: schema-or-range: {exc}", file=sys.stderr)
        return 4
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"error: schema-or-range: parameters outside the float64 range "
              f"of the pipeline ({type(exc).__name__})", file=sys.stderr)
        return 4
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(report + "\n")
        except OSError as exc:
            print(f"error: output: {exc}", file=sys.stderr)
            return 3
    print(report)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
