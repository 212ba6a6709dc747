"""Acceptance suite: nine end-to-end criteria, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from dtnzeta.sfunc import S, exact_zero
from dtnzeta.symbolcas import chart, parametrix_defect
from dtnzeta.symbolint import (
    TERM_LABELS,
    _deep_transform,
    a0_density,
    a0_reference,
    a1_coefficient,
    pi0_density,
    q_density,
    q_density_reference,
    reference_table_sum,
    reference_term_table,
    term_table,
)


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_dim2_symbolic_derivation():
    """Full dimension-2 pipeline gives the exact boundary density, under 10 s."""
    chart.cache_clear()
    _deep_transform.cache_clear()
    t0 = time.monotonic()
    ok = True
    for q in (0, 1):
        ch = chart(2, q)
        kappa = ch.kappas[0]
        tr = ch.project(ch.conn_values[1]).trace()
        target = kappa / (2 * sp.pi) - sp.log(2) / sp.pi * tr
        ok = ok and exact_zero(a0_density(2, q) - target)
        ok = ok and exact_zero(a0_density(2, q) - a0_reference(2, q))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _verdict(1, "dim-2 symbolic derivation", ok)
    assert ok, f"elapsed={elapsed:.1f}s"


def test_criterion_2_dim3_term_table():
    """All eleven dimension-3 trace pieces, their sum, the s-derivative at 0,
    and the per-degree densities match the reference forms, under 60 s."""
    term_table.cache_clear()
    t0 = time.monotonic()
    ok = True
    for q in (0, 1, 2):
        computed = term_table(q)
        expected = reference_term_table(q)
        for label in TERM_LABELS:
            ok = ok and exact_zero(computed[label] - expected[label])
        total = sum(computed[label] for label in TERM_LABELS)
        ok = ok and exact_zero(total - reference_table_sum(q))
        ok = ok and exact_zero(a0_density(3, q) - a0_reference(3, q))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(2, "dim-3 term table", ok)
    assert ok, f"elapsed={elapsed:.1f}s"


def test_criterion_3_consistency_coefficients():
    """Subleading coefficient vanishes; leading boundary density and the
    zeta-at-zero densities come out exactly."""
    from math import comb
    ok = True
    for q in (0, 1, 2):
        ok = ok and exact_zero(a1_coefficient(q))
        ok = ok and exact_zero(pi0_density(q) - sp.Integer(comb(2, q)) / (8 * sp.pi))
        ok = ok and exact_zero(q_density(3, q) - q_density_reference(3, q))
    ok = ok and q_density(2, 0) == 0
    ok = ok and exact_zero(q_density(2, 1) - q_density_reference(2, 1))
    _verdict(3, "consistency coefficients", ok)
    assert ok


def test_criterion_4_cylinder_end_to_end():
    """All cylinder identities at machine precision for a in {0.5, 1, 3} and
    degrees 0, 1, under 30 s."""
    from dtnzeta.zetadet import verify_product_gluing
    t0 = time.monotonic()
    ok = True
    for q in (0, 1):
        for a in (0.5, 1.0, 3.0):
            out = verify_product_gluing(a, 2 * math.pi, q)
            ok = ok and out["logdet_identity"] < 1e-10
            ok = ok and out["zeta_diff_s2"] < 1e-10
            ok = ok and out["zeta_diff_s3"] < 1e-10
            ok = ok and abs(out["zeta_q_at_zero"]
                            - out["zeta_q_at_zero_expected"]) < 1e-8
            if q == 0:
                ok = ok and abs(out["zeta_q_at_zero"] + 1.0) < 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _verdict(4, "cylinder end-to-end", ok)
    assert ok, f"elapsed={elapsed:.1f}s"


def test_criterion_5_zeta_zero_identity():
    """Both sides of the zeta-at-zero gluing identity agree, computed by
    independent continuation paths."""
    from dtnzeta.zetadet import zeta_zero_identity_sides
    ok = True
    for q in (0, 1):
        for a in (0.5, 1.0, 3.0):
            lhs, rhs = zeta_zero_identity_sides(a, 2 * math.pi, q)
            ok = ok and abs(lhs - rhs) < 1e-10
    _verdict(5, "zeta-at-zero identity", ok)
    assert ok


def test_criterion_6_integral_table_quadrature():
    """Every displayed contour/momentum integral equals numeric quadrature at
    s = 3 within 1e-8."""
    from dtnzeta.sfunc import mu_residue, xi_moment
    ok = True
    with mp.workdps(30):
        # contour integrals around a pole at z, evaluated on a circle
        z, rad, sv = mp.mpf("1.3"), mp.mpf("0.4"), 3
        for order in (1, 2, 3):
            fn, shift = mu_residue(order)
            exact = complex(sp.lambdify(S, fn.expr, modules="mpmath")(mp.mpf(sv))
                            * z ** (-sv - shift))

            def integrand(t, order=order):
                muv = z + rad * mp.exp(1j * t)
                dmu = 1j * rad * mp.exp(1j * t)
                return muv ** (-sv) / (muv - z) ** order * dmu / (2j * mp.pi)

            numeric = complex(mp.quad(integrand, [0, 2 * mp.pi]))
            ok = ok and abs(numeric - exact) < 1e-8
        # momentum integrals in dimension 2, polar quadrature
        rows = [((0, 0), S / 2), ((0, 0), S / 2 + 1), ((2, 0), S / 2 + 2),
                ((2, 2), S / 2 + 3), ((4, 0), S / 2 + 3)]
        for exps, p in rows:
            exact = float(xi_moment(2, exps, p).subs(S, 3))
            pv = float(p.subs(S, 3))
            e1, e2 = exps
            ang = mp.quad(lambda t: mp.cos(t) ** e1 * mp.sin(t) ** e2,
                          [0, 2 * mp.pi])
            radial = mp.quad(lambda r: r ** (e1 + e2 + 1) * (1 + r * r) ** (-pv),
                             [0, mp.inf])
            numeric = float(ang * radial / (4 * mp.pi ** 2))
            ok = ok and abs(numeric - exact) < 1e-8
    _verdict(6, "integral table quadrature", ok)
    assert ok


def test_criterion_7_scaling_invariance():
    """The integrated constants are invariant under metric rescaling."""
    from dtnzeta.geom import a0_constant, rescale, unit_ball, unit_disk, zeta0_constant
    ok = True
    for c in (0.5, 2.0):
        for g, degrees in ((unit_disk(), (0, 1)), (unit_ball(), (0, 1, 2))):
            r = rescale(g, c)
            for q in degrees:
                ok = ok and abs(a0_constant(r, q) - a0_constant(g, q)) < 1e-12
                ok = ok and abs(zeta0_constant(r, q) - zeta0_constant(g, q)) < 1e-12
    _verdict(7, "scaling invariance", ok)
    assert ok


def test_criterion_8_conformal_invariance():
    """Conformal variation of the gluing identity vanishes on the unit disk."""
    from dtnzeta.geom import conformal_variation_check, unit_disk
    geom = unit_disk()
    n = len(geom.nodes)
    th = np.arange(n) * 2 * math.pi / n
    cases = [
        (np.ones_like(th), np.zeros_like(th), lambda x, y: 1.0),
        (np.cos(th), -np.cos(th), lambda x, y: x),
        (np.ones_like(th), -2 * np.ones_like(th), lambda x, y: x * x + y * y),
    ]
    ok = all(abs(conformal_variation_check(geom, bv, nv, fn)) < 1e-8
             for bv, nv, fn in cases)
    _verdict(8, "conformal invariance", ok)
    assert ok


@pytest.mark.parametrize("m,q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_criterion_9_parametrix_property(m, q):
    """Exact symbolic parametrix identity for every fiber, under 120 s each."""
    t0 = time.monotonic()
    ch = chart(m, q)
    defect = parametrix_defect(ch)
    elapsed = time.monotonic() - t0
    ok = all(M == sp.zeros(*M.shape) for M in defect.values()) and elapsed < 120.0
    _verdict(9, f"parametrix property ({m},{q})", ok)
    assert ok, f"elapsed={elapsed:.1f}s"
