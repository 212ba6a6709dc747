"""From resolvent symbol traces to boundary spectral densities.

Implements the transform

``F(s) = (2 pi)^{-(m-1)} int_{R^{m-1}} (1/2 pi i) oint mu^{-s} Tr r(y, xi, mu) dmu dxi``

for the resolvent symbols produced by :mod:`dtnzeta.symbolcas`, evaluated
exactly: the contour integral by residues, the momentum integral by closed
Gamma-function moments.  On top of it sit the boundary densities:

* ``a0_density`` -- the finite-part constant ``+ d/ds F(s) |_{s=0}`` of the
  deepest resolvent trace (the determinant-gluing correction density);
* ``q_density`` -- ``(1/2) F(0)``, the zeta-at-zero density;
* ``pi0_density`` / ``a1_coefficient`` -- the subleading coefficients in
  ambient dimension 3;
* ``term_table`` -- the dimension-3 trace split into its eleven labelled
  pieces, each transformed separately, together with an independently
  tabulated reference (``reference_term_table``) for cross-checking.

All results are exact sympy expressions in the principal curvatures and the
ambient/boundary scalar curvatures.
"""

from __future__ import annotations

from functools import lru_cache

import sympy as sp
from sympy import pi

from .sfunc import S, SFunction, exact_zero, mu_residue, rationalize, xi_moment
from .symbolcas import BoundaryChart, _laurent_expansion, chart

__all__ = [
    "boundary_reduce",
    "transform",
    "a0_density",
    "q_density",
    "pi0_density",
    "a1_coefficient",
    "term_table",
    "reference_term_table",
    "reference_table_sum",
    "a0_reference",
    "q_density_reference",
    "interior_coefficient_difference",
    "TERM_LABELS",
]

TERM_LABELS = ("I", "II", "III", "IV", "V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8")


class CancellationError(AssertionError):
    """An opaque jet symbol survived integration although it must cancel."""


def boundary_reduce(ch: BoundaryChart, scalar) -> sp.Expr:
    """Exact transform of a scalar resolvent-trace expression.

    Expands the expression at the distinguished boundary point in
    ``t = mu - w`` and ``v = w`` in one walk (:func:`_laurent_expansion` with
    its jet table).  The walk also applies the trace rules of
    :meth:`BoundaryChart.post_integration_rules`; they replace constants of the
    contour and momentum integration, so applying them before it is exact.
    With the spectral parameter normalized to 1, a monomial ``t^{-j} v^k xi^e``
    is the residue ``(1/2 pi i) oint mu^{-s} (mu - w)^{-j} dmu`` times the
    closed moment of ``xi^e w^{k-s-j+1}``, one weight per distinct
    ``(j, k, e)``; the polynomial ``P`` of the other atoms that multiplies them
    is kept as it is.  Each term is keyed once, by its monomial in the
    must-cancel jets and then by ``(j, k, e)``.  For every nonzero jet
    monomial the sum of ``P`` times weight over its groups must be an exact
    zero (:class:`CancellationError` otherwise); the result is that sum for the
    jet-free monomial.  Raises ``ValueError`` on a monomial with ``j < 1`` and
    on a non-Laurent factor.
    """
    ring, terms = _laurent_expansion(ch, scalar, at_point=True)
    xi_slots = [ring.symbols.index(xi) if xi in ring.symbols else None for xi in ch.xis]
    jet_slots = [i for i, x in enumerate(ring.symbols) if x in ch.must_cancel]
    keyed = {*range(4), *xi_slots, *jet_slots}
    weights, by_jets = {}, {}  # jet monomial -> (j, k, e) -> coefficients of P
    for mono, c in terms.items():
        tp, tn, vp, vn = mono[:4]
        j, k = tn - tp, vp - vn
        if j < 1:
            raise ValueError(f"contour order {j} < 1: no residue at mu = w")
        exps = tuple(0 if i is None else mono[i] for i in xi_slots)
        if any(e % 2 for e in exps):
            continue  # odd momentum moment: exact zero
        key = (j, k, exps)
        if key not in weights:
            pre, shift = mu_residue(j)
            weights[key] = pre * xi_moment(ch.d, exps, (S + shift - k) / 2)
        rest = tuple(0 if i in keyed else e for i, e in enumerate(mono))
        jets = tuple(mono[i] for i in jet_slots)
        by_jets.setdefault(jets, {}).setdefault(key, {})[rest] = c

    def total(groups):
        return sp.Add(*[ring.from_dict(coeffs).as_expr() * weights[key]
                        for key, coeffs in groups.items()])

    kept = by_jets.pop((0,) * len(jet_slots), {})
    for jets, groups in by_jets.items():
        if not exact_zero(coeff := total(groups)):
            mono = sp.Mul(*[ring.symbols[i] ** e for i, e in zip(jet_slots, jets)])
            raise CancellationError(f"jet monomial {mono} survived with coefficient {coeff}")
    return total(kept)


def transform(ch: BoundaryChart, mat) -> sp.Expr:
    """Trace of a projected symbol matrix, then :func:`boundary_reduce`."""
    tr = sum(mat[i, i] for i in range(mat.shape[0]))
    return boundary_reduce(ch, tr)


def _density_display(ch: BoundaryChart, jet: sp.Expr) -> sp.Expr:
    """The display form ``rationalize(jet)`` of a density jet: one fraction of
    curvature polynomials.  Raises :class:`CancellationError` if a symbol
    other than a curvature is left."""
    val = rationalize(jet)
    leftovers = val.free_symbols - {ch.tauM, ch.tauY, *ch.kappas}
    if leftovers:
        raise CancellationError(f"unresolved symbols in density: {leftovers}")
    return val


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _deep_transform(m: int, q: int) -> sp.Expr:
    """Transform of the deepest resolvent trace ``r_{-m}`` for ``(m, q)``."""
    ch = chart(m, q)
    res = ch.resolvent()
    mat = res["r2"] if m == 2 else res["r3"]
    return transform(ch, mat)


def a0_density(m: int, q: int) -> sp.Expr:
    """Determinant-gluing constant density: ``+ d/ds|_0`` of the deep transform."""
    return _density_display(chart(m, q), SFunction(_deep_transform(m, q)).deriv_at())


def q_density(m: int, q: int) -> sp.Expr:
    """Zeta-at-zero density: ``(1/2) F(0)`` of the deep transform."""
    return _density_display(chart(m, q), SFunction(_deep_transform(m, q)).value_at() / 2)


def pi0_density(q: int) -> sp.Expr:
    """Leading boundary zeta density in ambient dimension 3 (from ``r_{-1}``)."""
    ch = chart(3, q)
    return _density_display(ch, -SFunction(transform(ch, ch.resolvent()["r1"])).deriv_at())


def interior_coefficient_difference(q: int) -> sp.Expr:
    """Difference of interior heat coefficients across the boundary condition
    at order 1 in ambient dimension 3 (a fixed input constant)."""
    from math import comb
    return sp.Integer(comb(2, q)) / (8 * pi)


def a1_coefficient(q: int) -> sp.Expr:
    """Subleading polynomial coefficient in ambient dimension 3.

    Combines the leading boundary density with the interior heat-coefficient
    difference weighted by the Gamma-ratio derivative at zero; vanishes
    identically (decide it with :func:`dtnzeta.sfunc.exact_zero`).
    """
    from .sfunc import gamma_ratio_at_zero
    _, dval = gamma_ratio_at_zero(1)
    return -pi0_density(q) - interior_coefficient_difference(q) * dval


# ---------------------------------------------------------------------------
# The eleven-piece table in ambient dimension 3
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def term_table(q: int) -> dict[str, sp.Expr]:
    """Transform of each labelled piece of the deepest dimension-3 trace."""
    ch = chart(3, q)
    res = ch.resolvent()
    return {lab: rationalize(transform(ch, res[lab])) for lab in TERM_LABELS}


def _generators(q: int):
    """Shared trace generators of the reference table for degree ``q``."""
    ch = chart(3, q)
    k1, k2 = ch.kappas
    r0 = sp.Integer(ch.n_proj)
    H1 = (k1 + k2) / 2
    H2 = k1 * k2
    om_vals = ch.conn_values
    om_m_t = ch.project(om_vals[2])
    TrOm = sum(om_m_t[i, i] for i in range(ch.n_proj))
    TrOm2 = sum((om_m_t * om_m_t)[i, i] for i in range(ch.n_proj))
    TrOmAlAl = sum(
        sum(ch.project(om_vals[a] * om_vals[a])[i, i] for i in range(ch.n_proj))
        for a in range(2)
    )
    if q == 0:
        TrE = sp.Integer(0)
    elif q == 1:
        TrE = -(ch.tauM + ch.tauY) / 2 + H2
    else:
        TrE = -(ch.tauM - ch.tauY) / 2 - H2
    Tdom_tan = sum(ch.dom_symbol(a + 1, i, i, a)
                   for a in range(2) for i in range(ch.n_proj))
    Tdom_m = sum(ch.dom_symbol(3, i, i, 2) for i in range(ch.n_proj))
    return ch, r0, H1, H2, TrOm, TrOm2, TrOmAlAl, TrE, Tdom_tan, Tdom_m


@lru_cache(maxsize=None)
def reference_term_table(q: int) -> dict[str, sp.Expr]:
    """Independently tabulated values of the eleven pieces (reference data)."""
    ch, r0, H1, H2, TrOm, TrOm2, TrOmAlAl, TrE, Dt, Dm = _generators(q)
    tM, tY = ch.tauM, ch.tauY
    s = S
    tab = {
        "I": -r0 * tY / (24 * pi) * (s + 1) / (s + 2),
        "II": r0 * tY / (12 * pi) * (s + 1) / (s + 2) - Dt / (4 * pi) * (s + 1) / (s + 2),
        "III": sp.Integer(0),
        "IV": (r0 * H1 ** 2 / (4 * pi) * (s + 1) ** 2 * (s + 3) / ((s + 2) * (s + 4))
               - r0 * H2 / (4 * pi) * (s + 1) / ((s + 2) * (s + 4))
               - H1 * TrOm / (2 * pi) * (s + 1) ** 2 / (s + 2)
               + TrOm2 / (4 * pi) * (s + 1)),
        "V1": -r0 * tY / (24 * pi) / (s + 2),
        "V2": sp.Integer(0),
        "V3": r0 * tY / (12 * pi) / (s + 2) - Dt / (4 * pi) / (s + 2),
        "V4": (r0 * H1 ** 2 / (4 * pi) * (s + 1) * (s + 3) / ((s + 2) * (s + 4))
               - r0 * H2 / (4 * pi) / ((s + 2) * (s + 4))
               - TrOmAlAl / (4 * pi) / (s + 2)
               - H1 * TrOm / (2 * pi) * (s + 1) / (s + 2)
               + TrOm2 / (4 * pi)),
        "V5": Dt / (4 * pi) + TrOmAlAl / (4 * pi) + TrE / (4 * pi),
        "V6": (-r0 * H1 ** 2 / (2 * pi) * (s + 1) / (s + 2)
               + H1 * TrOm / (2 * pi) * (2 * s + 3) / (s + 2)
               - TrOm2 / (2 * pi)),
        "V7": (r0 * (tM - tY) / (16 * pi) * (s + 1) / (s + 2)
               + r0 * H1 ** 2 / (2 * pi) * (s + 1) / (s + 4)
               - r0 * H2 / (8 * pi) * (s ** 2 + s - 4) / ((s + 2) * (s + 4))
               - Dm / (4 * pi)),
        "V8": -H1 * TrOm / (2 * pi) + Dm / (4 * pi) + TrOm2 / (4 * pi),
    }
    return tab


def reference_table_sum(q: int) -> sp.Expr:
    """Independently tabulated closed form of the summed table."""
    ch, r0, H1, H2, TrOm, TrOm2, TrOmAlAl, TrE, Dt, Dm = _generators(q)
    tM, tY = ch.tauM, ch.tauY
    s = S
    return (
        r0 * (tM / (16 * pi) * (s + 1) / (s + 2)
              - tY / (48 * pi) * (s - 1) / (s + 2)
              + H1 ** 2 / (4 * pi) * (s ** 3 + 6 * s ** 2 + 7 * s + 2) / ((s + 2) * (s + 4))
              - H2 / (8 * pi) * s * (s + 3) / ((s + 2) * (s + 4)))
        + TrE / (4 * pi)
        + TrOmAlAl / (4 * pi) * (s + 1) / (s + 2)
        - H1 * TrOm / (2 * pi) * (s ** 2 + 2 * s + 1) / (s + 2)
        + TrOm2 / (4 * pi) * (s + 1)
    )


# ---------------------------------------------------------------------------
# Reference densities (verification targets)
# ---------------------------------------------------------------------------

def a0_reference(m: int, q: int) -> sp.Expr:
    """Reference closed form of the determinant-gluing constant density."""
    ch = chart(m, q)
    if m == 2:
        k = ch.kappas[0]
        return {0: k / (2 * pi), 1: (1 - 2 * sp.log(2)) * k / (2 * pi)}[q]
    k1, k2 = ch.kappas
    H1sq = ((k1 + k2) / 2) ** 2
    H2 = k1 * k2
    tM, tY = ch.tauM, ch.tauY
    table = {
        0: (tM - tY + 11 * H1sq - 3 * H2) / (64 * pi),
        1: (tM - tY + 11 * H1sq - 15 * H2) / (32 * pi),
        2: (tM - tY + 11 * H1sq + 5 * H2) / (64 * pi),
    }
    return sp.expand(table[q])


def q_density_reference(m: int, q: int) -> sp.Expr:
    """Reference closed form of the zeta-at-zero density."""
    ch = chart(m, q)
    if m == 2:
        k = ch.kappas[0]
        return {0: sp.Integer(0), 1: -k / (2 * pi)}[q]
    k1, k2 = ch.kappas
    H1sq = ((k1 + k2) / 2) ** 2
    tM, tY = ch.tauM, ch.tauY
    table = {
        0: (tM / 8 + tY / 24 + H1sq / 4) / (8 * pi),
        1: (-tM / 4 - 5 * tY / 12 + H1sq / 2) / (8 * pi),
        2: (-3 * tM / 8 + 13 * tY / 24 + H1sq / 4) / (8 * pi),
    }
    return sp.expand(table[q])
