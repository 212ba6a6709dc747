"""Special-function kernels for the symbol-to-density pipeline.

This module provides the exact scalar ingredients used when a boundary symbol
expansion is turned into a spectral density:

* ``SFunction`` -- a thin wrapper around a sympy expression in the complex
  variable ``s`` built from rational functions, exponential scalings ``c**(-s)``
  and Gamma-function ratios.  It supports exact evaluation, exact derivative at
  a point and high-precision numeric evaluation.  The point values come from
  the jet of a sum ``sum_i c_i f_i(s)``: the terms are grouped by their few
  distinct ``s``-factors ``f_i``, and each factor's Laurent coefficients are
  computed once per point (``subs``/``diff`` of the Gamma-simplified factor,
  ``series`` only at a pole).  A pole part that does not cancel, or a branch
  point, raises ``DomainError``.
* ``exact_zero`` -- the one exact zero test of the package: a rational
  function of ``s`` and of Gamma factors ``Gamma(a*s + b)`` is normalized to
  one representative per Gamma class and decided by an expanded numerator.
* ``gamma_ratio_at_zero`` -- value and derivative at ``s = 0`` of
  ``Gamma(s - k) / Gamma(s)``, from the same jet.
* ``mu_residue`` -- the contour residue ``(1/2pi i) oint mu^{-s} (mu - z)^{-j} dmu``
  expressed as a prefactor in ``s`` times a power of ``z``.
* ``xi_moment`` -- the exact monomial moment
  ``(2 pi)^{-d} int xi^e (1 + |xi|^2)^{-P} dxi`` over ``R^d``.
* ``riemann_zeta`` / ``zeta_deriv_at`` -- the Riemann zeta function and its
  derivative at a requested working precision (``mpmath.zeta``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import sympy as sp

__all__ = [
    "S",
    "SFunction",
    "DomainError",
    "DivergentMomentError",
    "exact_zero",
    "gamma_ratio_at_zero",
    "mu_residue",
    "xi_moment",
    "riemann_zeta",
    "zeta_deriv_at",
]

#: The canonical complex variable of every spectral function in this package.
S = sp.Symbol("s")


class DomainError(ValueError):
    """Raised when a special function is evaluated at a pole or off-domain."""


class DivergentMomentError(ValueError):
    """Raised when a requested momentum-space moment does not converge."""


@dataclass(frozen=True)
class SFunction:
    """A meromorphic function of ``s`` with exact sympy backing.

    The atom shapes produced by the pipeline are rational functions of ``s``,
    exponential scalings ``c**(-s)`` and ratios ``Gamma(s + p)/Gamma(s + q)``.
    """

    expr: sp.Expr

    def value_at(self, s0) -> sp.Expr:
        """Exact value at ``s = s0`` (limit if removable)."""
        return sp.simplify(_jet(self.expr, sp.sympify(s0))[0])

    def deriv_at(self, s0) -> sp.Expr:
        """Exact derivative value at ``s = s0`` (limit if removable)."""
        return sp.simplify(_jet(self.expr, sp.sympify(s0))[1])


# ---------------------------------------------------------------------------
# Exact zero test
# ---------------------------------------------------------------------------

def exact_zero(expr) -> bool:
    """Whether ``expr`` vanishes identically in ``s`` and in its free symbols.

    ``expr`` must be a rational function of ``s`` and of Gamma factors
    ``Gamma(a*s + b)`` with ``a > 0`` and ``b`` rational; its ``s``-free part
    may hold any constants (``pi``, ``log(2)``, ``EulerGamma``, ...) and
    symbols.  Each factor is written as its class representative
    ``Gamma(a*s + b mod 1)`` times a rising factorial in ``s``, the
    representatives become independent symbols, and ``expr`` is zero when the
    expanded numerator of its ``together`` form is.  A True verdict is exact,
    since it holds for any value of the symbols; a relation among the
    constants or the representatives that this form does not apply could
    only turn a zero into a False, never the reverse.

    Raises ``ValueError`` on any other ``s``-dependent atom, such as
    ``2**(-s)``, ``gamma(s**2)`` or ``polygamma(0, s)``.
    """
    expr = sp.sympify(expr)
    classes: dict[sp.Expr, sp.Dummy] = {}
    normal = {}
    for g in expr.atoms(sp.gamma):
        arg = g.args[0]
        if not arg.has(S):
            continue
        a = sp.diff(arg, S)
        b = sp.expand(arg - a * S)
        if not (a.is_Rational and a > 0 and b.is_Rational):
            raise ValueError(f"no exact zero test for {g}: argument not a*s + b, a > 0 rational")
        n = b.p // b.q
        x = a * S + b - n
        normal[g] = classes.setdefault(x, sp.Dummy(f"Gamma({x})")) * sp.rf(x, n)
    expr = expr.xreplace(normal)
    if not expr.is_rational_function(S):
        raise ValueError("no exact zero test: not a rational function of s and Gamma(a*s + b)")
    return sp.expand(sp.numer(sp.together(expr))) == 0


# ---------------------------------------------------------------------------
# Jets at a point
# ---------------------------------------------------------------------------

def _branch_point(f: sp.Expr, s0: sp.Expr) -> bool:
    """Whether a power or logarithm in ``f`` branches at ``s = s0``."""
    roots = [p.base for p in f.atoms(sp.Pow) if p.base.has(S) and not p.exp.is_integer]
    roots += [g.args[0] for g in f.atoms(sp.log) if g.has(S)]
    return any(r.subs(S, s0) == 0 for r in roots)


@lru_cache(maxsize=None)
def _factor_laurent(factor: sp.Expr, s0: sp.Expr) -> tuple[tuple[int, sp.Expr], ...]:
    """Laurent coefficients ``(k, c_k)`` (``k <= 1``) of ``factor`` at ``s = s0``.

    The factor is Gamma-simplified first.  Where it is regular, ``subs`` and
    ``diff`` give its two Taylor coefficients; only at a pole is it expanded
    with ``series``.  Raises :class:`DomainError` at a branch point.
    """
    f = sp.gammasimp(factor)
    if _branch_point(f, s0):
        raise DomainError(f"branch point of {factor} at s = {s0}")
    taylor = (f.subs(S, s0), sp.diff(f, S).subs(S, s0))
    if not any(c.has(sp.zoo, sp.nan, sp.oo, -sp.oo) for c in taylor):
        return tuple(enumerate(taylor))
    out: dict[int, sp.Expr] = {}
    for term in sp.Add.make_args(sp.expand(sp.series(f.subs(S, S + s0), S, 0, 2).removeO())):
        c, k = term.as_coeff_exponent(S)
        if c.has(S) or not k.is_integer:
            raise DomainError(f"branch point of {factor} at s = {s0}")
        out[int(k)] = out.get(int(k), sp.Integer(0)) + c
    return tuple(out.items())


def _jet(expr: sp.Expr, s0: sp.Expr) -> tuple[sp.Expr, sp.Expr]:
    """Value and first derivative at ``s = s0`` of ``expr = sum_i c_i f_i(s)``.

    Terms are grouped by their ``s``-dependent factor ``f_i``; the Laurent
    coefficients of each distinct factor are computed once and combined with
    the ``s``-free coefficients ``c_i``.  Raises :class:`DomainError` unless
    the combined pole part vanishes.
    """
    groups: dict[sp.Expr, sp.Expr] = {}
    for term in sp.Add.make_args(expr):
        coeff, factor = term.as_independent(S, as_Add=False)
        groups[factor] = groups.get(factor, sp.Integer(0)) + coeff
    jet: dict[int, sp.Expr] = {}
    for factor, coeff in groups.items():
        for k, c in _factor_laurent(factor, s0):
            jet[k] = jet.get(k, sp.Integer(0)) + coeff * c
    if any(k < 0 and not exact_zero(c) for k, c in jet.items()):
        raise DomainError(f"pole of SFunction at s = {s0}")
    return jet.get(0, sp.Integer(0)), jet.get(1, sp.Integer(0))


# ---------------------------------------------------------------------------
# Gamma ratios at s = 0
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gamma_ratio_at_zero(k) -> tuple[sp.Expr, sp.Expr]:
    """Value and derivative at ``s = 0`` of ``Gamma(s - k) / Gamma(s)``.

    For ``k`` a nonnegative integer the ratio is the rational function
    ``1 / ((s-1)(s-2)...(s-k))``; for non-integer ``k`` the ratio vanishes at
    ``s = 0`` (simple zero from ``1/Gamma(s)``) with derivative ``Gamma(-k)``.

    Returns
    -------
    (value, derivative) : pair of exact sympy expressions.
    """
    k = sp.Rational(Fraction(str(k))) if not isinstance(k, (int, sp.Basic)) else sp.sympify(k)
    value, deriv = _jet(sp.gamma(S - k) / sp.gamma(S), sp.Integer(0))
    return sp.simplify(value), sp.simplify(deriv)


# ---------------------------------------------------------------------------
# Contour residues in the spectral parameter
# ---------------------------------------------------------------------------

def mu_residue(order: int) -> tuple[SFunction, int]:
    """Residue data for ``(1/2 pi i) oint mu^{-s} (mu - z)^{-order} dmu``.

    The contour encircles the ray where ``z`` lives; the result is
    ``prefactor(s) * z**(-s - (order - 1))``.

    Returns
    -------
    (prefactor, shift) : the ``SFunction`` prefactor and the integer ``order-1``
        by which the exponent of ``z`` is shifted below ``-s``.
    """
    if order < 1:
        raise DomainError("pole order must be >= 1")
    j = order
    # (1/(j-1)!) d^{j-1}/dmu^{j-1} mu^{-s} at mu = z
    # = (-1)^{j-1} (s)_{j-1} / (j-1)! * z^{-s-j+1}
    pre = sp.expand((-1) ** (j - 1) * sp.rf(S, j - 1) / sp.factorial(j - 1))
    return SFunction(pre), order - 1


# ---------------------------------------------------------------------------
# Momentum-space moments
# ---------------------------------------------------------------------------

def xi_moment(dim: int, exponents: tuple[int, ...], p_expr) -> sp.Expr:
    """Exact value of ``(2 pi)^{-dim} int_{R^dim} prod xi_i^{e_i} (1+|xi|^2)^{-P} dxi``.

    Parameters
    ----------
    dim : dimension of the integration variable.
    exponents : monomial exponents ``(e_1, ..., e_dim)``; any odd entry gives 0.
    p_expr : the exponent ``P`` as a sympy expression in ``s`` (or a constant).

    Returns
    -------
    Exact sympy expression in ``s``:
    ``(2 pi)^{-d} [prod Gamma((e_i+1)/2)] Gamma(P - A - d/2) / Gamma(P)`` with
    ``A = sum e_i / 2``.

    Raises
    ------
    DivergentMomentError
        if ``P`` is independent of ``s`` and ``2P <= sum e_i + dim``, or if the
        coefficient of ``s`` in ``P`` is not positive when ``P`` depends on ``s``.
    """
    if len(exponents) != dim:
        raise ValueError("exponent tuple length must equal dim")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    if any(e % 2 == 1 for e in exponents):
        return sp.Integer(0)
    P = sp.sympify(p_expr)
    A = sp.Rational(sum(exponents), 2)
    if P.has(S):
        slope = sp.Poly(P, S).coeff_monomial(S)
        if not (slope.is_number and slope > 0):
            raise DivergentMomentError("exponent must grow with s for convergence")
    else:
        if not (2 * P - 2 * A - dim > 0):
            raise DivergentMomentError(
                f"moment diverges: monomial degree {2*A} >= 2*{P} - {dim}"
            )
    gam_prod = sp.prod([sp.gamma(sp.Rational(e + 1, 2)) for e in exponents])
    return (2 * sp.pi) ** (-dim) * gam_prod * sp.gamma(P - A - sp.Rational(dim, 2)) / sp.gamma(P)


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

def _zeta(s, dps: int, derivative: int) -> mp.mpf:
    with mp.workdps(dps):
        sv = mp.mpf(s)
        if sv == 1:
            raise DomainError("zeta has a pole at s = 1")
        result = mp.zeta(sv, derivative=derivative)
    return +result


def riemann_zeta(s, dps: int = 40) -> mp.mpf:
    """Riemann zeta at real ``s != 1``, computed with ``dps`` working digits."""
    return _zeta(s, dps, 0)


def zeta_deriv_at(s0, dps: int = 40) -> mp.mpf:
    """Derivative of Riemann zeta at real ``s0 != 1`` with ``dps`` working digits."""
    return _zeta(s0, dps, 1)
