"""Special-function kernels for the symbol-to-density pipeline.

This module provides the exact scalar ingredients used when a boundary symbol
expansion is turned into a spectral density:

* ``SFunction`` -- a thin wrapper around a sympy expression in the complex
  variable ``s`` built from rational functions, exponential scalings ``c**(-s)``
  and Gamma-function ratios.  It supports exact evaluation, exact derivative at
  a point and high-precision numeric evaluation.
* ``gamma_ratio_at_zero`` -- value and derivative at ``s = 0`` of
  ``Gamma(s - k) / Gamma(s)``.
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
        s0 = sp.sympify(s0)
        direct = self.expr.subs(S, s0)
        if direct.has(sp.zoo, sp.nan) or direct is sp.nan:
            direct = sp.limit(self.expr, S, s0)
        if direct.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
            raise DomainError(f"pole of SFunction at s = {s0}")
        return sp.simplify(direct)

    def deriv_at(self, s0) -> sp.Expr:
        """Exact derivative value at ``s = s0`` (limit if removable)."""
        s0 = sp.sympify(s0)
        d = sp.diff(self.expr, S)
        direct = d.subs(S, s0)
        if direct.has(sp.zoo, sp.nan) or direct is sp.nan:
            ser = sp.series(self.expr, S, s0, 2)
            if ser.has(sp.Order):
                ser = ser.removeO()
            direct = sp.diff(ser, S).subs(S, s0)
        if direct.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
            raise DomainError(f"pole of SFunction derivative at s = {s0}")
        return sp.simplify(direct)

    def numeric(self, s0, dps: int = 30) -> mp.mpf:
        """Numeric value at real ``s0`` with ``dps`` working digits."""
        with mp.workdps(dps):
            f = sp.lambdify(S, self.expr, modules="mpmath")
            return f(mp.mpf(s0))


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
    ratio = sp.gamma(S - k) / sp.gamma(S)
    ser = sp.series(ratio, S, 0, 2).removeO()
    value = ser.subs(S, 0)
    deriv = sp.diff(ser, S).subs(S, 0)
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
