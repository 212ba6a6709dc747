"""Special-function kernels for the symbol-to-density pipeline.

This module provides the exact scalar ingredients used when a boundary symbol
expansion is turned into a spectral density:

* ``SFunction`` -- a thin wrapper around a sympy expression in the complex
  variable ``s`` built from rational functions, exponential scalings ``c**(-s)``
  and Gamma-function ratios.  It gives the exact value and derivative at a
  point, unsimplified.  The point values come from the jet of a sum
  ``sum_i c_i f_i(s)``: the terms are grouped by their few distinct
  ``s``-factors ``f_i``, and each factor's Laurent coefficients are computed
  once per point (``subs``/``diff`` of its Gamma normal form; ``series`` only
  at a pole).  A pole part that does not cancel, or a branch point, raises
  ``DomainError``.
* ``exact_zero`` / ``rationalize`` -- the exact zero test and the one rational
  form: each ``Gamma(a*s + b)`` becomes one representative per Gamma class times
  a rational factor (the package's only Gamma normalization), and the normal
  form becomes one element of a sparse rational-function field over QQ
  (``_field``, built without ``expand``).  That element decides zero, and,
  once the classes cancel, it is the one fraction in ``s``.
* ``gamma_ratio_at_zero`` -- value and derivative at ``s = 0`` of
  ``Gamma(s - k) / Gamma(s)``, from the same jet.
* ``mu_residue`` -- the contour residue ``(1/2pi i) oint mu^{-s} (mu - z)^{-j} dmu``
  expressed as a prefactor in ``s`` times a power of ``z``.
* ``xi_moment`` -- the exact monomial moment
  ``(2 pi)^{-d} int xi^e (1 + |xi|^2)^{-P} dxi`` over ``R^d``.
* ``riemann_zeta`` / ``zeta_deriv_at`` -- the Riemann zeta function and its
  derivative at a requested working precision (``mpmath.zeta``, memoized per
  argument, precision and order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import mpmath as mp
import sympy as sp

__all__ = [
    "S",
    "SFunction",
    "DomainError",
    "DivergentMomentError",
    "exact_zero",
    "rationalize",
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
    exponential scalings ``c**(-s)`` and the Gamma factors of ``exact_zero``.
    """

    expr: sp.Expr

    def value_at(self, s0) -> sp.Expr:
        """Exact value at ``s = s0`` (limit if removable)."""
        return _jet(self.expr, sp.sympify(s0))[0]

    def deriv_at(self, s0) -> sp.Expr:
        """Exact derivative value at ``s = s0`` (limit if removable)."""
        return _jet(self.expr, sp.sympify(s0))[1]


# ---------------------------------------------------------------------------
# Exact zero test
# ---------------------------------------------------------------------------

def exact_zero(expr) -> bool:
    """Whether ``expr`` vanishes identically in ``s`` and in its free symbols.

    ``expr`` must be a rational function of ``s`` and of Gamma factors
    ``Gamma(a*s + b)`` with ``a > 0`` and ``b`` rational; its ``s``-free part
    may hold any constants (``pi``, ``log(2)``, ``EulerGamma``, ...) and
    symbols.  Each factor is written as its class representative times a
    rising factorial in ``s`` (see ``_gamma_classes``), and ``expr`` is zero
    when its element of the rational-function field of ``_field`` is, where
    the representatives and the constants are independent generators.  A
    True verdict is exact, since it holds for any value of the generators; a
    relation among the constants or the representatives that this form does
    not apply could only turn a zero into a False, never the reverse.

    Raises ``ValueError`` on any other ``s``-dependent atom, such as
    ``2**(-s)``, ``gamma(s**2)`` or ``polygamma(0, s)``.
    """
    return not _field(expr)[0]


def rationalize(expr) -> sp.Expr:
    """One fraction of polynomials in ``s`` equal to ``expr``, a rational
    function of ``s`` and of Gamma factors whose classes must cancel: the
    field element of ``_field``, numerator over denominator, both free of
    common factors."""
    element, classes = _field(expr)
    out = element.as_expr()
    if out.free_symbols & classes.keys():
        raise ValueError(f"Gamma factors do not cancel in {expr}")
    return out


def _field(expr):
    """``expr`` in the Gamma normal form of ``_gamma_classes``, as an element
    of the sparse rational-function field ``FracField(generators, QQ)``;
    returns it and ``{representative: x}``.

    The generators are the free symbols, the class representatives and the
    constant atoms (``pi``, ``log(2)``, ...); ``log`` of a rational is first
    split over primes.  An atom ``b`` that also occurs as ``b**(p/q)`` enters
    through the one generator ``t = b**(1/L)``, with ``L`` the least common
    denominator of its exponents, so that ``sqrt(pi)**2 - pi`` is zero; for a
    rational ``b`` the relation ``t**L = b`` is applied too, and for ``I`` the
    relation ``t**(2L) = -1``.  The expression tree is rebuilt as one
    numerator over one denominator in the polynomial ring, summing the terms
    over equal denominators first, and the field cancels that fraction once.
    Nothing is expanded as a sympy expression.

    Raises ``ValueError`` on any other ``s``-dependent atom, on an infinity
    and on a division by zero.
    """
    from sympy.polys.fields import FracField

    normal, classes = _gamma_classes(sp.sympify(expr))
    roots: dict[sp.Expr, int] = {}  # generator atom -> common denominator L
    split: dict[sp.log, sp.Expr] = {}  # log of a rational -> its sum over primes

    def collect(e):
        if e.is_Number and not e.is_finite:
            raise ValueError(f"no exact zero test: {e} is not a finite number")
        if e.is_Number:
            return
        if e.is_Add or e.is_Mul:
            for arg in e.args:
                collect(arg)
        elif e.is_Pow and e.exp.is_Integer:
            collect(e.base)
        elif e.is_Pow and e.exp.is_Rational and not (e.base.is_Add or e.base.is_Mul):
            roots[e.base] = sp.ilcm(roots.get(e.base, 1), e.exp.q)
        elif isinstance(e, sp.log) and e.args[0].is_Rational and not e.args[0].is_prime:
            split[e] = sp.Add(*(k * sp.log(p) for p, k in sp.factorrat(e.args[0]).items()))
            collect(split[e])
        else:
            roots.setdefault(e, 1)

    collect(normal)
    for atom, L in roots.items():
        if atom.has(S) and (atom is not S or L > 1) or atom.is_finite is False:
            raise ValueError(f"no exact zero test: {atom} is not a rational function "
                             "of s and Gamma(a*s + b)")
    atoms = sorted(roots, key=sp.default_sort_key)
    field = FracField([a ** sp.Rational(1, roots[a]) for a in atoms], sp.QQ)
    ring = field.ring
    gens = dict(zip(atoms, ring.gens))

    def power(frac, k):
        if k < 0 and not all(frac):
            raise ValueError(f"no exact zero test: division by zero in {expr}")
        numer, denom = frac if k >= 0 else frac[::-1]
        return numer ** abs(k), denom ** abs(k)

    def rebuild(e):
        """``e`` as a numerator and a denominator, not yet cancelled."""
        if e.is_Number:
            return ring.ground_new(e), ring.one
        if e.is_Add:
            over = {}  # the terms over each denominator are summed first
            for numer, denom in map(rebuild, e.args):
                over[denom] = over.get(denom, ring.zero) + numer
            return reduce(lambda f, g: (f[0] * g[1] + g[0] * f[1], f[1] * g[1]),
                          ((numer, denom) for denom, numer in over.items()))
        if e.is_Mul:
            return reduce(lambda f, g: (f[0] * g[0], f[1] * g[1]), map(rebuild, e.args))
        if e in split:
            return rebuild(split[e])
        if e in gens:
            return gens[e] ** roots[e], ring.one
        if e.base in gens:
            return power((gens[e.base], ring.one), int(e.exp * roots[e.base]))
        return power(rebuild(e.base), int(e.exp))

    # the generator t = b**(1/L) is algebraic for a rational b (t**L = b) and for I
    relations = [gens[b] ** L - b if b.is_Rational else gens[b] ** (2 * L) + 1
                 for b, L in roots.items() if b.is_Rational or b is sp.I]
    numer, denom = (p.rem(relations) for p in rebuild(normal))
    if not denom:
        raise ValueError(f"no exact zero test: division by zero in {expr}")
    return field.new(numer, denom), classes


def _gamma_classes(expr: sp.Expr) -> tuple[sp.Expr, dict[sp.Dummy, sp.Expr]]:
    """``expr`` with each ``Gamma(a*s + b)`` written as its class representative
    ``Gamma(x)``, an independent symbol, times a rising factorial in ``s``;
    returns the rewritten expression and ``{representative: x}``.  The offset
    ``x - a*s`` lies in ``(0, 1]``: ``Gamma(x)`` is finite and nonzero at
    ``s = 0``, so any pole there sits in the rational factor, where it cancels
    (``s*Gamma(s/2)/Gamma(s/2 + 1/2)`` would read ``0*oo`` with ``[0, 1)``).

    Raises ``ValueError`` on a Gamma factor whose argument is not ``a*s + b``
    with ``a > 0`` and ``b`` rational.
    """
    classes: dict[sp.Expr, sp.Dummy] = {}
    normal = {}
    for g in expr.atoms(sp.gamma):
        arg = g.args[0]
        if not arg.has(S):
            continue
        b, slope = arg.as_independent(S, as_Add=True)
        a = slope / S
        if not (a.is_Rational and a > 0 and b.is_Rational):
            raise ValueError(f"no Gamma class for {g}: argument not a*s + b, a > 0 rational")
        n = -(-b.p // b.q) - 1
        x = a * S + b - n
        normal[g] = classes.setdefault(x, sp.Dummy("Gamma")) * sp.rf(x, n)
    return expr.xreplace(normal), {rep: x for x, rep in classes.items()}


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

    The factor is put in the Gamma normal form of ``_gamma_classes``.  Where it
    is regular, ``subs`` and ``diff`` give its two Taylor coefficients; only at
    a pole is it expanded with ``series``.  Raises :class:`DomainError` at a
    branch point.
    """
    normal, classes = _gamma_classes(factor)
    f = normal.xreplace({rep: sp.gamma(x) for rep, x in classes.items()})
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
    """Exact value and derivative at ``s = 0`` of ``Gamma(s - k) / Gamma(s)``.

    For ``k`` a nonnegative integer the ratio is the rational function
    ``1 / ((s-1)(s-2)...(s-k))``; for non-integer ``k`` the ratio vanishes at
    ``s = 0`` (simple zero from ``1/Gamma(s)``) with derivative ``Gamma(-k)``.
    """
    return _jet(sp.gamma(S - sp.Rational(k)) / sp.gamma(S), sp.Integer(0))


# ---------------------------------------------------------------------------
# Contour residues in the spectral parameter
# ---------------------------------------------------------------------------

def mu_residue(order: int) -> tuple[SFunction, int]:
    """Residue data for ``(1/2 pi i) oint mu^{-s} (mu - z)^{-order} dmu``.

    The contour encircles the ray where ``z`` lives; the result is
    ``prefactor(s) * z**(-s - shift)``.  Returns the ``SFunction`` prefactor
    and the integer ``shift = order - 1``.
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

@lru_cache(maxsize=1024)
def _zeta_kernel(sv: mp.mpf, dps: int, derivative: int) -> mp.mpf:
    """``mpmath.zeta`` at ``sv`` with ``dps`` working digits, memoized for the
    process: the numeric commands ask for the same few arguments many times."""
    with mp.workdps(dps):
        return mp.zeta(sv, derivative=derivative)


def _zeta(s, dps: int, derivative: int) -> mp.mpf:
    with mp.workdps(dps):
        sv = mp.mpf(s)
    if sv == 1:
        raise DomainError("zeta has a pole at s = 1")
    return +_zeta_kernel(sv, dps, derivative)


def riemann_zeta(s, dps: int = 40) -> mp.mpf:
    """Riemann zeta at real ``s != 1``, computed with ``dps`` working digits."""
    return _zeta(s, dps, 0)


def zeta_deriv_at(s0, dps: int = 40) -> mp.mpf:
    """Derivative of Riemann zeta at real ``s0 != 1`` with ``dps`` working digits."""
    return _zeta(s0, dps, 1)
