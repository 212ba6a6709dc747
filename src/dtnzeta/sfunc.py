"""Special-function kernels for the symbol-to-density pipeline.

This module provides the exact scalar ingredients used when a boundary symbol
expansion is turned into a spectral density:

* ``SFunction`` -- a sum of Gamma-function ratios and rational functions of
  ``s`` with its exact value and derivative at ``s = 0``, where the densities
  are read: each distinct ``s``-factor from its element of the field below,
  each Gamma class a Taylor polynomial.  A pole that does not cancel raises.
* ``exact_zero`` / ``rationalize`` -- the exact zero test and the one rational
  form: one walk takes ``expr`` to one element of a sparse rational-function
  field over QQ (``_field``, built without ``expand``), with each
  ``Gamma(a*s + b)`` written at its leaf as its class generator times a
  rising factorial (the package's only Gamma normalization).  That element
  decides zero, and, once the classes cancel, it is the one fraction in ``s``.
* ``gamma_ratio_at_zero`` -- value and derivative at ``s = 0`` of
  ``Gamma(s - k) / Gamma(s)``, from the same jet.
* ``mu_residue`` -- the contour residue ``(1/2pi i) oint mu^{-s} (mu - z)^{-j} dmu``
  expressed as a polynomial prefactor in ``s`` times a power of ``z``.
* ``xi_moment`` -- the exact monomial moment
  ``(2 pi)^{-d} int xi^e (1 + |xi|^2)^{-P} dxi`` over ``R^d``, a rational
  function of ``s`` whenever its Gamma ratio is one.
* ``riemann_zeta`` / ``zeta_deriv_at`` -- the Riemann zeta function and its
  derivative at a requested working precision (``mpmath.zeta``, memoized per
  argument, precision and order).

The exact kernels are pure, so each is memoized for the process with
``functools.lru_cache``: ``_field`` (bounded), ``_gamma_class``, ``_laurent``,
``gamma_ratio_at_zero``, ``mu_residue`` and ``xi_moment``.  A repeated zero
test or rational form of the same expression is a lookup, and the cached
results are shared, so no caller mutates them.
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
    """A meromorphic function of ``s``, read at ``s = 0``, where the densities
    are read: ``s``-free coefficients times rational functions of ``s`` and of
    the Gamma factors of ``exact_zero``, any other atom a :class:`DomainError`.
    """

    expr: sp.Expr

    def value_at(self) -> sp.Expr:
        """Exact value at ``s = 0`` (limit if removable)."""
        return _jet(self.expr)[0]

    def deriv_at(self) -> sp.Expr:
        """Exact derivative value at ``s = 0`` (limit if removable)."""
        return _jet(self.expr)[1]


# ---------------------------------------------------------------------------
# Exact zero test
# ---------------------------------------------------------------------------

def exact_zero(expr) -> bool:
    """Whether ``expr`` vanishes identically in ``s`` and in its free symbols.

    ``expr`` must be a rational function of ``s`` and of Gamma factors
    ``Gamma(a*s + b)`` with ``a > 0`` and ``b`` rational; its ``s``-free part
    may hold any constants (``pi``, ``log(2)``, ``EulerGamma``, ...) and
    symbols.  Each factor is written as its class generator times a rising
    factorial in ``s`` (see ``_gamma_class``), and ``expr`` is zero when its
    element of the rational-function field of ``_field`` is, where the class
    generators and the constants are independent generators.  A True verdict
    is exact, since it holds for any value of the generators; a relation
    among the constants or the class generators that this form does not
    apply could only turn a zero into a False, never the reverse.

    Raises :class:`DomainError` on any other ``s``-dependent atom, such as
    ``2**(-s)``, ``gamma(s**2)`` or ``polygamma(0, s)``.
    """
    return not _field(expr)


def rationalize(expr) -> sp.Expr:
    """One fraction of polynomials in ``s`` equal to ``expr``, a rational
    function of ``s`` and of Gamma factors whose classes must cancel: the
    field element of ``_field``, numerator over denominator, both free of
    common factors."""
    out = _field(expr).as_expr()
    if any(g.has(S) for g in out.atoms(sp.gamma)):
        raise ValueError(f"Gamma factors do not cancel in {expr}")
    return out


@lru_cache(maxsize=4096)
def _field(expr):
    """``expr`` as an element of the sparse rational-function field
    ``FracField(generators, QQ)``.

    The generators are the free symbols, the Gamma class generators and the
    constant atoms (``pi``, ``log(2)``, ...).  Each leaf is rewritten where it
    stands: ``Gamma(a*s + b)`` as its class generator times a rising factorial
    in ``s`` (:func:`_gamma_class`), and ``log`` of a rational, or of a product
    of rational powers of rationals, split over primes (:func:`_prime_logs`).
    An atom ``b`` that also occurs as ``b**(p/q)`` enters through the one
    generator ``t = b**(1/L)``, with ``L`` the least common denominator of its
    exponents, so that ``sqrt(pi)**2 - pi`` is zero; for a rational ``b`` the
    relation ``t**L = b`` is applied too, and for ``I`` the relation
    ``t**(2L) = -1``.  The expression tree is rebuilt as one numerator over one
    denominator in the polynomial ring, summing the terms over equal
    denominators first, and the field cancels that fraction once.  Nothing is
    expanded as a sympy expression.

    Raises :class:`DomainError` on any other ``s``-dependent atom, and
    ``ValueError`` on an infinity and on a division by zero.  Memoized for the
    last 4096 expressions; the element is shared between callers.
    """
    from sympy.polys.fields import FracField

    expr = sp.sympify(expr)
    roots: dict[sp.Expr, int] = {}  # generator atom -> common denominator L
    leaves: dict[sp.Expr, sp.Expr] = {}  # Gamma factor or log -> its rewritten form

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
        elif ((isinstance(e, sp.gamma) and e.has(S) and (new := _gamma_class(e)) != e)
              or (isinstance(e, sp.log) and not e.args[0].is_prime
                  and (new := _prime_logs(e.args[0])) is not None)):
            leaves[e] = new
            collect(new)
        else:
            roots.setdefault(e, 1)

    collect(expr)
    for atom, L in roots.items():
        # an s-dependent generator is s itself or a Gamma class generator
        if (atom.has(S) and (L > 1 or atom != S and not isinstance(atom, sp.gamma))
                or atom.is_finite is False):
            raise DomainError(f"no exact zero test: {atom} is not a rational function "
                             "of s and Gamma(a*s + b)")
    bases = sorted(roots, key=sp.default_sort_key)
    field = FracField([b ** sp.Rational(1, roots[b]) for b in bases], sp.QQ)
    ring = field.ring
    gens = dict(zip(bases, ring.gens))

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
        if e in leaves:
            return rebuild(leaves[e])
        if e in gens:
            return gens[e] ** roots[e], ring.one
        if e.base in gens:
            return power((gens[e.base], ring.one), int(e.exp * roots[e.base]))
        return power(rebuild(e.base), int(e.exp))

    # the generator t = b**(1/L) is algebraic for a rational b (t**L = b) and for I
    relations = [gens[b] ** L - b if b.is_Rational else gens[b] ** (2 * L) + 1
                 for b, L in roots.items() if b.is_Rational or b is sp.I]
    numer, denom = (p.rem(relations) for p in rebuild(expr))
    if not denom:
        raise ValueError(f"no exact zero test: division by zero in {expr}")
    return field.new(numer, denom)


def _prime_logs(arg: sp.Expr) -> sp.Expr | None:
    """``log(arg)`` as ``sum_p k_p log(p)`` over primes ``p``, for ``arg`` a
    product of rational powers ``r**(a/b)`` of positive rationals ``r``
    (``log(sqrt(3)) = log(3)/2``); ``None`` for any other ``arg``."""
    logs = []
    for factor in sp.Mul.make_args(arg):
        base, exp = factor.as_base_exp()
        if not (base.is_Rational and base > 0 and exp.is_Rational):
            return None
        logs += [exp * k * sp.log(p) for p, k in sp.factorrat(base).items()]
    return sp.Add(*logs)


@lru_cache(maxsize=None)
def _gamma_class(g: sp.gamma) -> sp.Expr:
    """``g = Gamma(a*s + b)`` as its class generator ``Gamma(x)`` times the
    rising factorial ``rf(x, n)``, with the offset ``x - a*s`` in ``(0, 1]``:
    ``Gamma(x)`` is finite and nonzero at ``s = 0``, so any pole there sits in
    the rational factor, where it cancels (``s*Gamma(s/2)/Gamma(s/2 + 1/2)``
    would read ``0*oo`` with ``[0, 1)``).  A class generator is its own form.

    Raises :class:`DomainError` on a Gamma factor whose argument is not ``a*s + b``
    with ``a > 0`` and ``b`` rational.
    """
    b, slope = g.args[0].as_independent(S, as_Add=True)
    a = slope / S
    if not (a.is_Rational and a > 0 and b.is_Rational):
        raise DomainError(f"no Gamma class for {g}: argument not a*s + b, a > 0 rational")
    n = -(-b.p // b.q) - 1
    x = a * S + b - n
    return sp.gamma(x) * sp.rf(x, n)


# ---------------------------------------------------------------------------
# Jets at s = 0
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _laurent(factor: sp.Expr) -> tuple[tuple[int, sp.Expr], ...]:
    """Laurent coefficients ``(k, c_k)`` (``k <= 1``) at ``s = 0`` of ``factor``,
    the element ``N/D`` of ``_field`` with pole order ``p``, the ``s``-adic
    valuation of ``D``.  Each ``Gamma(a*s + b)`` becomes the ring polynomial
    ``Gamma(b) exp(sum_k psi^(k-1)(b) (a*s)^k / k!)`` to order ``p + 1``, with
    ``Gamma(b)`` valued at the end, and ``N`` is divided by ``D / s**p`` as power
    series.  Raises where ``_field`` raises, and :class:`DomainError` where
    ``D / s**p`` vanishes at ``s = 0``."""
    from sympy.polys.rings import PolyRing

    element = _field(factor)
    symbols = element.field.symbols
    p = min(m[symbols.index(S)] for m in element.denom.itermonoms()) if S in symbols else 0
    # each class generator Gamma(a*s + b) with its offset b and slope a*s
    classes = {g: g.args[0].as_coeff_Add() for g in symbols if g.has(S) and g != S}
    # the values psi^(k)(b), never numbers, are generators of their own
    psi = {(b, k): sp.polygamma(k, b) for b, _ in classes.values() for k in range(p + 1)}
    ring = PolyRing(tuple(dict.fromkeys((S, *symbols, *psi.values()))), sp.QQ)
    gens = dict(zip(ring.symbols, ring.gens))
    s, taylor = gens[S], []
    for g, (b, slope) in classes.items():
        log = sum((gens[psi[b, k]] * (s * slope.coeff(S)) ** (k + 1) / sp.factorial(k + 1)
                   for k in range(p + 1)), ring.zero)
        exp = sum((log ** j / sp.factorial(j) for j in range(p + 2)), ring.zero)
        taylor.append((gens[g], gens[g] * exp))
    numer, denom = (f.set_ring(ring).compose(taylor) for f in (element.numer, element.denom))
    # 1/denom = sum_i rest**i / (lead s**p)**(i + 1), with rest = lead s**p - denom = O(s**(p+1))
    lead = denom.coeff_wrt(s, p)
    rest, terms = lead * s ** p - denom, [numer]
    for _ in range(p + 1):
        terms.append(terms[-1] * rest)
    values = {g: sp.gamma(b) for g, (b, _) in classes.items()}
    if exact_zero(d0 := lead.as_expr().xreplace(values)):
        raise DomainError(f"no jet of {factor} at s = 0: D / s**{p} vanishes there")
    return tuple((k, sum(t.coeff_wrt(s, k + p * (i + 1)).as_expr().xreplace(values) / d0 ** (i + 1)
                         for i, t in enumerate(terms))) for k in range(-p, 2))


def _jet(expr: sp.Expr) -> tuple[sp.Expr, sp.Expr]:
    """Value and first derivative at ``s = 0`` of ``expr = sum_i c_i f_i(s)``,
    with the terms grouped by their ``s``-factor ``f_i``.  Raises
    :class:`DomainError` unless the pole part vanishes."""
    groups: dict[sp.Expr, sp.Expr] = {}
    for term in sp.Add.make_args(expr):
        coeff, factor = term.as_independent(S, as_Add=False)
        groups[factor] = groups.get(factor, sp.Integer(0)) + coeff
    jet: dict[int, sp.Expr] = {}
    for factor, coeff in groups.items():
        for k, c in _laurent(factor):
            jet[k] = jet.get(k, sp.Integer(0)) + coeff * c
    if any(k < 0 and not exact_zero(c) for k, c in jet.items()):
        raise DomainError("pole of SFunction at s = 0")
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
    return _jet(sp.gamma(S - sp.Rational(k)) / sp.gamma(S))


# ---------------------------------------------------------------------------
# Contour residues in the spectral parameter
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def mu_residue(order: int) -> tuple[sp.Expr, int]:
    """Residue data for ``(1/2 pi i) oint mu^{-s} (mu - z)^{-order} dmu``.

    The contour encircles the ray where ``z`` lives; the result is
    ``prefactor(s) * z**(-s - shift)``.  Returns the prefactor, a polynomial
    in ``s``, and the integer ``shift = order - 1``.
    """
    if order < 1:
        raise DomainError("pole order must be >= 1")
    # (1/k!) d^k/dmu^k mu^{-s} at mu = z, with k = order - 1,
    # = (-1)^k (s)_k / k! * z^{-s-k}
    k = order - 1
    return sp.expand((-1) ** k * sp.rf(S, k) / sp.factorial(k)), k


# ---------------------------------------------------------------------------
# Momentum-space moments
# ---------------------------------------------------------------------------

def xi_moment(dim: int, exponents, p_expr) -> sp.Expr:
    """Exact value of ``(2 pi)^{-dim} int_{R^dim} prod xi_i^{e_i} (1+|xi|^2)^{-P} dxi``.

    Parameters
    ----------
    dim : dimension of the integration variable.
    exponents : monomial exponents ``(e_1, ..., e_dim)``, any sequence of ints;
        any odd entry gives 0.
    p_expr : the exponent ``P`` as a sympy expression in ``s`` (or a constant).

    Returns
    -------
    Exact sympy expression in ``s``:
    ``(2 pi)^{-d} [prod Gamma((e_i+1)/2)] Gamma(P - A - d/2) / Gamma(P)`` with
    ``A = sum e_i / 2``.  When ``n = A + d/2`` is a positive integer (every
    moment with ``d = 2``) the Gamma ratio is written as the rational function
    ``1 / rf(P - n, n)``, so the moment reaches ``_field`` with no Gamma class
    to rewrite.  Memoized per ``(dim, tuple(exponents), P)``.

    Raises
    ------
    DivergentMomentError
        if ``P`` is independent of ``s`` and ``2P <= sum e_i + dim``, or if the
        coefficient of ``s`` in ``P`` is not positive when ``P`` depends on ``s``.
    """
    return _xi_moment(dim, tuple(exponents), sp.sympify(p_expr))


@lru_cache(maxsize=None)
def _xi_moment(dim: int, exponents: tuple[int, ...], P: sp.Expr) -> sp.Expr:
    if len(exponents) != dim:
        raise ValueError("exponent tuple length must equal dim")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be nonnegative")
    if any(e % 2 == 1 for e in exponents):
        return sp.Integer(0)
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
    n = A + sp.Rational(dim, 2)
    if n.is_Integer and n > 0:
        return (2 * sp.pi) ** (-dim) * gam_prod / sp.rf(P - n, n)
    return (2 * sp.pi) ** (-dim) * gam_prod * sp.gamma(P - n) / sp.gamma(P)


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
