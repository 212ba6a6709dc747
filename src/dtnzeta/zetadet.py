"""Zeta functions and zeta-regularized determinants of model spectra.

Every model spectrum from :mod:`dtnzeta.spectra` gets a structured zeta
evaluation path:

* power spectra reduce exactly to a rescaled Riemann zeta
  (``mpmath.zeta`` through :mod:`dtnzeta.sfunc`);
* product-lattice spectra on ``[0, a] x S^1`` are split family by family into
  the lattice sum ``sum_{k,n>=1} (alpha^2 k^2 + beta^2 n^2)^{-s}`` plus its
  ``k = 0`` and zero-mode rows.  The lattice sum is resummed along the wider
  gap (Chowla--Selberg): the narrow direction is summed in closed form by the
  cotangent kernel ``interval_mode_sum``, which leaves two Riemann zeta terms
  and an exponentially convergent Bessel-K remainder of a few terms; at
  ``s = 0`` the analytic continuation of each family is used;
* cylinder DtN spectra pair each cross-section eigenvalue ``lam`` into the
  branches ``sqrt(lam) coth(x/2)`` and ``sqrt(lam) tanh(x/2)``,
  ``x = a sqrt(lam)``, whose product is ``lam``.  So the log-determinant is
  ``kernel_dim ln(2/a)`` plus that of the cross-section, and the zeta at 0 is
  ``kernel_dim + 2 zeta_base(0)``, both in closed form.  At ``s > 0`` the zeta
  is the zero-mode branch, twice the cross-section zeta at half argument, and
  a numerically summed correction over branch pairs.

``logdet_star`` is the zeta-regularized log-determinant ``-zeta'(0)`` with the
kernel excluded.  Every ``ZetaValue.error_bound`` is computed: a truncation
bound for the series that are cut off, plus the float64 rounding of the
magnitudes that are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
import sympy as sp

from .sfunc import riemann_zeta, zeta_deriv_at
from .spectra import DtnProductSpectrum, PowerSpectrum, ProductSpectrum

__all__ = [
    "ZetaValue",
    "zeta",
    "zeta_at_zero",
    "logdet_star",
    "interval_mode_sum",
    "verify_product_gluing",
    "zeta_zero_identity_sides",
]

_UNIT = 2.0 ** -53  # float64 unit roundoff
_KERNEL_ULP = 16  # accuracy of interval_mode_sum for t >= 1 and s <= 4, in ulp
_REMAINDER_DIGITS = 20  # Bessel-K remainder terms kept until e^{-2 pi r m} < 1e-20
# accepted cylinder lengths a, L: the lattice sums raise pi/a and 2 pi/L to
# powers up to 2s = 8 and square their ratio, which stays inside float64 here
_CYLINDER_RANGE = (1e-30, 1e30)


@dataclass(frozen=True)
class ZetaValue:
    """A numeric spectral value with an explicit error bound and provenance."""

    value: float
    error_bound: float
    method: str

    def __float__(self):
        return float(self.value)


def _float_rounding(val, magnitude=None) -> float:
    """Error bound of ``float(val)`` for an mpf computed in a few operations.

    Half an ulp for the conversion, plus a few working-precision roundings of
    ``magnitude`` (the largest quantity summed; ``|val|`` by default).
    """
    magnitude = abs(val) if magnitude is None else magnitude
    return abs(float(val)) * _UNIT + 8 * float(magnitude * mp.eps)


# ---------------------------------------------------------------------------
# Interval-mode sums
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _interval_sum_fn(s: int):
    """Vectorized closed form of ``sum_{k>=1} (k^2 + t)^{-s}`` for integer s >= 1.

    The cotangent identity ``sum 1/(k^2+t) = pi coth(pi sqrt t)/(2 sqrt t) -
    1/(2t)`` is differentiated symbolically in ``x = t^{-1/2}``,
    ``V = coth(pi sqrt t) - 1`` and ``Q = csch(pi sqrt t)^2``, so every
    derivative is a polynomial in ``(x, V, Q)``.  Its ``V, Q``-free part is the
    large-``t`` expansion ``c_s t^{1/2-s} - t^{-s}/2``; the rest is
    ``O(e^{-2 pi sqrt t})`` and is kept even where it is below an ulp of the
    total.  For ``t >= 1`` nothing overflows and the value is accurate to a
    few ulp; for small ``t`` the polynomial cancels catastrophically.
    """
    if s < 1:
        raise ValueError("closed interval-mode sum needs integer s >= 1")
    x, V, Q = sp.symbols("x V Q", positive=True)
    expr = sp.pi * x * (1 + V) / 2 - x ** 2 / 2
    for _ in range(s - 1):
        # d/dt with dx/dt = -x^3/2, dV/dt = -pi x Q/2, dQ/dt = -pi x (1 + V) Q
        expr = sp.expand(-x ** 3 / 2 * sp.diff(expr, x) - sp.pi * x * Q / 2 * sp.diff(expr, V)
                         - sp.pi * x * (1 + V) * Q * sp.diff(expr, Q))
    fn = sp.lambdify((x, V, Q), (-1) ** (s - 1) * expr / sp.factorial(s - 1), modules="numpy")

    def evaluate(tval):
        tval = np.asarray(tval, dtype=np.float64)
        z = 2.0 * np.pi * np.sqrt(tval)
        u, d = np.exp(-z), -np.expm1(-z)  # e^{-2 pi sqrt t} and 1 - e^{-2 pi sqrt t}
        return fn(1.0 / np.sqrt(tval), 2.0 * u / d, 4.0 * u / (d * d))

    return evaluate


def interval_mode_sum(s: int, t):
    """Exact-formula value of ``sum_{k>=1} (k^2 + t)^{-s}`` (vectorized in t).

    Raises ``ValueError`` for ``t < 1``, where the closed form cancels
    catastrophically (relative error 1e-4 at ``t = 1e-4``).
    """
    if np.any(np.asarray(t) < 1):
        raise ValueError("closed interval-mode sum is accurate only for t >= 1")
    return _interval_sum_fn(int(s))(t)


# ---------------------------------------------------------------------------
# Zeta evaluation per structural tag
# ---------------------------------------------------------------------------

def _zeta_affine(spec: PowerSpectrum, s, dps: int = 30) -> ZetaValue:
    with mp.workdps(dps):
        val = spec.mult * mp.power(spec.coeff, -mp.mpf(s)) * riemann_zeta(spec.power * mp.mpf(s), dps)
        return ZetaValue(float(val), _float_rounding(val), "affine-closed-form")


def _lattice_sum(s: int, alpha: float, beta: float, zeta_odd: float,
                 zeta_even: float) -> tuple[float, float]:
    """``sum_{k,n>=1} (alpha^2 k^2 + beta^2 n^2)^{-s}`` with a computed error bound.

    The sum is symmetric in ``alpha, beta``; with ``g = min``, ``r = max/g >= 1``
    and the narrow direction summed by the cotangent kernel, it is

    ``g^{-2s} [c_s r^{1-2s} zeta(2s-1) - r^{-2s} zeta(2s)/2 + sum_{m>=1} R_s(r^2 m^2)]``

    with ``c_s = sqrt(pi) Gamma(s-1/2) / (2 Gamma(s))`` and the Bessel-K
    remainder ``R_s(t) = interval_mode_sum(s, t) - c_s t^{1/2-s} + t^{-s}/2``
    (Chowla & Selberg, PNAS 35, 1949).  ``zeta_odd``/``zeta_even`` are
    ``zeta(2s-1)``/``zeta(2s)``.
    """
    g = min(alpha, beta)
    r = max(alpha, beta) / g
    c_s = math.sqrt(math.pi) * math.gamma(s - 0.5) / (2 * math.gamma(s))
    m_last = math.ceil(_REMAINDER_DIGITS * math.log(10) / (2 * math.pi * r)) + 1
    t = (r * np.arange(1, m_last + 1, dtype=np.float64)) ** 2
    kernel = interval_mode_sum(s, t)
    power_half, power_full = c_s * t ** (0.5 - s), 0.5 * t ** (-s)
    rem = kernel - (power_half - power_full)
    lead = (c_s * r ** (1 - 2 * s) * zeta_odd, -0.5 * r ** (-2 * s) * zeta_even)
    total = math.fsum(lead) + math.fsum(rem[:-1])
    # rounding of each remainder term: the kernel's ulp, and a few for the powers
    summed = kernel + power_half + power_full
    term_err = 2 * _KERNEL_ULP * _UNIT * summed
    # R_s(t) e^{2 pi sqrt t} is nonincreasing (Bessel-K form), so the terms
    # m >= m_last are below a geometric series from the computed R_s at m_last
    trunc = (abs(rem[-1]) + term_err[-1]) / -math.expm1(-2 * math.pi * r)
    # g, r and c_s carry one rounding each, amplified by the power 2s
    magnitude = abs(lead[0]) + abs(lead[1]) + float(np.sum(summed[:-1]))
    rounding = float(np.sum(term_err[:-1])) + (m_last + 4 * s + 8) * _UNIT * magnitude
    scale = g ** (-2 * s)
    return scale * total, float(scale * (trunc + rounding))


def _zeta_product(spec: ProductSpectrum, s, dps: int = 30) -> ZetaValue:
    s = float(s)
    if s == 0:
        return _zeta_product_at_zero(spec, dps)
    if s not in (2, 3, 4):
        raise ValueError("product-lattice zeta implemented at s in {2, 3, 4} and s = 0")
    s = int(s)
    alpha = math.pi / spec.a
    zeta_odd = float(riemann_zeta(2 * s - 1, dps))
    zeta_even = float(riemann_zeta(2 * s, dps))
    terms = []
    err = 0.0
    for base, k0 in spec._families():
        if base.power != 2:
            raise ValueError("product-lattice zeta needs a cross-section spectrum coeff * n**2")
        beta = math.sqrt(base.coeff)
        lattice, lattice_err = _lattice_sum(s, alpha, beta, zeta_odd, zeta_even)
        terms.append(base.mult * lattice)
        err += base.mult * lattice_err
        if k0 == 0:
            # the k = 0 row: the cross-section eigenvalues themselves
            terms.append(base.mult * beta ** (-2 * s) * zeta_even)
        if base.kernel_dim:
            # zero cross-section family: sum_{k>=1} ((k pi/a)^2)^{-s}
            terms.append(base.kernel_dim * alpha ** (-2 * s) * zeta_even)
    magnitude = sum(abs(v) for v in terms)
    err += (len(terms) + 4 * s + 4) * _UNIT * magnitude
    return ZetaValue(math.fsum(terms), err, "chowla-selberg-lattice")


def _zeta_product_at_zero(spec: ProductSpectrum, dps: int = 30) -> ZetaValue:
    """Analytic continuation at ``s = 0`` of a product-lattice zeta.

    Each interval-mode family continues to ``-(1/2)`` times its weight at 0:
    a positive cross-section eigenvalue family of zeta ``Z`` contributes
    ``-(1/2) Z(0)``, a zero-mode family of dimension ``d`` contributes
    ``-(d/2)``; starting the interval modes at ``k = 0`` adds the
    cross-section zeta at 0 back once.
    """
    with mp.workdps(dps):
        total = magnitude = mp.mpf(0)
        for base, k0 in spec._families():
            base_zeta0 = base.mult * riemann_zeta(0, dps)  # continuation of positive part
            total += -mp.mpf(base.kernel_dim) / 2 - base_zeta0 / 2
            magnitude += mp.mpf(base.kernel_dim) / 2 + abs(base_zeta0) / 2
            if k0 == 0:
                total += base_zeta0
                magnitude += abs(base_zeta0)
        return ZetaValue(float(total), _float_rounding(total, magnitude), "family-continuation")


def _zeta_dtn_at_zero(spec: DtnProductSpectrum, dps: int = 30) -> ZetaValue:
    """DtN zeta at 0 in closed form: ``kernel_dim + 2 zeta_base(0)``.

    The branch-pair corrections to twice the cross-section zeta at ``s/2``
    (see ``_zeta_dtn``) vanish term by term at ``s = 0``, and the zero-mode
    branch ``(2/a)^{-s}`` is 1 there.
    """
    with mp.workdps(dps):
        base = _zeta_affine(spec.base_q, 0, dps)
        total = spec.kernel_dim + 2 * mp.mpf(base.value)
        magnitude = spec.kernel_dim + 2 * abs(base.value)
        err = 2 * base.error_bound + _float_rounding(total, magnitude)
        return ZetaValue(float(total), err, "dtn-closed-form")


_DTN_MAX_TERMS = 10_000
_DTN_TOL = 1e-25  # branch-pair corrections kept until both c are below this


def _zeta_dtn(spec: DtnProductSpectrum, s, dps: int = 30) -> ZetaValue:
    """DtN zeta at ``s > 0``: the zero-mode branch ``(2/a)^{-s}``, twice the
    cross-section zeta at ``s/2``, and the branch-pair corrections
    ``lam^{-s/2} ((1 + c_plus)^{-s} + (1 - c_minus)^{-s} - 2)`` with
    ``c_plus = 2/(e^x - 1)``, ``c_minus = 2/(e^x + 1)``, ``x = a sqrt(lam)``.

    The corrections are summed mode by mode until both ``c`` fall below
    ``_DTN_TOL``; raises ``ValueError`` if that takes more than ``_DTN_MAX_TERMS``
    cross-section modes (a very short cylinder).
    """
    if s <= 0:
        raise ValueError("DtN zeta series implemented at s > 0 (closed form at s = 0)")
    base = spec.base_q
    if base.power < 2:
        raise ValueError("DtN branch-pair tail needs a cross-section power >= 2")
    with mp.workdps(dps):
        sv = mp.mpf(s)
        total = spec.kernel_dim * mp.power(2 / mp.mpf(spec.a), -sv)
        base_half = _zeta_affine(base, sv / 2, dps)
        magnitude = abs(total) + 2 * abs(base_half.value)
        total += 2 * mp.mpf(base_half.value)
        corr = mp.mpf(0)
        for n in range(1, _DTN_MAX_TERMS + 1):
            lam = mp.mpf(base.coeff) * n ** base.power
            x = spec.a * mp.sqrt(lam)
            cp = 2 / mp.expm1(x)
            cm = 2 / (mp.e ** x + 1)
            weight = base.mult * mp.power(lam, -sv / 2)
            corr += weight * (mp.power(1 + cp, -sv) + mp.power(1 - cm, -sv) - 2)
            magnitude += 2 * weight
            if cp < _DTN_TOL and cm < _DTN_TOL:
                break
        else:
            raise ValueError(
                f"DtN branch-pair series not below {_DTN_TOL:g} after {_DTN_MAX_TERMS} terms "
                f"(a = {spec.a:g}; last correction {float(cp):.3g})")
        total += corr
        # past mode n, x grows by at least x_1 = a sqrt(coeff) per mode (power
        # >= 2), so c_plus falls at least geometrically with ratio e^{-x_1};
        # c_minus < c_plus < 1/2, so each left-out term is at most
        # mult lam^{-s/2} s (c_plus + 2 c_minus), and lam^{-s/2} decreases
        lam = base.coeff * (n + 1) ** base.power
        x = spec.a * math.sqrt(lam)
        w = 2 * math.exp(-x) / -math.expm1(-x) / -math.expm1(-spec.a * math.sqrt(base.coeff))
        tail = 3 * float(sv) * base.mult * lam ** (-float(sv) / 2) * w
        err = tail + 2 * base_half.error_bound + _float_rounding(total, magnitude)
        return ZetaValue(float(total), err, "dtn-branch-split")


def zeta(stream, s, dps: int = 30) -> ZetaValue:
    """Spectral zeta function of a model spectrum at real ``s`` (kernel excluded)."""
    if isinstance(stream, PowerSpectrum):
        return _zeta_affine(stream, s, dps)
    if isinstance(stream, ProductSpectrum):
        return _zeta_product(stream, s, dps)
    if isinstance(stream, DtnProductSpectrum):
        return _zeta_dtn_at_zero(stream, dps) if s == 0 else _zeta_dtn(stream, s, dps)
    raise TypeError(f"unknown spectrum {type(stream)!r}")


def zeta_at_zero(stream, dps: int = 30) -> ZetaValue:
    return zeta(stream, 0, dps)


def logdet_star(stream, dps: int = 30) -> ZetaValue:
    """Zeta-regularized log-determinant ``-zeta'(0)``, kernel excluded."""
    with mp.workdps(dps):
        if isinstance(stream, PowerSpectrum):
            # -d/ds [mult c^{-s} zeta_R(p s)] at 0
            log_part = mp.log(stream.coeff) * riemann_zeta(0, dps)
            zeta_part = stream.power * zeta_deriv_at(0, dps)
            val = stream.mult * (log_part - zeta_part)
            err = _float_rounding(val, stream.mult * (abs(log_part) + abs(zeta_part)))
            return ZetaValue(float(val), err, "affine-closed-form")
        if isinstance(stream, DtnProductSpectrum):
            # each branch pair multiplies to lam, so the pairs give logdet*
            # of the cross-section and the zero-mode branches ln(2/a) each
            base = logdet_star(stream.base_q, dps)
            part = stream.kernel_dim * mp.log(2 / mp.mpf(stream.a))
            magnitude = abs(part) + abs(base.value)
            part += base.value
            err = base.error_bound + _float_rounding(part, magnitude)
            return ZetaValue(float(part), err, "dtn-closed-form")
    raise TypeError(f"log-determinant not implemented for {type(stream)!r}")


# ---------------------------------------------------------------------------
# Verification drivers on the cylinder
# ---------------------------------------------------------------------------

def _check_cylinder(a: float, L: float) -> None:
    lo, hi = _CYLINDER_RANGE
    if not (lo <= a <= hi and lo <= L <= hi):
        raise ValueError(f"cylinder parameters a = {a:g}, L = {L:g} outside "
                         f"[{lo:g}, {hi:g}], the float64 range of the lattice sums")


def verify_product_gluing(a: float, L: float, q: int, dps: int = 30) -> dict:
    """All cylinder checks for ``[0, a] x S^1_L`` on degree-``q`` forms.

    Returns a dict of labelled residuals:

    * ``logdet_identity``: log-det of the DtN operator minus its zero-mode and
      cross-section parts.  It is also the determinant-gluing residual: with
      ``a0 = 0``, ``ln det S = kernel_dim ln(2/a)`` and the absolute minus
      Dirichlet log-det equal to that of the cross-section, the gluing
      identity is this same difference;
    * ``zeta_diff_s{2,3}``: absolute/Dirichlet zeta difference at ``s`` minus
      the cross-section zeta;
    * ``zeta_q_at_zero``: DtN zeta at 0 (for comparison with its closed value
      ``kernel_dim + 2 * cross-section zeta at 0``).

    On a product cylinder the log-det identity (``dtn-logdet-identity`` and
    ``determinant-gluing``) and the DtN zeta at 0 (``dtn-zeta-at-zero``) hold
    by construction: ``logdet_star`` and ``zeta_at_zero`` of the DtN spectrum
    are those closed forms, so the residuals are float rounding.

    Raises ``ValueError`` unless ``a`` and ``L`` lie in ``_CYLINDER_RANGE``.
    """
    _check_cylinder(a, L)
    from .spectra import (circle_form_spectrum, product_dtn_spectrum,
                          product_laplacian_spectra)
    out = {}
    with mp.workdps(dps):
        N = circle_form_spectrum(L, q)
        dtn = product_dtn_spectrum(a, L, q)
        sabs, sdir = product_laplacian_spectra(a, L, q)

        ld_q = logdet_star(dtn, dps)
        ld_n = logdet_star(N, dps)
        ell = N.kernel_dim
        out["logdet_identity"] = abs(ld_q.value - ell * float(mp.log(2 / mp.mpf(a)))
                                     - ld_n.value)

        for s in (2, 3):
            za = zeta(sabs, s, dps)
            zd = zeta(sdir, s, dps)
            zn = zeta(N, s, dps)
            out[f"zeta_diff_s{s}"] = abs(za.value - zd.value - zn.value)
            out[f"zeta_diff_s{s}_bound"] = za.error_bound + zd.error_bound + zn.error_bound

        out["zeta_q_at_zero"] = zeta_at_zero(dtn, dps).value
        out["zeta_q_at_zero_expected"] = ell + 2 * zeta_at_zero(N, dps).value
    return out


def zeta_zero_identity_sides(a: float, L: float, q: int, dps: int = 30) -> tuple[float, float]:
    """Both sides of the zeta-at-zero gluing identity, computed independently.

    LHS: DtN zeta at 0 plus the kernel dimension (closed form
    ``2 kernel_dim + 2 zeta_base(0)``).
    RHS: twice the difference of the continued absolute/Dirichlet Laplacian
    zetas at 0, with the kernel dimension added to the absolute term
    (family-continuation path).  Raises ``ValueError`` unless ``a`` and ``L``
    lie in ``_CYLINDER_RANGE``.
    """
    _check_cylinder(a, L)
    from .spectra import product_dtn_spectrum, product_laplacian_spectra
    dtn = product_dtn_spectrum(a, L, q)
    sabs, sdir = product_laplacian_spectra(a, L, q)
    ell = dtn.kernel_dim
    lhs = zeta_at_zero(dtn, dps).value + ell
    rhs = 2 * ((zeta_at_zero(sabs, dps).value + ell) - zeta_at_zero(sdir, dps).value)
    return lhs, rhs
