"""Zeta functions and zeta-regularized determinants of model spectra.

Every model spectrum from :mod:`dtnzeta.spectra` gets a structured zeta
evaluation path:

* power spectra reduce exactly to a rescaled Riemann zeta
  (``mpmath.zeta`` through :mod:`dtnzeta.sfunc`);
* product-lattice spectra are summed family-by-family: interval-mode sums
  at integer argument come from exact derivatives of the cotangent identity
  ``sum 1/(k^2+t) = pi coth(pi sqrt t)/(2 sqrt t) - 1/(2t)``, with integral
  tail bounds over the truncated cross-section modes; at ``s = 0`` the
  analytic continuation of each family is used;
* cylinder DtN spectra split into the zero-mode branch, twice the
  cross-section zeta at half argument, and a numerically summed correction
  over branch pairs.

``logdet_star`` is the zeta-regularized log-determinant ``-zeta'(0)`` with the
kernel excluded.  All numerics carry explicit error bounds.
"""

from __future__ import annotations

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
    "interval_mode_sum_direct",
    "verify_product_gluing",
    "zeta_zero_identity_sides",
]


@dataclass(frozen=True)
class ZetaValue:
    """A numeric spectral value with an explicit error bound and provenance."""

    value: float
    error_bound: float
    method: str

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# Interval-mode sums
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _interval_sum_fn(s: int):
    """Vectorized closed form of ``sum_{k>=1} (k^2 + t)^{-s}`` for integer s >= 1.

    Obtained by differentiating the cotangent identity symbolically; the
    hyperbolic cotangent is written via ``exp(-2 pi sqrt t)`` so that large
    arguments underflow gracefully.
    """
    if s < 1:
        raise ValueError("closed interval-mode sum needs integer s >= 1")
    t = sp.Symbol("t", positive=True)
    u = sp.Symbol("u", positive=True)  # stands for exp(-2 pi sqrt(t))
    coth = (1 + u) / (1 - u)
    f = sp.pi * coth / (2 * sp.sqrt(t)) - 1 / (2 * t)
    # total d/dt with the exponential kept as an explicit variable, so the
    # lambdified result is rational in (t, u) and u underflows cleanly to 0
    du_dt = -sp.pi * u / sp.sqrt(t)
    expr = f
    for _ in range(s - 1):
        expr = sp.cancel(sp.diff(expr, t) + du_dt * sp.diff(expr, u))
    expr = (-1) ** (s - 1) * expr / sp.factorial(s - 1)
    fn = sp.lambdify((t, u), expr, modules="numpy")

    def evaluate(tval):
        tval = np.asarray(tval, dtype=np.float64)
        uval = np.exp(-2.0 * np.pi * np.sqrt(tval))
        return fn(tval, uval)

    return evaluate


def interval_mode_sum(s: int, t):
    """Exact-formula value of ``sum_{k>=1} (k^2 + t)^{-s}`` (vectorized in t)."""
    return _interval_sum_fn(int(s))(t)


def interval_mode_sum_direct(s: float, t: float, kmax: int = 200_000) -> tuple[float, float]:
    """Direct truncated evaluation with an integral tail bound (cross-check)."""
    k = np.arange(1, kmax + 1, dtype=np.float64)
    val = float(np.sum((k * k + t) ** (-s)))
    # the integrand is decreasing, so the tail is bounded by the integral from
    # kmax; for s > 1 bound the integral via x/kmax >= 1, for s = 1 drop t
    if s > 1:
        tail = (kmax ** 2 + t) ** (1.0 - s) / (2 * kmax * (s - 1.0))
    else:
        tail = 1.0 / kmax
    return val, float(tail)


# ---------------------------------------------------------------------------
# Zeta evaluation per structural tag
# ---------------------------------------------------------------------------

def _zeta_affine(spec: PowerSpectrum, s, dps: int = 30) -> ZetaValue:
    with mp.workdps(dps):
        val = spec.mult * mp.power(spec.coeff, -mp.mpf(s)) * riemann_zeta(spec.power * mp.mpf(s), dps)
        return ZetaValue(float(val), 0.0, "affine-closed-form")


def _product_family_sum(spec: ProductSpectrum, base: PowerSpectrum, k0: int,
                        s: float, nmax: int) -> tuple[float, float]:
    """Family sum ``sum_{lam in base, lam>0} mult * Z_s(lam)`` with tail bound.

    ``Z_s(lam) = sum_{k >= k0} ((k pi / a)^2 + lam)^{-s}``; ``k0`` in {0, 1}.
    """
    scale = (spec.a / np.pi) ** 2
    n = np.arange(1, nmax + 1, dtype=np.float64)
    lams = base.coeff * n ** base.power
    tvals = lams * scale
    core = interval_mode_sum(int(s), tvals) * scale ** s
    if k0 == 0:
        core = core + lams ** (-s)
    total = float(base.mult * np.sum(core))
    # tail over n > nmax: mult * [scale^s * c_s * t^{1/2-s} (+ lam^{-s} if k0=0)]
    c_s = float(mp.sqrt(mp.pi) / 2 * mp.gamma(s - 0.5) / mp.gamma(s))
    # integral bound on sum over n > nmax of (coeff n^power)^{1/2-s} etc.
    def _power_tail(expo: float) -> float:
        # sum_{n>nmax} (coeff * n^power)^{-expo} <= coeff^-expo * nmax^(1-p*expo)/(p*expo-1)
        p = base.power
        assert p * expo > 1
        return base.coeff ** (-expo) * float(nmax) ** (1 - p * expo) / (p * expo - 1)
    tail = base.mult * (scale ** s * c_s * scale ** (0.5 - s) * _power_tail(s - 0.5))
    if k0 == 0:
        tail += base.mult * _power_tail(s)
    return total, float(tail)


def _zeta_product(spec: ProductSpectrum, s, dps: int = 30, nmax: int = 400_000) -> ZetaValue:
    s = float(s)
    if s == 0:
        return _zeta_product_at_zero(spec, dps)
    if abs(s - round(s)) > 0 or s < 2:
        raise ValueError("product-lattice zeta implemented at integer s >= 2 and s = 0")
    total = 0.0
    err = 0.0
    for base, k0 in spec._families():
        v, e = _product_family_sum(spec, base, k0, s, nmax)
        total += v
        err += e
        if base.kernel_dim:
            # zero cross-section family: sum_{k>=1} ((k pi/a)^2)^{-s}
            with mp.workdps(dps):
                total += base.kernel_dim * float(
                    mp.power(spec.a / mp.pi, 2 * s) * riemann_zeta(2 * s, dps))
    return ZetaValue(total, err, "family-cotangent-sum")


def _zeta_product_at_zero(spec: ProductSpectrum, dps: int = 30) -> ZetaValue:
    """Analytic continuation at ``s = 0`` of a product-lattice zeta.

    Each interval-mode family continues to ``-(1/2)`` times its weight at 0:
    a positive cross-section eigenvalue family of zeta ``Z`` contributes
    ``-(1/2) Z(0)``, a zero-mode family of dimension ``d`` contributes
    ``-(d/2)``; starting the interval modes at ``k = 0`` adds the
    cross-section zeta at 0 back once.
    """
    with mp.workdps(dps):
        total = mp.mpf(0)
        for base, k0 in spec._families():
            base_zeta0 = base.mult * riemann_zeta(0, dps)  # continuation of positive part
            total += -mp.mpf(base.kernel_dim) / 2 - base_zeta0 / 2
            if k0 == 0:
                total += base_zeta0
        return ZetaValue(float(total), 0.0, "family-continuation")


_DTN_MAX_TERMS = 10_000


def _dtn_correction_terms(spec: DtnProductSpectrum, dps: int, tol: float = 1e-25):
    """Branch-pair corrections ``(lam, mult, c_plus, c_minus)`` until negligible.

    Raises ``ValueError`` if the corrections are still above ``tol`` after
    ``_DTN_MAX_TERMS`` cross-section modes (a very short cylinder).
    """
    out = []
    with mp.workdps(dps):
        for n in range(1, _DTN_MAX_TERMS + 1):
            lam = mp.mpf(spec.base_q.coeff) * n ** spec.base_q.power
            x = spec.a * mp.sqrt(lam)
            cp = 2 / mp.expm1(x)
            cm = 2 / (mp.e ** x + 1)
            out.append((lam, spec.base_q.mult, cp, cm))
            if cp < tol and cm < tol:
                return out
    raise ValueError(
        f"DtN branch-pair series not below {tol:g} after {_DTN_MAX_TERMS} terms "
        f"(a = {spec.a:g}; last correction {float(cp):.3g})")


def _zeta_dtn(spec: DtnProductSpectrum, s, dps: int = 30) -> ZetaValue:
    with mp.workdps(dps):
        sv = mp.mpf(s)
        total = spec.kernel_dim * mp.power(2 / mp.mpf(spec.a), -sv)
        base_half = _zeta_affine(spec.base_q, sv / 2, dps)
        total += 2 * mp.mpf(base_half.value)
        corr = mp.mpf(0)
        for lam, mult, cp, cm in _dtn_correction_terms(spec, dps):
            corr += mult * mp.power(lam, -sv / 2) * (
                mp.power(1 + cp, -sv) + mp.power(1 - cm, -sv) - 2)
        total += corr
        return ZetaValue(float(total), float(mp.mpf(10) ** (-dps + 5)), "dtn-branch-split")


def zeta(stream, s, dps: int = 30) -> ZetaValue:
    """Spectral zeta function of a model spectrum at real ``s`` (kernel excluded)."""
    if isinstance(stream, PowerSpectrum):
        return _zeta_affine(stream, s, dps)
    if isinstance(stream, ProductSpectrum):
        return _zeta_product(stream, s, dps)
    if isinstance(stream, DtnProductSpectrum):
        return _zeta_dtn(stream, s, dps)
    raise TypeError(f"unknown spectrum {type(stream)!r}")


def zeta_at_zero(stream, dps: int = 30) -> ZetaValue:
    return zeta(stream, 0, dps)


def logdet_star(stream, dps: int = 30) -> ZetaValue:
    """Zeta-regularized log-determinant ``-zeta'(0)``, kernel excluded."""
    with mp.workdps(dps):
        if isinstance(stream, PowerSpectrum):
            # -d/ds [mult c^{-s} zeta_R(p s)] at 0
            val = stream.mult * (mp.log(stream.coeff) * riemann_zeta(0, dps)
                                 - stream.power * zeta_deriv_at(0, dps))
            return ZetaValue(float(val), 0.0, "affine-closed-form")
        if isinstance(stream, DtnProductSpectrum):
            part = stream.kernel_dim * mp.log(2 / mp.mpf(stream.a))
            part += logdet_star(stream.base_q, dps).value
            corr = mp.mpf(0)
            for lam, mult, cp, cm in _dtn_correction_terms(stream, dps):
                corr += mult * mp.log((1 + cp) * (1 - cm))
            part += corr
            return ZetaValue(float(part), float(mp.mpf(10) ** (-dps + 5)),
                             "dtn-branch-split")
    raise TypeError(f"log-determinant not implemented for {type(stream)!r}")


# ---------------------------------------------------------------------------
# Verification drivers on the cylinder
# ---------------------------------------------------------------------------

def verify_product_gluing(a: float, L: float, q: int, dps: int = 30) -> dict:
    """All cylinder checks for ``[0, a] x S^1_L`` on degree-``q`` forms.

    Returns a dict of labelled residuals:

    * ``logdet_identity``: log-det of the DtN operator minus its zero-mode and
      cross-section parts (analytically zero);
    * ``zeta_diff_s{2,3}``: absolute/Dirichlet zeta difference at ``s`` minus
      the cross-section zeta;
    * ``zeta_q_at_zero``: DtN zeta at 0 (for comparison with its closed value
      ``kernel_dim + 2 * cross-section zeta at 0``);
    * ``gluing_residual``: the determinant-gluing identity residual with the
      Gram determinant evaluated in closed form.
    """
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

        zq0 = zeta_at_zero(dtn, dps)
        out["zeta_q_at_zero"] = zq0.value
        out["zeta_q_at_zero_expected"] = ell + 2 * zeta_at_zero(N, dps).value

        # determinant-gluing identity: (logdet_abs* - logdet_D) - (a0 - ln det S + logdet_Q*)
        # with a0 = 0 for a product and ln det S = ell * ln(2/a)
        lhs = ld_n.value  # exact difference of the two sides of the cylinder
        rhs = 0.0 - ell * float(mp.log(2 / mp.mpf(a))) + ld_q.value
        out["gluing_residual"] = abs(lhs - rhs)
    return out


def zeta_zero_identity_sides(a: float, L: float, q: int, dps: int = 30) -> tuple[float, float]:
    """Both sides of the zeta-at-zero gluing identity, computed independently.

    LHS: DtN zeta at 0 plus the kernel dimension (branch-split path).
    RHS: twice the difference of the continued absolute/Dirichlet Laplacian
    zetas at 0, with the kernel dimension added to the absolute term
    (family-continuation path).
    """
    from .spectra import product_dtn_spectrum, product_laplacian_spectra
    dtn = product_dtn_spectrum(a, L, q)
    sabs, sdir = product_laplacian_spectra(a, L, q)
    ell = dtn.kernel_dim
    lhs = zeta_at_zero(dtn, dps).value + ell
    rhs = 2 * ((zeta_at_zero(sabs, dps).value + ell) - zeta_at_zero(sdir, dps).value)
    return lhs, rhs
