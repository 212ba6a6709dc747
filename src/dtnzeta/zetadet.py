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
  and an exponentially convergent Bessel-K remainder of a few terms.  This is
  implemented at ``s = 2, 3``; at ``s = 0`` the analytic continuation of each
  family is used;
* cylinder DtN spectra pair each cross-section eigenvalue ``lam`` into the
  branches ``sqrt(lam) coth(x/2)`` and ``sqrt(lam) tanh(x/2)``,
  ``x = a sqrt(lam)``, whose product is ``lam``.  So the log-determinant is
  ``kernel_dim ln(2/a)`` plus that of the cross-section, and the zeta at 0 is
  ``kernel_dim + 2 zeta_base(0)``, both in closed form.  Only ``s = 0`` is
  implemented: no check reads the DtN zeta anywhere else.

``logdet_star`` is the zeta-regularized log-determinant ``-zeta'(0)`` with the
kernel excluded.  Every ``ZetaValue.error_bound`` is computed: a truncation
bound for the Bessel-K remainder, which is cut off, plus the float64 rounding
of the magnitudes that are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from . import spectra
from .sfunc import riemann_zeta, zeta_deriv_at

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
# working digits of every mpmath closed form: each value leaves this module as
# a float64, so a higher precision cannot change it
_DPS = 30
_KERNEL_ULP = 16  # accuracy of interval_mode_sum for t >= 1, in ulp
_REMAINDER_DIGITS = 20  # Bessel-K remainder terms kept until e^{-2 pi r m} < 1e-20
# accepted cylinder lengths a, L: the lattice sums raise pi/a and 2 pi/L to
# powers up to 2s = 6 and square their ratio, which stays inside float64 here
_CYLINDER_RANGE = (1e-30, 1e30)


@dataclass(frozen=True)
class ZetaValue:
    """A numeric spectral value with an explicit error bound and provenance."""

    value: float
    error_bound: float
    method: str


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

# sum_{k>=1} (k^2 + t)^{-s} for s = 2, 3 as polynomials in x = t^{-1/2},
# V = coth(pi sqrt t) - 1 and Q = csch(pi sqrt t)^2: the cotangent identity
# sum 1/(k^2+t) = pi coth(pi sqrt t)/(2 sqrt t) - 1/(2t), differentiated s - 1
# times in t (dx/dt = -x^3/2, dV/dt = -pi x Q/2, dQ/dt = -pi x (1 + V) Q) and
# divided by (-1)^{s-1} (s-1)!.  The V, Q-free part is the large-t expansion
# c_s t^{1/2-s} - t^{-s}/2; the rest is O(e^{-2 pi sqrt t}) and is kept even
# where it is below an ulp of the total.  Each polynomial is written with the
# terms, factors and order of operations of sympy's lambdify of the expanded
# derivative, so it evaluates bit for bit like that form.
_INTERVAL_KERNELS = {
    2: lambda x, V, Q: ((1/4)*math.pi**2*Q*x**2 + (1/4)*math.pi*V*x**3 - 1/2*x**4
                        + (1/4)*math.pi*x**3),
    3: lambda x, V, Q: ((1/8)*math.pi**3*Q*V*x**3 + (3/16)*math.pi**2*Q*x**4
                        + (1/8)*math.pi**3*Q*x**3 + (3/16)*math.pi*V*x**5 - 1/2*x**6
                        + (3/16)*math.pi*x**5),
}


def interval_mode_sum(s: int, t):
    """Exact-formula value of ``sum_{k>=1} (k^2 + t)^{-s}`` (vectorized in t).

    Implemented for ``s = 2, 3``, the orders the cylinder checks use; any
    other order raises ``ValueError``.
    For ``t >= 1`` nothing overflows and the value is accurate to a few ulp.
    Raises ``ValueError`` unless every ``t >= 1``: below 1 the polynomial
    cancels catastrophically (relative error 1e-4 at ``t = 1e-4``), and a NaN
    has no value.  ``t = inf`` gives the limit 0.
    """
    import numpy as np  # imported on first use: `import dtnzeta` loads no numpy

    kernel = _INTERVAL_KERNELS.get(s)
    if kernel is None:
        raise ValueError(f"closed interval-mode sum implemented for s in 2, 3, not {s!r}")
    tval = np.asarray(t, dtype=np.float64)
    if not np.all(tval >= 1):
        raise ValueError("closed interval-mode sum is accurate only for t >= 1")
    z = 2.0 * np.pi * np.sqrt(tval)
    u, d = np.exp(-z), -np.expm1(-z)  # e^{-2 pi sqrt t} and 1 - e^{-2 pi sqrt t}
    return kernel(1.0 / np.sqrt(tval), 2.0 * u / d, 4.0 * u / (d * d))


# ---------------------------------------------------------------------------
# Zeta evaluation per structural tag
# ---------------------------------------------------------------------------

def _zeta_affine(spec: spectra.PowerSpectrum, s) -> ZetaValue:
    with mp.workdps(_DPS):
        val = spec.mult * mp.power(spec.coeff, -mp.mpf(s)) * riemann_zeta(spec.power * mp.mpf(s), _DPS)
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
    import numpy as np

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


def _zeta_product(spec: spectra.ProductSpectrum, s) -> ZetaValue:
    s = float(s)
    if s == 0:
        return _zeta_product_at_zero(spec)
    if s not in (2, 3):
        raise ValueError("product-lattice zeta implemented at s in {2, 3} and s = 0")
    s = int(s)
    alpha = math.pi / spec.a
    zeta_odd = float(riemann_zeta(2 * s - 1, _DPS))
    zeta_even = float(riemann_zeta(2 * s, _DPS))
    terms = []
    err = 0.0
    for base, k0 in spec.families:
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


def _zeta_product_at_zero(spec: spectra.ProductSpectrum) -> ZetaValue:
    """Analytic continuation at ``s = 0`` of a product-lattice zeta.

    Each interval-mode family continues to ``-(1/2)`` times its weight at 0:
    a positive cross-section eigenvalue family of zeta ``Z`` contributes
    ``-(1/2) Z(0)``, a zero-mode family of dimension ``d`` contributes
    ``-(d/2)``; starting the interval modes at ``k = 0`` adds the
    cross-section zeta at 0 back once.
    """
    with mp.workdps(_DPS):
        total = magnitude = mp.mpf(0)
        for base, k0 in spec.families:
            base_zeta0 = base.mult * riemann_zeta(0, _DPS)  # continuation of positive part
            total += -mp.mpf(base.kernel_dim) / 2 - base_zeta0 / 2
            magnitude += mp.mpf(base.kernel_dim) / 2 + abs(base_zeta0) / 2
            if k0 == 0:
                total += base_zeta0
                magnitude += abs(base_zeta0)
        return ZetaValue(float(total), _float_rounding(total, magnitude), "family-continuation")


def _zeta_dtn_at_zero(spec: spectra.DtnProductSpectrum) -> ZetaValue:
    """DtN zeta at 0 in closed form: ``kernel_dim + 2 zeta_base(0)``.

    The DtN zeta is the zero-mode branch ``(2/a)^{-s}``, twice the
    cross-section zeta at ``s/2``, and the sum over branch pairs of
    ``lam^{-s/2} (coth(x/2)^{-s} + tanh(x/2)^{-s} - 2)``, which converges
    exponentially and vanishes term by term at ``s = 0``; the zero-mode branch
    is 1 there.
    """
    with mp.workdps(_DPS):
        base = _zeta_affine(spec.base_q, 0)
        total = spec.base_q.kernel_dim + 2 * mp.mpf(base.value)
        magnitude = spec.base_q.kernel_dim + 2 * abs(base.value)
        err = 2 * base.error_bound + _float_rounding(total, magnitude)
        return ZetaValue(float(total), err, "dtn-closed-form")


def zeta(stream, s) -> ZetaValue:
    """Spectral zeta function of a model spectrum at real ``s`` (kernel excluded)."""
    if isinstance(stream, spectra.PowerSpectrum):
        return _zeta_affine(stream, s)
    if isinstance(stream, spectra.ProductSpectrum):
        return _zeta_product(stream, s)
    if isinstance(stream, spectra.DtnProductSpectrum):
        if s != 0:
            raise ValueError("DtN zeta implemented at s = 0 only, in closed form "
                             "kernel_dim + 2 zeta_base(0)")
        return _zeta_dtn_at_zero(stream)
    raise TypeError(f"unknown spectrum {type(stream)!r}")


def zeta_at_zero(stream) -> ZetaValue:
    return zeta(stream, 0)


def logdet_star(stream) -> ZetaValue:
    """Zeta-regularized log-determinant ``-zeta'(0)``, kernel excluded."""
    with mp.workdps(_DPS):
        if isinstance(stream, spectra.PowerSpectrum):
            # -d/ds [mult c^{-s} zeta_R(p s)] at 0
            log_part = mp.log(stream.coeff) * riemann_zeta(0, _DPS)
            zeta_part = stream.power * zeta_deriv_at(0, _DPS)
            val = stream.mult * (log_part - zeta_part)
            err = _float_rounding(val, stream.mult * (abs(log_part) + abs(zeta_part)))
            return ZetaValue(float(val), err, "affine-closed-form")
        if isinstance(stream, spectra.DtnProductSpectrum):
            # each branch pair multiplies to lam, so the pairs give logdet*
            # of the cross-section and the zero-mode branches ln(2/a) each
            base = logdet_star(stream.base_q)
            part = stream.base_q.kernel_dim * mp.log(2 / mp.mpf(stream.a))
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


def verify_product_gluing(a: float, L: float, q: int) -> dict:
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
    are those closed forms, so the residuals are float rounding.  The
    ``zeta_diff`` residuals hold by construction too: the absolute and
    Dirichlet spectra share every lattice sum and differ by the ``k = 0``
    interval row, which is the cross-section, so they measure only the
    rounding of that row; scaling ``a`` by ``1 + 1e-6`` in both spectra moves
    none of them.

    Raises ``ValueError`` unless ``a`` and ``L`` lie in ``_CYLINDER_RANGE``.
    """
    _check_cylinder(a, L)
    out = {}
    with mp.workdps(_DPS):
        N = spectra.circle_form_spectrum(L, q)
        dtn = spectra.product_dtn_spectrum(a, L, q)
        sabs, sdir = spectra.product_laplacian_spectra(a, L, q)

        ld_q = logdet_star(dtn)
        ld_n = logdet_star(N)
        ell = N.kernel_dim
        out["logdet_identity"] = abs(ld_q.value - ell * float(mp.log(2 / mp.mpf(a)))
                                     - ld_n.value)

        for s in (2, 3):
            za = zeta(sabs, s)
            zd = zeta(sdir, s)
            zn = zeta(N, s)
            out[f"zeta_diff_s{s}"] = abs(za.value - zd.value - zn.value)
            out[f"zeta_diff_s{s}_bound"] = za.error_bound + zd.error_bound + zn.error_bound

        out["zeta_q_at_zero"] = zeta_at_zero(dtn).value
        out["zeta_q_at_zero_expected"] = ell + 2 * zeta_at_zero(N).value
    return out


def zeta_zero_identity_sides(a: float, L: float, q: int) -> tuple[float, float]:
    """Both sides of the zeta-at-zero gluing identity, each from its own
    closed form.

    LHS: DtN zeta at 0 plus the kernel dimension (closed form
    ``2 kernel_dim + 2 zeta_base(0)``).
    RHS: twice the difference of the continued absolute/Dirichlet Laplacian
    zetas at 0, with the kernel dimension added to the absolute term
    (family-continuation path).  On a flat cylinder both sides are
    ``2 kernel_dim + 2 zeta_base(0) = 0`` for every ``(a, L, q)``, so the
    identity holds by construction and the pair is ``(0.0, 0.0)``: it cannot
    fail on a fault that scales a spectrum.  Raises ``ValueError`` unless
    ``a`` and ``L`` lie in ``_CYLINDER_RANGE``.
    """
    _check_cylinder(a, L)
    dtn = spectra.product_dtn_spectrum(a, L, q)
    sabs, sdir = spectra.product_laplacian_spectra(a, L, q)
    ell = dtn.base_q.kernel_dim
    lhs = zeta_at_zero(dtn).value + ell
    rhs = 2 * ((zeta_at_zero(sabs).value + ell) - zeta_at_zero(sdir).value)
    return lhs, rhs
