"""Zeta functions and determinants of the model spectra."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dtnzeta.spectra import (
    PowerSpectrum,
    ProductSpectrum,
    circle_form_spectrum,
    disk_steklov_spectrum,
    product_dtn_spectrum,
    product_laplacian_spectra,
)
from dtnzeta import zetadet
from dtnzeta.zetadet import interval_mode_sum, logdet_star, zeta, zeta_at_zero


def interval_mode_sum_direct(s: float, t: float, kmax: int = 200_000) -> tuple[float, float]:
    """Direct truncated ``sum_{k<=kmax} (k^2 + t)^{-s}`` and an integral tail bound."""
    k = np.arange(1, kmax + 1, dtype=np.float64)
    val = float(np.sum((k * k + t) ** (-s)))
    # the summand decreases, so the tail is below the integral from kmax;
    # for s > 1 bound that integral via x/kmax >= 1, for s = 1 drop t
    if s > 1:
        tail = (kmax ** 2 + t) ** (1.0 - s) / (2 * kmax * (s - 1.0))
    else:
        tail = 1.0 / kmax
    return val, float(tail)


def interval_mode_sum_bessel(s: int, t: float) -> mp.mpf:
    """``sum_{k>=1} (k^2 + t)^{-s}`` from its Bessel-K (Poisson) form, 50 digits.

    ``c_s t^{1/2-s} - t^{-s}/2 + (2 pi^s / Gamma(s)) sum_p (p/sqrt t)^{s-1/2}
    K_{s-1/2}(2 pi p sqrt t)``, with the half-integer ``K`` in elementary form.
    """
    with mp.workdps(50):
        t = mp.mpf(t)
        nu, n = mp.mpf(s) - mp.mpf(1) / 2, s - 1

        def k_half(z):
            poly = mp.fsum(mp.factorial(n + j) / (mp.factorial(j) * mp.factorial(n - j))
                           * (2 * z) ** -j for j in range(n + 1))
            return mp.sqrt(mp.pi / (2 * z)) * mp.exp(-z) * poly

        total = mp.sqrt(mp.pi) * mp.gamma(nu) / (2 * mp.gamma(s)) * t ** (-nu) - t ** -s / 2
        p = 1
        while True:
            term = (2 * mp.pi ** s / mp.gamma(s) * (p / mp.sqrt(t)) ** nu
                    * k_half(2 * mp.pi * p * mp.sqrt(t)))
            total += term
            if term < mp.mpf(10) ** -60 * abs(total):
                return total
            p += 1


class TestIntervalModeSum:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(t=st.floats(min_value=0.05, max_value=1e6))
    def test_closed_form_matches_direct(self, s, t):
        if t < 1:
            # the closed form cancels catastrophically there, so it refuses
            with pytest.raises(ValueError):
                interval_mode_sum(s, t)
            return
        closed = float(interval_mode_sum(s, t))
        direct, tail = interval_mode_sum_direct(s, t)
        # the direct sum accumulates ~2e5 float64 roundings
        assert abs(closed - direct) <= tail + 5e-12 * (1.0 + abs(closed))

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @given(t=st.floats(min_value=1.0, max_value=1e12))
    @example(t=1.0)
    @example(t=4 * math.pi ** 2)
    def test_few_ulp_from_one(self, s, t):
        # the product-lattice zeta calls the kernel at t >= 1 only, and its
        # rounding bound allows 16 ulp per kernel value
        ref = interval_mode_sum_bessel(s, t)
        ulp = np.spacing(abs(float(ref)))
        assert abs(mp.mpf(float(interval_mode_sum(s, t))) - ref) <= 10 * ulp

    def test_large_argument_underflow_is_clean(self):
        val = float(interval_mode_sum(3, 1e10))
        assert math.isfinite(val) and val > 0

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            interval_mode_sum(0, 1.0)


class TestAffineZeta:
    def test_circle_zeta_two(self):
        # eigenvalues k**2 twice: zeta(s) = 2 zeta_R(2s)
        N = circle_form_spectrum(2 * math.pi, 0)
        with mp.workdps(35):
            assert abs(zeta(N, 2).value - float(2 * mp.zeta(4))) < 1e-14

    def test_circle_zeta_at_zero(self):
        N = circle_form_spectrum(2 * math.pi, 0)
        assert abs(zeta_at_zero(N).value + 1.0) < 1e-14

    @given(st.floats(min_value=0.5, max_value=8.0))
    def test_circle_logdet_closed_form(self, L):
        N = circle_form_spectrum(L, 0)
        assert abs(logdet_star(N).value - 2 * math.log(L)) < 1e-12

    @given(st.floats(min_value=0.5, max_value=4.0))
    def test_disk_steklov_logdet(self, R):
        # eigenvalues k/R twice: -zeta'(0) = ln R + ln 2 pi
        d = disk_steklov_spectrum(R)
        assert abs(logdet_star(d).value - (math.log(R) + math.log(2 * math.pi))) < 1e-12


class TestProductZeta:
    def test_zeta_at_zero_continuation(self):
        # q = 0 cylinder: absolute continuation gives -1, Dirichlet gives 0
        sabs, sdir = product_laplacian_spectra(1.0, 2 * math.pi, 0)
        assert abs(zeta_at_zero(sabs).value + 1.0) < 1e-14
        assert abs(zeta_at_zero(sdir).value) < 1e-14

    def test_integer_arguments_only(self):
        sabs, _ = product_laplacian_spectra(1.0, 2 * math.pi, 0)
        for s in (1.5, 1, 5):
            with pytest.raises(ValueError):
                zeta(sabs, s)

    def test_rejects_non_quadratic_cross_section(self):
        base = PowerSpectrum(coeff=1.0, power=1, mult=2, kernel_dim=1)
        with pytest.raises(ValueError):
            zeta(ProductSpectrum(a=1.0, bc="dirichlet", base_q=base, base_qm1=None), 2)

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_difference_is_cross_section_zeta(self, q, a):
        sabs, sdir = product_laplacian_spectra(a, 2 * math.pi, q)
        N = circle_form_spectrum(2 * math.pi, q)
        for s in (2, 3):
            za, zd, zn = zeta(sabs, s), zeta(sdir, s), zeta(N, s)
            bound = za.error_bound + zd.error_bound + zn.error_bound
            assert abs(za.value - zd.value - zn.value) < max(1e-10, 10 * bound)


class TestDtnZeta:
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_zeta_at_zero(self, a):
        dtn = product_dtn_spectrum(a, 2 * math.pi, 0)
        N = circle_form_spectrum(2 * math.pi, 0)
        expected = N.kernel_dim + 2 * zeta_at_zero(N).value
        assert abs(zeta_at_zero(dtn).value - expected) < 1e-8

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_logdet_identity(self, a):
        dtn = product_dtn_spectrum(a, 2 * math.pi, 0)
        N = circle_form_spectrum(2 * math.pi, 0)
        expected = N.kernel_dim * math.log(2 / a) + logdet_star(N).value
        assert abs(logdet_star(dtn).value - expected) < 1e-10

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_zeta_matches_branch_sum(self, a):
        # brute force over the eigenvalues: the 2/a zero-mode branch and the
        # pair sqrt(lam) coth(x/2), sqrt(lam) tanh(x/2) for lam = n^2
        # (multiplicity 2), x = a n; the tail past n_max is below
        # 4 sum_{n > n_max} n^-4 < 2e-11
        s, n_max = 4, 4000
        n = np.arange(1, n_max + 1, dtype=np.float64)
        t = np.tanh(a * n / 2)
        brute = (a / 2) ** s + 2 * np.sum((n / t) ** -s + (n * t) ** -s)
        dtn = product_dtn_spectrum(a, 2 * math.pi, 0)
        assert abs(zeta(dtn, s).value - brute) < 1e-10


class TestDtnClosedForms:
    """The DtN log-det and zeta at 0 are closed forms; the branch-pair series
    runs only at s > 0, and agrees with them as s -> 0."""

    @pytest.mark.parametrize("q", [0, 1])
    def test_cylinder_drivers_never_sum_the_series(self, q, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("branch-pair series evaluated")

        monkeypatch.setattr(zetadet, "_zeta_dtn", refuse)
        out = zetadet.verify_product_gluing(0.5, 2 * math.pi, q)
        assert out["logdet_identity"] < 1e-10
        lhs, rhs = zetadet.zeta_zero_identity_sides(0.5, 2 * math.pi, q)
        assert abs(lhs - rhs) < 1e-10

    # the one-sided differences below are O(h^2) from the closed forms:
    # measured at most 1.3e-7 at h = 1e-4 on these cylinders, and the float64
    # noise of the series, divided by h, is about 1e-12
    H, TOL = 1e-4, 1e-6
    CYLINDERS = [(0.5, 2 * math.pi, 0), (1.0, 7.0, 1), (3.0, math.pi, 0)]

    @classmethod
    def _series_near_zero(cls, dtn):
        """(zeta(0), -zeta'(0)) from the series at s = h, 2h and the closed zeta(0)."""
        h = cls.H
        z0 = zeta_at_zero(dtn).value
        zh, z2h = zeta(dtn, h).value, zeta(dtn, 2 * h).value
        return 2 * zh - z2h, -(-3 * z0 + 4 * zh - z2h) / (2 * h)

    @pytest.mark.parametrize("a,L,q", CYLINDERS)
    def test_closed_forms_match_series_near_zero(self, a, L, q):
        dtn = product_dtn_spectrum(a, L, q)
        z0, ld = self._series_near_zero(dtn)
        assert zeta_at_zero(dtn).method == logdet_star(dtn).method == "dtn-closed-form"
        assert abs(zeta_at_zero(dtn).value - z0) < self.TOL
        assert abs(logdet_star(dtn).value - ld) < self.TOL

    @pytest.mark.parametrize("a,L,q", CYLINDERS)
    def test_negative_control_shifted_logdet(self, a, L, q):
        dtn = product_dtn_spectrum(a, L, q)
        _, ld = self._series_near_zero(dtn)
        assert abs(logdet_star(dtn).value + 1e-3 - ld) > self.TOL

    def test_series_cap_still_raises(self):
        # a short cylinder: the branch-pair corrections decay like e^{-a n},
        # too slowly for the term cap; only the s > 0 series has the cap
        dtn = product_dtn_spectrum(0.001, 2 * math.pi, 0)
        with pytest.raises(ValueError, match="branch-pair series"):
            zeta(dtn, 2)
        assert math.isfinite(logdet_star(dtn).value + zeta_at_zero(dtn).value)


# ---------------------------------------------------------------------------
# Independent reference for the product-lattice zetas
# ---------------------------------------------------------------------------

def _circle_sum(y, c, s):
    """``sum_{n in Z} (c^2 n^2 + y)^{-s}``: the ``(s-1)``-th ``y``-derivative of
    ``sum_n 1/(c^2 n^2 + y) = pi coth(pi sqrt(y)/c) / (c sqrt y)``."""
    def f(v):
        return mp.pi * mp.coth(mp.pi * mp.sqrt(v) / c) / (c * mp.sqrt(v))
    return (-1) ** (s - 1) * mp.diff(f, y, s - 1) / mp.factorial(s - 1)


@functools.lru_cache(maxsize=None)
def _cylinder_rows(a, L, s):
    """``(row0, rows)`` for the Laplacian on ``[0, a] x S^1_L`` at 40 digits.

    ``rows = sum_{k>=1} sum_{n in Z} ((k pi/a)^2 + (2 pi n/L)^2)^{-s}`` sums
    the full circle sum over the interval modes, the summation direction
    opposite to the package's; ``row0`` is the ``k = 0`` row without the zero
    mode.  Past ``K``, ``coth = 1`` to 50 digits and the circle sum is
    ``(pi/c) (1/2)_{s-1}/(s-1)! y^{1/2-s}``, a Hurwitz zeta in ``k``.
    """
    with mp.workdps(40):
        a, L = mp.mpf(a), mp.mpf(L)
        c = 2 * mp.pi / L
        K = int(60 * a * c / mp.pi ** 2) + 1
        rows = mp.fsum(_circle_sum((k * mp.pi / a) ** 2, c, s) for k in range(1, K + 1))
        rows += (mp.pi / c) * mp.rf(mp.mpf(1) / 2, s - 1) / mp.factorial(s - 1) \
            * (mp.pi / a) ** (1 - 2 * s) * mp.zeta(2 * s - 1, K + 1)
        return 2 * c ** (-2 * s) * mp.zeta(2 * s), rows


def _reference(a, L, q, s):
    """Absolute and Dirichlet zetas: degree q = 1 adds a second family of
    interval modes ``k >= 1`` (the circle's functions and 1-forms share one
    spectrum)."""
    row0, rows = _cylinder_rows(a, L, s)
    families = 1 + q
    return row0 + families * rows, families * rows


REFERENCE_GRID = [(0.25, 4 * math.pi), (0.006, 2 * math.pi), (1.0, 2 * math.pi), (4.0, math.pi)]


class TestProductZetaReference:
    @pytest.mark.parametrize("a,L", REFERENCE_GRID)
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("s", [2, 3])
    def test_within_error_bound(self, a, L, q, s):
        sabs, sdir = product_laplacian_spectra(a, L, q)
        for spec, ref in zip((sabs, sdir), _reference(a, L, q, s)):
            z = zeta(spec, s)
            assert abs(mp.mpf(z.value) - ref) <= z.error_bound
            assert z.error_bound < 1e-13 * abs(ref)

    @pytest.mark.parametrize("a,L", REFERENCE_GRID)
    @pytest.mark.parametrize("s", [2, 3])
    def test_negative_control(self, a, L, s):
        # a cylinder longer by one part in 1e9 must fall outside the bound.
        # The Dirichlet zeta is used: at small a the absolute zeta is its
        # k = 0 row, which does not depend on a.
        _, sdir = product_laplacian_spectra(a * (1 + 1e-9), L, 0)
        z = zeta(sdir, s)
        assert abs(mp.mpf(z.value) - _reference(a, L, 0, s)[1]) > z.error_bound


class TestComputedBounds:
    @pytest.mark.parametrize("L", [0.7, 2 * math.pi, 9.0])
    def test_affine_bound_is_float_rounding(self, L):
        # eigenvalues coeff k^2 twice, with coeff the float the spectrum holds
        N = circle_form_spectrum(L, 0)
        with mp.workdps(50):
            coeff = mp.mpf(N.coeff)
            exact = 2 * coeff ** -3 * mp.zeta(6)
            exact_logdet = 2 * mp.log(2 * mp.pi) - mp.log(coeff)
        for z, ref in ((zeta(N, 3), exact), (logdet_star(N), exact_logdet)):
            assert abs(mp.mpf(z.value) - ref) <= z.error_bound
            assert 0 < z.error_bound <= 4 * np.spacing(abs(z.value))

    @pytest.mark.parametrize("a", [0.05, 1.0, 1000.0])
    def test_dtn_bound_covers_exact_logdet(self, a):
        # the branch-pair logs vanish exactly, so log det* is ln(2/a) plus the
        # circle's 2 ln 2pi - ln coeff
        dtn = product_dtn_spectrum(a, 2 * math.pi, 0)
        z = logdet_star(dtn)
        with mp.workdps(50):
            exact = mp.log(2 / mp.mpf(a)) + 2 * mp.log(2 * mp.pi) - mp.log(mp.mpf(dtn.base_q.coeff))
        assert abs(mp.mpf(z.value) - exact) <= z.error_bound
        assert np.spacing(abs(z.value)) / 2 <= z.error_bound <= 1e-14

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("a,L", [(1.0, 2 * math.pi), (0.3, 7.0)])
    def test_product_zeta_at_zero_bound(self, q, a, L):
        # flat cylinder with geodesic boundary: the heat coefficient at t^0
        # vanishes, so zeta(0) = -dim ker exactly (1 absolute, 0 Dirichlet)
        for spec, exact in zip(product_laplacian_spectra(a, L, q), (-1, 0)):
            z = zeta_at_zero(spec)
            assert abs(z.value - exact) <= z.error_bound
            # a few ulp of the O(1) family weights summed
            assert 0 < z.error_bound <= 4 * np.spacing(1.0)

    def test_dtn_zeta_bound_above_float_resolution(self):
        z = zeta(product_dtn_spectrum(1.0, 2 * math.pi, 0), 4)
        assert np.spacing(abs(z.value)) / 2 <= z.error_bound <= 1e-14
        with pytest.raises(ValueError):
            zeta(product_dtn_spectrum(1.0, 2 * math.pi, 0), -1)
