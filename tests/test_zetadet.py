"""Zeta functions and determinants of the model spectra."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
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


def interval_mode_sum_derived(s: int, t: np.ndarray) -> np.ndarray:
    """The cotangent kernel of order ``s`` (2 or 3) derived with sympy and lambdified.

    ``sum 1/(k^2+t) = pi coth(pi sqrt t)/(2 sqrt t) - 1/(2t)`` is differentiated
    ``s - 1`` times in ``t`` as a polynomial in ``x = t^{-1/2}``,
    ``V = coth(pi sqrt t) - 1`` and ``Q = csch(pi sqrt t)^2``.
    """
    x, V, Q = sp.symbols("x V Q", positive=True)
    expr = sp.pi * x * (1 + V) / 2 - x ** 2 / 2
    for _ in range(s - 1):
        # d/dt with dx/dt = -x^3/2, dV/dt = -pi x Q/2, dQ/dt = -pi x (1 + V) Q
        expr = sp.expand(-x ** 3 / 2 * sp.diff(expr, x) - sp.pi * x * Q / 2 * sp.diff(expr, V)
                         - sp.pi * x * (1 + V) * Q * sp.diff(expr, Q))
    fn = sp.lambdify((x, V, Q), (-1) ** (s - 1) * expr / sp.factorial(s - 1), modules="numpy")
    z = 2.0 * np.pi * np.sqrt(t)
    u, d = np.exp(-z), -np.expm1(-z)
    return fn(1.0 / np.sqrt(t), 2.0 * u / d, 4.0 * u / (d * d))


class TestIntervalModeSum:
    @pytest.mark.parametrize("s", [2, 3])
    def test_literal_kernel_matches_derivation(self, s):
        # the written-out polynomials evaluate bit for bit like the lambdified
        # sympy derivation, on log-uniform t in [1, 1e12] and at t = 1
        t = np.concatenate([[1.0], np.exp(np.random.default_rng(s).uniform(
            0.0, math.log(1e12), 20_000))])
        assert np.array_equal(interval_mode_sum(s, t), interval_mode_sum_derived(s, t))

    @pytest.mark.parametrize("s", [2, 3])
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

    @pytest.mark.parametrize("s", [2, 3])
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

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("t", [math.nan, [2.0, math.nan]])
    def test_rejects_nan(self, s, t):
        # a NaN fails every comparison, so only `all(t >= 1)` refuses it
        with pytest.raises(ValueError):
            interval_mode_sum(s, t)

    @pytest.mark.parametrize("s", [2, 3])
    def test_infinite_argument_is_the_limit(self, s):
        assert np.array_equal(interval_mode_sum(s, [2.0, math.inf])[1:], [0.0])

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            interval_mode_sum(0, 1.0)

    @pytest.mark.parametrize("s", [1, 4, 5, 2.5])
    def test_rejects_orders_without_kernel(self, s):
        with pytest.raises(ValueError):
            interval_mode_sum(s, 1.0)


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
        for s in (1.5, 1, 4, 5):
            with pytest.raises(ValueError):
                zeta(sabs, s)

    def test_rejects_non_quadratic_cross_section(self):
        base = PowerSpectrum(coeff=1.0, power=1, mult=2, kernel_dim=1)
        with pytest.raises(ValueError):
            zeta(ProductSpectrum(a=1.0, families=((base, 1),)), 2)

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

    def test_zeta_only_at_zero(self):
        dtn = product_dtn_spectrum(1.0, 2 * math.pi, 0)
        for s in (-1, 0.5, 2):
            with pytest.raises(ValueError, match="s = 0 only"):
                zeta(dtn, s)


class TestDtnClosedForms:
    """The DtN zeta at 0 against the value the heat invariants predict."""

    # zeta_Q(0) = zeta0 constant - dim ker Q: the flat cylinder with geodesic
    # boundary has zeta-zero-constant 0 (geom-constants --geometry cylinder
    # --m 2) and a one-dimensional DtN kernel, so zeta_Q(0) = -1 exactly
    CYLINDERS = [(0.5, 2 * math.pi, 0), (1.0, 7.0, 1), (3.0, math.pi, 0), (1e-3, 1e3, 1)]

    @pytest.mark.parametrize("a,L,q", CYLINDERS)
    def test_zeta_at_zero_is_exact(self, a, L, q):
        z = zeta_at_zero(product_dtn_spectrum(a, L, q))
        assert z.method == "dtn-closed-form"
        assert abs(z.value + 1) <= z.error_bound

    @pytest.mark.parametrize("a,L,q", CYLINDERS)
    def test_negative_control_shifted_zeta(self, a, L, q):
        z = zeta_at_zero(product_dtn_spectrum(a, L, q))
        assert abs(z.value - (-1 + 1e-9)) > z.error_bound


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
        z = zeta_at_zero(product_dtn_spectrum(1.0, 2 * math.pi, 0))
        assert np.spacing(abs(z.value)) / 2 <= z.error_bound <= 1e-14
