"""Zeta functions and determinants of the model spectra."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtnzeta.spectra import (
    circle_form_spectrum,
    disk_steklov_spectrum,
    product_dtn_spectrum,
    product_laplacian_spectra,
)
from dtnzeta.zetadet import (
    interval_mode_sum,
    interval_mode_sum_direct,
    logdet_star,
    zeta,
    zeta_at_zero,
)


class TestIntervalModeSum:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(t=st.floats(min_value=0.05, max_value=1e6))
    def test_closed_form_matches_direct(self, s, t):
        closed = float(interval_mode_sum(s, t))
        direct, tail = interval_mode_sum_direct(s, t)
        # the direct sum accumulates ~2e5 float64 roundings
        assert abs(closed - direct) <= tail + 5e-12 * (1.0 + abs(closed))

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
        with pytest.raises(ValueError):
            zeta(sabs, 1.5)

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
