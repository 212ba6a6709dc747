"""Model spectra: closed-form data and construction guards."""

import math

import pytest

from dtnzeta.spectra import circle_form_spectrum, disk_steklov_spectrum


class TestPowerSpectrum:
    def test_circle(self):
        N = circle_form_spectrum(2 * math.pi, 0)
        assert (N.coeff, N.power, N.mult, N.kernel_dim) == (1.0, 2, 2, 1)

    def test_disk_steklov(self):
        d = disk_steklov_spectrum(2.0)
        assert (d.coeff, d.power, d.mult, d.kernel_dim) == (0.5, 1, 2, 1)

    def test_degree_range(self):
        with pytest.raises(ValueError):
            circle_form_spectrum(1.0, 2)

