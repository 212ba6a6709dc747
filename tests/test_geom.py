"""Geometry quadrature: constants, Gram determinants, variations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtnzeta.geom import (
    BoundaryNode,
    GeometrySpec,
    HarmonicBasis,
    a0_constant,
    assemble_gluing_identity,
    conformal_variation_check,
    constant_harmonic_basis,
    cylinder_boundary,
    det_s,
    rescale,
    unit_ball,
    unit_disk,
    zeta0_constant,
)
from dtnzeta.symbolcas import chart


class TestMeanCurvatures:
    """Normalized mean curvatures ``H1``, ``H2`` of the boundary chart, from
    which the derived densities that the constants integrate are built."""

    @staticmethod
    def _at(m, kappas):
        ch = chart(m, 0)
        return ch, dict(zip(ch.kappas, kappas))

    def test_unit_sphere(self):
        ch, at = self._at(3, (1, 1))
        assert (ch.H1.subs(at), ch.H2.subs(at)) == (1, 1)

    def test_parabolic_point(self):
        ch, at = self._at(3, (2, 0))
        assert (ch.H1.subs(at), ch.H2.subs(at)) == (1, 0)

    def test_curve(self):
        ch, at = self._at(2, (0.7,))
        assert ch.H1.subs(at) == 0.7

    def test_wrong_count(self):
        # a curve has one principal curvature, too few for H2
        with pytest.raises(ValueError):
            chart(2, 0).H2


class TestGeometrySpec:
    def test_weight_sum_invariant(self):
        with pytest.raises(ValueError):
            GeometrySpec(m=2, nodes=(BoundaryNode(w=1.0, kappa=(0.0,)),),
                         V=1.0, ellY=2.0)

    def test_tau_y_vanishes_on_curves(self):
        with pytest.raises(ValueError):
            GeometrySpec(m=2, nodes=(BoundaryNode(w=1.0, kappa=(0.0,), tau_Y=1.0),),
                         V=1.0, ellY=1.0)

    def test_json_round_trip(self):
        g = unit_disk(16)
        text = g.to_json()
        assert GeometrySpec.from_json(text).to_json() == text


class TestConstants:
    def test_disk(self):
        d = unit_disk()
        assert abs(a0_constant(d, 0) - 1.0) < 1e-12
        assert abs(a0_constant(d, 1) - (1 - 2 * math.log(2))) < 1e-12
        assert zeta0_constant(d, 0) == 0.0
        assert abs(zeta0_constant(d, 1) + 2.0) < 1e-12

    def test_ball(self):
        b = unit_ball()
        assert abs(a0_constant(b, 0) - 3.0 / 8) < 1e-12
        assert abs(zeta0_constant(b, 0) - 1.0 / 3) < 1e-12

    def test_flat_collar_vanishes(self):
        c = cylinder_boundary(2.0, 3.0)
        for q in (0, 1):
            assert a0_constant(c, q) == 0.0

    def test_gauss_bonnet(self):
        # flat disk: total geodesic curvature of the boundary is 2 pi chi
        d = unit_disk()
        total = sum(n.w * n.kappa[0] for n in d.nodes)
        assert abs(total / (2 * math.pi) - 1.0) < 1e-12


class TestScalingInvariance:
    @pytest.mark.parametrize("c", [0.5, 2.0])
    @pytest.mark.parametrize("geom,qs", [("disk", (0, 1)), ("ball", (0, 1, 2))])
    def test_constants_are_scale_invariant(self, c, geom, qs):
        g = unit_disk() if geom == "disk" else unit_ball()
        r = rescale(g, c)
        for q in qs:
            assert abs(a0_constant(r, q) - a0_constant(g, q)) < 1e-12
            assert abs(zeta0_constant(r, q) - zeta0_constant(g, q)) < 1e-12


class TestGram:
    def test_cylinder_constant_basis(self):
        a, L = 1.5, 2 * math.pi
        c = cylinder_boundary(a, L)
        assert abs(det_s(constant_harmonic_basis(c), c) - 2 / a) < 1e-12

    def test_disk_constant_basis(self):
        d = unit_disk()
        assert abs(det_s(constant_harmonic_basis(d), d) - d.ellY / d.V) < 1e-12

    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_scaling_bilinearity(self, c):
        d = unit_disk(32)
        base = constant_harmonic_basis(d)
        scaled = HarmonicBasis(traces=tuple(
            tuple(tuple(c * x for x in comp) for comp in row) for row in base.traces))
        assert abs(det_s(scaled, d) - c ** 2 * det_s(base, d)) < 1e-10 * max(1.0, c ** 2)

    @given(st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_orthogonal_invariance(self, angle):
        d = unit_disk(32)
        n = len(d.nodes)
        th = np.arange(n) * 2 * math.pi / n
        raw = np.stack([np.ones(n), np.cos(th)]) / math.sqrt(math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        mixed = rot @ raw
        basis = HarmonicBasis(traces=tuple(
            tuple((float(x),) for x in row) for row in raw))
        basis_rot = HarmonicBasis(traces=tuple(
            tuple((float(x),) for x in row) for row in mixed))
        assert abs(det_s(basis, d) - det_s(basis_rot, d)) < 1e-12 * det_s(basis, d)

    def test_singular_gram_reported(self):
        d = unit_disk(8)
        dup = constant_harmonic_basis(d).traces[0]
        with pytest.raises(ValueError):
            det_s(HarmonicBasis(traces=(dup, dup)), d)


class TestAssembly:
    def test_cylinder_closed_form(self):
        from dtnzeta.spectra import circle_form_spectrum, product_dtn_spectrum
        from dtnzeta.zetadet import logdet_star
        a, L = 1.0, 2 * math.pi
        c = cylinder_boundary(a, L)
        basis = constant_harmonic_basis(c)
        N = circle_form_spectrum(L, 0)
        ld_n = logdet_star(N).value
        ld_q = logdet_star(product_dtn_spectrum(a, L, 0)).value
        res = assemble_gluing_identity(c, 0, logdet_abs=ld_n, logdet_D=0.0,
                                       logdet_Q=ld_q, basis=basis)
        assert abs(res) < 1e-10

    def test_negative_control(self):
        # doubling det S shifts the residual by exactly ln 2
        a, L = 1.0, 2 * math.pi
        c = cylinder_boundary(a, L)
        basis = constant_harmonic_basis(c)
        wrong = HarmonicBasis(traces=tuple(
            tuple(tuple(math.sqrt(2) * x for x in comp) for comp in row)
            for row in basis.traces))
        r0 = assemble_gluing_identity(c, 0, 1.0, 0.0, 1.0, basis)
        r1 = assemble_gluing_identity(c, 0, 1.0, 0.0, 1.0, wrong)
        assert abs((r1 - r0) - math.log(2)) < 1e-12


class TestConformalVariation:
    def setup_method(self):
        self.geom = unit_disk()
        n = len(self.geom.nodes)
        self.theta = np.arange(n) * 2 * math.pi / n

    def test_constant(self):
        res = conformal_variation_check(
            self.geom, np.ones_like(self.theta), np.zeros_like(self.theta),
            lambda x, y: 1.0)
        assert abs(res) < 1e-12

    def test_coordinate_function(self):
        res = conformal_variation_check(
            self.geom, np.cos(self.theta), -np.cos(self.theta), lambda x, y: x)
        assert abs(res) < 1e-8

    def test_radial_square(self):
        res = conformal_variation_check(
            self.geom, np.ones_like(self.theta), -2 * np.ones_like(self.theta),
            lambda x, y: x * x + y * y)
        assert abs(res) < 1e-8

    def test_missing_normal_samples(self):
        with pytest.raises(ValueError):
            conformal_variation_check(self.geom, np.ones_like(self.theta),
                                      None, lambda x, y: 1.0)
