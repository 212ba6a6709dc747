"""Geometry quadrature: the point table on model metrics, constants, variations."""

import math

import numpy as np
import pytest
import sympy as sp

from dtnzeta.geom import (
    GeometrySpec,
    _density_fn,
    a0_constant,
    conformal_variation_check,
    cylinder_boundary,
    rescale,
    unit_ball,
    unit_disk,
    zeta0_constant,
)
from dtnzeta.symbolcas import chart
from dtnzeta.symbolint import a0_density, a0_reference, q_density, q_density_reference


R = sp.Symbol("r")


def _node(w=1.0, kappa=(0.0,), tau_M=0.0, tau_Y=0.0):
    """The columns of a geometry with one boundary node."""
    return dict(w=np.array([w]), kappa=np.array([kappa]), tau_M=np.array([tau_M]),
                tau_Y=np.array([tau_Y]))


class TestMeanCurvatures:
    """The boundary-point table against explicit metrics ``dr^2 + g_r`` in
    boundary normal coordinates (``r`` the inward distance, ``g_r`` diagonal
    at the point, from which only its ``r``-dependence matters here).  Each
    jet that the table builds from the principal and scalar curvatures must
    be the ``r``-derivative of the metric at ``r = 0``: the normal jets of
    ``g^{aa}`` (the second only as its trace, the one value the table knows)
    and of ``ln|g|``, and for ``m = 3`` ``Ric(n, n) = -sum_a f_a''/f_a`` with
    ``f_a = sqrt(g_aa)`` (Riccati), which the table takes from the Gauss
    equation into ``E = -Ric`` on 1-forms."""

    @staticmethod
    def _check(m, curvatures, g_lower):
        ch = chart(m, 1)
        at = dict(zip([*ch.kappas, ch.tauM, ch.tauY], curvatures))

        def table(jet):
            return sp.expand(ch.eval_at_boundary_point(jet).subs(at))

        def explicit(f, order):
            return sp.diff(f, R, order).subs(R, 0)

        gu, lng = [1 / h for h in g_lower], sp.log(sp.Mul(*g_lower))
        for a, kappa in enumerate(curvatures[:m - 1]):
            assert table(ch.d_norm(ch.gu[a, a])) == explicit(gu[a], 1) == 2 * kappa
        second = sum(table(ch.d_norm(ch.d_norm(ch.gu[a, a]))) for a in range(m - 1))
        assert sp.expand(second) == explicit(sum(gu), 2)
        assert table(ch.d_norm(ch.lng)) == explicit(lng, 1)
        assert table(ch.d_norm(ch.d_norm(ch.lng))) == explicit(lng, 2)
        if m == 3:
            ric_nn = -sum(sp.diff(sp.sqrt(h), R, 2) / sp.sqrt(h) for h in g_lower)
            assert table(-ch.E[2, 2]) == ric_nn.subs(R, 0)
            assert sp.expand(ch.eval_at_boundary_point(ch.E).trace()) == -ch.tauM
        return second

    def test_curve(self):
        # unit disk: kappa = 1, flat; g^{11} = (1 - r)^-2
        assert self._check(2, (1, 0, 0), [(1 - R) ** 2]) == 6

    def test_unit_sphere(self):
        # unit ball: kappa = (1, 1), tau_M = 0, tau_Y = 2; g^{aa} = (1 - r)^-2
        assert self._check(3, (1, 1, 0, 2), [(1 - R) ** 2] * 2) == 12

    def test_parabolic_point(self):
        # solid cylinder of radius 1/2: kappa = (2, 0), flat
        assert self._check(3, (2, 0, 0, 0), [(1 - 2 * R) ** 2, sp.Integer(1)]) == 24

    def test_totally_geodesic_hemisphere(self):
        # hemisphere S^3_+: kappa = (0, 0), tau_M = 6, tau_Y = 2; g^{aa} = sec^2 r
        assert self._check(3, (0, 0, 6, 2), [sp.cos(R) ** 2] * 2) == 4

    def test_wrong_count(self):
        # a curve has one principal curvature, a surface two: the lambdified
        # densities take exactly m - 1 of them
        for m, kappa in ((2, (1.0, 1.0)), (3, (1.0,))):
            with pytest.raises(ValueError, match="m-1 principal curvatures"):
                GeometrySpec(m=m, **_node(kappa=kappa), V=1.0, ellY=1.0)


class TestTangentialJets:
    """The tangential second jets of ``g^{ab}`` and ``ln|g|`` in the point
    table against the round unit sphere (``tau_Y = 2``) in Riemann normal
    coordinates ``y`` at a point.  The metric is pulled back by the
    exponential map ``y -> (cos r, y sin(r)/r)``, ``r = |y|``, whose two
    functions sympy expands in ``r**2`` far enough for second jets."""

    Y = sp.symbols("y1 y2", real=True)

    @classmethod
    def _mismatches(cls, tau_Y):
        ch = chart(3, 0)
        u = cls.Y[0] ** 2 + cls.Y[1] ** 2
        r = sp.Symbol("r", positive=True)
        cos_r, sinc_r = (sp.series(f, r, 0, 4).removeO().subs(r, sp.sqrt(u))
                         for f in (sp.cos(r), sp.sin(r) / r))
        J = sp.Matrix([cos_r, sinc_r * cls.Y[0], sinc_r * cls.Y[1]]).jacobian(cls.Y)
        h = (J.T * J).applyfunc(sp.expand)
        at_origin = dict.fromkeys(cls.Y, 0)

        def explicit(f, c1, c2):
            return sp.diff(f, cls.Y[c1], cls.Y[c2]).subs(at_origin)

        h_inv = h.inv()
        fields = [(ch.gu[a, b], h_inv[a, b]) for a in range(2) for b in range(a, 2)]
        fields.append((ch.lng, sp.log(h.det())))
        bad = []
        for c1 in range(2):
            for c2 in range(c1, 2):
                for jet, f in fields:
                    value = ch.point_value(ch.d_y(ch.d_y(jet, c1), c2)).subs(ch.tauY, tau_Y)
                    if value != explicit(f, c1, c2):
                        bad.append((jet, c1, c2))
        return bad

    def test_unit_sphere(self):
        assert self._mismatches(2) == []

    def test_negative_control_tau_y_off_by_one(self):
        # tau_Y = 3 where the sphere has 2: the check must see it
        assert self._mismatches(3)


class TestGeometrySpec:
    def test_weight_sum_invariant(self):
        with pytest.raises(ValueError):
            GeometrySpec(m=2, **_node(kappa=(0.0,)), V=1.0, ellY=2.0)

    def test_tau_y_vanishes_on_curves(self):
        with pytest.raises(ValueError):
            GeometrySpec(m=2, **_node(kappa=(0.0,), tau_Y=1.0), V=1.0, ellY=1.0)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: unit_disk(16), id="disk"),
        pytest.param(lambda: unit_ball(4, 8), id="ball"),
        pytest.param(lambda: rescale(unit_disk(), 1.3), id="scaled-disk"),
        pytest.param(lambda: cylinder_boundary(2.0, 3.0), id="cylinder"),
    ])
    def test_json_round_trip(self, make):
        g = make()
        text = g.to_json()
        assert GeometrySpec.from_json(text).to_json() == text


class TestConstants:
    def test_constant_does_not_depend_on_density_print(self, monkeypatch):
        # the printed density was lambdified, so these two prints of a0(2, 1)
        # gave -0.38629436111989085 and -0.3862943611198909 on this disk
        g = rescale(unit_disk(), 1.3)
        kappa = chart(2, 1).kappas[0]
        values = []
        for form in ((-2 * kappa * sp.log(2) + kappa) / (2 * sp.pi),
                     kappa * (1 - 2 * sp.log(2)) / (2 * sp.pi)):
            monkeypatch.setattr("dtnzeta.geom.a0_reference", lambda m, q, form=form: form)
            _density_fn.cache_clear()
            values.append(a0_constant(g, 1))
        _density_fn.cache_clear()
        assert values[0] == values[1]

    # closed-form (a0, zeta0) constants of the unit disk and the unit ball
    CLOSED = {("disk", 0): (1.0, 0.0), ("disk", 1): (1 - 2 * math.log(2), -2.0),
              ("ball", 0): (3 / 8, 1 / 3), ("ball", 1): (-3 / 4, -1 / 3),
              ("ball", 2): (7 / 8, 4 / 3)}

    def test_constants_do_not_derive(self, monkeypatch):
        # the symbol derivation ran in every process that computed a constant
        def derive(*args):
            raise AssertionError("a geometry constant re-derived its density")

        for target in ("dtnzeta.symbolint._deep_transform", "dtnzeta.geom.a0_density",
                       "dtnzeta.geom.q_density"):
            monkeypatch.setattr(target, derive)
        _density_fn.cache_clear()
        geoms = {"disk": unit_disk(), "ball": unit_ball()}
        for (name, q), (a0, zeta0) in self.CLOSED.items():
            assert abs(a0_constant(geoms[name], q) - a0) < 1e-12
            assert abs(zeta0_constant(geoms[name], q) - zeta0) < 1e-12

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
        total = sum(d.w * d.kappa[:, 0])
        assert abs(total / (2 * math.pi) - 1.0) < 1e-12


FIBERS = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
DENSITIES = [pytest.param(a0_density, a0_reference, id="a0"),
             pytest.param(lambda m, q: 2 * q_density(m, q),
                          lambda m, q: 2 * q_density_reference(m, q), id="zeta0")]


def _fields(m, q):
    ch = chart(m, q)
    return (*ch.kappas, ch.tauM, ch.tauY)


class TestClosedFormDensities:
    """The constants integrate the closed forms in place of the derived
    densities; their floats cannot move when the two polynomials are equal
    term by term, which is stronger than ``exact_zero`` of the difference."""

    @pytest.mark.parametrize("derived, reference", DENSITIES)
    @pytest.mark.parametrize("m,q", FIBERS)
    def test_closed_form_polynomial_is_the_derived_one(self, m, q, derived, reference):
        f = _fields(m, q)
        assert sp.Poly(derived(m, q), *f) == sp.Poly(reference(m, q), *f)

    @pytest.mark.parametrize("m,q", FIBERS)
    def test_negative_control_one_coefficient_off(self, m, q):
        # one coefficient of the closed form scaled by 1 + 1e-6: the check must see it
        f = _fields(m, q)
        terms = sp.Poly(a0_reference(m, q), *f).as_dict()
        terms[next(iter(terms))] *= 1 + sp.Rational(1, 10 ** 6)
        off = sp.Poly.from_dict(terms, *f).as_expr()
        assert sp.Poly(a0_density(m, q), *f) != sp.Poly(off, *f)


class TestScalingInvariance:
    @pytest.mark.parametrize("c", [1e-6, 0.5, 2.0, 1e6])
    @pytest.mark.parametrize("geom,qs", [("disk", (0, 1)), ("ball", (0, 1, 2))])
    def test_constants_are_scale_invariant(self, c, geom, qs):
        # the weight-sum check is relative, so a rescaled geometry is accepted
        # far below and above ellY = 1
        g = unit_disk() if geom == "disk" else unit_ball()
        r = rescale(g, c)
        for q in qs:
            assert abs(a0_constant(r, q) - a0_constant(g, q)) < 1e-12
            assert abs(zeta0_constant(r, q) - zeta0_constant(g, q)) < 1e-12


class TestConformalVariation:
    def setup_method(self):
        self.geom = unit_disk()
        n = len(self.geom.w)
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
