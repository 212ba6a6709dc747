"""Special-function kernel: exact values, oracles, and properties."""

import math

import mpmath as mp
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnzeta.sfunc import (
    S,
    DivergentMomentError,
    DomainError,
    SFunction,
    exact_zero,
    gamma_ratio_at_zero,
    mu_residue,
    riemann_zeta,
    xi_moment,
    zeta_deriv_at,
)


class TestGammaRatioAtZero:
    def test_integer_one(self):
        value, deriv = gamma_ratio_at_zero(1)
        assert value == -1 and deriv == -1

    def test_half(self):
        value, deriv = gamma_ratio_at_zero(sp.Rational(1, 2))
        assert value == 0
        assert exact_zero(deriv + 2 * sp.sqrt(sp.pi))

    def test_integer_two(self):
        value, deriv = gamma_ratio_at_zero(2)
        assert value == sp.Rational(1, 2) and deriv == sp.Rational(3, 4)

    @pytest.mark.parametrize("k", [sp.Rational(1, 2), 1, sp.Rational(3, 2), 2])
    def test_taylor_oracle(self, k):
        # 20-term Taylor expansion of Gamma(s - k)/Gamma(s) around 0, evaluated
        # with mpmath at tiny s and Richardson-style extrapolated
        value, deriv = gamma_ratio_at_zero(k)
        with mp.workdps(60):
            kf = mp.mpf(sp.Rational(k).p) / sp.Rational(k).q

            def ratio(s):
                return mp.gamma(s - kf) / mp.gamma(s)

            h = mp.mpf(10) ** -15
            v0 = (ratio(h) + ratio(-h)) / 2
            d0 = (ratio(h) - ratio(-h)) / (2 * h)
            assert abs(v0 - mp.mpf(sp.N(value, 50).__str__())) < mp.mpf(10) ** -25
            assert abs(d0 - mp.mpf(sp.N(deriv, 50).__str__())) < mp.mpf(10) ** -25


class TestRiemannZeta:
    def test_special_values(self):
        assert abs(riemann_zeta(0) + mp.mpf(1) / 2) < mp.mpf(10) ** -35
        assert abs(riemann_zeta(-1) + mp.mpf(1) / 12) < mp.mpf(10) ** -35
        with mp.workdps(45):
            assert abs(riemann_zeta(2) - mp.pi ** 2 / 6) < mp.mpf(10) ** -28

    def test_pole(self):
        with pytest.raises(DomainError):
            riemann_zeta(1)

    def test_deriv_at_zero(self):
        with mp.workdps(45):
            assert abs(zeta_deriv_at(0) + mp.log(2 * mp.pi) / 2) < mp.mpf(10) ** -30

    @given(st.integers(min_value=1, max_value=12))
    def test_bernoulli_values(self, k):
        # zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k / (2 (2k)!),  zeta(1-2k) = -B_2k / 2k
        b = sp.bernoulli(2 * k)
        with mp.workdps(60):
            bern = mp.mpf(b.p) / b.q
            even = (-1) ** (k + 1) * bern * (2 * mp.pi) ** (2 * k) / (2 * mp.factorial(2 * k))
            assert abs(riemann_zeta(2 * k, 60) - even) < mp.mpf(10) ** -55
            assert abs(riemann_zeta(1 - 2 * k, 60) + bern / (2 * k)) < mp.mpf(10) ** -55 * abs(bern)

    def test_apery_constant(self):
        with mp.workdps(100):
            assert abs(riemann_zeta(3, 100) - mp.apery) < mp.mpf(10) ** -95


class TestMuResidue:
    def test_orders(self):
        f1, shift1 = mu_residue(1)
        f2, shift2 = mu_residue(2)
        f3, shift3 = mu_residue(3)
        assert (shift1, shift2, shift3) == (0, 1, 2)
        assert exact_zero(f1.expr - 1)
        assert exact_zero(f2.expr + S)
        assert exact_zero(f3.expr - S * (S + 1) / 2)

    def test_rejects_zero_order(self):
        with pytest.raises(DomainError):
            mu_residue(0)


MOMENT_TABLE = [
    ((0, 0), S / 2, 1 / (2 * sp.pi * (S - 2))),
    ((0, 0), S / 2 + 1, 1 / (2 * sp.pi * S)),
    ((2, 0), S / 2 + 2, 1 / (2 * sp.pi * S * (S + 2))),
    ((2, 2), S / 2 + 3, 1 / (2 * sp.pi * S * (S + 2) * (S + 4))),
    ((4, 0), S / 2 + 3, 3 / (2 * sp.pi * S * (S + 2) * (S + 4))),
]


class TestXiMoment:
    @pytest.mark.parametrize("exps,p,ref", MOMENT_TABLE)
    def test_displayed_rows_exact(self, exps, p, ref):
        got = xi_moment(2, exps, p)
        assert exact_zero(got - ref)

    def test_dim1_row(self):
        got = xi_moment(1, (0,), S / 2)
        target = sp.gamma(sp.Rational(1, 2)) * sp.gamma((S - 1) / 2) / (
            2 * sp.pi * sp.gamma(S / 2))
        assert exact_zero(got - target)

    @given(st.tuples(st.integers(min_value=0, max_value=3),
                     st.integers(min_value=0, max_value=3)))
    def test_odd_moments_vanish(self, exps):
        if exps[0] % 2 == 0 and exps[1] % 2 == 0:
            return
        assert xi_moment(2, exps, S / 2 + 5) == 0

    def test_divergence_guard(self):
        with pytest.raises(DivergentMomentError):
            xi_moment(2, (4, 4), sp.Integer(2))

    @pytest.mark.parametrize("exps,p,ref", MOMENT_TABLE)
    def test_quadrature_at_s3(self, exps, p, ref):
        # polar-coordinate numeric quadrature of the momentum integral at s = 3
        pv = float(p.subs(S, 3))
        e1, e2 = exps
        with mp.workdps(30):
            ang = mp.quad(lambda t: mp.cos(t) ** e1 * mp.sin(t) ** e2, [0, 2 * mp.pi])
            rad = mp.quad(lambda r: r ** (e1 + e2 + 1) * (1 + r * r) ** (-pv),
                          [0, mp.inf])
            numeric = ang * rad / (4 * mp.pi ** 2)
        exact = float(ref.subs(S, 3))
        assert abs(float(numeric) - exact) < 1e-8


class TestSFunction:
    def test_removable_point(self):
        # direct substitution gives 0 * zoo; the limit is 1
        f = SFunction(S * sp.gamma(S))
        assert f.value_at(0) == 1

    @pytest.mark.parametrize("expr", [
        1 / (S - 2), S / (S + 1), sp.gamma(S + 2) / sp.gamma(S + 4),
        2 ** (-S) / (S - 3),
    ])
    def test_deriv_matches_finite_differences(self, expr):
        exact = float(SFunction(expr).deriv_at(0))
        f = sp.lambdify(S, expr, modules="mpmath")
        h = 1e-6
        with mp.workdps(30):
            numeric = float((f(mp.mpf(h)) - f(mp.mpf(-h))) / (2 * h))
        assert abs(exact - numeric) < 1e-8


# factor shapes of the pipeline: s^a Gamma(s/2 + p) / Gamma(s/2 + r), with
# p, r half-integers; the coefficients are free symbols
HALF = st.integers(min_value=-3, max_value=4).map(lambda n: sp.Rational(n, 2))
FACTOR = st.tuples(st.integers(min_value=0, max_value=2), HALF, HALF)


class TestJet:
    @settings(max_examples=20)
    @given(st.lists(FACTOR, min_size=1, max_size=3, unique=True))
    def test_matches_series_of_whole_sum(self, shapes):
        cs = sp.symbols(f"c0:{len(shapes)}")
        expr = sum(c * S ** a * sp.gamma(S / 2 + p) / sp.gamma(S / 2 + r)
                   for c, (a, p, r) in zip(cs, shapes))
        ser = sp.expand(sp.series(expr, S, 0, 2).removeO())
        pole = [ser.coeff(S, -k) for k in range(1, 4)]
        f = SFunction(expr)
        if any(sp.simplify(c) != 0 for c in pole):
            with pytest.raises(DomainError):
                f.value_at(0)
            return
        for got, want in ((f.value_at(0), ser.coeff(S, 0)), (f.deriv_at(0), ser.coeff(S, 1))):
            # both sides are linear in the free coefficients
            got = sp.expand(got)
            for c in cs:
                diff = got.coeff(c) - want.coeff(c)
                assert diff == 0 or abs(sp.N(diff, 40)) < 1e-35

    def test_pole_cancels_across_factors(self):
        f = SFunction(sp.gamma(S) - 1 / S)
        assert f.value_at(0) == -sp.EulerGamma
        assert exact_zero(f.deriv_at(0) - sp.EulerGamma ** 2 / 2 - sp.pi ** 2 / 12)

    @pytest.mark.parametrize("expr", [sp.gamma(S), 1 / S ** 2, sp.sqrt(S), S ** sp.Rational(3, 2)])
    def test_pole_or_branch_point_raises(self, expr):
        for method in (SFunction.value_at, SFunction.deriv_at):
            with pytest.raises(DomainError):
                method(SFunction(expr), 0)

    def test_branch_point_elsewhere_is_regular(self):
        f = SFunction(sp.sqrt(S))
        assert f.value_at(1) == 1 and f.deriv_at(1) == sp.Rational(1, 2)


# terms c R(s) Gamma(s/2 + p) / Gamma(s/2 + r): an integer c, a rational
# function R and half-integers p, r
RATIONAL = st.sampled_from([sp.Integer(1), S, 1 / (S + 2), (S + 1) / (S + 4), S ** 2 / (2 * S - 1)])
TERM = st.tuples(st.integers(min_value=-3, max_value=3), RATIONAL, HALF, HALF)


def _term(c, R, p, r):
    return c * R * sp.gamma(S / 2 + p) / sp.gamma(S / 2 + r)


def _shifted(c, R, p, r):
    """The same term with Gamma(s/2 + p) = (s/2 + p - 1) Gamma(s/2 + p - 1)."""
    return c * R * (S / 2 + p - 1) * sp.gamma(S / 2 + p - 1) / sp.gamma(S / 2 + r)


class TestExactZero:
    @given(st.lists(TERM, min_size=1, max_size=3), st.lists(st.booleans(), min_size=3, max_size=3))
    def test_matches_oracles(self, terms, drop):
        # the terms less the shifted copies of those chosen: zero when all are
        expr = sum(_term(*t) for t in terms) - sum(
            _shifted(*t) for t, d in zip(terms, drop) if d)
        zero = exact_zero(expr)
        if all(drop[:len(terms)]):
            assert zero
        # sp.simplify is the symbolic reference; it misses some true zeros,
        # e.g. s (s/2 + 1/2) Gamma(s/2 + 1/2) - s Gamma(s/2 + 3/2), so it is
        # used one way only, and values at two points decide both ways
        if sp.simplify(expr) == 0:
            assert zero
        f = sp.lambdify(S, expr, modules="mpmath")
        with mp.workdps(30):
            values = [abs(f(mp.mpf(x))) for x in ("0.3183", "2.718")]
        assert zero == all(v < 1e-20 for v in values)

    @given(st.lists(TERM, min_size=1, max_size=3))
    def test_perturbation_is_nonzero(self, terms):
        expr = sum(_term(*t) - _shifted(*t) for t in terms)
        assert exact_zero(expr)
        for eps in (sp.Rational(1, 1000), sp.Float("1e-6")):
            assert not exact_zero(expr + eps * _term(1, *terms[0][1:]))

    def test_constants(self):
        assert exact_zero(sp.log(4) - 2 * sp.log(2))
        assert not exact_zero(sp.pi - sp.Rational(22, 7))

    @pytest.mark.parametrize("expr", [
        2 ** (-S), sp.gamma(S ** 2), sp.polygamma(0, S), sp.gamma(1 - S), sp.gamma(sp.sqrt(2) * S),
        sp.sqrt(S), sp.log(S),
    ])
    def test_unsupported_atom_raises(self, expr):
        with pytest.raises(ValueError):
            exact_zero(expr)
