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
    rationalize,
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


class TestZetaMemo:
    """The mpmath kernel is memoized per (argument, digits, order); every call
    still returns the value of a fresh ``mp.zeta`` at the caller's precision."""

    @pytest.mark.parametrize("s", [0, -1, 0.5, 2, 3.25, mp.mpf(7) / 3])
    @pytest.mark.parametrize("dps", [15, 40, 60])
    def test_bit_identical_to_fresh_zeta(self, s, dps):
        with mp.workdps(dps):
            for fn, order in ((riemann_zeta, 0), (zeta_deriv_at, 1)):
                want = mp.zeta(mp.mpf(s), derivative=order)
                first, second = fn(s, dps), fn(s, dps)
                assert first == want and second == want, (fn.__name__, s, dps)

    def test_cached_value_rounds_to_each_caller(self):
        s = mp.mpf(1) / 7  # an argument no other test asks for
        with mp.workdps(80):
            full = mp.zeta(s)
        with mp.workdps(15):
            low = riemann_zeta(s, 80)  # computes at 80 digits, returns 15
            assert low == +full
        assert low != full
        with mp.workdps(80):
            assert riemann_zeta(s, 80) == full  # the cached 80-digit value
        with mp.workdps(15):
            assert riemann_zeta(s, 80) == low

    def test_pole_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(DomainError):
                riemann_zeta(1)
            with pytest.raises(DomainError):
                zeta_deriv_at(1.0, 50)


class TestMuResidue:
    def test_orders(self):
        f1, shift1 = mu_residue(1)
        f2, shift2 = mu_residue(2)
        f3, shift3 = mu_residue(3)
        assert (shift1, shift2, shift3) == (0, 1, 2)
        assert exact_zero(f1 - 1)
        assert exact_zero(f2 + S)
        assert exact_zero(f3 - S * (S + 1) / 2)

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
        assert f.value_at() == 1

    @pytest.mark.parametrize("expr", [
        1 / (S - 2), S / (S + 1), sp.gamma(S + 2) / sp.gamma(S + 4),
    ])
    def test_deriv_matches_finite_differences(self, expr):
        exact = float(SFunction(expr).deriv_at())
        f = sp.lambdify(S, expr, modules="mpmath")
        h = 1e-6
        with mp.workdps(30):
            numeric = float((f(mp.mpf(h)) - f(mp.mpf(-h))) / (2 * h))
        assert abs(exact - numeric) < 1e-8

    @pytest.mark.parametrize("expr", [sp.gamma(1 - S), sp.gamma(S ** 2)])
    def test_gamma_without_class_raises(self, expr):
        # the Gamma factors exact_zero accepts and no others; Gamma(1 - s) is
        # regular at 0, so the error is not a pole
        with pytest.raises(ValueError, match="no Gamma class"):
            SFunction(expr).value_at()

    @pytest.mark.parametrize("expr", [2 ** (-S) / (S - 3), sp.sqrt(S + 1), sp.exp(S)])
    def test_atom_outside_the_field_raises(self, expr):
        # regular at 0, but not a rational function of s and Gamma(a*s + b)
        for method in (SFunction.value_at, SFunction.deriv_at):
            with pytest.raises(DomainError, match="not a rational function of s"):
                method(SFunction(expr))


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
                f.value_at()
            return
        for got, want in ((f.value_at(), ser.coeff(S, 0)), (f.deriv_at(), ser.coeff(S, 1))):
            # both sides are linear in the free coefficients
            got = sp.expand(got)
            for c in cs:
                diff = got.coeff(c) - want.coeff(c)
                assert diff == 0 or abs(sp.N(diff, 40)) < 1e-35

    def test_pole_cancels_across_factors(self):
        f = SFunction(sp.gamma(S) - 1 / S)
        assert f.value_at() == -sp.EulerGamma
        assert exact_zero(f.deriv_at() - sp.EulerGamma ** 2 / 2 - sp.pi ** 2 / 12)

    # the last is a pole the s-adic valuation of its denominator Gamma(1 + s) - 1 misses
    @pytest.mark.parametrize("expr", [sp.gamma(S), 1 / S ** 2, sp.sqrt(S), S ** sp.Rational(3, 2),
                                      1 / (sp.gamma(S + 1) - 1)])
    def test_pole_or_branch_point_raises(self, expr):
        for method in (SFunction.value_at, SFunction.deriv_at):
            with pytest.raises(DomainError):
                method(SFunction(expr))

    # Gamma(s/2)**2 Gamma(s/2 + 1/2) = 4 Gamma(1 + s/2)**2 Gamma(1/2 + s/2) / s**2:
    # classes with b = 1 and b = 1/2, and a pole of order 2 whose principal
    # part A/s**2 + B/s the other two terms cancel
    DOUBLE_POLE = sp.gamma(S / 2) ** 2 * sp.gamma(S / 2 + sp.Rational(1, 2))
    A = 4 * sp.sqrt(sp.pi)
    B = -sp.sqrt(sp.pi) * (6 * sp.EulerGamma + 4 * sp.log(2))

    def test_double_pole_cancels_across_factors(self):
        f = SFunction(self.DOUBLE_POLE - self.A / S ** 2 - self.B / S)
        with mp.workdps(50):
            # Laurent coefficients c_0, c_1 of the product alone, by the
            # trapezoidal rule on |s| = 1/2 (the next poles are at s = -1, -2)
            def laurent(k, n=200):
                g = sp.lambdify(S, self.DOUBLE_POLE, modules="mpmath")
                pts = [mp.mpf(1) / 2 * mp.expj(2 * mp.pi * j / n) for j in range(n)]
                return mp.re(mp.fsum(g(z) * z ** -k for z in pts) / n)

            for got, k in ((f.value_at(), 0), (f.deriv_at(), 1)):
                assert abs(mp.mpf(sp.N(got, 50).__str__()) - laurent(k)) < mp.mpf(10) ** -40

    def test_mutated_principal_part_raises(self):
        # B with 7*EulerGamma for 6*EulerGamma leaves a simple pole
        mutated = -sp.sqrt(sp.pi) * (7 * sp.EulerGamma + 4 * sp.log(2))
        f = SFunction(self.DOUBLE_POLE - self.A / S ** 2 - mutated / S)
        for method in (f.value_at, f.deriv_at):
            with pytest.raises(DomainError):
                method()


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
        sp.sqrt(S), sp.log(S), sp.zoo * S, sp.nan * S, sp.sqrt(S ** 2 + 1), sp.exp(S),
    ])
    def test_unsupported_atom_raises(self, expr):
        # a ValueError, not the CoercionFailed of sympy's polynomial layer
        with pytest.raises(ValueError):
            exact_zero(expr)

    # zeros that need a relation among the constants or the Gamma classes: a
    # log of a composite, powers of one root (pi = sqrt(pi)**2, pi**(3/2) =
    # sqrt(pi)**3), a root of a rational (sqrt(2)**2 = 2, cbrt(2)**3 = 2) and a
    # Gamma shift
    RELATION_ZEROS = [
        sp.log(4) * S - 2 * sp.log(2) * S,
        sp.log(12) - 2 * sp.log(2) - sp.log(3),
        sp.log(sp.Rational(3, 2)) + sp.log(2) - sp.log(3),
        (sp.sqrt(sp.pi) + 1) ** 2 - sp.pi - 2 * sp.sqrt(sp.pi) - 1,
        sp.pi ** sp.Rational(3, 2) / sp.sqrt(sp.pi) - sp.pi,
        sp.pi ** sp.Rational(3, 2) * (1 + sp.sqrt(sp.pi)) - sp.pi ** 2 - sp.pi * sp.sqrt(sp.pi),
        (S ** 2 - sp.pi) / (S - sp.sqrt(sp.pi)) - S - sp.sqrt(sp.pi),
        (1 + sp.sqrt(2)) ** 2 - 3 - 2 * sp.sqrt(2),
        1 / (1 + sp.sqrt(2)) - sp.sqrt(2) + 1,
        (sp.cbrt(2) + 1) ** 3 - 3 - 3 * sp.cbrt(2) - 3 * sp.cbrt(2) ** 2,
        sp.gamma(S / 2 + sp.Rational(3, 2)) - (S / 2 + sp.Rational(1, 2)) * sp.gamma(S / 2 + sp.Rational(1, 2)),
        # a log of a composite under an integer power is split over primes too
        1 / sp.log(4) - 1 / (2 * sp.log(2)),
        sp.log(4) ** 2 - 4 * sp.log(2) ** 2,
        # I is a root of t**2 + 1, sqrt(I) of t**4 + 1
        (1 + sp.I) * (1 - sp.I) - 2,
        sp.sqrt(sp.I) * (sp.sqrt(sp.I) + 1) - sp.I - sp.sqrt(sp.I),
        # a log of a rational power is split over primes: log(sqrt(3)) =
        # log(3)/2, which sympy's digamma at 1/3 holds
        sp.log(3) / 2 - sp.log(sp.sqrt(3)),
        sp.polygamma(0, sp.Rational(1, 3)) + sp.EulerGamma + 3 * sp.log(3) / 2
        + sp.sqrt(3) * sp.pi / 6,
    ]

    @pytest.mark.parametrize("expr", RELATION_ZEROS)
    def test_relation_zeros(self, expr):
        assert exact_zero(expr)
        # negative control: a perturbation far below any float precision
        assert not exact_zero(expr + S * sp.pi / sp.Integer(10) ** 30)

    def test_log_of_other_root_is_independent(self):
        # negative control of the split: log(sqrt(2)) = log(2)/2, not log(3)/2
        assert not exact_zero(sp.log(3) / 2 - sp.log(sp.sqrt(2)))

    def test_division_by_zero_raises(self):
        for zero in (sp.log(4) - 2 * sp.log(2), (1 + sp.sqrt(2)) ** 2 - 3 - 2 * sp.sqrt(2),
                     sp.log(4) ** 2 - 4 * sp.log(2) ** 2):
            with pytest.raises(ValueError, match="division by zero"):
                exact_zero(S / zero)
        # inverting a fraction whose denominator is zero is caught too
        with pytest.raises(ValueError, match="division by zero"):
            exact_zero(S / (1 + 1 / (sp.log(4) - 2 * sp.log(2))))


class TestRationalize:
    def test_one_form_for_equal_inputs(self):
        # differently written equal inputs give the same string
        forms = [1 / (S + 1) + 1 / (S + 2),
                 (2 * S + 3) / ((S + 1) * (S + 2)),
                 (4 * S + 6) / (2 * S ** 2 + 6 * S + 4),
                 sp.gamma(S + 3) * (2 * S + 3) / (sp.gamma(S + 1) * (S + 1) ** 2 * (S + 2) ** 2)]
        assert {str(rationalize(f)) for f in forms} == {"(2*s + 3)/(s**2 + 3*s + 2)"}

    def test_constants_and_roots(self):
        assert str(rationalize(sp.gamma(S / 2 + 1) / (sp.pi * (S + 2) * sp.gamma(S / 2)))) == (
            "s/(2*pi*s + 4*pi)")
        assert rationalize(sp.sqrt(sp.pi) ** 3 / (sp.pi * S)) == sp.sqrt(sp.pi) / S

    def test_s_compared_by_equality(self):
        # once sympy's cache is cleared, Symbol("s") is a new object equal to
        # S; it was taken for an atom other than s and raised DomainError
        from sympy.core.cache import clear_cache
        clear_cache()
        s = sp.Symbol("s")
        assert s == S
        assert str(rationalize(1 / (s + 2))) == "1/(s + 2)"

    def test_classes_must_cancel(self):
        with pytest.raises(ValueError, match="do not cancel"):
            rationalize(sp.gamma(S / 2) / sp.gamma(S))
