"""Fiber integration: closed-form densities and the eleven-piece trace table."""

from math import comb

import pytest
import sympy as sp

from dtnzeta.sfunc import S, exact_zero, rationalize
from dtnzeta.symbolcas import JetResolutionError, _laurent_expansion, chart
from dtnzeta.symbolint import (
    TERM_LABELS,
    CancellationError,
    a0_density,
    a0_reference,
    a1_coefficient,
    boundary_reduce,
    interior_coefficient_difference,
    pi0_density,
    q_density,
    q_density_reference,
    reference_table_sum,
    reference_term_table,
    term_table,
    transform,
)


class TestBoundaryReduce:
    """Contour residue and momentum moment of single Laurent monomials on the
    dimension-2 fiber, where ``(2 pi)^{-1} int (1 + xi^2)^{-P} dxi`` is
    ``Gamma(P - 1/2) / (2 sqrt(pi) Gamma(P))``."""

    @pytest.mark.parametrize("make, expected", [
        (lambda ch, g, x: 1 / g ** 2,
         -S * sp.gamma(S / 2) / (2 * sp.sqrt(sp.pi) * sp.gamma(S / 2 + sp.Rational(1, 2)))),
        (lambda ch, g, x: x / g ** 2, sp.Integer(0)),
        (lambda ch, g, x: x ** 2 / (g * ch.w ** 3),
         sp.gamma(S / 2) / (4 * sp.sqrt(sp.pi) * sp.gamma(S / 2 + sp.Rational(3, 2)))),
    ], ids=["double-pole", "odd-moment", "xi-squared"])
    def test_monomials(self, make, expected):
        ch = chart(2, 0)
        got = boundary_reduce(ch, make(ch, ch.mu - ch.w, ch.xis[0]))
        assert exact_zero(got - expected)

    @pytest.mark.parametrize("make", [
        lambda ch, g, x: g,
        lambda ch, g, x: sp.Integer(1),
        lambda ch, g, x: sp.sqrt(g),
        lambda ch, g, x: 1 / (g * (ch.w + 1)),
        lambda ch, g, x: sp.log(ch.w) / g,
        lambda ch, g, x: sp.exp(x) / g ** 2,
    ], ids=["no-pole", "constant", "square-root", "other-denominator", "log", "exp"])
    def test_rejects_non_laurent_input(self, make):
        # the log and exp inputs returned results holding the internal radial
        # variable or the integration variable before
        ch = chart(2, 0)
        with pytest.raises(ValueError):
            boundary_reduce(ch, make(ch, ch.mu - ch.w, ch.xis[0]))


class TestOneWalk:
    """The walk with the jet table equals the two-step route it replaces: the
    jets substituted by ``eval_at_boundary_point`` and the trace rules by
    ``xreplace``, then the walk of the jet-free result at the point."""

    @pytest.mark.parametrize("m, q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_matches_two_step_route(self, m, q):
        ch = chart(m, q)
        res = ch.resolvent()
        labels = ["r1", "r2", "r3" if m == 3 else "r2"] + (list(TERM_LABELS) if m == 3 else [])
        for label in dict.fromkeys(labels):
            tr = sum(res[label][i, i] for i in range(ch.n_proj))
            two_step = ch.eval_at_boundary_point(tr).xreplace(ch.post_integration_rules())
            one = _laurent_expansion(ch, tr, at_point=True)
            two = _laurent_expansion(ch, two_step, at_point=True)
            assert one[0].from_dict(one[1]).as_expr() == two[0].from_dict(two[1]).as_expr(), label

    def test_unresolvable_jet_raises(self):
        ch = chart(3, 1)
        with pytest.raises(JetResolutionError):
            boundary_reduce(ch, ch.d_y(ch.E[0, 0], 0) / (ch.mu - ch.w) ** 2)

    def test_zero_base_raises(self):
        # ln|g| is 0 at the point, so 1/ln|g| is a division by zero
        ch = chart(3, 1)
        with pytest.raises(ValueError, match="division by zero"):
            boundary_reduce(ch, 1 / (ch.lng * (ch.mu - ch.w) ** 2))


def _rationalize_reference(expr):
    """The term-table normal form before the Gamma-class substitution."""
    return sp.cancel(sp.together(sp.gammasimp(sp.expand(expr))))


class TestRationalize:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_same_string_as_gammasimp(self, q):
        ch = chart(3, q)
        res = ch.resolvent()
        for label in TERM_LABELS:
            raw = transform(ch, res[label])
            assert str(rationalize(raw)) == str(_rationalize_reference(raw)), label

    @pytest.mark.parametrize("expr", [sp.gamma(S / 2), sp.gamma(S) / sp.gamma(S / 2)])
    def test_surviving_class_raises(self, expr):
        with pytest.raises(ValueError):
            rationalize(expr)


class TestDim2Densities:
    def test_a0_density_q0(self):
        ch = chart(2, 0)
        assert exact_zero(a0_density(2, 0) - ch.kappas[0] / (2 * sp.pi))

    def test_a0_density_q1(self):
        ch = chart(2, 1)
        target = (1 - 2 * sp.log(2)) * ch.kappas[0] / (2 * sp.pi)
        assert exact_zero(a0_density(2, 1) - target)

    def test_a0_density_combined_form(self):
        # a0(y) = kappa/(2 pi) - (ln 2 / pi) Tr omega_m~ in both degrees
        for q in (0, 1):
            ch = chart(2, q)
            tr = ch.project(ch.conn_values[1]).trace()
            target = ch.kappas[0] / (2 * sp.pi) - sp.log(2) / sp.pi * tr
            assert exact_zero(a0_density(2, q) - target)

    def test_q_density(self):
        assert q_density(2, 0) == 0
        ch = chart(2, 1)
        assert exact_zero(q_density(2, 1) + ch.kappas[0] / (2 * sp.pi))


class TestHeatOracle:
    """Each zeta(0) density against the boundary heat invariant of the form
    bundle, absolute minus Dirichlet (chi = -1 on every component), with
    f = 1: ``tr S / (2 pi)`` for m = 2, and for m = 3 the a_3 coefficient with
    mixed boundary conditions (Vassilevich, Phys. Rep. 388 (2003) 279),
    divided by ``384 * 4 pi``.  The traces of ``Pi_+ E``, ``S``, ``S^2`` and
    ``chi_{:a} chi_{:a}`` are tabulated from the form bundle, not taken from
    the boundary chart; only the curvature symbols are shared."""

    @staticmethod
    def oracle(m, q, anan_sign=-1):
        """The heat-invariant density; ``R_anan = anan_sign * Ric(n, n)``."""
        ch = chart(m, q)
        if m == 2:
            tr_s = [0, -ch.kappas[0]][q]
            return tr_s / (2 * sp.pi)
        k1, k2 = ch.kappas
        tM, tY = ch.tauM, ch.tauY
        K, L2 = k1 + k2, k1 ** 2 + k2 ** 2
        r = comb(2, q)  # rank of Pi_+, the tangential q-forms
        ric_nn = (tM - tY + 2 * k1 * k2) / 2  # Gauss equation
        r_anan = anan_sign * ric_nn
        tr_e = [0, -tM + ric_nn, -ric_nn][q]
        tr_s = [0, -K, -K][q]
        tr_s2 = [0, L2, K ** 2][q]
        tr_chi = [0, 8 * L2, 8 * L2][q]
        return (192 * tr_e + 2 * r * (16 * tM + 8 * r_anan) + 20 * r * K ** 2 - 8 * r * L2
                + 96 * K * tr_s + 192 * tr_s2 - 12 * tr_chi) / (384 * 4 * sp.pi)

    @pytest.mark.parametrize("m, q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_density_matches_oracle(self, m, q):
        assert exact_zero(q_density(m, q) - self.oracle(m, q))

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_flipped_anan_sign_fails(self, q):
        # negative control: R_anan = +Ric(n, n), the opposite sign convention
        diff = self.oracle(3, q, anan_sign=1) - q_density(3, q)
        assert not exact_zero(diff)
        if q == 0:
            ch = chart(3, 0)
            k1, k2 = ch.kappas
            assert exact_zero(diff - (2 * k1 * k2 + ch.tauM - ch.tauY) / (96 * sp.pi))


class TestDim3Coefficients:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_pi0_matches_fiber_dimension(self, q):
        assert exact_zero(pi0_density(q) - sp.Integer(comb(2, q)) / (8 * sp.pi))

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_subleading_coefficient_vanishes(self, q):
        assert exact_zero(a1_coefficient(q))

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_interior_difference(self, q):
        assert interior_coefficient_difference(q) == sp.Integer(comb(2, q)) / (8 * sp.pi)


class TestDim3Table:
    """The eleven-piece trace table (one degree here; all degrees run in the
    acceptance suite)."""

    def test_terms_match_reference_q0(self):
        computed = term_table(0)
        expected = reference_term_table(0)
        for label in TERM_LABELS:
            assert exact_zero(computed[label] - expected[label]), label

    def test_sum_matches_reference_q0(self):
        total = sum(term_table(0)[label] for label in TERM_LABELS)
        assert exact_zero(total - reference_table_sum(0))

    def test_a0_density_matches_reference_q0(self):
        assert exact_zero(a0_density(3, 0) - a0_reference(3, 0))

    def test_q_density_matches_reference_q0(self):
        assert exact_zero(q_density(3, 0) - q_density_reference(3, 0))


class TestScalingDegrees:
    """The densities are exact polynomials of scaling weight 2(m-1)/2: under
    kappa -> kappa/c, tau -> tau/c^2 they scale by c^{-(m-1)}."""

    @pytest.mark.parametrize("m,q", [(2, 0), (2, 1), (3, 0)])
    def test_density_weight(self, m, q):
        ch = chart(m, q)
        c = sp.Symbol("c", positive=True)
        dens = a0_density(m, q)
        sub = {k: k / c for k in ch.kappas}
        sub.update({ch.tauM: ch.tauM / c ** 2, ch.tauY: ch.tauY / c ** 2})
        assert exact_zero(dens.subs(sub) - dens / c ** (m - 1))


class TestAssertCancellations:
    """Every monomial in the must-cancel jets needs a zero coefficient, not
    only the linear one, summed over all the contour and momentum groups it
    appears in: :func:`boundary_reduce` on the (3, 0) chart, with ``a`` and
    ``b`` two must-cancel jets and ``g = mu - w``."""

    @staticmethod
    def _chart():
        ch = chart(3, 0)
        a, b = sorted(ch.must_cancel, key=str)[:2]
        return ch, a, b, ch.mu - ch.w

    @pytest.mark.parametrize("make", [
        lambda ch, a, b, g: (a ** 2 + ch.tauM) / g ** 2,
        lambda ch, a, b, g: a * b / g ** 2,
        lambda ch, a, b, g: a ** 2 / g ** 3 + ch.tauM / g ** 2,
    ])
    def test_nonlinear_survivor_raises(self, make):
        ch, a, b, g = self._chart()
        with pytest.raises(CancellationError):
            boundary_reduce(ch, make(ch, a, b, g))

    def test_cancelled_monomials_are_dropped(self):
        # |xi|^2 = w^2 - 1 once lam = 1, so the three groups of a*b cancel
        # in the sum, though each alone survives
        ch, a, b, g = self._chart()
        w = ch.w
        pieces = [(ch.xis[0] ** 2 + ch.xis[1] ** 2) / (g * w ** 3), -1 / (g * w), 1 / (g * w ** 3)]
        for piece in pieces:
            with pytest.raises(CancellationError):
                boundary_reduce(ch, a * b * piece)
        expr = a * b * sp.Add(*pieces) + ch.tauM / g ** 2
        assert boundary_reduce(ch, expr) == boundary_reduce(ch, ch.tauM / g ** 2)

    def test_surviving_jet_through_boundary_reduce(self):
        # d_n^2 g^{22} resolves to Gmm2, which no trace rule eliminates
        ch = chart(3, 0)
        gmm2 = ch.d_norm(ch.d_norm(ch.gu[1, 1]))
        with pytest.raises(CancellationError, match="Gmm2"):
            boundary_reduce(ch, gmm2 / (ch.mu - ch.w) ** 2)
