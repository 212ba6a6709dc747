"""Fiber integration: closed-form densities and the eleven-piece trace table."""

import pytest
import sympy as sp
from sympy.polys.rings import PolyRing

from dtnzeta.sfunc import S, exact_zero, rationalize
from dtnzeta.symbolcas import JetResolutionError, _laurent_expansion, chart
from dtnzeta.symbolint import (
    TERM_LABELS,
    CancellationError,
    _assert_cancellations,
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
    ``xreplace``, then the walk without a table."""

    @pytest.mark.parametrize("m, q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_matches_two_step_route(self, m, q):
        ch = chart(m, q)
        res = ch.resolvent()
        labels = ["r1", "r2", "r3" if m == 3 else "r2"] + (list(TERM_LABELS) if m == 3 else [])
        for label in dict.fromkeys(labels):
            tr = sum(res[label][i, i] for i in range(ch.n_proj))
            two_step = ch.eval_at_boundary_point(tr).xreplace(ch.post_integration_rules())
            one = _laurent_expansion(ch, tr, at_point=True)
            two = _laurent_expansion(ch, two_step)
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


class TestDim3Coefficients:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_pi0_matches_fiber_dimension(self, q):
        from math import comb
        assert exact_zero(pi0_density(q) - sp.Integer(comb(2, q)) / (8 * sp.pi))

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_subleading_coefficient_vanishes(self, q):
        assert exact_zero(a1_coefficient(q))

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_interior_difference(self, q):
        from math import comb
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
    only the linear one; the check runs on ring polynomials weighted by their
    factor in ``s``, as :func:`boundary_reduce` hands them over."""

    @staticmethod
    def _check(ch, expr):
        """``_assert_cancellations`` on ``expr`` split into ring polynomials,
        one per ``s``-dependent factor."""
        ring = PolyRing(sorted(expr.free_symbols - {S}, key=str), sp.QQ_I)
        weighted = {}
        for term in sp.Add.make_args(expr):
            coeff, weight = term.as_independent(S, as_Add=False)
            weighted[weight] = weighted.get(weight, ring.zero) + ring(coeff)
        return _assert_cancellations(ch, ring, [(p, w) for w, p in weighted.items()])

    @pytest.mark.parametrize("make", [
        lambda a, b, tau: a ** 2 + tau,
        lambda a, b, tau: a * b,
        lambda a, b, tau: a ** 2 * sp.gamma(sp.Symbol("s")) + tau,
    ])
    def test_nonlinear_survivor_raises(self, make):
        ch = chart(3, 0)
        a, b = sorted(ch.must_cancel, key=str)[:2]
        with pytest.raises(CancellationError):
            self._check(ch, make(a, b, ch.tauM))

    def test_cancelled_monomials_are_dropped(self):
        ch = chart(3, 0)
        a, b = sorted(ch.must_cancel, key=str)[:2]
        s = sp.Symbol("s")
        expr = a * b * sp.gamma(s + 1) - a * b * s * sp.gamma(s) + ch.tauM
        assert self._check(ch, expr) == ch.tauM

    def test_surviving_jet_through_boundary_reduce(self):
        # d_n^2 g^{22} resolves to Gmm2, which no trace rule eliminates
        ch = chart(3, 0)
        gmm2 = ch.d_norm(ch.d_norm(ch.gu[1, 1]))
        with pytest.raises(CancellationError, match="Gmm2"):
            boundary_reduce(ch, gmm2 / (ch.mu - ch.w) ** 2)
