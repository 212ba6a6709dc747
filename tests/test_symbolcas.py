"""Symbol calculus: fiber bases, connection matrices, graded symbol identities."""

import math

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Symbol, zeros
from sympy.core.function import AppliedUndef
from sympy.matrices.exceptions import ShapeError

from dtnzeta.symbolcas import (
    BoundaryChart,
    JetResolutionError,
    _derive,
    _jet_key,
    _jet_symbol,
    _mm,
    canonical_zero_form,
    chart,
    connection_matrices,
    form_basis,
    parametrix_defect,
    projected_square_correction_defect,
    riccati_residual,
    star_compose,
)
from dtnzeta.symbolint import transform


class TestFormBasis:
    @pytest.mark.parametrize("m,q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_dimension(self, m, q):
        basis = form_basis(m, q)
        expected = math.comb(m - 1, q) + (math.comb(m - 1, q - 1) if q >= 1 else 0)
        assert len(basis) == expected

    def test_tangential_first(self):
        basis = form_basis(3, 1)
        assert basis == [(False, (1,)), (False, (2,)), (True, ())]


class TestConnectionMatrices:
    def setup_method(self):
        self.k1, self.k2 = sp.symbols("kappa1 kappa2")

    def test_dim3_degree1(self):
        k1, k2 = self.k1, self.k2
        om1, om2, omm = connection_matrices(3, 1, (k1, k2))
        assert om1 == Matrix([[0, 0, -k1], [0, 0, 0], [k1, 0, 0]])
        assert om2 == Matrix([[0, 0, 0], [0, 0, -k2], [0, k2, 0]])
        assert omm == sp.diag(k1, k2, 0)

    def test_dim3_degree2(self):
        k1, k2 = self.k1, self.k2
        om1, om2, omm = connection_matrices(3, 2, (k1, k2))
        assert om1 == Matrix([[0, 0, -k1], [0, 0, 0], [k1, 0, 0]])
        assert om2 == Matrix([[0, k2, 0], [-k2, 0, 0], [0, 0, 0]])
        assert omm == sp.diag(k1 + k2, k1, k2)

    def test_dim2_degree1(self):
        k = Symbol("kappa")
        om1, omm = connection_matrices(2, 1, (k,))
        assert om1 == Matrix([[0, -k], [k, 0]])
        assert omm == sp.diag(k, 0)

    @pytest.mark.parametrize("m,q", [(2, 1), (3, 1), (3, 2)])
    def test_structure(self, m, q):
        ks = sp.symbols(f"kappa1:{m}")
        oms = connection_matrices(m, q, ks)
        for a in range(m - 1):
            assert oms[a] == -oms[a].T, "tangential connection must be antisymmetric"
        assert oms[m - 1] == sp.diag(*[oms[m - 1][i, i] for i in range(oms[m - 1].rows)])

    def test_degree_zero_trivial(self):
        for om in connection_matrices(3, 0, self.setup_method() or (self.k1, self.k2)):
            assert om == zeros(1, 1)


class TestChartStructure:
    def test_principal_symbol(self):
        ch = chart(2, 0)
        # degree-1 homogeneity of the principal symbol
        t = Symbol("t", positive=True)
        sub = {ch.xis[0]: t * ch.xis[0], ch.lam: t ** 2 * ch.lam}
        assert sp.simplify(ch.w.subs(sub) - t * ch.w) == 0

    def test_canonical_zero_form_kills_sqrt_relation(self):
        ch = chart(2, 0)
        expr = ch.w ** 2 - sum(ch.gu[i, j] * ch.xis[i] * ch.xis[j]
                               for i in range(ch.d) for j in range(ch.d)) - ch.lam
        assert canonical_zero_form(ch, expr) == 0

    def test_canonical_zero_form_shifts_mu(self):
        # partial fractions in mu - w and w: zero only after the gap shift
        ch = chart(2, 0)
        expr = ch.mu / (ch.w * (ch.mu - ch.w)) - 1 / (ch.mu - ch.w) - 1 / ch.w
        assert canonical_zero_form(ch, expr) == 0

    def test_canonical_zero_form_inverts_imaginary_monomials(self):
        # I is a generator with I**2 = -1, so 1/(I (mu - w)) = -I/(mu - w)
        ch = chart(2, 0)
        i_gap = sp.I * ch.mu - sp.I * ch.w
        assert canonical_zero_form(ch, 1 / i_gap + sp.I / (ch.mu - ch.w)) == 0
        assert canonical_zero_form(ch, i_gap ** -3 - sp.I / (ch.mu - ch.w) ** 3) == 0
        assert canonical_zero_form(ch, 1 / i_gap - sp.I / (ch.mu - ch.w)) != 0

    def test_canonical_zero_form_rejects_other_denominators(self):
        ch = chart(2, 0)
        with pytest.raises(ValueError):
            canonical_zero_form(ch, 1 / (ch.mu + ch.w))

    def test_jet_resolution_error(self):
        ch = chart(2, 0)
        too_deep = ch.d_norm(ch.d_norm(ch.d_norm(ch.gu[0, 0])))
        with pytest.raises(JetResolutionError):
            ch.eval_at_boundary_point(Matrix([[too_deep]]))

    def test_jet_resolution_error_tangential(self):
        # the curvature endomorphism is known at the point only, not its jets
        ch = chart(3, 1)
        with pytest.raises(JetResolutionError):
            ch.eval_at_boundary_point(ch.d_y(ch.E[0, 0], 0))


class TestTotalDerivative:
    """The jet derivation against sympy's own ``diff`` of generic functions."""

    ch = chart(3, 1)
    ys = sp.symbols("y1 y2 ym", real=True)
    FNAMES = ("gu11", "gu12", "lng", "om1_0_2", "om3_1_1", "EE_0_1", "Gam1_12")

    @classmethod
    def _as_functions(cls, expr):
        """Each jet ``f@alpha`` as ``Derivative(F(y1, y2, ym), alpha)``."""
        mapping = {}
        for s in expr.free_symbols:
            key = _jet_key(s)
            if key is not None:
                fname, counts = key
                f = sp.Function(fname)(*cls.ys)
                pairs = [(y, c) for y, c in zip(cls.ys, counts) if c]
                mapping[s] = sp.diff(f, *pairs) if pairs else f
        return expr.xreplace(mapping)

    @classmethod
    def _gap(cls, derive, expr, var):
        """Difference of ``derive(expr, var)`` and the sympy oracle, cancelled.

        ``cancel``, not ``expand``: the two sides may put the same powers of
        ``mu - w`` over differently expanded denominators.
        """
        y = cls.ys[var] if isinstance(var, int) else var
        oracle = sp.diff(cls._as_functions(expr), y)
        return sp.cancel(cls._as_functions(derive(expr, var)) - oracle)

    @classmethod
    def _exprs(cls):
        jets = st.builds(_jet_symbol, st.sampled_from(cls.FNAMES),
                         st.tuples(*[st.integers(0, 2)] * 3))
        leaves = st.one_of(jets, st.sampled_from([*cls.ch.xis, cls.ch.lam, cls.ch.mu]),
                           st.integers(-3, 3).map(sp.Integer))
        return st.recursive(leaves, lambda sub: st.one_of(
            st.builds(lambda a, b: a + b, sub, sub),
            st.builds(lambda a, b: a * b, sub, sub),
            st.builds(lambda a: sp.sqrt(a + cls.ch.lam), sub),
            st.builds(lambda a, n: (a + cls.ch.mu) ** n, sub, st.sampled_from([-1, -2])),
        ), max_leaves=6)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_sympy_diff(self, data):
        expr = data.draw(self._exprs())
        var = data.draw(st.sampled_from([0, 1, 2, *self.ch.xis]))
        assert self._gap(_derive, expr, var) == 0

    def test_negative_control_without_chain_factor(self):
        # a derivation that drops d(base) in the power rule must be caught
        def chainless(expr, var):
            if expr.is_Pow:
                return expr.exp * expr.base ** (expr.exp - 1)
            if expr.is_Add:
                return sp.Add(*[chainless(a, var) for a in expr.args])
            if expr.is_Mul:
                return sp.Add(*[sp.Mul(*expr.args[:i], chainless(a, var), *expr.args[i + 1:])
                                for i, a in enumerate(expr.args)])
            return _derive(expr, var)

        expr = self.ch.w / (self.ch.mu - self.ch.w)
        for var in (0, 2, self.ch.xis[0]):
            assert self._gap(_derive, expr, var) == 0
            assert self._gap(chainless, expr, var) != 0

    @pytest.mark.parametrize("fname", FNAMES)
    @pytest.mark.parametrize("counts", [(1, 1, 1), (0, 0, 3), (3, 0, 0)])
    def test_order_three_jets_raise(self, fname, counts):
        with pytest.raises(JetResolutionError):
            self.ch.eval_at_boundary_point(_jet_symbol(fname, counts))

    def test_naming_round_trip(self):
        assert _jet_symbol("gu11", (0, 1, 0)).name == "gu11@010"
        assert _jet_key(_jet_symbol("om3_1_2", (2, 0, 1))) == ("om3_1_2", (2, 0, 1))
        assert _jet_key(self.ch.xis[0]) is None

    def test_rejects_other_nodes(self):
        with pytest.raises(TypeError):
            _derive(sp.exp(_jet_symbol("lng", (0, 0, 0))), 2)


class TestMatrixProduct:
    def test_matches_sympy_product_on_connections(self):
        om = chart(3, 1).om
        for A in om:
            for B in om:
                assert _mm(A, B) == A * B

    def test_matches_sympy_product_on_symbols(self):
        comps = chart(3, 1).alphas_full()
        for A in comps:
            for B in comps:
                assert _mm(A, B) == A * B

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            _mm(zeros(2, 3), zeros(2, 3))

    def test_symbols_hold_no_sympy_functions(self):
        # the chart is built from jet symbols alone: no undetermined function
        # or Derivative object may enter the symbols, resolvent or products
        ch = chart(2, 1)
        a1, a0, am1 = ch.alphas_full()
        comp = {1: a1, 0: a0, -1: am1}
        mats = [a1, a0, am1, *ch.resolvent().values(),
                star_compose(comp, comp, ch, orders=(0,))[0]]
        for M in mats:
            assert not M.atoms(AppliedUndef, sp.Derivative)


class TestChartPurity:
    def test_jet_resolution_leaves_chart_unchanged(self):
        # the transforms behind pi0_density(1) and a0_density(3, 1), run on a
        # chart of its own: the table and what must cancel are fixed by (m, q)
        # alone
        ch = BoundaryChart(3, 1)
        before, point = ch.must_cancel, dict(ch.point)
        res = ch.resolvent()
        transform(ch, res["r1"])
        transform(ch, res["r3"])
        assert ch.must_cancel == before
        assert ch.point == point
        assert len(ch.must_cancel) == 14


class TestPointTable:
    """The boundary-point table covers the calculus: every jet the graded
    symbols and the resolvent reach has a value, and every value is written in
    curvatures, must-cancel jets and first jets of ``omega``."""

    @pytest.mark.parametrize("m, q, opaque", [
        (2, 0, 2), (2, 1, 5), (3, 0, 10), (3, 1, 14), (3, 2, 15)])
    def test_covers_the_calculus(self, m, q, opaque):
        ch = chart(m, q)
        mats = [*ch.alphas_full(), *ch.alphas_tilde(), *ch.resolvent().values()]
        reached = {s for M in mats for e in M for s in e.free_symbols
                   if _jet_key(s) is not None}
        assert reached and reached <= ch.point.keys()
        omega_jets = {ch.point[ch.d_y(e, c)] for om in ch.om for e in om for c in range(m)}
        curvatures = {*ch.kappas, ch.tauM, ch.tauY}
        values = set().union(*(v.free_symbols for v in ch.point.values()))
        assert values <= curvatures | ch.must_cancel | omega_jets
        assert not ch.must_cancel & omega_jets
        assert len(ch.must_cancel) == opaque


class TestStarCompose:
    def test_identity_is_neutral(self):
        ch = chart(2, 0)
        res = ch.resolvent()
        A = {0: ch.Id_proj}
        B = {-1: res["r1"]}
        C = star_compose(A, B, ch, orders=(-1,))
        assert (C[-1] - res["r1"]).applyfunc(
            lambda e: canonical_zero_form(ch, e)) == zeros(ch.n_proj, ch.n_proj)


class TestProofsSeeCompositionFaults:
    """The proofs check the construction with ``star_compose``, not with the
    ``_compose_term`` routine that builds it, so a fault there must show."""

    @pytest.mark.parametrize("mutate, order", [
        pytest.param(lambda c, k: c, None, id="unchanged"),
        # on a one-dimensional boundary w = (k,), so dropping 1/w! scales c by k!
        pytest.param(lambda c, k: c * math.factorial(k), 0, id="dropped-factorial-weight"),
        pytest.param(lambda c, k: -c if k == 1 else c, 1, id="flipped-first-order-sign"),
    ])
    def test_riccati_residual(self, monkeypatch, mutate, order):
        ch = BoundaryChart(2, 0)  # not the cached chart(2, 0): the mutation stays in it
        term = ch._compose_term
        monkeypatch.setattr(ch, "_compose_term", lambda c, A, B, k: term(mutate(c, k), A, B, k))
        # the highest order whose residual is nonzero: the one the fault reaches first
        faulty = [k for k, M in riccati_residual(ch).items() if M != zeros(1, 1)]
        assert max(faulty, default=None) == order, faulty


class TestGradedIdentities:
    """Exact identities of the graded symbol solution (fast dimension-2 fibers;
    the full five-fiber parametrix check runs in the acceptance suite)."""

    @pytest.mark.parametrize("q", [0, 1])
    def test_quadratic_symbol_equation_dim2(self, q):
        ch = chart(2, q)
        res = riccati_residual(ch)
        for k in (2, 1, 0):
            assert res[k] == zeros(*res[k].shape), f"order {k} defect nonzero"

    @pytest.mark.parametrize("q", [0, 1])
    def test_projected_square_correction_dim2(self, q):
        ch = chart(2, q)
        assert projected_square_correction_defect(ch) == zeros(ch.n_proj, ch.n_proj)

    @pytest.mark.parametrize("q", [0, 1])
    def test_parametrix_dim2(self, q):
        ch = chart(2, q)
        defect = parametrix_defect(ch)
        for k, M in defect.items():
            assert M == zeros(*M.shape), f"order {k} defect nonzero"

    @staticmethod
    def _perturbed_defect(ch, piece):
        """Order -2 parametrix defect with ``r3`` replaced by ``r3 - 3/1000 piece``."""
        a1t, a0t, am1t = ch.alphas_tilde()
        res = ch.resolvent()
        A = {1: ch.mu * ch.Id_proj - a1t, 0: -a0t, -1: -am1t}
        B = {-1: res["r1"], -2: res["r2"], -3: res["r3"] - sp.Rational(3, 1000) * res[piece]}
        return star_compose(A, B, ch, orders=(-2,))[-2]

    @pytest.mark.parametrize("piece", ["I", "III", "V1", "V2", "V5", "V8"])
    def test_parametrix_negative_control(self, piece):
        # the order -2 defect must see a small change in any piece of r_{-3}
        ch = chart(2, 0)
        C = self._perturbed_defect(ch, piece)
        assert C.applyfunc(lambda e: canonical_zero_form(ch, e)) != zeros(*C.shape)

    def test_normal_form_matches_generic_expand(self):
        # reference: the same substitutions, expanded by sympy's generic expand
        ch = chart(2, 0)
        v, t = Symbol("v_princ", positive=True), Symbol("t_gap")
        xi_sq = ch.w ** 2 - ch.lam
        (e,) = self._perturbed_defect(ch, "V5")
        ref = sp.expand(e.xreplace({ch.lam: v ** 2 - xi_sq, ch.mu: t + v}))
        form = canonical_zero_form(ch, e)
        assert form != 0 and sp.expand(form - ref) == 0
