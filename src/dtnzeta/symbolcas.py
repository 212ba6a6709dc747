"""Exact boundary symbol calculus for form-valued Laplacians.

Builds, per boundary fiber ``(m, q)`` (ambient dimension ``m``, form degree
``q``), the one-sided factorization symbols of ``Delta + lambda`` near the
boundary and the symbol expansion of the associated Dirichlet-to-Neumann
operator on tangential forms:

* generic-coefficient model of the operator in boundary normal coordinates:
  inverse metric ``g^{ab}``, ``ln|g|``, connection matrices ``omega_k``,
  curvature endomorphism ``E``, Christoffel symbols, each a jet symbol with
  an exact total derivative (:func:`_jet_symbol`, :func:`_derive`);
* the degree-graded solution ``alpha_1, alpha_0, alpha_{-1}`` of the quadratic
  (Riccati-type) symbol equation;
* projection onto the tangential sub-bundle and the corrected projected
  expansion ``alpha~``;
* the resolvent symbols ``r_{-1}, r_{-2}, r_{-3}`` of the projected operator,
  split into the labelled pieces used by the density computation;
* a boundary-point substitution table resolving every metric/connection jet
  into principal curvatures ``kappa_a``, scalar curvatures ``tau_M, tau_Y``
  and jet symbols, the set of which is fixed by ``(m, q)``.

All algebra is exact (sympy); no floating point enters this module.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, lru_cache
from math import comb

import sympy as sp
from sympy import Add, Matrix, Mul, Pow, Rational, S, Symbol, eye, sqrt, zeros
from sympy.matrices.exceptions import ShapeError
from sympy.polys.rings import PolyRing

__all__ = [
    "JetResolutionError",
    "form_basis",
    "connection_matrices",
    "BoundaryChart",
    "chart",
    "star_compose",
    "riccati_residual",
    "parametrix_defect",
    "projected_square_correction_defect",
]

II = sp.I


class JetResolutionError(ValueError):
    """A coefficient jet appeared that the boundary-point table cannot resolve."""


def _jet(name: str) -> Symbol:
    """Symbol for a jet value with no closed form at the boundary point."""
    return Symbol(name, real=True)


# ---------------------------------------------------------------------------
# Coefficient jets and their total derivative
# ---------------------------------------------------------------------------

def _jet_symbol(fname: str, counts: tuple[int, ...]) -> Symbol:
    """The jet ``d^counts fname`` of a generic coefficient, e.g. ``gu11@010``.

    ``counts`` holds one derivative count per coordinate ``(y_1, .., y_m)``,
    the normal coordinate last.  :func:`_jet_key` inverts the naming.
    """
    if max(counts) > 9:
        raise ValueError(f"jet order above 9 in one direction: {fname} {counts}")
    return Symbol(f"{fname}@{''.join(map(str, counts))}")


@lru_cache(maxsize=None)
def _jet_key(sym: Symbol) -> tuple[str, tuple[int, ...]] | None:
    """``(fname, counts)`` of a coefficient jet symbol; ``None`` for any other."""
    fname, at, digits = sym.name.partition("@")
    return (fname, tuple(map(int, digits))) if at else None


@lru_cache(maxsize=None)
def _derive(expr: sp.Expr, var) -> sp.Expr:
    """Exact derivative of ``expr`` along ``var``.

    ``var`` is a coordinate index ``k`` (total derivative ``D_k``, which takes
    the jet ``f_alpha`` to ``f_{alpha + e_k}`` and every other symbol to 0) or
    a symbol (ordinary partial derivative; coefficient jets are constant).
    Only ``Add``, ``Mul`` and ``Pow`` with a numeric exponent are
    differentiated; any other node raises ``TypeError``.  Memoized for the
    process, like :func:`chart`: ``star_compose`` and the resolvent take the
    same derivatives of the same symbol entries many times over.
    """
    if expr.is_Symbol:
        if not isinstance(var, int):
            return S.One if expr == var else S.Zero
        key = _jet_key(expr)
        if key is None:
            return S.Zero
        fname, counts = key
        return _jet_symbol(fname, counts[:var] + (counts[var] + 1,) + counts[var + 1:])
    if expr.is_Atom:
        return S.Zero
    if expr.is_Add:
        return Add(*[_derive(a, var) for a in expr.args])
    if expr.is_Mul:
        args = expr.args
        terms = []
        for i, a in enumerate(args):
            da = _derive(a, var)
            if da != 0:
                terms.append(Mul(*args[:i], da, *args[i + 1:]))
        return Add(*terms)
    if expr.is_Pow and expr.exp.is_Number:
        db = _derive(expr.base, var)
        if db == 0:
            return S.Zero
        return Mul(expr.exp, Pow(expr.base, expr.exp - 1), db)
    raise TypeError(f"cannot differentiate {type(expr).__name__}: {expr}")


def _diff(X, var):
    """:func:`_derive` of a scalar, or entrywise of a matrix."""
    if isinstance(X, sp.MatrixBase):
        return X.applyfunc(lambda e: _derive(e, var))
    return _derive(X, var)


def _mm(A: Matrix, B: Matrix) -> Matrix:
    """Matrix product summing only the structurally nonzero ``A[i,k] B[k,j]``.

    Equal to ``A * B``, without the ``0 * entry`` infinity probe sympy makes
    on every nonzero entry: no chart entry is infinite, so ``0 * entry`` is 0.
    """
    if A.cols != B.rows:
        raise ShapeError(f"matrix size mismatch: {A.shape} * {B.shape}")
    rows = [[(k, a) for k in range(A.cols) if (a := A[i, k]) != 0] for i in range(A.rows)]
    cols = [{k: b for k in range(B.rows) if (b := B[k, j]) != 0} for j in range(B.cols)]
    return Matrix(A.rows, B.cols,
                  lambda i, j: Add(*[a * cols[j][k] for k, a in rows[i] if k in cols[j]]))


# ---------------------------------------------------------------------------
# Fiber combinatorics and connection matrices
# ---------------------------------------------------------------------------

def form_basis(m: int, q: int) -> list[tuple[bool, tuple[int, ...]]]:
    """Ordered basis of the degree-``q`` covector fiber in dimension ``m``.

    Purely tangential monomials (indices in ``1..m-1``) come first, followed by
    monomials containing the normal index ``m``, written normal-first and
    encoded as ``(True, J)`` with ``J`` the tangential remainder.
    """
    tang = list(itertools.combinations(range(1, m), q))
    norm = list(itertools.combinations(range(1, m), q - 1)) if q >= 1 else []
    return [(False, t) for t in tang] + [(True, t) for t in norm]


def connection_matrices(m: int, q: int, kappas) -> list[Matrix]:
    """Connection matrices ``omega_1 .. omega_{m-1}, omega_m`` at a boundary point.

    Expressed in an adapted orthonormal coframe diagonalizing the shape
    operator with principal curvatures ``kappas``; entries act on the ordered
    basis of :func:`form_basis`.
    """
    basis = form_basis(m, q)
    n = len(basis)
    index = {b: i for i, b in enumerate(basis)}
    oms = []
    for a in range(1, m):
        Ma = zeros(n, n)
        for col, (has_m, J) in enumerate(basis):
            if not has_m:
                if a in J:
                    pos = J.index(a)
                    target = (True, tuple(x for x in J if x != a))
                    Ma[index[target], col] += kappas[a - 1] * (-1) ** pos
            else:
                if a not in J:
                    sign = (-1) ** sum(1 for x in J if x < a)
                    target = (False, tuple(sorted(J + (a,))))
                    Ma[index[target], col] += -kappas[a - 1] * sign
        oms.append(Ma)
    Mm = zeros(n, n)
    for col, (has_m, J) in enumerate(basis):
        Mm[col, col] = sum((kappas[j - 1] for j in J), sp.Integer(0))
    oms.append(Mm)
    return oms


# ---------------------------------------------------------------------------
# The chart
# ---------------------------------------------------------------------------

class BoundaryChart:
    """Generic-coefficient boundary model for the pair ``(m, q)``.

    Every metric/connection coefficient is the order-0 jet symbol of a
    generic function of the boundary normal coordinates (:func:`_jet_symbol`);
    ``d_y`` and ``d_norm`` take jets to higher jets exactly, so symbol
    manipulations produce genuine jets.  A separate substitution table
    (:meth:`_resolve_jet`) evaluates them at the distinguished point, applied
    by :meth:`eval_at_boundary_point` or at the leaves of
    :func:`_laurent_expansion`.
    """

    def __init__(self, m: int, q: int):
        if m not in (2, 3):
            raise ValueError("only ambient dimensions 2 and 3 are supported")
        if not 0 <= q <= m - 1:
            raise ValueError("form degree must satisfy 0 <= q <= m-1")
        self.m, self.q = m, q
        self.d = m - 1
        self.n_full = comb(m, q)
        self.n_proj = comb(m - 1, q)

        self.xis = [Symbol(f"xi{a}", real=True) for a in range(1, m)]
        self.lam = Symbol("lam", positive=True)
        self.mu = Symbol("mu")
        if m == 2:
            self.kappas = [Symbol("kappa", real=True)]
        else:
            self.kappas = [Symbol(f"kappa{a}", real=True) for a in range(1, m)]
        self.tauM = Symbol("tauM", real=True)
        self.tauY = Symbol("tauY", real=True)
        coef = lambda name: _jet_symbol(name, (0,) * m)

        # inverse metric g^{ab}, one jet per unordered index pair
        self.gu = Matrix(self.d, self.d,
                         lambda a, b: coef(f"gu{min(a, b) + 1}{max(a, b) + 1}"))
        self.lng = coef("lng")

        # connection matrices; index k = 1..m (m = normal)
        n = self.n_full
        self.om = [Matrix(n, n, lambda i, j: coef(f"om{k}_{i}_{j}")) for k in range(1, m + 1)]

        # curvature endomorphism (generic symmetric entries)
        self.E = Matrix(n, n, lambda i, j: coef(f"EE_{min(i, j)}_{max(i, j)}"))

        # Christoffel symbols of the boundary metric (tangential indices)
        self.Gam = {(c, a, b): coef(f"Gam{c + 1}_{min(a, b) + 1}{max(a, b) + 1}")
                    for c in range(self.d) for a in range(self.d) for b in range(self.d)}

        # principal symbol data
        self.w = sqrt(
            sum(self.gu[a, b] * self.xis[a] * self.xis[b]
                for a in range(self.d) for b in range(self.d)) + self.lam
        )
        self.A = -Rational(1, 2) * self.d_norm(self.lng)
        self.Id = eye(self.n_full)
        self.Id_proj = eye(self.n_proj)

        self.must_cancel = self._must_cancel()
        self.conn_values = connection_matrices(m, q, self.kappas)
        self.e_value_matrix = self._e_value_matrix()

    # -- elementary operations --------------------------------------------
    def d_xi(self, X, a: int):
        return _diff(X, self.xis[a])

    def d_y(self, X, a: int):
        return _diff(X, a)

    def d_norm(self, X):
        return _diff(X, self.d)

    def _riccati_coefficients(self, om_m: Matrix) -> tuple[Matrix, Matrix]:
        """``B = -(A - 2 omega_m)`` and ``C = -(d_m omega_m + omega_m^2 - A omega_m)``
        of the quadratic symbol equation, on the fiber of ``om_m``."""
        B = -(self.A * eye(om_m.rows) - 2 * om_m)
        Cmat = -(self.d_norm(om_m) + _mm(om_m, om_m) - self.A * om_m)
        return B, Cmat

    def project(self, X: Matrix) -> Matrix:
        """Top-left tangential block of a full fiber matrix."""
        return X[: self.n_proj, : self.n_proj]

    # -- operator symbols --------------------------------------------------
    @property
    def p2(self) -> Matrix:
        return (self.w ** 2) * self.Id

    @property
    def p1(self) -> Matrix:
        scal = sp.Integer(0)
        for b in range(self.d):
            coeff = sp.Integer(0)
            for a in range(self.d):
                coeff += (Rational(1, 2) * self.gu[a, b] * self.d_y(self.lng, a)
                          + self.d_y(self.gu[a, b], a))
            scal += coeff * self.xis[b]
        M = -II * scal * self.Id
        for a in range(self.d):
            for b in range(self.d):
                M += -2 * II * self.gu[a, b] * self.om[a] * self.xis[b]
        return M

    @property
    def p0(self) -> Matrix:
        M = zeros(self.n_full, self.n_full)
        for a in range(self.d):
            for b in range(self.d):
                term = self.d_y(self.om[b], a)
                term = term + _mm(self.om[a], self.om[b])
                for c in range(self.d):
                    term = term - self.Gam[(c, a, b)] * self.om[c]
                M += -self.gu[a, b] * term
        return M - self.E

    # -- graded symbol solution -------------------------------------------
    @cache
    def alphas_full(self) -> tuple[Matrix, Matrix, Matrix]:
        """The solution ``(alpha_1, alpha_0, alpha_{-1})`` on the full fiber."""
        w = self.w
        B, Cmat = self._riccati_coefficients(self.om[self.m - 1])

        a1 = w * self.Id
        acc = zeros(self.n_full, self.n_full)
        for a in range(self.d):
            acc += _mm(-self.d_xi(a1, a), -II * self.d_y(a1, a))
        acc += self.p1 + _mm(B, a1) + self.d_norm(a1)
        a0 = (1 / (2 * w)) * acc

        parts = self._alpha_minus1_parts(a1, a0, _mm(a0, a0), self.p0, B, Cmat)
        am1 = (1 / (2 * w)) * sum(parts, zeros(self.n_full, self.n_full))
        return a1, a0, am1

    def _alpha_minus1_parts(self, a1, a0_left, a0_sq_src, p0, B, Cmat) -> list[Matrix]:
        """The eight summands of ``2 w alpha_{-1}`` (shared full/projected)."""
        d = self.d
        P1 = zeros(*a1.shape)
        for a in range(d):
            for b in range(a, d):
                c = Rational(1, 2) if a == b else sp.Integer(1)
                P1 += _mm(c * self.d_xi(self.d_xi(a1, a), b), self.d_y(self.d_y(a1, a), b))
        P2 = zeros(*a1.shape)
        P3 = zeros(*a1.shape)
        for a in range(d):
            P2 += _mm(II * self.d_xi(a0_left, a), self.d_y(a1, a))
            P3 += _mm(II * self.d_xi(a1, a), self.d_y(a0_left, a))
        P4 = -a0_sq_src
        P5 = p0
        P6 = _mm(B, a0_left)
        P7 = self.d_norm(a0_left)
        P8 = Cmat
        return [P1, P2, P3, P4, P5, P6, P7, P8]

    @cache
    def alphas_tilde(self) -> tuple[Matrix, Matrix, Matrix]:
        """Projected (tangential) symbol expansion with the square correction.

        ``alpha~_1`` and ``alpha~_0`` are plain projections; ``alpha~_{-1}``
        uses the tilde-quantities recursion, with the quadratic piece replaced
        by the projection of the full square.
        """
        a1f, a0f, _ = self.alphas_full()
        a1t = self.w * self.Id_proj
        a0t = self.project(a0f)
        parts = self.alpha_tilde_parts()
        am1t = (1 / (2 * self.w)) * sum(parts, zeros(self.n_proj, self.n_proj))
        return a1t, a0t, am1t

    @cache
    def alpha_tilde_parts(self) -> list[Matrix]:
        """The eight summands of ``2 w alpha~_{-1}`` on the tangential block."""
        a1f, a0f, _ = self.alphas_full()
        a1t = self.w * self.Id_proj
        a0t = self.project(a0f)
        Bt, Cmat_t = self._riccati_coefficients(self.project(self.om[self.m - 1]))
        p0t = self.project(self.p0)
        a0_sq_proj = self.project(_mm(a0f, a0f))
        return self._alpha_minus1_parts(a1t, a0t, a0_sq_proj, p0t, Bt, Cmat_t)

    # -- resolvent symbols -------------------------------------------------
    @cache
    def resolvent(self) -> dict[str, Matrix]:
        """Resolvent symbols ``r_{-1}, r_{-2}, r_{-3}`` of the projected operator.

        Returns a dict with keys ``r1, r2, r3`` and the labelled pieces
        ``I, II, III, IV`` plus ``V1 .. V8`` whose sum is ``r3``.
        """
        n = self.n_proj
        a1t, a0t, am1t = self.alphas_tilde()
        G = 1 / (self.mu - self.w)
        r1 = G * eye(n)

        acc = zeros(n, n)
        for a in range(self.d):
            acc += _mm(self.d_xi(a1t, a) * (-II), self.d_y(r1, a))
        acc += _mm(a0t, r1)
        r2 = G * acc

        T_I = zeros(n, n)
        for a in range(self.d):
            for b in range(a, self.d):
                c = Rational(1, 2) if a == b else sp.Integer(1)
                T_I += _mm(c * self.d_xi(self.d_xi(a1t, a), b) * (-1),
                           self.d_y(self.d_y(r1, a), b))
        T_II = zeros(n, n)
        T_III = zeros(n, n)
        for a in range(self.d):
            T_II += _mm(self.d_xi(a1t, a) * (-II), self.d_y(r2, a))
            T_III += _mm(self.d_xi(a0t, a) * (-II), self.d_y(r1, a))
        T_IV = _mm(a0t, r2)

        pieces = {
            "I": G * T_I,
            "II": G * T_II,
            "III": G * T_III,
            "IV": G * T_IV,
        }
        parts = self.alpha_tilde_parts()
        for k, P in enumerate(parts, start=1):
            pieces[f"V{k}"] = G * _mm((1 / (2 * self.w)) * P, r1)
        r3 = sum(pieces.values(), zeros(n, n))
        return {"r1": r1, "r2": r2, "r3": r3, **pieces}

    # -- boundary-point substitution table --------------------------------
    def dom_symbol(self, k: int, i: int, j: int, direction: int) -> Symbol:
        """Jet symbol for ``d_{direction} omega_k[i, j]`` at the base point.

        ``direction`` is a 0-based coordinate index; ``direction == m-1`` is
        the normal direction.
        """
        return _jet(f"dom{k}_{i}_{j}_c{direction}")

    def _riem_Y(self, a, b, c, d) -> sp.Expr:
        """Boundary curvature ``R_{abcd}`` (0-based indices, sign so that
        ``sum_b R_{abba} = tau_Y``); identically 0 for a 1-dim boundary."""
        if self.d < 2:
            return sp.Integer(0)
        delta = lambda i, j: sp.Integer(1 if i == j else 0)
        return (self.tauY / 2) * (delta(a, d) * delta(b, c) - delta(a, c) * delta(b, d))

    def _ric_Y(self, a, b) -> sp.Expr:
        return sum(self._riem_Y(a, e, e, b) for e in range(self.d))

    @property
    def H1(self) -> sp.Expr:
        return sum(self.kappas) / (self.m - 1)

    @property
    def H2(self) -> sp.Expr:
        if self.m < 3:
            raise ValueError("second mean curvature needs boundary dimension >= 2")
        pairs = sum(self.kappas[a] * self.kappas[b]
                    for a in range(self.d) for b in range(a + 1, self.d))
        return sp.Integer(2) * pairs / ((self.m - 1) * (self.m - 2))

    @property
    def sum_glow_mm(self) -> sp.Expr:
        """Trace of the second normal jet of the *lower* metric at the point."""
        h2 = self.H2 if self.m >= 3 else sp.Integer(0)
        ty = self.tauY if self.m >= 3 else sp.Integer(0)
        return -(self.tauM - ty - 2 * (self.m - 1) ** 2 * self.H1 ** 2
                 + 3 * (self.m - 1) * (self.m - 2) * h2)

    @property
    def sum_gu_mm(self) -> sp.Expr:
        """Known value of ``sum_a d_m^2 g^{aa}`` at the point."""
        return 8 * sum(k ** 2 for k in self.kappas) - self.sum_glow_mm

    def _resolve_jet(self, fname: str, counts: tuple[int, ...]) -> sp.Expr:
        """Value of a coefficient jet at the distinguished boundary point."""
        m, d = self.m, self.d
        tang = counts[:d]
        nrm = counts[d]
        total = sum(counts)
        delta = lambda i, j: sp.Integer(1 if i == j else 0)

        if fname.startswith("gu"):
            a, b = int(fname[2]) - 1, int(fname[3]) - 1
            if total == 0:
                return delta(a, b)
            if total == 1:
                if nrm == 1:
                    return 2 * self.kappas[a] * delta(a, b)
                return sp.Integer(0)
            if total == 2:
                if nrm == 0:
                    idx = [c for c in range(d) for _ in range(tang[c])]
                    c1, c2 = idx
                    return Rational(1, 3) * (self._riem_Y(a, c1, c2, b)
                                             + self._riem_Y(a, c2, c1, b))
                if nrm == 1:
                    return _jet(f"Jgu{a}{b}m{tang.index(1)}")
                if a == b:
                    return _jet(f"Gmm{a + 1}")
                return _jet(f"Gmmo{a}{b}")
            raise JetResolutionError(f"unresolvable jet: {fname} counts={counts}")

        if fname == "lng":
            if total == 0:
                return sp.Integer(0)
            if total == 1:
                if nrm == 1:
                    return -2 * sum(self.kappas)
                return sp.Integer(0)
            if total == 2:
                if nrm == 0:
                    idx = [c for c in range(d) for _ in range(tang[c])]
                    c1, c2 = idx
                    return -Rational(2, 3) * self._ric_Y(c1, c2)
                if nrm == 1:
                    return _jet(f"Jlngm{tang.index(1)}")
                return -4 * sum(k ** 2 for k in self.kappas) + self.sum_glow_mm
            raise JetResolutionError(f"unresolvable jet: {fname} counts={counts}")

        if fname.startswith("om"):
            head, i, j = fname.split("_")
            k, i, j = int(head[2:]), int(i), int(j)
            if total == 0:
                return self.conn_values[k - 1][i, j]
            if total == 1:
                direction = counts.index(1)
                return self.dom_symbol(k, i, j, direction)
            raise JetResolutionError(f"unresolvable jet: {fname} counts={counts}")

        if fname.startswith("EE_"):
            _, i, j = fname.split("_")
            if total == 0:
                return self.e_value_matrix[int(i), int(j)]
            raise JetResolutionError(f"unresolvable jet: {fname} counts={counts}")

        if fname.startswith("Gam"):
            if total == 0:
                return sp.Integer(0)
            raise JetResolutionError(f"unresolvable jet: {fname} counts={counts}")

        raise JetResolutionError(f"unknown coefficient function: {fname}")

    def _e_value_matrix(self) -> Matrix:
        """Value of the curvature endomorphism at the point, in curvature symbols."""
        m, q, n = self.m, self.q, self.n_full
        if q == 0:
            M = zeros(n, n)
        elif m == 2:  # full Ricci endomorphism on 1-forms
            r11, r12, r22 = (Symbol(s, real=True) for s in ("RicM11", "RicM12", "RicM22"))
            M = Matrix([[-r11, -r12], [-r12, -r22]])
        elif q == 1:  # full Ricci endomorphism on 1-forms, dim 3
            r = {(i, j): Symbol(f"RicM{min(i,j)+1}{max(i,j)+1}", real=True)
                 for i in range(3) for j in range(3)}
            M = Matrix(3, 3, lambda i, j: -r[(i, j)])
        else:  # q == 2, basis {e1^e2, e3^e1, e3^e2}
            r11, r22, r33 = (Symbol(s, real=True) for s in ("RicM11", "RicM22", "RicM33"))
            c2113 = Symbol("RM2113", real=True)
            c1223 = Symbol("RM1223", real=True)
            c1332 = Symbol("RM1332", real=True)
            M = Matrix([
                [-r33, -c2113, c1223],
                [-c2113, -r22, c1332],
                [c1223, c1332, -r11],
            ])
        return M

    def _must_cancel(self) -> frozenset[Symbol]:
        """Jet symbols that carry no curvature data and must drop out of every
        integrated density.

        These are the mixed normal/tangential jets of ``g^{ab}`` and ``ln|g|``,
        the off-diagonal second normal jets of ``g^{ab}``, the diagonal ones
        but the first, which :meth:`post_integration_rules` eliminates, and the
        Ricci components of the curvature endomorphism that no trace fixes.
        """
        d = self.d
        pairs = [(a, b) for a in range(d) for b in range(a, d)]
        names = [f"Jgu{a}{b}m{c}" for a, b in pairs for c in range(d)]
        names += [f"Gmmo{a}{b}" for a, b in pairs if a != b]
        names += [f"Jlngm{c}" for c in range(d)]
        names += [f"Gmm{a + 1}" for a in range(1, d)]
        names += {
            (2, 1): ["RicM11", "RicM12", "RicM22"],
            (3, 1): ["RicM12", "RicM13", "RicM22", "RicM23"],
            (3, 2): ["RicM11", "RicM22", "RM2113", "RM1223", "RM1332"],
        }.get((self.m, self.q), [])
        return frozenset(_jet(name) for name in names)

    def post_integration_rules(self) -> dict[Symbol, sp.Expr]:
        """Substitutions resolving trace-only jet symbols.

        The individual diagonal second normal metric jets and the diagonal
        curvature-endomorphism entries are only known through their traces;
        these rules eliminate one symbol of each family in favour of the known
        trace.  The remaining symbols of each family are in :attr:`must_cancel`.
        The symbols are constants of the contour and momentum integration, so
        the rules hold for the integrated density and may be applied before
        the integration: :func:`_laurent_expansion` applies them at its leaves.
        """
        gmm = [_jet(f"Gmm{a + 1}") for a in range(self.d)]
        rules = {gmm[0]: self.sum_gu_mm - sum(gmm[1:], sp.Integer(0))}
        if self.m == 3 and self.q >= 1:
            ric33_val = (self.tauM - self.tauY) / 2 + self.kappas[0] * self.kappas[1]
            rules[_jet("RicM33")] = ric33_val
            if self.q == 1:
                rules[_jet("RicM11")] = self.tauM - _jet("RicM22") - ric33_val
        return rules

    def eval_at_boundary_point(self, expr):
        """Substitute every coefficient jet by its boundary-point value.

        Accepts a scalar expression or a Matrix; raises
        :class:`JetResolutionError` on jets outside the table.
        """
        if isinstance(expr, Matrix):
            return expr.applyfunc(self.eval_at_boundary_point)
        return expr.xreplace({s: self._resolve_jet(*key) for s in expr.free_symbols
                              if (key := _jet_key(s)) is not None})


@lru_cache(maxsize=None)
def chart(m: int, q: int) -> BoundaryChart:
    """Shared cached chart instance for ``(m, q)``."""
    return BoundaryChart(m, q)


# ---------------------------------------------------------------------------
# Star composition and grading checks
# ---------------------------------------------------------------------------

def _multi_indices(d: int, total: int):
    """All multi-indices over ``d`` slots with given total degree."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(d - 1, total - first):
            yield (first, *rest)


def star_compose(comp_a: dict[int, Matrix], comp_b: dict[int, Matrix],
                 ch: BoundaryChart, orders) -> dict[int, Matrix]:
    """Graded components of the symbol composition ``a # b``.

    ``comp_a`` / ``comp_b`` map homogeneity order to matrix component; the
    result maps each requested order ``N`` to
    ``sum (1/w!) d_xi^w a_i . D_y^w b_j`` over ``i + j - |w| = N``.
    """
    out = {}
    for N in orders:
        n = next(iter(comp_a.values())).shape[0]
        acc = zeros(n, n)
        for i, Ai in comp_a.items():
            for j, Bj in comp_b.items():
                k = i + j - N
                if k < 0:
                    continue
                for omega in _multi_indices(ch.d, k):
                    fact = sp.prod([sp.factorial(o) for o in omega])
                    dA = Ai
                    dB = Bj
                    for a, cnt in enumerate(omega):
                        for _ in range(cnt):
                            dA = ch.d_xi(dA, a)
                            dB = ch.d_y(dB, a)
                    acc += _mm((1 / fact) * (-II) ** k * dA, dB)
        out[N] = acc
    return out


def _symbols(expr: sp.Expr) -> set[Symbol]:
    """The free symbols of ``expr``, each shared subexpression visited once
    (``free_symbols`` walks the expression DAG as a tree)."""
    seen, symbols, stack = set(), set(), [expr]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            if x.is_Symbol:
                symbols.add(x)
            else:
                stack.extend(x.args)
    return symbols


def _laurent_expansion(ch: BoundaryChart, expr: sp.Expr, at_point: bool = False):
    """Laurent expansion of a symbol-calculus scalar in ``mu - w`` and ``w``.

    Replaces the principal symbol ``w`` by a generator ``v`` through the
    relation ``v**2 = |xi|_g^2 + lam``, imposed by eliminating
    ``lam = v**2 - |xi|_g^2`` (so ``w = sqrt(v**2) = v``), and shifts the
    spectral parameter, ``mu -> t + v``, so that ``t`` is the gap ``mu - w``.
    With ``at_point`` every coefficient jet is replaced by its value at the
    distinguished boundary point (:meth:`BoundaryChart._resolve_jet`) with
    :meth:`BoundaryChart.post_integration_rules` applied, and ``|xi|_g^2`` is
    ``|xi|^2``.  Without it the jets stay generators and ``|xi|_g^2`` is
    ``g^{ab} xi_a xi_b``.  Every denominator the calculus produces is a power
    of ``w`` or of ``mu - w`` (``1/(mu - w)``, ``d_xi w``, ``d_y w``), so
    afterwards every denominator is a monomial in ``t`` and ``v``.  The
    remaining variables (``t, v, xi`` and the other atoms) are algebraically
    independent and the substitutions of ``lam`` and ``mu`` are invertible, so
    the expression has exactly one expansion as a Laurent polynomial in them.

    The expansion is one walk into a sparse polynomial ring over ``QQ``
    whose generators are ``t, 1/t, v, 1/v``, ``I`` and the remaining atoms,
    one conversion per distinct subexpression; every substitution is made at
    a leaf.  A negative integer power is accepted only when its base maps to
    one nonzero monomial in ``t``, ``v`` and ``I``, a half-integer power only
    when its base maps to ``v**2``; any other power or function raises
    ``ValueError``, as does a zero base.  Returns the ring and the nonzero
    coefficients by exponent tuple, with ``t * (1/t)`` and ``v * (1/v)``
    cancelled and ``I**2 = -1`` applied, so an identity comes out empty
    before any expression is built.
    """
    v = Symbol("v_princ", positive=True)
    t = Symbol("t_gap")
    symbols = _symbols(expr)
    xi_sq = Add(*[xi ** 2 for xi in ch.xis]) if at_point else ch.w ** 2 - ch.lam
    leaves = {ch.lam: v ** 2 - xi_sq, ch.mu: t + v}
    if at_point:
        leaves.update(ch.post_integration_rules())
        leaves.update({s: ch._resolve_jet(*key) for s in symbols
                       if (key := _jet_key(s)) is not None})

    def atoms(x):
        return set().union(*map(atoms, leaves[x].free_symbols)) if x in leaves else {x}

    ring = PolyRing([t, 1 / t, v, 1 / v, II, *set().union(*map(atoms, symbols)) - {t, v}],
                    sp.QQ)
    poly = dict(zip(ring.symbols, ring.gens))

    def invert(base, x):
        """``1/base`` for a ``base`` that is one monomial in ``t``, ``v`` and ``I``."""
        if not base:
            raise ValueError(f"division by zero in {x}")
        ((tp, tn, vp, vn, i, *rest), c), *others = base.items()
        if others or any(rest):
            raise ValueError(f"{x} is not a Laurent monomial in mu - w and w")
        return ring.from_dict({(tn, tp, vn, vp, i, *rest): ring.domain((-1) ** i) / c})

    def convert(x):
        if x not in poly:
            if x in leaves:
                poly[x] = convert(leaves[x])
            elif x.is_Add:
                poly[x] = sum((convert(a) for a in x.args), ring.zero)
            elif x.is_Mul:
                poly[x] = math.prod((convert(a) for a in x.args), start=ring.one)
            elif x.is_Pow and x.exp.is_Integer:
                base = convert(x.base)
                poly[x] = (base if x.exp > 0 else invert(base, x)) ** abs(int(x.exp))
            elif (x.is_Pow and x.exp.is_Rational and x.exp.q == 2
                  and convert(x.base) == poly[v] ** 2):
                poly[x] = (poly[v] if x.exp > 0 else poly[1 / v]) ** abs(x.exp.p)
            elif x.is_Number:
                poly[x] = ring(x)
            else:
                raise ValueError(f"{x} is not a Laurent monomial in mu - w and w")
        return poly[x]

    whole = convert(expr)
    poly.clear()  # convert refers to itself: free the memo before the cyclic collector would
    terms = {}
    for (tp, tn, vp, vn, i, *rest), c in whole.items():
        k, l = min(tp, tn), min(vp, vn)
        mono = (tp - k, tn - k, vp - l, vn - l, i % 2, *rest)
        terms[mono] = terms.get(mono, ring.domain.zero) + (-c if i % 4 > 1 else c)
    return ring, {mono: c for mono, c in terms.items() if c}


def canonical_zero_form(ch: BoundaryChart, expr: sp.Expr) -> sp.Expr:
    """The expansion of :func:`_laurent_expansion`, jets kept, as an
    expression: literal 0 exactly when the identity holds."""
    ring, terms = _laurent_expansion(ch, expr)
    return ring.from_dict(terms).as_expr()


def riccati_residual(ch: BoundaryChart) -> dict[int, Matrix]:
    """Defect of the quadratic symbol equation at orders 2, 1, 0.

    The graded solution must satisfy ``alpha # alpha = D - (A - 2 omega_m)
    alpha + d_m alpha - (d_m omega_m + omega_m^2 - A omega_m)`` componentwise;
    returns the left-minus-right matrices, which must vanish identically.
    """
    a1, a0, am1 = ch.alphas_full()
    comp = {1: a1, 0: a0, -1: am1}
    lhs = star_compose(comp, comp, ch, orders=(2, 1, 0))
    B, Cmat = ch._riccati_coefficients(ch.om[ch.m - 1])
    rhs = {
        2: ch.p2,
        1: ch.p1 + _mm(B, a1) + ch.d_norm(a1),
        0: ch.p0 + _mm(B, a0) + ch.d_norm(a0) + Cmat,
    }
    return {k: (lhs[k] - rhs[k]).applyfunc(lambda e: canonical_zero_form(ch, e))
            for k in (2, 1, 0)}


def parametrix_defect(ch: BoundaryChart) -> dict[int, Matrix]:
    """Defect of ``(mu - sigma(Q)) # r = Id`` at orders 0, -1, -2.

    The order-0 component is compared against the identity matrix; the
    returned matrices must vanish identically.  Orders below -2 require the
    next symbol in the expansion and are outside the depth of this module.
    """
    a1t, a0t, am1t = ch.alphas_tilde()
    res = ch.resolvent()
    A = {1: ch.mu * ch.Id_proj - a1t, 0: -a0t, -1: -am1t}
    B = {-1: res["r1"], -2: res["r2"], -3: res["r3"]}
    C = star_compose(A, B, ch, orders=(0, -1, -2))
    C[0] = C[0] - ch.Id_proj
    return {k: M.applyfunc(lambda e: canonical_zero_form(ch, e)) for k, M in C.items()}


def projected_square_correction_defect(ch: BoundaryChart) -> Matrix:
    """At the base point, the projected full square must equal the square of
    the projected subprincipal symbol minus the tangential connection
    correction ``(1/(|xi|^2+lam)) sum (omega_a omega_b)~ xi_a xi_b``.

    The defect is built with its jets kept, and each entry is read at the
    point by :func:`_laurent_expansion` with its jet table.  The trace rules
    that walk applies are true relations at the base point, and the defect
    holds none of their symbols (``Gmm1``, ``RicM33``, ``RicM11``): it involves
    only first jets of ``g^{ab}``, ``ln|g|`` and ``omega``, plus connection
    values.
    """
    _, a0f, _ = ch.alphas_full()
    a0t = ch.project(a0f)
    corr = zeros(ch.n_proj, ch.n_proj)
    for a in range(ch.d):
        for b in range(ch.d):
            corr += ch.project(_mm(ch.om[a], ch.om[b])) * ch.xis[a] * ch.xis[b]
    defect = ch.project(_mm(a0f, a0f)) - (_mm(a0t, a0t) - corr / ch.w ** 2)

    def zero_form(e):
        ring, terms = _laurent_expansion(ch, e, at_point=True)
        return ring.from_dict(terms).as_expr()
    return defect.applyfunc(zero_form)
