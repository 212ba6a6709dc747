"""Quadrature geometries and curvature-integral constants.

A :class:`GeometrySpec` carries fixed-weight boundary quadrature nodes as
float64 columns of weights, pointwise principal curvatures and scalar
curvatures, plus the interior volume and boundary volume.  On top of it this
module evaluates:

* the determinant-gluing constant ``a0`` (integral of the boundary density),
* the zeta-at-zero constant (integral of twice the half-density),
* the conformal-variation identity in dimension 2.

The densities integrated are the paper's closed forms
(``symbolint.a0_reference`` and ``q_density_reference``), which the Tier-1
tests and ``derive-a0`` prove equal to the symbol derivation.  So a fault in
the derivation shows in ``derive-a0``, not in the constants' golden rows.

Accuracy is the node supplier's contract: the integrands are fixed polynomials
in the supplied pointwise fields, so fixed-weight quadrature is exact up to
the sampling of the fields themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

from .symbolcas import chart
# a0_density and q_density are unused here: perfbench/tracing.py wraps them in geom
from .symbolint import a0_density, a0_reference, q_density, q_density_reference

__all__ = [
    "GeometrySpec",
    "a0_constant",
    "zeta0_constant",
    "conformal_variation_check",
    "unit_disk",
    "unit_ball",
    "cylinder_boundary",
    "rescale",
]

# the per-node fields, each a float64 column over the nodes
_COLUMNS = ("w", "kappa", "tau_M", "tau_Y")


@dataclass(frozen=True, eq=False)
class GeometrySpec:
    """Boundary quadrature description of a compact manifold with boundary.

    The quadrature nodes are held as float64 columns, one entry per node.

    Parameters
    ----------
    m : int
        Interior dimension, 2 or 3.
    w : ndarray, shape (n,)
        Fixed-weight quadrature weights; they sum to ``ellY``.
    kappa : ndarray, shape (n, m - 1)
        Principal curvatures of the boundary at each node.
    tau_M, tau_Y : ndarray, shape (n,)
        Scalar curvatures of the interior and of the boundary at each node.
    V : float
        Interior volume.
    ellY : float
        Boundary volume (length for ``m = 2``, area for ``m = 3``).
    label : str
        Human-readable identifier.
    """

    m: int
    w: np.ndarray
    kappa: np.ndarray
    tau_M: np.ndarray
    tau_Y: np.ndarray
    V: float
    ellY: float
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.m, int):
            raise ValueError(f"geometry field 'm' must be an integer, got {self.m!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"geometry field 'label' must be a string, got {self.label!r}")
        for name in ("V", "ellY"):
            value = getattr(self, name)
            try:
                finite = (isinstance(value, (int, float)) and not isinstance(value, bool)
                          and math.isfinite(value))
            except OverflowError:
                raise _not_finite(name, _BEYOND_FLOAT64) from None
            if not finite:
                raise _not_finite(name, repr(value))
        for name in _COLUMNS:
            column = getattr(self, name)
            if not np.isfinite(column).all():
                raise _not_finite(name, repr(float(column[~np.isfinite(column)][0])))
        if self.m not in (2, 3):
            raise ValueError("only interior dimensions 2 and 3 are supported")
        if self.V <= 0 or self.ellY <= 0:
            raise ValueError("volumes must be positive")
        n = len(self.w)
        if not n:
            raise ValueError("a geometry needs at least one boundary node")
        wsum = sum(self.w.tolist())
        if (self.w <= 0).any():
            raise ValueError("quadrature weights must be positive")
        # relative at every scale; the subnormal term is the rounding of
        # weights below 2**-1022, e.g. a cylinder at L = 1e-310
        if abs(wsum - self.ellY) > 1e-12 * self.ellY + n * 2.0 ** -1074:
            raise ValueError(
                f"weights sum to {wsum!r}, expected boundary volume {self.ellY!r}")
        if self.kappa.shape != (n, self.m - 1):
            raise ValueError("each node needs m-1 principal curvatures")
        if self.m == 2 and self.tau_Y.any():
            raise ValueError("a 1-dimensional boundary has tau_Y = 0")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "m": self.m,
            "nodes": [dict(zip(_COLUMNS, node))
                      for node in zip(*(getattr(self, c).tolist() for c in _COLUMNS))],
            "V": self.V,
            "ellY": self.ellY,
            "label": self.label,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "GeometrySpec":
        try:
            payload = json.loads(text, parse_int=_parse_int)
        except RecursionError:
            raise ValueError("a geometry file nests its JSON too deeply to parse") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"a geometry file must hold a JSON object, got {type(payload).__name__}")
        _check_keys(payload, ("m", "nodes", "V", "ellY", "label"), ("m", "nodes", "V", "ellY"))
        nodes = payload["nodes"]
        if not (isinstance(nodes, list) and all(isinstance(n, dict) for n in nodes)):
            raise ValueError(f"geometry field 'nodes' must be a list of objects, got {nodes!r}")
        for n in nodes:
            _check_keys(n, _COLUMNS, ("w", "kappa"))
            if not isinstance(n["kappa"], list):
                raise ValueError(f"geometry field 'kappa' must be a list, got {n['kappa']!r}")
        widths = {len(n["kappa"]) for n in nodes}
        if len(widths) > 1:
            raise ValueError("each node needs m-1 principal curvatures")
        return GeometrySpec(
            m=payload["m"], w=_column("w", [n["w"] for n in nodes]),
            kappa=_column("kappa", [k for n in nodes for k in n["kappa"]]).reshape(
                len(nodes), max(widths, default=0)),
            tau_M=_column("tau_M", [n.get("tau_M", 0.0) for n in nodes]),
            tau_Y=_column("tau_Y", [n.get("tau_Y", 0.0) for n in nodes]),
            V=payload["V"], ellY=payload["ellY"], label=payload.get("label", ""))


def _parse_int(literal: str) -> int:
    """A JSON integer literal.  One of more than 309 digits is at least
    ``10**309`` (JSON has no leading zeros), beyond float64, and comes back as
    a signed ``10**309`` for the field checks to reject, since ``int()``
    refuses literals over the interpreter's digit limit."""
    if len(literal.lstrip("-")) > 309:
        return -10 ** 309 if literal.startswith("-") else 10 ** 309
    return int(literal)


def _check_keys(obj: dict, keys: tuple, required: tuple) -> None:
    """Reject a geometry-file key not among ``keys``, and a missing ``required`` key."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown geometry key {key!r}, expected one of {', '.join(keys)}")
    for name in required:
        if name not in obj:
            raise ValueError(f"geometry field {name!r} is missing")


_BEYOND_FLOAT64 = "an integer beyond the float64 range"


def _not_finite(name: str, got: str) -> ValueError:
    return ValueError(f"geometry field {name!r} must be a finite number, got {got}")


def _column(name: str, values: list) -> np.ndarray:
    """The float64 column of geometry field ``name``.  A value that is not an
    int or a float (a bool is neither) is rejected, naming the first, before
    numpy could read a string such as ``"1.0"`` as a number, and so is an int
    that no float64 holds; finiteness is checked on the column."""
    if not set(map(type, values)) <= {int, float}:
        raise _not_finite(name, repr(next(v for v in values if type(v) not in (int, float))))
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise _not_finite(name, _BEYOND_FLOAT64) from None


# ---------------------------------------------------------------------------
# Curvature-integral constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _density_fn(m: int, q: int, kind: str):
    """Lambdified boundary density: ``a0`` density or zeta-at-zero density.

    The density is the paper's closed form (``a0_reference``, twice
    ``q_density_reference``), which the Tier-1 tests and ``derive-a0`` prove
    equal to the symbol derivation; no process re-derives it to integrate it.
    It goes through its polynomial in the curvature fields, so the arithmetic
    does not depend on how the density happens to be printed (the derived and
    the closed-form polynomial are equal term by term), and the
    ``math``-lambdified polynomial takes the float64 columns as they are (a
    ``numpy``-lambdified one would load numpy's whole namespace).
    """
    ch = chart(m, q)
    expr = a0_reference(m, q) if kind == "a0" else 2 * q_density_reference(m, q)
    args = list(ch.kappas) + [ch.tauM, ch.tauY]
    return sp.lambdify(args, sp.Poly(expr, *args).as_expr(), modules="math")


def _quadrature(geom: GeometrySpec, q: int, kind: str) -> float:
    """Quadrature of the ``kind`` density; ``ValueError`` unless it is finite.

    The density is evaluated on the columns at once; an overflow there leaves
    an infinity or a NaN for the finiteness check to report.  The weighted
    values are summed left to right, node by node.
    """
    fn = _density_fn(geom.m, q, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        value = sum((geom.w * fn(*geom.kappa.T, geom.tau_M, geom.tau_Y)).tolist())
    if not math.isfinite(value):
        raise ValueError(f"the {kind} constant of geometry {geom.label!r} at q = {q} "
                         "overflows float64")
    return value


def a0_constant(geom: GeometrySpec, q: int) -> float:
    """Determinant-gluing constant: quadrature of the paper's closed-form a0
    density, proved equal to the derived one by the Tier-1 tests and ``derive-a0``."""
    return _quadrature(geom, q, "a0")


def zeta0_constant(geom: GeometrySpec, q: int) -> float:
    """Zeta value at zero plus the harmonic-space dimension: quadrature of twice
    the paper's closed-form half-density, proved equal to the derived one by
    the Tier-1 tests and ``derive-a0``."""
    return _quadrature(geom, q, "zeta0")


# ---------------------------------------------------------------------------
# Canonical geometries
# ---------------------------------------------------------------------------

def unit_disk(n: int = 256) -> GeometrySpec:
    """Unit disk: boundary circle of length 2*pi, curvature 1, flat interior."""
    return GeometrySpec(m=2, w=np.full(n, 2 * math.pi / n), kappa=np.ones((n, 1)),
                        tau_M=np.zeros(n), tau_Y=np.zeros(n), V=math.pi, ellY=2 * math.pi,
                        label="unit-disk")


def unit_ball(n_polar: int = 32, n_azimuth: int = 64) -> GeometrySpec:
    """Unit ball: boundary sphere of area 4*pi, both curvatures 1, tau_Y = 2."""
    _, gl_w = np.polynomial.legendre.leggauss(n_polar)
    w = np.repeat(gl_w, n_azimuth) * (2 * math.pi / n_azimuth)
    # Gauss-Legendre weights sum to 2 exactly only in exact arithmetic;
    # renormalize to the exact sphere area
    w = w * 4 * math.pi / sum(w.tolist())
    return GeometrySpec(m=3, w=w, kappa=np.ones((len(w), 2)), tau_M=np.zeros_like(w),
                        tau_Y=np.full_like(w, 2.0), V=4 * math.pi / 3, ellY=4 * math.pi,
                        label="unit-ball")


def cylinder_boundary(a: float, L: float, n: int = 64) -> GeometrySpec:
    """Flat cylinder ``[0, a] x S^1_L``: two totally geodesic boundary circles.

    Its volume ``a L``, boundary length ``2 L`` and node weight ``L / n`` must
    be positive finite floats; otherwise one ``ValueError`` names ``a`` and ``L``.
    """
    V, ellY, w = a * L, 2 * L, L / n
    if not all(0 < x < math.inf for x in (V, ellY, w)):
        raise ValueError(f"cylinder parameters a = {a:g}, L = {L:g} give a volume, "
                         "boundary length or node weight outside the float64 range")
    return GeometrySpec(m=2, w=np.full(2 * n, w), kappa=np.zeros((2 * n, 1)),
                        tau_M=np.zeros(2 * n), tau_Y=np.zeros(2 * n), V=V, ellY=ellY,
                        label=f"cylinder-a{a}-L{L}")


def rescale(geom: GeometrySpec, c: float) -> GeometrySpec:
    """Geometry of the metric scaled by ``c**2``.

    Lengths scale by ``c``: curvatures by ``1/c``, scalar curvatures by
    ``1/c**2``, boundary measure by ``c**(m-1)``, volume by ``c**m``.
    """
    s = c ** (geom.m - 1)
    return GeometrySpec(m=geom.m, w=geom.w * s, kappa=geom.kappa / c,
                        tau_M=geom.tau_M / c ** 2, tau_Y=geom.tau_Y / c ** 2,
                        V=geom.V * c ** geom.m, ellY=geom.ellY * s,
                        label=f"{geom.label}-scaled{c}")


# ---------------------------------------------------------------------------
# Conformal variation (m = 2, q = 0)
# ---------------------------------------------------------------------------

def _polar_disk_integral(f, n_r: int, n_t: int) -> float:
    """Gauss-Legendre x trapezoid integral of ``f(x, y)`` over the unit disk."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    theta = np.linspace(0.0, 2 * math.pi, n_t, endpoint=False)
    dt = 2 * math.pi / n_t
    total = 0.0
    for ri, wi in zip(r, wr):
        # broadcast, since an ``f`` such as ``lambda x, y: 1.0`` gives a scalar
        vals = np.broadcast_to(f(ri * np.cos(theta), ri * np.sin(theta)), theta.shape)
        total += float(wi * ri * np.sum(vals) * dt)
    return total


def conformal_variation_check(geom: GeometrySpec, boundary_values,
                              normal_inward, interior_fn) -> float:
    """First-order conformal variation of the determinant-gluing identity.

    For the disk (``m = 2``, degree 0) and a conformal factor ``exp(2 eps F)``,
    the variations of the two log-determinants, of the gluing constant, of the
    Gram determinant, and of the boundary length assemble to an identity whose
    total first-order variation vanishes.  As written, the residual cancels
    its boundary terms exactly: the ``kappa`` terms are subtracted from
    themselves, and ``int d_n F`` and ``int F`` each enter two of the
    variations with equal weights.  What is left is ``2 (vol_coarse -
    vol_fine) / V``, the interior integral of ``F`` by polar Gauss-Legendre at
    two resolutions, so the residual measures that quadrature and does not
    depend on the boundary samples (up to rounding).

    Parameters
    ----------
    geom : GeometrySpec
        Disk-like geometry (m = 2).
    boundary_values, normal_inward : array-like
        Samples of ``F`` and of its inward normal derivative at the nodes.
    interior_fn : callable
        ``F(x, y)`` on the interior, used for the volume integrals.  It is
        called on arrays of points, one ring of the polar grid at a time, and
        returns an array of their values or one scalar for all of them.
    """
    if geom.m != 2:
        raise ValueError("the conformal variation check is 2-dimensional")
    if normal_inward is None:
        raise ValueError("inward normal-derivative samples are required")
    fvals = np.asarray(boundary_values, dtype=np.float64)
    dnvals = np.asarray(normal_inward, dtype=np.float64)
    if fvals.shape != dnvals.shape or len(fvals) != len(geom.w):
        raise ValueError("boundary samples must conform to the node count")

    int_f_bnd = float(np.sum(geom.w * fvals))
    int_dn = float(np.sum(geom.w * dnvals))
    int_f_kappa = float(np.sum(geom.w * fvals * geom.kappa[:, 0]))
    vol_int_coarse = _polar_disk_integral(interior_fn, 24, 96)
    vol_int_fine = _polar_disk_integral(interior_fn, 32, 128)

    # variation of logdet(absolute) - logdet(Dirichlet): the two interior heat
    # coefficients differ by the boundary flux term
    d_lhs = -2.0 * (int_dn / (4 * math.pi)) + 2.0 * vol_int_coarse / geom.V
    # variation of the gluing constant (integral of kappa / 2 pi)
    d_a0 = (-int_dn + int_f_kappa - int_f_kappa) / (2 * math.pi)
    # variation of ln det S with S = ellY / V
    d_lndetS = int_f_bnd / geom.ellY - 2.0 * vol_int_fine / geom.V
    # the normalized DtN determinant is conformally invariant, so the DtN
    # log-determinant varies exactly like ln(ellY)
    d_logdet_Q = int_f_bnd / geom.ellY

    return d_lhs - (d_a0 - d_lndetS + d_logdet_Q)
