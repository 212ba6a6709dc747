"""Quadrature geometries and curvature-integral constants.

A :class:`GeometrySpec` carries fixed-weight boundary quadrature nodes with
pointwise principal curvatures and scalar curvatures, plus the interior volume
and boundary volume.  On top of it this module evaluates:

* the determinant-gluing constant ``a0`` (integral of the derived boundary
  density),
* the zeta-at-zero constant (integral of twice the derived half-density),
* the conformal-variation identity in dimension 2.

Accuracy is the node supplier's contract: the integrands are fixed polynomials
in the supplied pointwise fields, so fixed-weight quadrature is exact up to
the sampling of the fields themselves.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np
import sympy as sp

from .symbolcas import chart
from .symbolint import a0_density, q_density

__all__ = [
    "GeometrySpec",
    "BoundaryNode",
    "a0_constant",
    "zeta0_constant",
    "conformal_variation_check",
    "unit_disk",
    "unit_ball",
    "cylinder_boundary",
    "rescale",
]


@dataclass(frozen=True)
class BoundaryNode:
    """One boundary quadrature node: weight, curvatures, scalar curvatures."""

    w: float
    kappa: tuple[float, ...]
    tau_M: float = 0.0
    tau_Y: float = 0.0


@dataclass(frozen=True)
class GeometrySpec:
    """Boundary quadrature description of a compact manifold with boundary.

    Parameters
    ----------
    m : int
        Interior dimension, 2 or 3.
    nodes : tuple of BoundaryNode
        Fixed-weight quadrature nodes; weights sum to ``ellY``.
    V : float
        Interior volume.
    ellY : float
        Boundary volume (length for ``m = 2``, area for ``m = 3``).
    label : str
        Human-readable identifier.
    """

    m: int
    nodes: tuple[BoundaryNode, ...]
    V: float
    ellY: float
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.m, int):
            raise ValueError(f"geometry field 'm' must be an integer, got {self.m!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"geometry field 'label' must be a string, got {self.label!r}")
        nodes = self.nodes
        for name, values in (("V", [self.V]), ("ellY", [self.ellY]),
                             ("w", [n.w for n in nodes]),
                             ("kappa", [k for n in nodes for k in n.kappa]),
                             ("tau_M", [n.tau_M for n in nodes]),
                             ("tau_Y", [n.tau_Y for n in nodes])):
            for value in values:
                if (isinstance(value, bool) or not isinstance(value, (int, float))
                        or not math.isfinite(value)):
                    raise ValueError(
                        f"geometry field {name!r} must be a finite number, got {value!r}")
        if self.m not in (2, 3):
            raise ValueError("only interior dimensions 2 and 3 are supported")
        if self.V <= 0 or self.ellY <= 0:
            raise ValueError("volumes must be positive")
        if not self.nodes:
            raise ValueError("a geometry needs at least one boundary node")
        wsum = sum(n.w for n in self.nodes)
        if any(n.w <= 0 for n in self.nodes):
            raise ValueError("quadrature weights must be positive")
        # relative at every scale; the subnormal term is the rounding of
        # weights below 2**-1022, e.g. a cylinder at L = 1e-310
        if abs(wsum - self.ellY) > 1e-12 * self.ellY + len(self.nodes) * 2.0 ** -1074:
            raise ValueError(
                f"weights sum to {wsum!r}, expected boundary volume {self.ellY!r}")
        for n in self.nodes:
            if len(n.kappa) != self.m - 1:
                raise ValueError("each node needs m-1 principal curvatures")
            if self.m == 2 and n.tau_Y != 0.0:
                raise ValueError("a 1-dimensional boundary has tau_Y = 0")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "m": self.m,
            "nodes": [
                {"w": n.w, "kappa": list(n.kappa), "tau_M": n.tau_M, "tau_Y": n.tau_Y}
                for n in self.nodes
            ],
            "V": self.V,
            "ellY": self.ellY,
            "label": self.label,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "GeometrySpec":
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("a geometry file nests its JSON too deeply to parse") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"a geometry file must hold a JSON object, got {type(payload).__name__}")
        _check_keys(payload, GeometrySpec)
        nodes = payload["nodes"]
        if not (isinstance(nodes, list) and all(isinstance(n, dict) for n in nodes)):
            raise ValueError(f"geometry field 'nodes' must be a list of objects, got {nodes!r}")
        for n in nodes:
            _check_keys(n, BoundaryNode)
            if not isinstance(n["kappa"], list):
                raise ValueError(f"geometry field 'kappa' must be a list, got {n['kappa']!r}")
        return GeometrySpec(
            m=payload["m"],
            nodes=tuple(
                BoundaryNode(w=n["w"], kappa=tuple(n["kappa"]),
                             tau_M=n.get("tau_M", 0.0), tau_Y=n.get("tau_Y", 0.0))
                for n in nodes
            ),
            V=payload["V"],
            ellY=payload["ellY"],
            label=payload.get("label", ""),
        )


# the field names of each geometry-file object, and those without a default
_KEYS = {cls: (tuple(f.name for f in fields(cls)),
               tuple(f.name for f in fields(cls) if f.default is MISSING))
         for cls in (GeometrySpec, BoundaryNode)}


def _check_keys(obj: dict, cls) -> None:
    """Reject a geometry-file key that names no field of ``cls``, and a missing
    field of ``cls`` that has no default."""
    keys, required = _KEYS[cls]
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown geometry key {key!r}, expected one of {', '.join(keys)}")
    for name in required:
        if name not in obj:
            raise ValueError(f"geometry field {name!r} is missing")


# ---------------------------------------------------------------------------
# Curvature-integral constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _density_fn(m: int, q: int, kind: str):
    """Lambdified boundary density: ``a0`` density or zeta-at-zero density.

    The density goes through its polynomial in the curvature fields, so the
    arithmetic does not depend on how the density happens to be printed.
    """
    ch = chart(m, q)
    expr = a0_density(m, q) if kind == "a0" else 2 * q_density(m, q)
    args = list(ch.kappas) + [ch.tauM, ch.tauY]
    return sp.lambdify(args, sp.Poly(expr, *args).as_expr(), modules="math")


def _quadrature(geom: GeometrySpec, q: int, kind: str) -> float:
    """Quadrature of the ``kind`` density; ``ValueError`` unless it is finite."""
    fn = _density_fn(geom.m, q, kind)
    value = float(sum(n.w * fn(*n.kappa, n.tau_M, n.tau_Y) for n in geom.nodes))
    if not math.isfinite(value):
        raise ValueError(f"the {kind} constant of geometry {geom.label!r} at q = {q} "
                         "overflows float64")
    return value


def a0_constant(geom: GeometrySpec, q: int) -> float:
    """Determinant-gluing constant: quadrature of the derived a0 density."""
    return _quadrature(geom, q, "a0")


def zeta0_constant(geom: GeometrySpec, q: int) -> float:
    """Zeta value at zero plus the harmonic-space dimension, by quadrature."""
    return _quadrature(geom, q, "zeta0")


# ---------------------------------------------------------------------------
# Canonical geometries
# ---------------------------------------------------------------------------

def unit_disk(n: int = 256) -> GeometrySpec:
    """Unit disk: boundary circle of length 2*pi, curvature 1, flat interior."""
    w = 2 * math.pi / n
    nodes = tuple(BoundaryNode(w=w, kappa=(1.0,)) for _ in range(n))
    return GeometrySpec(m=2, nodes=nodes, V=math.pi, ellY=2 * math.pi,
                        label="unit-disk")


def unit_ball(n_polar: int = 32, n_azimuth: int = 64) -> GeometrySpec:
    """Unit ball: boundary sphere of area 4*pi, both curvatures 1, tau_Y = 2."""
    x, gl_w = np.polynomial.legendre.leggauss(n_polar)
    nodes = []
    dphi = 2 * math.pi / n_azimuth
    for xi, wi in zip(x, gl_w):
        for _ in range(n_azimuth):
            nodes.append(BoundaryNode(w=float(wi) * dphi, kappa=(1.0, 1.0),
                                      tau_M=0.0, tau_Y=2.0))
    total = sum(n.w for n in nodes)
    # Gauss-Legendre weights sum to 2 exactly only in exact arithmetic;
    # renormalize to the exact sphere area
    nodes = tuple(BoundaryNode(w=n.w * 4 * math.pi / total, kappa=n.kappa,
                               tau_M=n.tau_M, tau_Y=n.tau_Y) for n in nodes)
    return GeometrySpec(m=3, nodes=nodes, V=4 * math.pi / 3, ellY=4 * math.pi,
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
    nodes = tuple(BoundaryNode(w=w, kappa=(0.0,)) for _ in range(2 * n))
    return GeometrySpec(m=2, nodes=nodes, V=V, ellY=ellY, label=f"cylinder-a{a}-L{L}")


def rescale(geom: GeometrySpec, c: float) -> GeometrySpec:
    """Geometry of the metric scaled by ``c**2``.

    Lengths scale by ``c``: curvatures by ``1/c``, scalar curvatures by
    ``1/c**2``, boundary measure by ``c**(m-1)``, volume by ``c**m``.
    """
    s = c ** (geom.m - 1)
    nodes = tuple(
        BoundaryNode(w=n.w * s, kappa=tuple(k / c for k in n.kappa),
                     tau_M=n.tau_M / c ** 2, tau_Y=n.tau_Y / c ** 2)
        for n in geom.nodes
    )
    return GeometrySpec(m=geom.m, nodes=nodes, V=geom.V * c ** geom.m,
                        ellY=geom.ellY * s, label=f"{geom.label}-scaled{c}")


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
        xs = ri * np.cos(theta)
        ys = ri * np.sin(theta)
        vals = np.array([f(xx, yy) for xx, yy in zip(xs, ys)])
        total += float(wi * ri * np.sum(vals) * dt)
    return total


def conformal_variation_check(geom: GeometrySpec, boundary_values,
                              normal_inward, interior_fn) -> float:
    """First-order conformal variation of the determinant-gluing identity.

    For the disk (``m = 2``, degree 0) and a conformal factor ``exp(2 eps F)``,
    the variations of the two log-determinants, of the gluing constant, of the
    Gram determinant, and of the boundary length assemble to an identity whose
    total first-order variation vanishes.  Each integral is evaluated by its
    own quadrature (boundary trapezoid over the supplied samples, interior
    polar Gauss-Legendre at two resolutions), so the returned residual
    reflects genuine numerical error rather than exact cancellation.

    Parameters
    ----------
    geom : GeometrySpec
        Disk-like geometry (m = 2).
    boundary_values, normal_inward : array-like
        Samples of ``F`` and of its inward normal derivative at the nodes.
    interior_fn : callable
        ``F(x, y)`` on the interior, used for the volume integrals.
    """
    if geom.m != 2:
        raise ValueError("the conformal variation check is 2-dimensional")
    if normal_inward is None:
        raise ValueError("inward normal-derivative samples are required")
    fvals = np.asarray(boundary_values, dtype=np.float64)
    dnvals = np.asarray(normal_inward, dtype=np.float64)
    if fvals.shape != dnvals.shape or len(fvals) != len(geom.nodes):
        raise ValueError("boundary samples must conform to the node count")
    weights = np.array([n.w for n in geom.nodes])
    kappas = np.array([n.kappa[0] for n in geom.nodes])

    int_f_bnd = float(np.sum(weights * fvals))
    int_dn = float(np.sum(weights * dnvals))
    int_f_kappa = float(np.sum(weights * fvals * kappas))
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
