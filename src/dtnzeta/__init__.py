"""dtnzeta: exact symbol calculus and zeta-determinants for Steklov problems.

The package derives, by exact computer algebra, the boundary symbol expansion
of the Dirichlet-to-Neumann (DtN) operator on differential forms in dimensions
2 and 3, extracts the curvature densities entering the determinant-gluing
constant and the zeta-function value at zero, and verifies the resulting
identities numerically on model manifolds with closed-form spectra.

Modules
-------
sfunc
    Exact special-function layer: meromorphic functions of the zeta variable,
    contour residues, Gaussian-type momenta, Riemann zeta (mpmath).
symbolcas
    Pseudodifferential symbol calculus in boundary normal coordinates: symbol
    algebra, the quadratic symbol identity for the DtN operator, resolvent
    parametrix, exact boundary-jet evaluation.
symbolint
    Fiberwise integration of the parametrix: contour and momentum integrals,
    the eleven-piece trace table in dimension 3, closed-form densities.
spectra
    Closed-form model spectra (circle, cylinder, disk) as structured data.
zetadet
    Spectral zeta functions, zeta-regularized determinants, and the cylinder
    verification drivers; the cylinder DtN operator only at ``s = 0``, in
    closed form.
geom
    Quadrature geometry specifications, curvature-integral constants, Gram
    determinants, gluing-identity assembly, conformal-variation check.
cli
    Command line front end emitting JSON reports.
"""

from .sfunc import SFunction, gamma_ratio_at_zero, mu_residue, riemann_zeta, xi_moment
from .spectra import (
    DtnProductSpectrum,
    PowerSpectrum,
    ProductSpectrum,
    circle_form_spectrum,
    disk_steklov_spectrum,
    product_dtn_spectrum,
    product_laplacian_spectra,
)
from .zetadet import ZetaValue, logdet_star, zeta, zeta_at_zero

__version__ = "0.1.0"

__all__ = [
    "SFunction",
    "gamma_ratio_at_zero",
    "mu_residue",
    "riemann_zeta",
    "xi_moment",
    "PowerSpectrum",
    "ProductSpectrum",
    "DtnProductSpectrum",
    "circle_form_spectrum",
    "product_laplacian_spectra",
    "product_dtn_spectrum",
    "disk_steklov_spectrum",
    "ZetaValue",
    "zeta",
    "zeta_at_zero",
    "logdet_star",
    "__version__",
]
