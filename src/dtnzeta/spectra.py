"""Closed-form spectra of model manifolds.

Provides structured spectral data for the model geometries on which the
determinant-gluing and zeta-at-zero identities are verified numerically:

* ``circle_form_spectrum`` -- the form Laplacian on a circle of length ``L``;
* ``product_laplacian_spectra`` -- the form Laplacian on a cylinder
  ``[0, a] x N`` with absolute or Dirichlet boundary conditions, organized as
  eigenvalue families over the cross-section spectrum;
* ``product_dtn_spectrum`` -- the Dirichlet-to-Neumann operator of the same
  cylinder at zero spectral parameter, with its paired-branch structure (its
  log-determinant and zeta at 0 are closed forms);
* ``disk_steklov_spectrum`` -- the Steklov (DtN) spectrum of a disk.

Each spectrum is a closed-form description (coefficients, multiplicities,
kernel dimension) that :mod:`dtnzeta.zetadet` evaluates directly; no
eigenvalues are enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PowerSpectrum",
    "ProductSpectrum",
    "DtnProductSpectrum",
    "circle_form_spectrum",
    "product_laplacian_spectra",
    "product_dtn_spectrum",
    "disk_steklov_spectrum",
]


@dataclass(frozen=True)
class PowerSpectrum:
    """Eigenvalues ``coeff * k**power`` for ``k >= 1``, constant multiplicity.

    The ``kernel_dim`` zero modes are stored separately.  Its zeta function
    is an exact multiple of a rescaled Riemann zeta.
    """

    coeff: float
    power: int
    mult: int
    kernel_dim: int


@dataclass(frozen=True)
class ProductSpectrum:
    """Form Laplacian on ``[0, a] x N`` as families over cross-section modes.

    Each family pairs a cross-section spectrum with the first interval mode
    ``k`` of the ``(k pi / a)**2`` it carries.  With absolute boundary
    conditions the degree-``q`` cross-section family starts at ``k = 0`` and
    the degree ``q-1`` family at ``k = 1``; with Dirichlet conditions both
    start at ``k = 1``.
    """

    a: float
    families: tuple[tuple[PowerSpectrum, int], ...]


@dataclass(frozen=True)
class DtnProductSpectrum:
    """DtN spectrum of ``[0, a] x N`` at zero spectral parameter.

    Besides the cross-section's zero modes and their paired ``2/a`` branch,
    each positive cross-section eigenvalue ``lam`` contributes the branch pair
    ``sqrt(lam) (1 + 2/(e^x - 1))`` and ``sqrt(lam) (1 - 2/(e^x + 1))`` with
    ``x = a sqrt(lam)``.  Each pair multiplies to ``lam``, so its log-determinant
    and its zeta at 0 are closed forms in the cross-section ones; those are the
    only values :mod:`dtnzeta.zetadet` evaluates.
    """

    a: float
    base_q: PowerSpectrum


# ---------------------------------------------------------------------------
# Model constructors
# ---------------------------------------------------------------------------

def circle_form_spectrum(L: float, q: int) -> PowerSpectrum:
    """Form Laplacian spectrum on a circle of length ``L`` (degrees 0 and 1).

    Both degrees share eigenvalues ``(2 pi k / L)**2`` with multiplicity 2 and
    a one-dimensional kernel.
    """
    if q not in (0, 1):
        raise ValueError("a circle carries forms of degree 0 and 1 only")
    return PowerSpectrum(coeff=(2 * math.pi / L) ** 2, power=2, mult=2, kernel_dim=1)


def product_laplacian_spectra(a: float, L: float, q: int) -> tuple[ProductSpectrum, ProductSpectrum]:
    """Absolute and Dirichlet form Laplacian spectra on ``[0, a] x S^1_L``."""
    base_q = circle_form_spectrum(L, q)
    lower = ((circle_form_spectrum(L, q - 1), 1),) if q >= 1 else ()
    return (ProductSpectrum(a, ((base_q, 0),) + lower),
            ProductSpectrum(a, ((base_q, 1),) + lower))


def product_dtn_spectrum(a: float, L: float, q: int) -> DtnProductSpectrum:
    """DtN spectrum of the cylinder ``[0, a] x S^1_L`` on degree-``q`` forms."""
    return DtnProductSpectrum(a=a, base_q=circle_form_spectrum(L, q))


def disk_steklov_spectrum(R: float) -> PowerSpectrum:
    """Steklov (DtN) spectrum of a disk of radius ``R``: ``k/R`` twice each."""
    return PowerSpectrum(coeff=1.0 / R, power=1, mult=2, kernel_dim=1)
