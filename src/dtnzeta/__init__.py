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
    the twelve-piece trace table in dimension 3, closed-form densities.
spectra
    Closed-form model spectra (circle, cylinder, disk) as structured data.
zetadet
    Spectral zeta functions, zeta-regularized determinants, and the cylinder
    verification drivers; the cylinder DtN operator only at ``s = 0``, in
    closed form.
geom
    Quadrature geometry specifications, curvature-integral constants,
    conformal-variation check.
cli
    Command line front end emitting JSON reports.
"""

import os

# sympy sizes the LRU cache of its expression constructors (``Add``, ``Mul``)
# from this variable when it is first imported, so it must be set before any
# module of the package imports sympy; a value the caller already set wins.
# The default of 1000 entries is smaller than the proofs' working set: one
# identity batch (the Riccati, parametrix and projected-square proofs of the
# five fibers) builds 3,767 distinct sums and products, and all five fibers'
# proofs including the dim-3 parametrix build 4,380, so the default cache
# evicts and re-flattens about half of its misses.  A verify batch builds
# 2,327.  2**14 holds each several times over and keeps memory bounded.
os.environ.setdefault("SYMPY_CACHE_SIZE", str(2 ** 14))
