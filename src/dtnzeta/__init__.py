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
    Quadrature geometry specifications, curvature-integral constants,
    conformal-variation check.
cli
    Command line front end emitting JSON reports.
"""
