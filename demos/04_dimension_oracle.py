#!/usr/bin/env python3
"""Full-dimensional cross-check of the spectral reduction (N = 2, 3).

Everything else in the package works on the reduced 1-D quadratic forms.
This demo rebuilds the actual vector fields in polar/spherical
coordinates, integrates |laplacian u|^2, |grad u|^2 and the remainder
integrand over the annulus by tensor quadrature (weights and volume
Jacobians written out), and compares against the reduced forms times the
harmonic normalisation: an executable witness for the reduction.
"""

from fractions import Fraction as F

import numpy as np

from curlsharp.constants import Params
from curlsharp.oracle import analytic_field, crosscheck
from curlsharp.spectral import Profile

print("Full-dimensional integrals vs reduced 1-D forms")
print("=" * 76)
print(" N | gamma | nu | n |   rel(lap)  |  rel(grad)  |  rel(rem)  | quotient")
for n_dim in (2, 3):
    for gamma in (F(-1), F(0), F(1, 2), F(1), F(2)):
        for nu in (0, 1, 2):
            rep = crosscheck(Params(n_dim, gamma), nu, Profile.make("bump", 2))
            print(f" {n_dim} | {str(gamma):>5} |  {nu} | 2 |  {rep.rel_lap:.2e} "
                  f"|  {rep.rel_grad:.2e} |  {rep.rel_rem:.2e} "
                  f"| {rep.quotient:8.4f}")

print()
print("Curl-freeness of the constructed fields (gradient-tensor asymmetry")
print("at random points; exactly zero in real arithmetic):")
rng = np.random.default_rng(0)
for (n_dim, nu, gamma) in [(2, 1, F(0)), (3, 2, F(1, 2))]:
    bundle = analytic_field(Params(n_dim, gamma), nu,
                            Profile.make("bump", 2))
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, n_dim)
        x *= np.exp(rng.uniform(-1.5, 0.5)) / np.linalg.norm(x)
        if n_dim == 3 and abs(x[2] / np.linalg.norm(x)) > 0.99:
            continue
        jac = bundle.jac_cart(x)
        worst = max(worst, float(np.max(np.abs(jac - jac.T))
                                 / max(np.max(np.abs(jac)), 1e-300)))
    print(f"  N={n_dim}, mode {nu}: max curl residual {worst:.2e}")
