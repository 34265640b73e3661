#!/usr/bin/env python3
"""Sharpness at desk scale: dilated test fields approach the constants.

A compactly supported bump h(t/n) on the log-radius line generates a
curl-free field whose Laplacian-to-gradient quotient exceeds the sharp
constant but converges to it as the dilation n grows, with the gap
falling like 1/n^2.  The same quadratic forms, applied to the
differentiated profile, produce the remainder term: the gap always
dominates min(1, c0) times it, which is how non-attainment shows up
numerically.
"""

from fractions import Fraction as F

from curlsharp.constants import Params, rellich_hardy_C_min
from curlsharp.spectral import (Profile, SpectralField, brute_min_tau_nu,
                                minimizing_sequence, remainder_check)

print("Minimizing sequences (gap ratio 4 = clean 1/n^2 decay)")
print("=" * 72)
for (n_dim, gamma) in [(3, F(0)), (4, F(0)), (5, F(0)), (2, F(1, 2))]:
    p = Params(n_dim, gamma)
    nu_star = rellich_hardy_C_min(p).argmin_nu
    res = minimizing_sequence(p, nu_star, (10, 20, 40))
    gaps = [r.gap for r in res.reports]
    print(f"N={n_dim} gamma={str(gamma):>4} (mode {nu_star}, "
          f"constant {res.target:.6f}):")
    for r in res.reports:
        print(f"    n={r.n:2d}  quotient={r.quotient:.8f}  gap={r.gap:.3e}")
    print(f"    ratios {gaps[0]/gaps[1]:.3f}, {gaps[1]/gaps[2]:.3f}; "
          f"fitted decay exponent {res.fitted_exponent:.3f}")

print()
print("Brute-force scan over (tau, mode): the minimum always sits at tau = 0")
print("=" * 72)
for (n_dim, gamma) in [(3, F(0)), (2, F(1)), (6, F(-1, 2))]:
    r = brute_min_tau_nu(Params(n_dim, gamma))
    print(f"N={n_dim} gamma={str(gamma):>4}: min {r.min_value:.10f} at "
          f"(tau={r.argmin_tau}, nu={r.argmin_nu}); certified value "
          f"{r.c_min:.10f}, rel diff {r.rel_error:.1e}")

print()
print("Remainder inequality gap >= min(1, c0) * remainder")
print("=" * 72)
for (n_dim, gamma, nu) in [(3, F(0), 1), (4, F(2), 2), (2, F(2), 2)]:
    field = SpectralField(Params(n_dim, gamma), nu, Profile.make("bump", 5))
    rep = remainder_check(field)
    print(f"N={n_dim} gamma={str(gamma):>4} mode {nu}: gap={rep.gap:.4e}  "
          f"c0={rep.c0:.3f}  c0*remainder={rep.c0 * rep.remainder:.4e}  "
          f"passed={rep.passed}")
