#!/usr/bin/env python3
"""Re-verify every polynomial identity and nonnegativity certificate.

The sharp-constant proofs reduce to a fixed list of polynomial facts:
cross-multiplied quotient identities, Taylor re-expansions at the
eigenvalue slots, and sign decompositions into squares, domain-constrained
factors, and interval-certified univariates.  Each fact lives in a small
text file under curlsharp/certs/; this script runs the whole corpus in
exact rational arithmetic and prints the outcome per certificate.
"""

import time

from curlsharp.certificates import (REGIMES, difference_quotient_guard,
                                    quotient_constant_links, run_suite)

t0 = time.time()
suite = run_suite()
by_regime = {regime: len(names) for regime, names in sorted(REGIMES.items())}

print("Certificate corpus by regime:", by_regime)
print("=" * 72)
for report in suite.reports + suite.structural:
    mark = "ok " if report.ok else "FAIL"
    print(f"  [{mark}] {report.name}" + ("" if report.ok else f"  {report.detail}"))
passed, total = suite.counts
print("=" * 72)
print(f"{passed}/{total} certificates verified in {time.time() - t0:.2f}s "
      "(exact arithmetic, zero tolerance)")

print()
print("Exact link to the closed forms: Q1(0, alpha_nu)/P1(0, alpha_nu) and")
print("Q0(0)/P0(0) equal the mode constants C(nu), as three polynomial")
print("identities in (lam, N, nu), wherever the quotient is defined ...")
fails = quotient_constant_links()
print("  link failures:", fails or "none")

print()
print("Difference-quotient guard (the remainder-term engine): 10^4 random")
print("admissible points, channel constants 1 / 1/2 / 1/3 by regime:")
margin, checked, failures = difference_quotient_guard(seed=0)
print(f"  min margin {margin:.2e} over {checked} points; "
      f"failures: {failures or 'none'}")
