#!/usr/bin/env python3
"""Separation distance, the strong stationary time, and the bound gallery.

For a birth-death chain started in a corner, worst-case separation at time t
is exactly the survival probability of a sum of independent exponentials
whose rates are the nonzero eigenvalues of I - K: the absorption time of the
dual pure-birth chain with those rates, which sst_tail uniformizes.  The
table reads that tail next to the corner entry of the chain itself.  The
same mean shows up in Chebyshev-style brackets for the separation mixing
time, and verify_bounds sweeps the whole inequality inventory in one call.
"""

import numpy as np

from cutofflab import (
    FamilySpec,
    corner_separation,
    generate,
    hitting_time_bound,
    sep_bounds,
    sst_tail,
    stationary_time_summary,
    verify_bounds,
)

chain = generate(FamilySpec("random_bd", (15,), seed=12), 15)
summary = stationary_time_summary(chain)
print(f"chain on {chain.num_states} states; E[S] = {summary.mean:.4f}, sd = {summary.variance ** 0.5:.4f}")

print("\ntime         P(S>t) dual pure-birth    corner separation")
for t in np.linspace(0.5, 2.5, 5) * summary.mean:
    tail = sst_tail(chain, float(t))
    cor = corner_separation(chain, float(t))
    print(f"{t:8.3f}   {tail:.12f}      {cor:.12f}")

bound, where = hitting_time_bound(chain)
print(f"\nspectral sum {summary.mean:.4f} <= two-sided hitting bound {bound:.4f} (argmin state {where})")

lower, upper, lower_mean, upper_mean = sep_bounds(summary, 0.25)
print(f"separation mixing time at eps=1/4 bracketed by [{lower:.3f}, {upper:.3f}]")
print(f"mean-only bracket [{lower_mean:.3f}, {upper_mean:.3f}]")

report = verify_bounds(chain)
print(f"\nverify_bounds: {len(report.entries)} inequalities checked, "
      f"{len(report.skipped)} skipped, min margin {report.min_margin:.2e}, "
      f"passed = {report.passed}")
tightest = sorted(report.entries, key=lambda e: e.margin)[:5]
for entry in tightest:
    print(f"  tight: {entry.inequality} @ {entry.point}  margin {entry.margin:.2e}")
