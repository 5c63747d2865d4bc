#!/usr/bin/env python3
"""Scan the Ehrenfest urn family and watch the cutoff signature emerge.

The chain moves one of n balls between two urns.  Its I - K spectrum is
exactly {2i/n}, so the gap is 2/n and the spectral sum is (n/2) * H_n.
Their product is the harmonic number H_n: it grows without bound, which is
the spectral fingerprint of a cutoff family.  A flat product (symmetric
path) is the fingerprint of its absence.
"""

import math

from cutofflab import FamilySpec, family_scan

sizes = (16, 32, 64, 128, 256)

print("== spectral trend ==")
for family in ("ehrenfest", "path_symmetric"):
    # an empty eps grid asks for the spectral columns and the verdict alone
    report = family_scan(FamilySpec(family, sizes), eps_grid=())
    print(f"{family}: verdict = {report.verdict}")
    for rec in report.records:
        print(f"  n={rec.n:4d}  gap={rec.gap:.6f}  s={rec.spectral_sum:10.3f}  product={rec.product:.4f}")

# one scan fills both sections: the clock ratio at eps = 1/4 and the window
# between the grid's extremes 0.1 and 0.9
report = family_scan(FamilySpec("ehrenfest", sizes), delta=0.5, eps_grid=(0.1, 0.25, 0.9))

print()
print("== continuous vs 1/2-lazy clocks, eps = 1/4 ==")
for rec in report.records:
    t_c = rec.mixing_continuous[0.25]
    scale = 0.25 * rec.n * math.log(rec.n)
    print(
        f"  n={rec.n:4d}  T_c={t_c:9.3f}  T_lazy={rec.mixing_lazy[0.25]:7.0f}"
        f"  ratio={rec.ratio_c_over_lazy:.5f}  T_c/((n ln n)/4)={t_c / scale:.4f}"
    )
print(f"ratio target 1 - delta = {report.ratio_target}; final deviation {report.ratio_deviation_final:.2e}")

print()
print("== window between eps=0.1 and eta=0.9 ==")
for rec in report.records:
    print(
        f"  n={rec.n:4d}  window={rec.window:8.3f}  window/n={rec.window_over_n:.4f}"
        f"  sqrt(T)/window={rec.sqrt_t / rec.window:.4f}"
    )
print("window grows like n while the mixing time grows like n log n: cutoff.")
