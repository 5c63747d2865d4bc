"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every check states its tolerance inline; nothing here is tuned to
the implementation.
"""

import math

import numpy as np
import pytest

from cutofflab import (
    DistanceQuery,
    FamilySpec,
    corner_separation,
    distance,
    eigen_summary,
    family_scan,
    generate,
    hitting_time_bound,
    passage_time,
    sst_tail,
    stationary_time_summary,
    verify_bounds,
)

from conftest import ehrenfest
import oracles


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _seeded_bd(seed: int, n: int):
    return generate(FamilySpec("random_bd", (max(n, 2),), seed=seed), n)


@pytest.fixture(scope="module")
def ehrenfest_ratio_report():
    # shared between criteria 4 and 5; the scan itself is the expensive part
    spec = FamilySpec("ehrenfest", (64, 128, 256, 512, 1024))
    return family_scan(spec, delta=0.5, eps_grid=(0.25,))


def test_criterion_1_ehrenfest_spectrum():
    worst = 0.0
    for n in (8, 64, 256):
        summary = eigen_summary(ehrenfest(n))
        expect = 2.0 * np.arange(1, n + 1) / n
        worst = max(worst, float(np.max(np.abs(summary.eigenvalues - expect))))
    _report(1, "arithmetic spectrum", worst <= 1e-10, f"max abs error {worst:.3e} <= 1e-10")


def test_criterion_2_passage_time_identity():
    worst = 0.0
    for k in range(200):
        n = 3 + (k % 58)  # sizes 3..60
        worst = max(worst, passage_time(_seeded_bd(k, n)).residual)
    _report(2, "two routes to the passage mean", worst <= 1e-9,
            f"max relative residual {worst:.3e} <= 1e-9 over 200 chains")


def test_criterion_3_sst_corner_identity():
    worst = 0.0
    for k in range(50):
        n = 3 + (k % 38)  # sizes 3..40
        chain = _seeded_bd(1000 + k, n)
        summary = stationary_time_summary(chain)
        sigma = math.sqrt(summary.variance)
        for u in np.linspace(-1.2, 3.0, 10):
            t = max(0.0, summary.mean + u * sigma)
            tail = sst_tail(chain, t)
            corner = corner_separation(chain, t, tol=1e-12)
            worst = max(worst, abs(tail - corner))
    _report(3, "stopping-time tail equals corner separation", worst <= 1e-8,
            f"max abs gap {worst:.3e} <= 1e-8 over 50 chains x 10 times")


def test_criterion_4_lazy_continuous_ratio(ehrenfest_ratio_report):
    records = ehrenfest_ratio_report.records
    final = records[-1].ratio_c_over_lazy
    ok = 0.45 <= final <= 0.55
    devs = [abs(r.ratio_c_over_lazy - 0.5) for r in records]
    trend = all(b <= 1.1 * a for a, b in zip(devs, devs[1:]))
    _report(4, "clock-change ratio tends to 1/2", ok and trend,
            f"ratio@1024 = {final:.5f} in [0.45, 0.55]; deviations {['%.2e' % d for d in devs]}")


def test_criterion_5_ehrenfest_quarter_nlogn(ehrenfest_ratio_report):
    rec = ehrenfest_ratio_report.records[-1]
    t_cont = rec.mixing_continuous[0.25]
    scale = 0.25 * rec.n * math.log(rec.n)
    ratio = t_cont / scale
    _report(5, "quarter n log n mixing scale", 0.8 <= ratio <= 1.2,
            f"T(1/4)@1024 = {t_cont:.3f}, T/((1/4) n ln n) = {ratio:.5f} in [0.8, 1.2]")


def test_criterion_6_trend_dichotomy():
    sizes = (16, 32, 64, 128, 256, 512, 1024)
    grow = family_scan(FamilySpec("ehrenfest", sizes), eps_grid=())
    flat = family_scan(FamilySpec("path_symmetric", sizes), eps_grid=())
    products = [r.product for r in grow.records]
    increasing = all(b > a for a, b in zip(products, products[1:]))
    ok = grow.verdict == "cutoff-trend" and flat.verdict == "no-cutoff-trend" and increasing
    _report(6, "spectral trend dichotomy", ok,
            f"ehrenfest -> {grow.verdict}, path_symmetric -> {flat.verdict}, "
            f"products {products[0]:.3f}..{products[-1]:.3f}")


def test_criterion_7_inequality_suite():
    worst = math.inf
    failed = []
    chains = [(f"random {k}", _seeded_bd(2000 + k, 3 + (k % 38))) for k in range(200)]
    chains += [(f"ehrenfest {n}", ehrenfest(n)) for n in (16, 64)]
    for label, chain in chains:
        report = verify_bounds(chain)
        worst = min(worst, report.min_margin)
        if not report.passed:
            failed.append(label)
    _report(7, "inequality suite on the standard corpus", not failed,
            f"202 chains, min margin {worst:.3e} >= -1e-9, failures: {failed or 'none'}")


def test_criterion_8_interlacing_consequence():
    worst = math.inf
    for k in range(200):
        chain = _seeded_bd(2000 + k, 3 + (k % 38))
        margin = hitting_time_bound(chain)[0] - eigen_summary(chain).spectral_sum
        worst = min(worst, margin)
    for n in (16, 64):
        chain = ehrenfest(n)
        margin = hitting_time_bound(chain)[0] - eigen_summary(chain).spectral_sum
        worst = min(worst, margin)
    _report(8, "spectral sum below the hitting bound", worst >= -1e-10,
            f"min margin {worst:.3e} >= -1e-10 over the corpus")


def test_criterion_9_fast_paths_match_dense_brute_force():
    worst = 0.0
    modes = (("discrete", None), ("lazy", 0.5), ("continuous", None))

    def check(chain, query, time, mode, metric, delta):
        nonlocal worst
        mine = distance(chain, query, time, tol=1e-14)
        ref = oracles.metric_at(chain.dense_kernel, chain.stationary,
                                time, mode, metric, delta)
        worst = max(worst, abs(mine - ref))

    # endpoint-start fast path on the built-in families (stationary law is
    # smallest at an endpoint, the shortcut's stated scope); dbar rides the
    # aperiodic clocks where the corner pair is extremal
    named = [
        generate(FamilySpec("ehrenfest", (12,)), 12),
        generate(FamilySpec("path_symmetric", (11,)), 11),
        generate(FamilySpec("path_biased", (12,), rho=0.7), 12),
    ]
    for chain in named:
        for mode, delta in modes:
            metrics = ("tv", "sep") if mode == "discrete" else ("tv", "sep", "dbar")
            times = range(20) if mode != "continuous" else np.linspace(0.05, 15.0, 20)
            for metric in metrics:
                q = DistanceQuery(mode, metric, delta=delta)
                for t in times:
                    check(chain, q, float(t) if mode == "continuous" else int(t),
                          mode, metric, delta)

    # tridiagonal application under the exhaustive flag on random chains,
    # whose interior stationary valleys defeat any start shortcut
    chains = [_seeded_bd(3000 + k, 3 + (k % 10)) for k in range(10)]
    for chain in chains:
        for mode, delta in modes:
            times = range(20) if mode != "continuous" else np.linspace(0.05, 12.0, 20)
            for metric in ("tv", "sep", "dbar"):
                q = DistanceQuery(mode, metric, delta=delta, exhaustive=True)
                for t in times:
                    check(chain, q, float(t) if mode == "continuous" else int(t),
                          mode, metric, delta)

    # corner identity against dense separation, both aperiodic clocks
    for chain in chains[:5]:
        kernel = chain.dense_kernel
        pi = chain.stationary
        for t in np.linspace(0.2, 10.0, 20):
            mine = corner_separation(chain, float(t), tol=1e-14)
            ref = oracles.metric_at(kernel, pi, float(t), "continuous", "sep")
            worst = max(worst, abs(mine - ref))
        for m in range(20):
            mine = corner_separation(chain, m, mode="lazy", delta=0.5)
            ref = oracles.metric_at(kernel, pi, m, "lazy", "sep", 0.5)
            worst = max(worst, abs(mine - ref))

    _report(9, "fast paths equal dense brute force", worst <= 1e-10,
            f"max abs deviation {worst:.3e} <= 1e-10 at 20 points per mode")
