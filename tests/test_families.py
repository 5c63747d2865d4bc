"""Family generators, size scans, and the inequality verifier."""

import json
import math

import numpy as np
import pytest

from cutofflab import (
    BadDelta,
    BadEpsilon,
    BadFamily,
    BadShape,
    Chain,
    FamilyReport,
    FamilySpec,
    criterion_scan,
    family_scan,
    generate,
    load_family,
    verify_bounds,
)
from cutofflab.families import DEFAULT_DELTA, DEFAULT_EPS_GRID, _trend_verdict

from conftest import flip, rank_one


def test_family_spec_validation():
    with pytest.raises(BadFamily):
        FamilySpec("hypercube", (4, 8))
    with pytest.raises(BadFamily):
        FamilySpec("ehrenfest", ())
    with pytest.raises(BadFamily):
        FamilySpec("ehrenfest", (8, 8))
    with pytest.raises(BadFamily):
        FamilySpec("ehrenfest", (1, 4))
    with pytest.raises(BadFamily):
        FamilySpec("path_biased", (4, 8))
    with pytest.raises(BadFamily):
        FamilySpec("path_biased", (4, 8), rho=0.5)
    with pytest.raises(BadFamily):
        FamilySpec("ehrenfest", (4, 8), rho=0.7)
    with pytest.raises(BadFamily):
        FamilySpec("random_bd", (4, 8))
    with pytest.raises(BadFamily):
        FamilySpec("random_bd", (4, 8), seed=-1)
    with pytest.raises(BadFamily):
        FamilySpec("ehrenfest", (4, 8), seed=0)
    with pytest.raises(BadFamily):
        FamilySpec("ehrenfest", (4, 8), eps_grid=(0.1, 1.0))
    with pytest.raises(BadFamily):
        FamilySpec("ehrenfest", (4, 8), delta=1.0)
    # sizes and eps_grid built directly, not read from JSON lists
    with pytest.raises(BadFamily, match="sizes must be a sequence"):
        FamilySpec("ehrenfest", 5)
    with pytest.raises(BadFamily, match="eps_grid must be a sequence"):
        FamilySpec("ehrenfest", (4, 8), eps_grid=0.25)


def test_family_spec_round_trip(tmp_path):
    spec = FamilySpec("path_biased", (8, 16, 32), rho=0.7, delta=0.25, eps_grid=(0.1, 0.4))
    again = FamilySpec.from_dict(spec.to_dict())
    assert again == spec
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert load_family(path) == spec


def test_family_spec_rejects_unknown_fields(tmp_path):
    with pytest.raises(BadShape):
        FamilySpec.from_dict({"family": "ehrenfest", "sizes": [4], "speed": 9})
    with pytest.raises(BadShape):
        FamilySpec.from_dict([1, 2])
    missing = tmp_path / "missing.json"
    with pytest.raises(BadShape):
        load_family(missing)


def test_generate_ehrenfest_rates():
    chain = generate(FamilySpec("ehrenfest", (4,)), 4)
    assert np.allclose(chain.birth, [1.0, 0.75, 0.5, 0.25, 0.0])
    assert np.allclose(chain.death, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(chain.hold, 0.0)


def test_generate_paths():
    sym = generate(FamilySpec("path_symmetric", (5,)), 5)
    assert sym.birth[0] == 0.5 and sym.hold[0] == 0.5
    assert sym.death[5] == 0.5 and sym.hold[5] == 0.5
    assert np.allclose(sym.hold[1:5], 0.0)
    biased = generate(FamilySpec("path_biased", (5,), rho=0.7), 5)
    assert np.allclose(biased.birth[:5], 0.7)
    assert np.allclose(biased.death[1:], 0.3)


def test_generate_random_bd_is_deterministic_and_floored():
    spec = FamilySpec("random_bd", (12,), seed=3)
    a = generate(spec, 12)
    b = generate(spec, 12)
    assert np.array_equal(a.birth, b.birth)
    assert np.array_equal(a.death, b.death)
    assert np.array_equal(a.hold, b.hold)
    # movement products stay off the floor and every state can hold
    assert np.min(a.birth[:-1] * a.death[1:]) >= 0.01
    assert np.min(a.hold) >= 0.10
    # a different size reshuffles the rates rather than truncating them
    c = generate(spec, 11)
    assert not np.array_equal(a.birth[:11], c.birth[:11])


def test_trend_verdict_rules():
    assert _trend_verdict([2.0]) == "inconclusive"
    assert _trend_verdict([1.0, 1.2, 1.6]) == "cutoff-trend"
    assert _trend_verdict([1.0, 1.05, 1.1]) == "no-cutoff-trend"
    # grows overall but collapses midway: neither label fits
    assert _trend_verdict([1.0, 2.0, 1.6]) == "inconclusive"
    assert _trend_verdict([1.0, 0.8, 1.6]) == "inconclusive"


def test_criterion_scan_ehrenfest_products_are_harmonic():
    report = criterion_scan(FamilySpec("ehrenfest", (8, 16, 64)))
    for rec in report.records:
        expect = sum(1.0 / k for k in range(1, rec.n + 1))
        assert rec.gap == pytest.approx(2.0 / rec.n, abs=1e-12)
        assert rec.product == pytest.approx(expect, rel=1e-10)
    assert report.verdict == "cutoff-trend"


def test_criterion_scan_symmetric_path_is_flat():
    report = criterion_scan(FamilySpec("path_symmetric", (8, 16, 32)))
    products = [r.product for r in report.records]
    assert max(products) / min(products) <= 1.3
    assert report.verdict == "no-cutoff-trend"
    # the flat level is the classical pi^2/6
    assert products[-1] == pytest.approx(math.pi**2 / 6, abs=0.05)


def test_ratio_scan_targets_one_minus_delta():
    # the c/lazy ratio columns of family_scan at eps = 1/4
    report = family_scan(FamilySpec("ehrenfest", (16, 32)), delta=0.5, eps_grid=(0.25,))
    assert report.ratio_target == 0.5
    for rec in report.records:
        assert rec.ratio_c_over_lazy == pytest.approx(0.5, abs=0.05)
    assert report.ratio_deviation_final <= 0.05


def test_ratio_approaches_one_as_laziness_vanishes():
    # deltas stay above ~1/n so the near-periodic eigenvalue never dominates
    spec = FamilySpec("ehrenfest", (32,))
    ratios = []
    for delta in (0.5, 0.25, 0.1, 0.05):
        report = family_scan(spec, delta=delta, eps_grid=(0.25,))
        ratios.append(report.records[-1].ratio_c_over_lazy)
    assert all(r <= 1.0 + 1e-9 for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.9


def test_ratio_scan_tolerates_extreme_eps():
    # Ehrenfest 8 is mixed at time 0 to within 0.999 on both clocks, and the
    # scan still completes
    report = family_scan(FamilySpec("ehrenfest", (8,)), delta=0.5, eps_grid=(0.999,))
    rec = report.records[-1]
    assert rec.mixing_continuous[0.999] == 0.0
    assert rec.mixing_lazy[0.999] == 0.0
    assert rec.window == 0.0
    assert rec.ratio_c_over_lazy > 0.0


def test_family_scan_validates_eps_grid():
    spec = FamilySpec("ehrenfest", (8,))
    for grid in ((), (0.0, 0.5), (0.5, 1.0), ("0.5",)):
        with pytest.raises(BadEpsilon):
            family_scan(spec, eps_grid=grid)


def test_family_scan_uses_the_spec_scan_defaults():
    spec = FamilySpec("ehrenfest", (4, 8), delta=0.25, eps_grid=(0.1, 0.5))
    report = family_scan(spec)
    assert (report.delta, report.eps_grid) == (0.25, (0.1, 0.5))
    assert report.ratio_target == 0.75
    assert set(report.records[0].mixing_lazy) == {0.1, 0.25, 0.5}
    assert report.to_dict() == family_scan(spec, delta=0.25, eps_grid=(0.1, 0.5)).to_dict()
    # given arguments override the spec; a spec without defaults takes the
    # module's
    assert family_scan(spec, delta=0.5).delta == 0.5
    assert family_scan(spec, eps_grid=(0.3,)).eps_grid == (0.3,)
    bare = family_scan(FamilySpec("ehrenfest", (4, 8)))
    assert (bare.delta, bare.eps_grid) == (DEFAULT_DELTA, DEFAULT_EPS_GRID)
    # an empty spec grid is refused like an empty argument
    with pytest.raises(BadEpsilon):
        family_scan(FamilySpec("ehrenfest", (4, 8), eps_grid=()))


def test_window_scan_fields():
    # the window columns of family_scan between the grid's extreme eps
    report = family_scan(FamilySpec("ehrenfest", (16, 32)), eps_grid=(0.1, 0.9))
    assert report.eps_grid == (0.1, 0.9)
    for rec in report.records:
        t_low = rec.mixing_continuous[0.1]
        t_high = rec.mixing_continuous[0.9]
        assert t_high < t_low  # smaller eps takes longer
        assert rec.window == pytest.approx(t_low - t_high, rel=1e-12)
        assert rec.sqrt_t == pytest.approx(math.sqrt(rec.mixing_continuous[0.25]), rel=1e-12)
        assert rec.window_over_n == pytest.approx(rec.window / rec.n, rel=1e-12)


def test_family_scan_fields_and_round_trip():
    spec = FamilySpec("random_bd", (6, 10), seed=2)
    report = family_scan(spec, delta=0.5, eps_grid=(0.1, 0.5))
    assert report.delta == 0.5
    assert report.eps_grid == (0.1, 0.5)
    assert report.verdict in ("cutoff-trend", "no-cutoff-trend", "inconclusive")
    for rec in report.records:
        assert set(rec.mixing_continuous) == {0.1, 0.25, 0.5}
        assert set(rec.mixing_lazy) == {0.1, 0.25, 0.5}
        assert rec.ratio_c_over_lazy == pytest.approx(
            rec.mixing_continuous[0.25] / rec.mixing_lazy[0.25], rel=1e-12
        )
        assert rec.window == pytest.approx(
            rec.mixing_continuous[0.1] - rec.mixing_continuous[0.5], rel=1e-12
        )
        # T_c(eps)/T_lazy(eta) stays within sane factors at nearby levels
        for eps in (0.1, 0.25):
            for eta in (0.1, 0.25):
                ratio = rec.mixing_continuous[eps] / rec.mixing_lazy[eta]
                assert 0.05 <= ratio <= 20.0
    blob = report.to_dict()
    again = FamilyReport.from_dict(blob)
    assert again == report
    assert json.loads(json.dumps(blob)) == blob


def test_family_scan_is_deterministic():
    spec = FamilySpec("random_bd", (5, 9), seed=11)
    a = family_scan(spec, eps_grid=(0.1, 0.4))
    b = family_scan(spec, eps_grid=(0.1, 0.4))
    assert a.to_dict() == b.to_dict()


def test_verify_bounds_random_chain_passes():
    chain = generate(FamilySpec("random_bd", (14,), seed=6), 14)
    report = verify_bounds(chain)
    assert report.passed
    assert report.min_margin >= -1e-9
    assert len(report.entries) > 20
    names = {e.inequality for e in report.entries}
    assert "tv-below-dbar" in names
    assert "gap-sandwich-lower" in names
    assert "sep-time-above-sum" in names
    blob = report.to_dict()
    assert blob["passed"] is True
    assert len(blob["entries"]) == len(report.entries)


def test_verify_bounds_refuses_bad_time_grid():
    chain = generate(FamilySpec("random_bd", (6,), seed=3), 6)
    for bad in (math.inf, math.nan, -1.0, "1", True):
        with pytest.raises(BadShape):
            verify_bounds(chain, time_grid=(1.0, bad))


def test_verify_bounds_refuses_bad_eps_and_delta_before_any_step(work_count):
    # eps = 0 or below never mixes and stepped toward the search cap; NaN
    # and 1.5 were not refused, and delta = 1 divided by zero
    import oracles

    chain = Chain.from_dense(oracles.random_reversible_dense(np.random.default_rng(5), 8))
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    for bad in (0.0, -0.2, math.nan, 1.5, "0.1"):
        with pytest.raises(BadEpsilon):
            verify_bounds(chain, eps_grid=(0.1, bad))
    for bad in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(BadDelta):
            verify_bounds(chain, delta=bad)
    assert work_count.applies == 0
    assert work_count.matrix_powers == 0 and work_count.uniformized_calls == 0
    # an empty eps grid still checks the fixed-time bounds
    report = verify_bounds(chain, eps_grid=())
    assert report.passed and report.entries


def test_verify_bounds_periodic_chain_skips_discrete_mixing():
    # the parity-trapped swap never mixes in discrete time; those rows are
    # reported as skipped, everything computable still passes
    report = verify_bounds(flip())
    assert report.passed
    reasons = {s.reason for s in report.skipped}
    assert any("non-mixing" in r for r in reasons)
    assert any(e.inequality == "tv-time-below-sep-time" and e.point.startswith("continuous")
               for e in report.entries)


def test_verify_bounds_dense_chain_skips_bd_entries():
    import oracles

    rng = np.random.default_rng(5)
    chain = Chain.from_dense(oracles.random_reversible_dense(rng, 8))
    report = verify_bounds(chain)
    assert report.passed
    assert any("birth-death" in s.reason for s in report.skipped)


def test_verify_bounds_nonreversible_skips_spectral_entries():
    chain = Chain.from_dense(
        [
            [0.1, 0.8, 0.1],
            [0.1, 0.1, 0.8],
            [0.8, 0.1, 0.1],
        ]
    )
    report = verify_bounds(chain)
    assert report.passed
    assert any("not reversible" in s.reason for s in report.skipped)
    names = {e.inequality for e in report.entries}
    assert "tv-below-dbar" in names
    assert "gap-sandwich-lower" not in names
