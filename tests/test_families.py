"""Family generators, size scans, and the inequality verifier."""

import json
import math
from collections import Counter

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
    SizeRecord,
    TolTooLoose,
    family_scan,
    generate,
    load_family,
    sep_bounds,
    stationary_time_summary,
    verify_bounds,
)
from cutofflab.distances import _Evaluator
from cutofflab.families import DEFAULT_DELTA, DEFAULT_EPS_GRID, _trend_verdict

from conftest import bench_workloads, flip, random_bd, rank_one

workloads = bench_workloads()


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


@pytest.mark.parametrize(
    "family, name, value",
    [
        ("ehrenfest", "delta", np.float32(0.5)),
        ("ehrenfest", "delta", np.float64(0.25)),
        ("path_biased", "rho", np.float32(0.3)),
        ("path_biased", "rho", np.float64(0.7)),
        ("random_bd", "seed", np.int64(3)),
        ("random_bd", "seed", np.uint8(7)),
    ],
    ids=["delta-f32", "delta-f64", "rho-f32", "rho-f64", "seed-i64", "seed-u8"],
)
def test_family_spec_stores_numpy_scalars_as_python_numbers(family, name, value):
    # numpy float32 fields were refused and float64 ones stored as numpy scalars
    spec = FamilySpec(family, (4, 8), **{name: value})
    stored = getattr(spec, name)
    expected = int(value) if name == "seed" else float(value)
    assert type(stored) is type(expected) and stored == expected
    grid = FamilySpec("ehrenfest", (4, 8), eps_grid=(np.float32(0.25), np.float64(0.1)))
    assert [type(e) for e in grid.eps_grid] == [float, float]
    assert grid.eps_grid == (0.25, 0.1)
    json.dumps(spec.to_dict())


@pytest.mark.parametrize(
    "family, fields",
    [
        ("ehrenfest", {"delta": True}),
        ("ehrenfest", {"delta": np.bool_(True)}),
        ("ehrenfest", {"delta": np.float32("nan")}),
        ("ehrenfest", {"delta": np.float64(1.0)}),
        ("ehrenfest", {"eps_grid": (np.float32(0.0),)}),
        ("ehrenfest", {"eps_grid": (float("nan"),)}),
        ("ehrenfest", {"eps_grid": (True,)}),
        ("path_biased", {"rho": np.float32(0.5)}),
        ("path_biased", {"rho": float("nan")}),
        ("path_biased", {"rho": True}),
        ("path_biased", {"rho": np.float64(1.5)}),
        ("random_bd", {"seed": True}),
        ("random_bd", {"seed": np.int64(-1)}),
        ("random_bd", {"seed": 3.0}),
    ],
)
def test_family_spec_still_refuses_bools_nan_and_out_of_range(family, fields):
    with pytest.raises(BadFamily):
        FamilySpec(family, (4, 8), **fields)


def test_family_spec_json_follows_the_field_order():
    biased = FamilySpec("path_biased", (8, 16), rho=0.3, delta=0.25, eps_grid=(0.1, 0.4))
    assert json.dumps(biased.to_dict()) == (
        '{"family": "path_biased", "sizes": [8, 16], "rho": 0.3, "delta": 0.25, '
        '"eps_grid": [0.1, 0.4]}'
    )
    seeded = FamilySpec("random_bd", (5, 9), seed=3)
    assert json.dumps(seeded.to_dict()) == '{"family": "random_bd", "sizes": [5, 9], "seed": 3}'


def test_report_json_keys_follow_the_field_order():
    report = family_scan(FamilySpec("ehrenfest", (4,)), eps_grid=(0.25,)).to_dict()
    assert list(report) == [
        "spec", "delta", "eps_grid", "records", "verdict", "ratio_target",
        "ratio_deviation_final",
    ]
    assert list(report["records"][0]) == [
        "n", "gap", "spectral_sum", "product", "mixing_continuous", "mixing_lazy",
        "ratio_c_over_lazy", "window", "sqrt_t", "window_over_sqrt_t", "window_over_n",
    ]
    bounds = verify_bounds(generate(FamilySpec("random_bd", (5,), seed=3), 5)).to_dict()
    assert list(bounds) == ["passed", "min_margin", "entries", "skipped"]
    assert list(bounds["entries"][0]) == ["inequality", "point", "lhs", "rhs", "margin"]
    assert list(bounds["skipped"][0]) == ["inequality", "point", "reason"]


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
    with pytest.raises(BadShape, match="cannot read family spec"):
        load_family(missing)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(BadShape, match="cannot read family spec"):
        load_family(garbled)


def test_generate_ehrenfest_rates():
    chain = generate(FamilySpec("ehrenfest", (4,)), 4)
    assert np.allclose(chain.birth, [1.0, 0.75, 0.5, 0.25, 0.0])
    assert np.allclose(chain.death, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(chain.hold, 0.0)


@pytest.mark.parametrize("size", [4.7, 4.0, np.float64(6.9), "5", True, None])
def test_generate_refuses_sizes_that_are_not_integers(size):
    # a fractional size was truncated (4.7 built n = 4) and a string was
    # read as its number; FamilySpec refuses them already
    with pytest.raises(BadFamily, match="integer"):
        generate(FamilySpec("ehrenfest", (4,)), size)
    assert generate(FamilySpec("ehrenfest", (4,)), np.int64(5)).num_states == 6


def test_generate_refuses_a_size_below_two():
    for size in (1, 0, -3):
        with pytest.raises(BadFamily) as info:
            generate(FamilySpec("ehrenfest", (4,)), size)
        assert str(info.value) == f"size must be >= 2, got {size}"


def test_family_spec_from_dict_names_the_required_fields():
    for obj in ({"sizes": [4]}, {"family": "ehrenfest"}, {}):
        with pytest.raises(BadShape) as info:
            FamilySpec.from_dict(obj)
        assert str(info.value) == 'family spec needs "family" and "sizes" fields'


def test_generate_paths():
    sym = generate(FamilySpec("path_symmetric", (5,)), 5)
    assert sym.birth[0] == 0.5 and sym.hold[0] == 0.5
    assert sym.death[5] == 0.5 and sym.hold[5] == 0.5
    assert np.allclose(sym.hold[1:5], 0.0)
    biased = generate(FamilySpec("path_biased", (5,), rho=0.7), 5)
    assert np.allclose(biased.birth[:5], 0.7)
    assert np.allclose(biased.death[1:], 0.3)
    # path_symmetric takes the path_biased branch at rho = 1/2 (a spec
    # refuses that rho); its chain is the one built from p = q = 1/2 itself,
    # bit for bit
    for n in (2, 3, 8, 64, 1025):
        sym = generate(FamilySpec("path_symmetric", (n,)), n)
        p, q = np.full(n + 1, 0.5), np.full(n + 1, 0.5)
        p[n], q[0] = 0.0, 0.0
        built = Chain.from_rates(p, q, 1.0 - p - q)
        for part in ("birth", "death", "hold", "stationary"):
            assert np.array_equal(getattr(sym, part), getattr(built, part)), (n, part)


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


def test_family_scan_empty_grid_ehrenfest_products_are_harmonic():
    report = family_scan(FamilySpec("ehrenfest", (8, 16, 64)), eps_grid=())
    for rec in report.records:
        expect = sum(1.0 / k for k in range(1, rec.n + 1))
        assert rec.gap == pytest.approx(2.0 / rec.n, abs=1e-12)
        assert rec.product == pytest.approx(expect, rel=1e-10)
    assert report.verdict == "cutoff-trend"


def test_family_scan_empty_grid_symmetric_path_is_flat():
    report = family_scan(FamilySpec("path_symmetric", (8, 16, 32)), eps_grid=())
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
    for grid in ((0.0, 0.5), (0.5, 1.0), ("0.5",)):
        with pytest.raises(BadEpsilon):
            family_scan(spec, eps_grid=grid)


def test_family_scan_validates_tol_with_an_empty_grid():
    # the spectral-only scan runs no evolution, so tol was never checked
    spec = FamilySpec("ehrenfest", (8,))
    for eps_grid in ((), (0.25,)):
        for bad in (5.0, 0.0, -3.0, math.nan, "1e-10"):
            with pytest.raises(TolTooLoose):
                family_scan(spec, eps_grid=eps_grid, tol=bad)


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
    # an empty grid, given or from the spec, asks for the spectral report
    # alone: no clock is run, so delta and every clock column stay empty
    spectral = family_scan(FamilySpec("ehrenfest", (4, 8), delta=0.25, eps_grid=()))
    assert (spectral.delta, spectral.eps_grid) == (None, ())
    assert spectral.ratio_target is None and spectral.ratio_deviation_final is None
    assert spectral.verdict == report.verdict
    for rec, full in zip(spectral.records, report.records):
        assert rec == SizeRecord(full.n, full.gap, full.spectral_sum, full.product)
    assert family_scan(spec, eps_grid=()).records == spectral.records


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


def test_verify_bounds_sum_brackets_are_those_of_sep_bounds():
    # the spectral-sum brackets were restated from the summary's np.sum of
    # 1/lambda, which differs from the fsum behind sep_bounds' mean in the
    # last bits on 4 of these 13 chains
    eps_grid = (0.05, 0.1, 0.3, 0.6)
    for seed, n in [(2000 + k, 3 + k) for k in range(12)] + [(7, 15)]:
        chain = random_bd(seed, n)
        sst = stationary_time_summary(chain)
        entries = {(e.inequality, e.point): e for e in verify_bounds(chain, eps_grid=eps_grid).entries}
        for eps in eps_grid:
            point = f"eps={eps:g}"
            if eps < 0.5:
                assert (entries[("sep-time-above-sum", point)].lhs
                        == entries[("mean-bracket-lower", point)].lhs)
                assert (entries[("sep-time-below-sum", point)].rhs
                        == entries[("mean-bracket-upper", point)].rhs)
            if eps < 0.125:
                assert (entries[("tv-time-above-sum", point)].lhs
                        == 0.5 * sep_bounds(sst, 4 * eps)[2])


def test_verify_bounds_composes_each_discrete_power_once(monkeypatch):
    # the tv and sep searches of one clock probe the same steps; each probe
    # reduces its rows for every searched metric, so a power composed for one
    # search (a step that is not a power of two) is never composed again
    composed = Counter()
    depth = [0]
    real = _Evaluator.semigroup

    def semigroup(ev, h):
        if depth[0] == 0 and not ev.continuous and h & (h - 1):
            composed[(ev, h)] += 1
        depth[0] += 1
        try:
            return real(ev, h)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Evaluator, "semigroup", semigroup)
    for seed, n in ((2013, 16), (2017, 20)):
        composed.clear()
        verify_bounds(random_bd(seed, n))
        assert len(composed) > 20
        assert max(composed.values()) == 1


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


def test_verify_bounds_skips_the_lazy_floor_where_beta_is_zero():
    # the 1/2-lazy flip is the uniform kernel, whose contraction factor is 0:
    # log(beta) is undefined, so the lazy spectral floor is skipped per eps
    report = verify_bounds(Chain.from_dense([[0.0, 1.0], [1.0, 0.0]]))
    assert report.passed
    skips = [(s.point, s.reason) for s in report.skipped
             if s.inequality == "mixing-spectral-floor-lazy"]
    assert skips == [("eps=0.1", "beta zero"), ("eps=0.2", "beta zero"), ("eps=0.4", "beta zero")]
    assert "mixing-spectral-floor-continuous" in {e.inequality for e in report.entries}


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


def test_verify_bounds_skips_the_spectral_entries_of_an_unresolved_gap():
    # two fast pairs joined by rate 1e-20: the gap read 4.52e-16, and the
    # time grid built from its spectral sum, 2.21e15, passed the cap
    p = np.array([0.5, 1e-20, 0.5, 0.0])
    q = np.array([0.0, 0.5, 1e-20, 0.5])
    report = verify_bounds(Chain.from_rates(p, q, 1.0 - p - q))
    spectral = report.skipped[0]
    assert (spectral.inequality, spectral.point) == ("spectral", "all")
    assert "not resolvable" in spectral.reason
    assert len(report.entries) == 30 and report.passed
    names = {e.inequality for e in report.entries}
    assert "tv-below-dbar" in names
    assert "gap-sandwich-lower" not in names and "chebyshev-lower" not in names


def test_family_scan_report_stores_the_checked_delta():
    # a numpy delta was stored as given, and the report's JSON refused it
    report = family_scan(FamilySpec("ehrenfest", (4,)), delta=np.float32(0.5))
    assert type(report.delta) is float and type(report.ratio_target) is float
    assert json.loads(json.dumps(report.to_dict())) == family_scan(
        FamilySpec("ehrenfest", (4,)), delta=0.5
    ).to_dict()


@pytest.mark.parametrize("n", workloads.FAMILY_SIZES)
def test_family_scan_equals_the_bench_goldens_exactly(n):
    # the benchmark's own check allows 1e-10 on the spectrum and 1e-4 on the
    # continuous column; every value holds to the bit
    gold = workloads.load_goldens()["family_ehrenfest"][str(n)]
    rec = family_scan(FamilySpec("ehrenfest", (n,)), delta=workloads.FAMILY_DELTA).records[0]
    assert (rec.gap, rec.spectral_sum) == (gold["gap"], gold["spectral_sum"])
    assert [list(kv) for kv in sorted(rec.mixing_lazy.items())] == gold["mixing_lazy"]
    assert [list(kv) for kv in sorted(rec.mixing_continuous.items())] == gold["mixing_continuous"]
