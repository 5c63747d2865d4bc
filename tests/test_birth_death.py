"""Hitting times, strong stationary times, and the corner identity."""

import math
import warnings

import numpy as np
import pytest

from cutofflab import (
    BadDelta,
    BadEpsilon,
    BadShape,
    Chain,
    ChainError,
    DistanceQuery,
    FamilySpec,
    NonIntegerTime,
    NotBirthDeath,
    TolTooLoose,
    corner_separation,
    distance,
    generate,
    hitting_time_bound,
    passage_time,
    sep_bounds,
    sst_tail,
    stationary_time_summary,
)
from cutofflab.distances import mixing_bracket

from conftest import ehrenfest, random_bd, rank_one, two_state
import oracles


def test_passage_time_ehrenfest_two_by_hand():
    # pi = (1/4, 1/2, 1/4): steps cost 1 and 3, so the corner passage mean is 4
    report = passage_time(ehrenfest(2))
    assert report.mean_by_rates == pytest.approx(4.0, abs=1e-12)
    assert report.mean_by_spectrum == pytest.approx(4.0, abs=1e-10)
    assert report.residual <= 1e-10


def test_passage_time_two_state_is_reciprocal_rate():
    for p in (0.5, 0.3, 0.05):
        report = passage_time(two_state(p, 0.4))
        assert report.mean_by_rates == pytest.approx(1.0 / p, rel=1e-12)


def test_passage_time_matches_fundamental_matrix_oracle():
    for seed, n in ((0, 6), (3, 13), (8, 21)):
        chain = random_bd(seed, n)
        report = passage_time(chain)
        expect = oracles.mean_hitting_time(chain.dense_kernel, chain.top_state)
        assert report.mean_by_rates == pytest.approx(expect, rel=1e-9)
        assert report.mean_by_spectrum == pytest.approx(expect, rel=1e-8)
        assert report.residual <= 1e-8 * max(1.0, expect)


@pytest.mark.parametrize("n,reason", [
    (64, "restricted spectrum is not resolvable"),  # below the rounding error
    (1100, "overflows a double"),                   # S_n = 2**1100
])
def test_passage_time_refuses_what_doubles_cannot_hold(n, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChainError, match=reason):
            passage_time(ehrenfest(n))


@pytest.mark.parametrize("chain", [
    ehrenfest(50), ehrenfest(63), ehrenfest(100), ehrenfest(200),
    generate(FamilySpec("path_biased", (40,), rho=0.3), 40),
])
def test_passage_time_refuses_an_unresolvable_restricted_spectrum(chain):
    # u * theta_max / theta_min > 1e-6: Ehrenfest 50 read mean_by_spectrum
    # 1.99e15 against 1.15e15 by rates, with residual 0.42
    with pytest.raises(ChainError, match="restricted spectrum is not resolvable"):
        passage_time(chain)


def test_passage_time_answers_while_the_spectrum_is_resolvable():
    # u * theta_max / theta_min = 4.9e-7 on Ehrenfest 30
    report = passage_time(ehrenfest(30))
    assert report.residual <= 1e-6


def test_hitting_time_bound_keeps_the_finite_sums():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the sums near both corners overflow; the minimum sits in the middle
        assert hitting_time_bound(ehrenfest(1100)) == (4550.385643093898, 550)
        # pi falls by a factor 18 per step towards the middle from either
        # side, so every sum overflows
        p = np.r_[np.full(300, 0.05), np.full(300, 0.9), 0.0]
        q = np.r_[0.0, np.full(299, 0.9), np.full(301, 0.05)]
        with pytest.raises(ChainError, match="overflows a double"):
            hitting_time_bound(Chain.from_rates(p, q, 1.0 - p - q))


def test_hitting_time_bound_hand_values():
    value, where = hitting_time_bound(ehrenfest(2))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert where == 1
    value, where = hitting_time_bound(two_state(0.5, 0.5))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert where == 0  # tie between the two states resolves downward


def test_hitting_time_bound_dominates_spectral_sum(small_corpus):
    from cutofflab import eigen_summary

    for chain in small_corpus:
        if not chain.is_birth_death:
            continue
        value, where = hitting_time_bound(chain)
        assert 0 <= where < chain.num_states
        assert eigen_summary(chain).spectral_sum <= value + 1e-10


def test_bd_only_guards():
    dense = rank_one([0.25, 0.25, 0.5])
    with pytest.raises(NotBirthDeath):
        passage_time(dense)
    with pytest.raises(NotBirthDeath):
        hitting_time_bound(dense)
    with pytest.raises(NotBirthDeath):
        stationary_time_summary(dense)
    with pytest.raises(NotBirthDeath):
        corner_separation(dense, 1.0)


def test_stationary_time_summary_fields():
    chain = random_bd(5, 12)
    summary = stationary_time_summary(chain)
    assert np.all(np.diff(summary.rates) > 0)
    assert summary.mean == pytest.approx(np.sum(1.0 / summary.rates), rel=1e-12)
    assert summary.variance == pytest.approx(np.sum(1.0 / summary.rates**2), rel=1e-12)
    assert summary.variance <= summary.mean**2 * (1 + 1e-12)


def test_sst_tail_two_state_is_exponential():
    chain = two_state(0.3, 0.6)
    for t in (0.0, 0.5, 2.0, 10.0):
        assert sst_tail(chain, t) == pytest.approx(math.exp(-0.9 * t), abs=1e-12)


def test_sst_tail_time_zero_is_one(small_corpus):
    for chain in small_corpus:
        if chain.is_birth_death:
            assert sst_tail(chain, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_sst_tail_matches_hypoexponential_oracle():
    for seed, n in ((1, 5), (4, 9), (7, 14)):
        chain = random_bd(seed, n)
        rates = stationary_time_summary(chain).rates
        mean = float(np.sum(1.0 / rates))
        for t in np.linspace(0.2 * mean, 2.5 * mean, 6):
            expect = oracles.hypoexp_tail(rates, float(t))
            assert sst_tail(chain, float(t)) == pytest.approx(expect, abs=1e-10)


def test_sst_tail_matches_ehrenfest_closed_form():
    # pi(n) = 2**-n underflows from n = 1075 on, where no corner entry answers
    for n in (40, 1100, 2048):
        chain = ehrenfest(n)
        mean = stationary_time_summary(chain).mean
        for u in (0.05, 0.5, 1.0, 2.0, 3.0):
            t = u * mean
            expect = oracles.ehrenfest_sst_tail(n, t)
            assert sst_tail(chain, t) == pytest.approx(expect, abs=1e-10), (n, u)


def test_sst_tail_is_a_survival_function():
    chain = random_bd(3, 8)
    mean = stationary_time_summary(chain).mean
    grid = np.linspace(0.0, 3.0 * mean, 25)
    vals = [sst_tail(chain, float(t)) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def test_sst_tail_auto_survives_unstable_spectra():
    # the alternating product formula cancels terms that sum to 5e8 here
    chain = ehrenfest(40)
    early = 0.1 * stationary_time_summary(chain).mean
    val = sst_tail(chain, early)
    assert val == pytest.approx(corner_separation(chain, early, tol=1e-12), abs=1e-10)
    assert 0.0 <= val <= 1.0


def test_sst_tail_validates_inputs():
    chain = two_state()
    with pytest.raises(BadShape):
        sst_tail(chain, -1.0)
    with pytest.raises(BadShape):
        sst_tail(chain, math.nan)
    with pytest.raises(TolTooLoose):
        sst_tail(chain, 1.0, tol=1e-3)


def test_corner_identity_equals_full_separation_continuous():
    # from corner start, the far-corner entry carries the whole separation
    for seed, n in ((0, 7), (6, 18)):
        chain = random_bd(seed, n)
        q = DistanceQuery(time_mode="continuous", metric="sep", exhaustive=True)
        for t in (0.5, 2.0, 7.0, 20.0):
            full = distance(chain, q, t, tol=1e-12)
            corner = corner_separation(chain, t, tol=1e-12)
            assert corner == pytest.approx(full, abs=1e-9)


def test_corner_identity_equals_full_separation_lazy_half():
    chain = random_bd(9, 16)
    q = DistanceQuery(time_mode="lazy", metric="sep", delta=0.5, exhaustive=True)
    for m in (1, 5, 25, 120):
        full = distance(chain, q, m)
        corner = corner_separation(chain, m, mode="lazy", delta=0.5)
        assert corner == pytest.approx(full, abs=1e-9)


def test_corner_separation_validates_mode_and_delta():
    chain = two_state()
    with pytest.raises(BadDelta):
        corner_separation(chain, 3, mode="lazy", delta=0.3)
    with pytest.raises(BadDelta):
        corner_separation(chain, 3, mode="lazy")
    with pytest.raises(BadShape):
        corner_separation(chain, 3, mode="discrete")
    with pytest.raises(BadShape):
        corner_separation(chain, -1.0)
    with pytest.raises(NonIntegerTime):
        corner_separation(chain, "3", mode="lazy", delta=0.5)
    with pytest.raises(BadShape):
        corner_separation(chain, -1, mode="lazy", delta=0.5)
    with pytest.raises(TolTooLoose):
        corner_separation(chain, 3, mode="lazy", delta=0.5, tol=5.0)


def test_corner_identity_matches_sst_tail():
    chain = random_bd(4, 11)
    mean = stationary_time_summary(chain).mean
    for t in (0.5 * mean, mean, 2.0 * mean):
        assert corner_separation(chain, t, tol=1e-12) == pytest.approx(
            sst_tail(chain, t), abs=1e-8
        )


def test_sep_bounds_bracket_the_true_mixing_time():
    for chain in (random_bd(1, 10), ehrenfest(8)):
        summary = stationary_time_summary(chain)
        q = DistanceQuery(time_mode="continuous", metric="sep", exhaustive=True)
        for eps in (0.1, 0.25, 0.5):
            lower, upper, lower_mean, upper_mean = sep_bounds(summary, eps)
            lo, hi = mixing_bracket(chain, eps, q)
            assert lower <= hi + 1e-9
            assert lo <= upper + 1e-9
            assert lower_mean <= hi + 1e-9
            assert lo <= upper_mean + 1e-9
            assert 0.0 <= lower <= upper
            assert 0.0 <= lower_mean <= upper_mean


def test_sep_bounds_two_state_half_level():
    # a single rate: Chebyshev collapses to (0, 2 * mean), mean*ln 2 inside
    chain = two_state(0.5, 0.5)
    summary = stationary_time_summary(chain)
    lower, upper, lower_mean, upper_mean = sep_bounds(summary, 0.5)
    assert lower == 0.0
    assert upper == pytest.approx(2.0 * summary.mean, rel=1e-12)
    assert lower_mean == pytest.approx(0.0, abs=1e-12)
    assert upper_mean == pytest.approx(2.0 * summary.mean, rel=1e-12)
    t_sep = summary.mean * math.log(2.0)
    assert lower < t_sep < upper
    with pytest.raises(BadEpsilon):
        sep_bounds(summary, 0.0)
