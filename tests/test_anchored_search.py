"""Anchored mixing-time searches and shared evolutions.

Discrete and lazy searches take their bracket from the values the evaluator
already holds, whatever metric, level or fixed time put them there.  The
evaluator keeps the rows of every banded step it evaluates, and of a ladder
of four steps per octave, in one store keyed by step; a banded request
reads its step there or continues from the largest kept step below it.
Continuous targets share one gallop and one bisection tree per gallop
interval.  Every probed value must be the one a fresh evaluation gives, so
the answers must equal a fresh search per level and, on small chains, a
linear scan.  ``verify_bounds`` shares one evaluator per clock across
metrics, levels and fixed times; its reports must equal those built from
public calls, and it must uniformize no (start rows, time, tol) twice.
"""

import json
import random

import numpy as np
import pytest

from cutofflab import (
    DistanceQuery,
    FamilySpec,
    NoConvergence,
    distance,
    family_scan,
    generate,
    mixing_time,
    verify_bounds,
)
from cutofflab import chain as chain_module
from cutofflab import distances as distances_module
from cutofflab import families
from cutofflab.chain import Chain
from cutofflab.distances import (
    _Evaluator,
    _continuous_brackets,
    _mixing_times,
    _search_discrete,
    distance_curve,
    mixing_bracket,
)

from conftest import ehrenfest, flip, random_bd
import oracles

LEVELS = (0.75, 0.5, 0.3, 0.25, 0.1, 0.05, 0.01)


def _dense_reversible() -> Chain:
    return Chain.from_dense(oracles.random_reversible_dense(np.random.default_rng(11), 7))


def _path_biased(n: int = 20) -> Chain:
    return generate(FamilySpec("path_biased", (n,), rho=0.7), n)


SMALL_CASES = [
    (random_bd(0, 6), "lazy", "tv"),
    (random_bd(1, 13), "discrete", "sep"),
    (random_bd(2, 11), "lazy", "dbar"),
    (random_bd(4, 30), "discrete", "tv"),
    (_path_biased(), "lazy", "sep"),
    (_path_biased(), "discrete", "tv"),
    (_dense_reversible(), "discrete", "tv"),
    (_dense_reversible(), "lazy", "dbar"),
]


def _query(mode, metric, exhaustive=True):
    return DistanceQuery(mode, metric, delta=0.5 if mode == "lazy" else None,
                         exhaustive=exhaustive)


def _shared_search(chain, query, levels):
    # drive one evaluator through the levels in the given order
    ev = _Evaluator(chain, query, 1e-10)
    return {eps: _search_discrete(ev, eps) for eps in levels}, ev


def _shared_brackets(chain, query, levels):
    # walk the levels, listed in the given order, through one probe tree
    ev = _Evaluator(chain, query, 1e-10)
    found, error = _continuous_brackets(ev, [(query.metric, eps) for eps in levels])
    assert error is None
    return {eps: bracket for (_, eps), bracket in found.items()}


def _orders(levels):
    shuffled = list(levels)
    random.Random(3).shuffle(shuffled)
    return [sorted(levels), sorted(levels, reverse=True), shuffled]


@pytest.mark.parametrize("chain,mode,metric", SMALL_CASES)
def test_shared_levels_equal_fresh_searches_and_linear_scan(chain, mode, metric):
    query = _query(mode, metric)
    fresh = {eps: mixing_time(chain, eps, query) for eps in LEVELS}
    kernel, pi = chain.dense_kernel, chain.stationary
    delta = query.delta
    for eps in LEVELS:
        m = 0
        while oracles.metric_at(kernel, pi, m, mode, metric, delta) > eps:
            m += 1
        assert fresh[eps] == m, eps
    for order in _orders(LEVELS):
        assert _shared_search(chain, query, order)[0] == fresh
        brackets = _mixing_times(chain, order, query, 1e-10)
        assert brackets == {eps: (m, m) for eps, m in fresh.items()}


@pytest.mark.parametrize("n", [150, 290, 310])
def test_lazy_ehrenfest_levels_across_the_dense_power_cliff(n):
    # 151 and 291 states take dense matrix powers for probes of >= 256
    # steps; 311 states evolve every probe with Chain.apply
    chain = ehrenfest(n)
    query = _query("lazy", "tv", exhaustive=False)
    levels = (0.5, 0.25, 0.05)
    fresh = {eps: mixing_time(chain, eps, query) for eps in levels}
    for order in _orders(levels):
        assert _shared_search(chain, query, order)[0] == fresh
    brackets = _mixing_times(chain, levels, query, 1e-10)
    assert brackets == {eps: (m, m) for eps, m in fresh.items()}


@pytest.mark.parametrize("chain,metric", [(chain, metric) for chain, _, metric in SMALL_CASES])
def test_shared_continuous_levels_equal_fresh_brackets(chain, metric):
    query = _query("continuous", metric)
    fresh = {eps: mixing_bracket(chain, eps, query) for eps in LEVELS}
    kernel, pi = chain.dense_kernel, chain.stationary
    for eps, (lo, hi) in fresh.items():
        # the bracket encloses the crossing of the matrix-exponential oracle
        assert hi == 0.0 or oracles.metric_at(kernel, pi, lo, "continuous", metric) > eps - 1e-9
        assert oracles.metric_at(kernel, pi, hi, "continuous", metric) <= eps + 1e-9
    for order in _orders(LEVELS):
        assert _shared_brackets(chain, query, order) == fresh
        assert _mixing_times(chain, order, query, 1e-10) == fresh


@pytest.mark.parametrize("n", [150, 290, 310])
def test_continuous_ehrenfest_levels_equal_fresh_brackets(n):
    chain = ehrenfest(n)
    query = _query("continuous", "tv", exhaustive=False)
    levels = (0.5, 0.25, 0.05)
    fresh = {eps: mixing_bracket(chain, eps, query) for eps in levels}
    for order in _orders(levels):
        assert _shared_brackets(chain, query, order) == fresh
    assert _mixing_times(chain, levels, query, 1e-10) == fresh


def test_levels_below_the_first_failure_carry_the_found_brackets():
    # period 2: tv from a point mass never drops below 1/2
    query = _query("discrete", "tv")
    with pytest.raises(NoConvergence, match="period 2") as info:
        _mixing_times(ehrenfest(8), (0.9, 0.6, 0.4, 0.1), query, 1e-10)
    found = {}
    for eps in (0.9, 0.6):
        m = mixing_time(ehrenfest(8), eps, query)
        found[eps] = (m, m)
    assert info.value.brackets == found
    # verify_bounds keeps the found levels and maps the rest to None
    bounds = families._BoundEvaluator(ehrenfest(8), 0.5, 1e-10)
    bounds.search("discrete", {"tv": (0.9, 0.6, 0.4, 0.1)})
    assert [bounds.mix("discrete", "tv", eps) for eps in (0.9, 0.6, 0.4, 0.1)] == [
        (float(found[0.9][0]),) * 2, (float(found[0.6][0]),) * 2, None, None,
    ]


class _PublicCallBounds:
    """``verify_bounds``'s evaluator rebuilt from one public ``distance`` or
    ``mixing_bracket`` call per evaluation, as it was before the sharing."""

    def __init__(self, chain, delta, tol):
        self.chain, self.delta, self.tol = chain, delta, tol

    def _query(self, mode, metric):
        return DistanceQuery(mode, metric, delta=self.delta if mode == "lazy" else None,
                             exhaustive=True)

    def dist(self, mode, metric, time):
        return distance(self.chain, self._query(mode, metric), time, self.tol)

    def evaluate(self, mode, times, metrics):
        pass

    def search(self, mode, levels):
        pass

    def mix(self, mode, metric, eps):
        try:
            return mixing_bracket(self.chain, eps, self._query(mode, metric), self.tol)
        except NoConvergence:
            return None


def _nonreversible() -> Chain:
    return Chain.from_dense([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])


@pytest.mark.parametrize("chain", [
    random_bd(2003, 6), random_bd(2010, 13), random_bd(2031, 34), ehrenfest(16), flip(),
    _dense_reversible(), _nonreversible(),
])
def test_verify_bounds_equals_public_call_reference(chain, monkeypatch):
    shared = json.dumps(verify_bounds(chain).to_dict())
    monkeypatch.setattr(families, "_BoundEvaluator", _PublicCallBounds)
    assert shared == json.dumps(verify_bounds(chain).to_dict())


def test_verify_bounds_ehrenfest_64_uniformized_work(work_count):
    verify_bounds(ehrenfest(64))
    # 4,166 time units with a fresh search per (clock, metric, eps) and a
    # fresh evolution per (clock, metric, t); 2,346 with one search per
    # (clock, metric), of which 735 repeated earlier probes and 1,002 were
    # fixed-time evaluations from t = 0 whose largest time is 364
    assert 0 < work_count.uniformized_time <= 1_000


@pytest.mark.parametrize("chain", [
    random_bd(2003, 6), random_bd(2031, 34), ehrenfest(16), _dense_reversible(), _nonreversible(),
])
def test_verify_bounds_repeats_no_uniformization(chain, monkeypatch):
    # every (start rows, time, tol) is uniformized once: the fixed times in
    # one pass, the searches' probes once for every metric and level
    seen = []
    real = chain_module._uniformized

    def uniformized(c, rows, times, tol):
        seen.extend((rows.tobytes(), rows.shape, t, tol) for t in times)
        return real(c, rows, times, tol)

    for module in (chain_module, distances_module):
        monkeypatch.setattr(module, "_uniformized", uniformized)
    verify_bounds(chain)
    assert len(seen) > 50
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("chain,mode,metric", SMALL_CASES + [(ehrenfest(310), "lazy", "tv")])
def test_a_level_bracketed_by_held_values_probes_only_inside(chain, mode, metric):
    query = _query(mode, metric, exhaustive=chain.num_states < 100)
    m = mixing_time(chain, 0.01, query)
    assert m >= 3
    lo, hi = m // 2, 2 * m
    ev = _Evaluator(chain, query, 1e-10)
    ev.evaluate([lo, hi], (metric,))
    held = set(ev._cache)
    assert _search_discrete(ev, 0.01) == m
    probed = {int(time) for time, _ in set(ev._cache) - held}
    assert probed and all(lo < t < hi for t in probed)
    assert len(probed) <= (hi - lo - 1).bit_length()


@pytest.mark.parametrize("chain,mode,metric", SMALL_CASES[:4] + [(ehrenfest(310), "lazy", "tv")])
def test_probed_values_are_bit_identical_to_fresh_distances(chain, mode, metric):
    query = _query(mode, metric, exhaustive=chain.num_states < 100)
    _, ev = _shared_search(chain, query, _orders((0.5, 0.2, 0.05))[2])
    assert len(ev._cache) > 5
    for (time, metric), value in ev._cache.items():
        assert metric == query.metric
        assert distance(chain, query, int(time)) == value, time


def test_every_probed_banded_step_is_kept(work_count):
    # 311 states lie above the dense-power cliff, so every probe is banded
    chain = ehrenfest(310)
    ev = _Evaluator(chain, _query("lazy", "tv", exhaustive=False), 1e-10)
    assert _search_discrete(ev, 0.25) > 256
    probed = {int(time) for time, _ in ev._cache}
    work_count.apply_by_chain.clear()
    for t in probed:
        ev.value(t, "sep")
    assert work_count.applies == 0
    assert all((float(t), "sep") in ev._cache for t in probed)


def test_a_banded_request_continues_from_the_largest_kept_step(work_count):
    chain = ehrenfest(64)
    ev = _Evaluator(chain, _query("lazy", "tv", exhaustive=False), 1e-10)
    work_count.apply_by_chain.clear()
    # each request applies exactly the gap from the largest kept step below
    # it: 192 is a ladder step (a multiple of 32 in 128..255), the others
    # are steps evaluated earlier
    for t, gap in ((197, 197), (210, 13), (199, 2), (205, 6), (193, 1), (197, 0)):
        before = work_count.applies
        ev.value(t)
        assert work_count.applies - before == gap, t


@pytest.mark.parametrize("mode", ["discrete", "lazy", "continuous"])
def test_distance_curve_equals_per_time_distance(mode):
    chain = random_bd(7, 15)
    query = _query(mode, "tv")
    grid = [0, 1, 1, 2, 5, 9, 30, 255, 256, 400]
    curve = distance_curve(chain, query, grid)
    assert list(curve.values) == [distance(chain, query, t) for t in grid]


def test_distance_curve_continues_each_sample(work_count):
    chain = ehrenfest(400).lazy(0.5)
    query = _query("discrete", "tv", exhaustive=False)
    grid = [0, 10, 100, 1000]
    curve = distance_curve(chain, query, grid)
    assert work_count.apply_by_chain[chain] == 1000
    assert list(curve.values) == [distance(chain, query, t) for t in grid]


def test_lazy_ehrenfest_1024_search_work(work_count):
    chain = ehrenfest(1024)
    t = mixing_time(chain, 0.25, _query("lazy", "tv", exhaustive=False))
    assert t == 4009
    # one gallop to 4096 and one bisection below it; re-evolving every probe
    # from time 0 took 50,742 applications
    assert work_count.applies <= 3 * t
    assert work_count.matrix_powers == 0


def test_family_scan_lazy_column_work(work_count):
    report = family_scan(FamilySpec("ehrenfest", (1024,)))
    assert report.records[0].mixing_lazy == {
        0.05: 5672.0, 0.1: 4961.0, 0.25: 4009.0, 0.5: 3243.0, 0.75: 2700.0,
    }
    # the lazy kernel is the only chain here that holds at state 0
    lazy = sum(c for chain, c in work_count.apply_by_chain.items() if chain.hold[0] > 0)
    assert 0 < lazy <= 50_000  # 294,604 with one fresh search per level
    # 12,281 continuing only from the latest checkpoint, 9,803 resuming
    # each level at its metric's checkpoint, 8,699 bracketing each level by
    # the values already held
    assert lazy == 8_699
    assert work_count.matrix_powers == 0
    # the continuous column evolves the base chain; 33,219 applications
    # with one fresh gallop per level, 17,649 with a shared gallop and a
    # bisection per level, 13,972 with one probe tree for all levels
    base = sum(c for chain, c in work_count.apply_by_chain.items() if chain.hold[0] == 0)
    assert 0 < base <= 14_000


def test_period_refusal_does_no_work(work_count):
    # 401 states lie above the dense-power cliff; the search used to step
    # toward the 10**7 cap
    chain = ehrenfest(400)
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    for metric in ("tv", "sep"):
        with pytest.raises(NoConvergence):
            mixing_time(chain, 0.25, _query("discrete", metric, exhaustive=False))
    assert work_count.applies == 0 and work_count.matrix_powers == 0
