"""Anchored discrete and lazy mixing-time searches.

The searches continue banded evolutions from a checkpoint and share it
across the eps levels of one query.  Every probed value must be the one a
fresh evaluation gives, so the answers must equal a fresh search per level
and, on small chains, a linear scan.
"""

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
)
from cutofflab.chain import Chain
from cutofflab.distances import _Evaluator, _mixing_times, _search_discrete, distance_curve

from conftest import ehrenfest, random_bd
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


@pytest.mark.parametrize("chain,mode,metric", SMALL_CASES[:4] + [(ehrenfest(310), "lazy", "tv")])
def test_probed_values_are_bit_identical_to_fresh_distances(chain, mode, metric):
    query = _query(mode, metric, exhaustive=chain.num_states < 100)
    _, ev = _shared_search(chain, query, _orders((0.5, 0.2, 0.05))[2])
    assert len(ev._cache) > 5
    for time, value in ev._cache.items():
        assert distance(chain, query, int(time)) == value, time


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
    assert work_count.matrix_powers == 0


def test_period_refusal_does_no_work(work_count):
    # 401 states lie above the dense-power cliff; the search used to step
    # toward the 10**7 cap
    chain = ehrenfest(400)
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    for metric in ("tv", "sep"):
        with pytest.raises(NoConvergence):
            mixing_time(chain, 0.25, _query("discrete", metric, exhaustive=False))
    assert work_count.applies == 0 and work_count.matrix_powers == 0
