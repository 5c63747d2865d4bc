"""Anchored mixing-time searches and shared evolutions.

Discrete and lazy searches take their bracket from the values the evaluator
already holds, whatever metric, level or fixed time put them there.  The
evaluator keeps the rows of every banded step it evaluates, and of a ladder
of four steps per octave, in one store keyed by step; a banded request
reads its step there or continues from the largest kept step below it.
``_Evaluator.search`` takes every (metric, eps) target of one clock, on
every clock, through one gallop and one bisection tree, and writes its
brackets to ``found``.  Every probed value must be the one a fresh
evaluation gives, so the answers must equal a fresh search per level and,
on small chains, a linear scan.  ``verify_bounds`` keeps one
evaluator per clock for every metric, level and fixed time; its reports must
equal those built from public calls, and it must uniformize no (start rows,
time, tol) twice.  Continuous probes with many rows on a small chain multiply
by cached powers E(h) = exp(-h (I - K)), each built once per evaluator and
checked against the matrix exponential.
"""

import gc
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cutofflab import (
    BadShape,
    DistanceQuery,
    FamilySpec,
    NoConvergence,
    corner_separation,
    distance,
    eigen_summary,
    family_scan,
    generate,
    mixing_time,
    step_distribution,
    verify_bounds,
)
from cutofflab import chain as chain_module
from cutofflab import distances as distances_module
from cutofflab import families
from cutofflab.chain import SEARCH_CAP, Chain
from cutofflab.distances import _Evaluator, distance_curve, mixing_bracket
from cutofflab.families import VERIFY_EPS_GRID

from conftest import ehrenfest, flip, random_bd, two_state
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
    # drive one evaluator through the levels in the given order, one search
    # per level, each bracketed by the values the earlier ones left
    ev = _Evaluator(chain, query, 1e-10)
    for eps in levels:
        ev.search([(query.metric, eps)])
    return {eps: ev.found[(query.metric, eps)][1] for eps in levels}, ev


def _searched_brackets(chain, query, levels):
    # search the levels, listed in the given order, on one evaluator
    ev = _Evaluator(chain, query, 1e-10)
    ev.search([(query.metric, eps) for eps in levels])
    return {eps: bracket for (_, eps), bracket in ev.found.items()}


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
        assert _searched_brackets(chain, query, order) == {eps: (m, m) for eps, m in fresh.items()}


@pytest.mark.parametrize("n", [150, 290, 310])
def test_lazy_ehrenfest_levels_across_the_dense_power_cliff(n):
    # 151 and 291 states take dense matrix powers for the late gallop
    # probes, where the two rows' steps from 0 outnumber the power's rows
    # (n per product); 311 states evolve every probe with Chain.apply
    chain = ehrenfest(n)
    query = _query("lazy", "tv", exhaustive=False)
    levels = (0.5, 0.25, 0.05)
    fresh = {eps: mixing_time(chain, eps, query) for eps in levels}
    for order in _orders(levels):
        assert _shared_search(chain, query, order)[0] == fresh
    assert _searched_brackets(chain, query, levels) == {eps: (m, m) for eps, m in fresh.items()}


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
        assert _searched_brackets(chain, query, order) == fresh


@pytest.mark.parametrize("n", [150, 290, 310])
def test_continuous_ehrenfest_levels_equal_fresh_brackets(n):
    chain = ehrenfest(n)
    query = _query("continuous", "tv", exhaustive=False)
    levels = (0.5, 0.25, 0.05)
    fresh = {eps: mixing_bracket(chain, eps, query) for eps in levels}
    for order in _orders(levels):
        assert _searched_brackets(chain, query, order) == fresh


def test_levels_below_the_first_failure_carry_the_found_brackets():
    # period 2: tv from a point mass never drops below 1/2
    levels = (0.9, 0.6, 0.4, 0.1)
    query = _query("discrete", "tv")
    ev = _Evaluator(ehrenfest(8), query, 1e-10)
    with pytest.raises(NoConvergence, match="period 2"):
        ev.search([("tv", eps) for eps in levels])
    found = {}
    for eps in (0.9, 0.6):
        m = mixing_time(ehrenfest(8), eps, query)
        found[("tv", eps)] = (m, m)
    assert ev.found == found
    # verify_bounds maps the failed levels to None and skips their entries
    report = verify_bounds(ehrenfest(8), eps_grid=levels)
    assert [s.point for s in report.skipped if s.inequality == "tv-sep-ordering"] == [
        f"discrete eps={eps:g}" for eps in levels
    ]
    assert ("mixing-spectral-floor-continuous", "eps=0.1") in {
        (e.inequality, e.point) for e in report.entries
    }


class _PublicCallEvaluator:
    """``verify_bounds``'s per-clock evaluator rebuilt from one public
    ``distance`` or ``mixing_bracket`` call per evaluation, as it was before
    the sharing."""

    def __init__(self, chain, query, tol):
        self.chain, self.query, self.tol = chain, query, tol
        self.found = {}

    def _query(self, metric):
        q = self.query
        return DistanceQuery(q.time_mode, metric, delta=q.delta, exhaustive=q.exhaustive)

    def value(self, time, metric):
        return distance(self.chain, self._query(metric), time, self.tol)

    def evaluate(self, requests):
        return [self.value(time, metric) for time, metric in requests]

    def search(self, targets):
        error = None
        for metric, eps in targets:
            try:
                self.found[(metric, eps)] = mixing_bracket(
                    self.chain, eps, self._query(metric), self.tol
                )
            except NoConvergence as exc:
                error = error or exc
        if error is not None:
            raise error


def _nonreversible() -> Chain:
    return Chain.from_dense([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])


@pytest.mark.parametrize("chain", [
    random_bd(2003, 6), random_bd(2010, 13), random_bd(2031, 34), ehrenfest(16), flip(),
    _dense_reversible(), _nonreversible(),
])
def test_verify_bounds_equals_public_call_reference(chain, monkeypatch):
    shared = json.dumps(verify_bounds(chain).to_dict())
    monkeypatch.setattr(families, "_Evaluator", _PublicCallEvaluator)
    assert shared == json.dumps(verify_bounds(chain).to_dict())


def test_verify_bounds_ehrenfest_64_uniformized_work(work_count):
    verify_bounds(ehrenfest(64))
    # 4,166 time units with a fresh search per (clock, metric, eps) and a
    # fresh evolution per (clock, metric, t); 2,346 with one search per
    # (clock, metric), of which 735 repeated earlier probes and 1,002 were
    # fixed-time evaluations from t = 0 whose largest time is 364.  The
    # search probes multiply by cached powers E(h), and so do the six fixed
    # times, 0.3, 0.7 and 1.2 times the spectral sum 151.8 and their
    # doubles: each would take more Poisson terms on 65 rows than E(t)
    # takes products, so no uniformization pass is left
    assert work_count.uniformized_calls == 0
    assert work_count.uniformized_time == 0.0


def test_verify_bounds_ehrenfest_64_shares_its_continuous_factors(work_count):
    # the fixed times build 15 factors on an evaluator of their own and the
    # continuous search 16; in verify_bounds they share 8 (E(1), E(2), ...,
    # E(128)), so its continuous evaluator builds 23, each once (the
    # fixed times' fractional parts are rebuilt on request, but each is
    # requested once)
    chain = ehrenfest(64)
    query = _query("continuous", "tv")
    s = eigen_summary(chain).spectral_sum
    grid = [0.3 * s, 0.7 * s, 1.2 * s]
    _Evaluator(chain, query, 1e-10).evaluate(
        [(t, metric) for t in [*grid, *(2 * t for t in grid)] for metric in ("tv", "sep")]
    )
    fixed, work_count.continuous_factors = work_count.continuous_factors, 0
    # verify_bounds' continuous targets
    _Evaluator(chain, query, 1e-10).search(
        [("tv", eps) for eps in VERIFY_EPS_GRID]
        + [("tv", eps / 4.0) for eps in VERIFY_EPS_GRID]
        + [("sep", eps) for eps in VERIFY_EPS_GRID]
    )
    search, work_count.continuous_factors = work_count.continuous_factors, 0
    verify_bounds(chain)
    assert (fixed, search, work_count.continuous_factors) == (15, 16, 23)
    assert work_count.uniformized_calls == 0


def _record_evolutions(monkeypatch):
    # every (start rows, time, tol) that a uniformization pass carries, and
    # every (evaluator, h) whose E(h) is built
    uniformized, built = [], []
    real_uniformized, real_build = chain_module._uniformized, _Evaluator._build_semigroup

    def counted_uniformized(c, rows, times, tol, until=None):
        uniformized.extend((rows.tobytes(), rows.shape, t, tol) for t in times)
        return real_uniformized(c, rows, times, tol, until)

    def counted_build(ev, h):
        built.append((ev, h))
        return real_build(ev, h)

    for module in (chain_module, distances_module):
        monkeypatch.setattr(module, "_uniformized", counted_uniformized)
    monkeypatch.setattr(_Evaluator, "_build_semigroup", counted_build)
    return uniformized, built


@pytest.mark.parametrize("chain,passed", [
    (random_bd(2003, 6), 1), (random_bd(2031, 34), 0), (ehrenfest(16), 1), (_dense_reversible(), 5),
    (_nonreversible(), 6), (ehrenfest(64), 0),
], ids=[f"chain{i}" for i in range(6)])
def test_verify_bounds_repeats_no_uniformization(chain, passed, monkeypatch):
    # the continuous fixed times that the route rule leaves to
    # uniformization take one pass (all six on the 3-state chain, whose
    # times are 0.3..2.4; none on 35 and 65 states, whose fixed times read
    # E(t)); every search probe of the exhaustive continuous clock
    # multiplies its anchor's rows by E(h), and each factor, E(h) or a power
    # of K or K_delta, is built once on its evaluator for every metric,
    # level and fixed time
    uniformized, built = _record_evolutions(monkeypatch)
    verify_bounds(chain)
    assert len(uniformized) == passed
    assert len(set(uniformized)) == len(uniformized)
    assert len(built) > 10
    assert len(set(built)) == len(built)
    if chain.num_states == 65:
        # fixed times up to 364 steps on the discrete clock, and the lazy
        # clock's Poisson points, take dense powers
        assert {ev.query.time_mode for ev, _ in built} == {"discrete", "lazy", "continuous"}


def test_many_rows_on_a_large_chain_uniformize_banded(work_count):
    # 401 states lie above the dense-product size, so every start state's
    # row steps by Chain.apply at each Poisson term, within tol of expm
    chain = random_bd(7, 400)
    ev = _Evaluator(chain, _query("continuous", "tv"), 1e-10)
    assert not ev.dense_probes and ev.starts.shape == (401, 401)
    times = (0.5, 3.0, 20.0)
    work_count.apply_by_chain.clear()
    for t, rows in zip(times, ev.evolve(times)):
        expect = oracles.rows_at(chain.dense_kernel, t, "continuous")
        assert np.abs(rows - expect).sum(axis=1).max() / 2 <= 1e-10, t
    assert work_count.applies > 0 and work_count.uniformized_calls == 1


def test_few_row_probes_repeat_no_uniformization(monkeypatch):
    # two endpoint rows on 65 states keep banded uniformization: one pass
    # per anchor carries the anchor's probes, so every (anchor rows,
    # increment, tol) of one evaluator's search and fixed times is carried
    # by one pass only, and no E(h) is built
    uniformized, built = _record_evolutions(monkeypatch)
    ev = _Evaluator(ehrenfest(64), _query("continuous", "tv", exhaustive=False), 1e-10)
    assert not ev.dense_probes
    ev.search([(metric, eps) for metric in ("tv", "sep") for eps in LEVELS])
    ev.evaluate([(t, metric) for t in (0.5, 3.0, 20.0) for metric in ("tv", "sep")])
    assert len(uniformized) > 50
    assert len(set(uniformized)) == len(uniformized)
    assert built == []


def _random_dense(seed: int, n: int) -> Chain:
    # positive entries, so irreducible; not reversible in general
    mat = np.random.default_rng(seed).random((n, n))
    return Chain.from_dense(mat / mat.sum(axis=1, keepdims=True))


ORACLE_CHAINS = [
    random_bd(6, 6), random_bd(13, 13), random_bd(34, 34), _dense_reversible(),
    _nonreversible(), _random_dense(5, 9),
]


@pytest.mark.parametrize("chain", ORACLE_CHAINS)
def test_semigroup_powers_equal_the_matrix_exponential(chain):
    ev = _Evaluator(chain, _query("continuous", "tv"), 1e-10)
    assert ev.dense_probes
    # powers of two, and sums of them such as the cap rung's bisection
    # takes: (10**7 - 2**23) / 2**11
    times = [2.0 ** k for k in range(-10, 9)] + [0.3, 3.75, 786.8125]
    for h in times:
        expect = oracles.rows_at(chain.dense_kernel, h, "continuous")
        assert np.abs(ev.semigroup(h) - expect).sum(axis=1).max() / 2 <= 1e-13, h


def test_semigroup_squarings_keep_their_accuracy_to_the_cap():
    # the 3-state path with rates r: I - K has eigenvalues 0, r, 3r with
    # eigenvectors (1, 1, 1), (1, 0, -1), (1, -2, 1).  Unscaled, the
    # squarings doubled the rows' mass error up to 4.4e-10 in tv at 2**23
    r = 1e-6
    chain = _rates_path([r, r, 0.0], [0.0, r, r])
    vectors = [np.array(v) / np.linalg.norm(v) for v in ([1, 1, 1], [1, 0, -1], [1, -2, 1])]
    ev = _Evaluator(chain, _query("continuous", "tv"), 1e-10)
    for k in range(24):
        h = 2.0 ** k
        expect = sum(np.exp(-rate * h) * np.outer(v, v) for rate, v in zip((0, r, 3 * r), vectors))
        assert np.abs(ev.semigroup(h) - expect).sum(axis=1).max() / 2 <= 1e-14, h


VERIFY_SLICE = [random_bd(2000 + k, 3 + k % 38) for k in (0, 3, 8, 15, 21, 29, 33, 37)]


def _verify_times(chain) -> list:
    # verify_bounds' continuous fixed times: 0.3, 0.7 and 1.2 times the
    # spectral sum, and their doubles
    s = eigen_summary(chain).spectral_sum
    return [f * s for f in (0.3, 0.6, 0.7, 1.2, 1.4, 2.4)]


@pytest.mark.parametrize("chain", VERIFY_SLICE)
def test_fixed_times_on_the_power_route_equal_the_matrix_exponential(chain):
    # every start state on 4..41 states: the longer fixed times read E(t),
    # composed from the table's factors and a Poisson sum at t's fractional
    # part, within 1e-12 of expm (4e-14 at most over the 40-chain slice)
    ev = _Evaluator(chain, _query("continuous", "tv"), 1e-10)
    times = [t for t in _verify_times(chain) if ev._takes_power(t)]
    assert len(times) >= 3
    for t, rows in zip(times, ev.evolve(times)):
        expect = oracles.rows_at(chain.dense_kernel, t, "continuous")
        assert np.abs(rows - expect).sum(axis=1).max() / 2 <= 1e-12, t


@pytest.mark.parametrize("chain", [VERIFY_SLICE[1], VERIFY_SLICE[5], ehrenfest(64)])
def test_a_fixed_time_keeps_its_bits_whatever_came_before(chain):
    # short times are uniformized and long ones read E(t); either way a
    # time's rows are the same bits alone on a fresh evaluator, among other
    # times, and after a full search has filled the table
    query = _query("continuous", "tv")
    times = sorted([0.5, 3.0, *_verify_times(chain)])
    alone = [_Evaluator(chain, query, 1e-10).evolve([t])[0].tobytes() for t in times]
    routes = {_Evaluator(chain, query, 1e-10)._takes_power(t) for t in times}
    assert routes == {True, False}
    together = _Evaluator(chain, query, 1e-10).evolve(times)
    assert [rows.tobytes() for rows in together] == alone
    ev = _Evaluator(chain, query, 1e-10)
    ev.search([(metric, eps) for metric in ("tv", "sep", "dbar") for eps in LEVELS])
    assert [ev.evolve([t])[0].tobytes() for t in times] == alone
    assert [rows.tobytes() for rows in ev.evolve(times)] == alone


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_a_fixed_time_past_the_cap_is_refused_before_any_factor(mode, work_count):
    # every start state on 41 states: the times below the cap would take the
    # power route, but the largest time is checked first
    ev = _Evaluator(random_bd(5, 40), _query(mode, "tv"), 1e-10)
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    for times in ([SEARCH_CAP + 1], [300, 5000, SEARCH_CAP + 1]):
        with pytest.raises(BadShape, match="exceeds the evolution cap"):
            ev.evolve(times)
    assert ev._semigroup == {}
    assert work_count.continuous_factors == work_count.matrix_powers == 0
    assert work_count.uniformized_calls == 0 and work_count.applies == 0


@pytest.mark.parametrize("chain", ORACLE_CHAINS)
def test_dense_probe_brackets_enclose_the_matrix_exponential_crossing(chain):
    ev = _Evaluator(chain, _query("continuous", "tv"), 1e-10)
    targets = [(metric, eps) for metric in ("tv", "sep", "dbar") for eps in LEVELS]
    ev.search(targets)
    assert set(ev.found) == set(targets)
    kernel, pi = chain.dense_kernel, chain.stationary
    for (metric, eps), (lo, hi) in ev.found.items():
        # values within 1e-12 of eps are left to rounding
        above = oracles.metric_at(kernel, pi, hi, "continuous", metric)
        assert above <= eps or abs(above - eps) <= 1e-12, (metric, eps, hi)
        if hi == 0.0:  # from a point mass x, tv at t = 0 is 1 - pi(x)
            continue
        below = oracles.metric_at(kernel, pi, lo, "continuous", metric)
        assert below > eps or abs(below - eps) <= 1e-12, (metric, eps, lo)


def test_slow_path_continuous_search_takes_cached_powers(work_count, monkeypatch):
    # the 3-state path at rate 1e-6 mixes near t = 763,100: the gallop
    # squares E(1) up to E(2**19), and every later probe is one product.
    # Uniformizing the increments summed about 1.5 million Poisson terms
    _, built = _record_evolutions(monkeypatch)
    chain = _rates_path([1e-6, 1e-6, 0.0], [0.0, 1e-6, 1e-6])
    assert mixing_bracket(chain, 0.25, _query("continuous", "tv")) == (763_072.0, 763_136.0)
    assert work_count.uniformized_calls == 0
    assert sorted(h for _, h in built) == [2.0 ** k for k in range(20)]


def test_continuous_search_refuses_at_the_cap_without_uniformizing(work_count, monkeypatch):
    # at rate 1e-9 the distance stays above 1/4 through t = 10**7; the last
    # rung, 10**7 - 2**23, is composed from the powers of its binary digits,
    # and no composite is built or kept
    _, built = _record_evolutions(monkeypatch)
    chain = _rates_path([1e-9, 1e-9, 0.0], [0.0, 1e-9, 1e-9])
    with pytest.raises(NoConvergence, match="through t = 10000000"):
        mixing_bracket(chain, 0.25, _query("continuous", "tv"))
    assert work_count.uniformized_calls == 0
    squares = [2.0 ** k for k in range(23)]
    assert sorted(h for _, h in built if h in squares) == squares
    assert len(built) == len(squares)


@pytest.mark.parametrize("chain,mode,metric", SMALL_CASES + [(ehrenfest(310), "lazy", "tv")])
def test_a_level_bracketed_by_held_values_probes_only_inside(chain, mode, metric):
    query = _query(mode, metric, exhaustive=chain.num_states < 100)
    m = mixing_time(chain, 0.01, query)
    assert m >= 3
    lo, hi = m // 2, 2 * m
    ev = _Evaluator(chain, query, 1e-10)
    ev.evaluate([(lo, metric), (hi, metric)])
    held = set(ev._cache)
    ev.search([(metric, 0.01)])
    assert ev.found[(metric, 0.01)] == (m, m)
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
    ev.search([("tv", 0.25)])
    assert ev.found[("tv", 0.25)][1] > 256
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
        ev.value(t, "tv")
        assert work_count.applies - before == gap, t


@pytest.mark.parametrize("mode", ["discrete", "lazy", "continuous"])
def test_distance_curve_equals_per_time_distance(mode):
    cases = [(random_bd(7, 15), _query(mode, "tv"), [0, 1, 1, 2, 5, 9, 30, 255, 256, 400])]
    if mode != "continuous":
        # two endpoint rows on 257 states: banded through step 1500, a dense
        # power at 2048 and 4000, whatever step the curve continues from
        grid = [255, 256, 1500, 2048, 4000]
        cases.append((ehrenfest(256), _query(mode, "tv", exhaustive=False), grid))
    for chain, query, grid in cases:
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
    # the values already held, and the same in one probe tree for all
    # levels, whose groups still above eps at a rung where others came out
    # below restart their gallop there (11,771 without that restart), and
    # 5,861 with every level's search started inside the window that the
    # continuous column gives by the clock change m = t / (1 - delta)
    assert lazy == 5_861
    assert work_count.matrix_powers == 0
    # the continuous column evolves the base chain; 33,219 applications
    # with one fresh gallop per level, 17,649 with a shared gallop and a
    # bisection per level, 13,972 with one probe tree for all levels
    base = sum(c for chain, c in work_count.apply_by_chain.items() if chain.hold[0] == 0)
    assert 0 < base <= 14_000


def test_family_scan_ehrenfest_256_evolves_its_endpoints_banded(work_count):
    # two endpoint rows on 257 states: at every step this scan probes,
    # evolving them from step 0 takes fewer row steps than a dense power
    # takes rows; gating on the step and the size alone took 70 powers here
    report = family_scan(FamilySpec("ehrenfest", (256,)))
    assert report.records[0].mixing_lazy == {
        0.05: 1240.0, 0.1: 1062.0, 0.25: 825.0, 0.5: 634.0, 0.75: 500.0,
    }
    assert work_count.matrix_powers == 0


def _rates_path(p, q) -> Chain:
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return Chain.from_rates(p, q, 1.0 - p - q)


def _bottleneck(n: int = 20, rate: float = 1e-5) -> Chain:
    # path_symmetric n with its middle edge at the given rate both ways
    p, q = np.full(n + 1, 0.5), np.full(n + 1, 0.5)
    p[n], q[0] = 0.0, 0.0
    p[n // 2] = q[n // 2 + 1] = rate
    return _rates_path(p, q)


@pytest.mark.parametrize("chain,expected,banded", [
    (_rates_path([1e-6, 1e-6, 0.0], [0.0, 1e-6, 1e-6]), 763_097, 16),
    (_bottleneck(), 387_525, 32),
])
def test_slow_mixing_endpoint_searches_take_dense_powers(chain, expected, banded, work_count):
    # hundreds of thousands of steps from two endpoint rows: dense powers
    # keep the search to a few banded steps, where banded evolution alone
    # would apply the kernel at every one of them.  The banded steps are the
    # gallop's rungs below the first power: with the step floor at 256 both
    # chains applied the kernel 128 times; at 32, the 3-state chain takes
    # the power from step 32 and the 21-state path from step 64, where two
    # rows' row steps first exceed n times the power's products
    work_count.apply_by_chain.clear()
    assert mixing_time(chain, 0.25, _query("discrete", "tv", exhaustive=False)) == expected
    assert work_count.matrix_powers > 0
    assert work_count.applies == banded


def test_public_evolutions_take_the_evaluator_route(work_count):
    # step_distribution and corner_separation read an evaluator's rows, so a
    # long run on a small chain takes its dense power; each used to apply
    # the kernel once per step (10**6 and 10**5 applications)
    two, path = two_state(0.3, 0.6), _bottleneck()
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    row = step_distribution(two, [1.0, 0.0], 10**6)
    assert work_count.applies <= 24 and work_count.matrix_powers >= 1
    assert np.abs(row - two.stationary).max() <= 1e-12
    work_count.apply_by_chain.clear()
    powers = work_count.matrix_powers
    sep = corner_separation(path, 10**5, mode="lazy", delta=0.5)
    assert work_count.applies <= 24 and work_count.matrix_powers > powers
    expect = oracles.metric_at(path.dense_kernel, path.stationary, 10**5, "lazy", "sep", 0.5)
    assert sep == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("steps", [256, 257, 300, 1000, 1024, 4000, 4095, 2**20 + 3])
def test_every_state_takes_the_power_itself(steps, work_count):
    # every state and the endpoint pair on 41 states, and one start vector
    # on 13, take the power route on both integer clocks; the power is read
    # from the evaluator's factors of K or K_delta, multiplied from the
    # lowest binary digit up, so its rows keep numpy's bits
    chain, small = random_bd(5, 40), random_bd(5, 12)
    start = np.arange(1.0, 14.0) / 91.0
    cases = [
        (chain, DistanceQuery(mode, "tv", delta=delta, exhaustive=exhaustive))
        for mode, delta in (("discrete", None), ("lazy", 0.5))
        for exhaustive in (True, False)
    ]
    cases += [(small, DistanceQuery(mode, "tv", delta=delta, start=start))
              for mode, delta in (("discrete", None), ("lazy", 0.5))]
    for base, query in cases:
        ev = _Evaluator(base, query, 1e-10)
        kernel = base.lazy(0.5).dense_kernel if query.time_mode == "lazy" else base.dense_kernel
        expect = (ev.starts @ np.linalg.matrix_power(kernel, steps)).tobytes()
        work_count.apply_by_chain.clear()
        before = work_count.matrix_powers
        assert ev.evolve([steps])[0].tobytes() == expect, query
        # K**(2**k) for k = 0..floor(log2 steps), each built once
        built = work_count.matrix_powers
        assert built - before == steps.bit_length() and work_count.applies == 0
        assert ev.evolve([steps])[0].tobytes() == expect, query
        assert work_count.matrix_powers == built and work_count.applies == 0


@pytest.mark.parametrize("steps", [31, 32, 33, 100, 255])
def test_every_state_takes_the_power_from_the_step_floor(steps, work_count):
    # every state on 41 states: from step 32 each step takes the power on
    # both integer clocks, with numpy's bits; step 31 would too by the
    # product rule (31 * 41 row steps against 41 * 8), but lies below the
    # floor and stays banded
    chain = random_bd(5, 40)
    for mode, delta in (("discrete", None), ("lazy", 0.5)):
        ev = _Evaluator(chain, DistanceQuery(mode, "tv", delta=delta, exhaustive=True), 1e-10)
        kernel = ev.eff.dense_kernel
        work_count.apply_by_chain.clear()
        before = work_count.matrix_powers
        rows = ev.evolve([steps])[0]
        if steps == 31:
            assert work_count.matrix_powers == before and work_count.applies == 31
            expect = oracles.rows_at(chain.dense_kernel, steps, mode, delta)
            assert np.abs(rows - expect).max() <= 1e-14
        else:
            assert rows.tobytes() == np.linalg.matrix_power(kernel, steps).tobytes(), mode
            built = work_count.matrix_powers - before
            assert built == steps.bit_length() and work_count.applies == 0


@pytest.mark.parametrize("seed,n,parent", [(2035, 38, 251), (2020, 23, 575)])
def test_verify_bounds_on_small_chains_applies_no_kernel(seed, n, parent, work_count):
    # criterion-7 chains, every start state: each discrete and lazy step
    # that verify_bounds reads here is 32 or more and takes a dense power,
    # and the continuous clock multiplies by E(h).  With the step floor at
    # 256, the steps 32..255 were banded (``parent`` applications)
    chain = random_bd(seed, n)
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    verify_bounds(chain)
    assert work_count.applies == 0 < parent


def test_period_refusal_does_no_work(work_count):
    # 401 states lie above the dense-power cliff; the search used to step
    # toward the 10**7 cap
    chain = ehrenfest(400)
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    for metric in ("tv", "sep"):
        with pytest.raises(NoConvergence):
            mixing_time(chain, 0.25, _query("discrete", metric, exhaustive=False))
    assert work_count.applies == 0 and work_count.matrix_powers == 0


def _spread_start(n: int) -> np.ndarray:
    # masses 0.7 / 0.3 on the two parity classes: tv floor 0.2, sep floor 0.4
    start = np.zeros(n + 1)
    start[0], start[1] = 0.7, 0.3
    return start


def _at_floor(chain, query, metric) -> float:
    # the smallest double at or above the exact floor
    floor = _Evaluator(chain, query, 1e-10).period_floor(metric)
    at = float(floor)
    return at if Fraction(at) >= floor else math.nextafter(at, 1.0)


def _floor_cases():
    spread = DistanceQuery("discrete", "tv", start=_spread_start(8))
    at_tv = _at_floor(ehrenfest(8), spread, "tv")
    endpoints = _query("discrete", "tv", exhaustive=False)
    return [
        # tv above, at and below 0.2; sep above, at (never met) and below 0.4
        (ehrenfest(8), spread, [("tv", 0.3), ("tv", at_tv), ("tv", math.nextafter(at_tv, 0.0)),
                                ("sep", 0.45), ("sep", 0.4), ("sep", 0.35)]),
        # endpoints on two parity classes: floors 1/2, 1 and 1
        (ehrenfest(7), endpoints, [("tv", 0.6), ("tv", 0.5), ("tv", 0.4), ("sep", 0.9),
                                   ("dbar", 0.9)]),
        # endpoints on one parity class: floors 1/2, 1 and 0
        (ehrenfest(8), endpoints, [("tv", 0.6), ("tv", 0.5), ("tv", 0.4), ("sep", 0.9),
                                   ("dbar", 0.5), ("dbar", 0.25)]),
        # aperiodic: no floor
        (random_bd(4, 30), _query("discrete", "tv"),
         [(metric, eps) for metric in ("tv", "sep", "dbar") for eps in (0.5, 0.25, 0.1)]),
        (ehrenfest(8), _query("lazy", "tv", exhaustive=False),
         [(metric, eps) for metric in ("tv", "sep", "dbar") for eps in (0.5, 0.25, 0.1)]),
    ]


@pytest.mark.parametrize("chain,query,targets", _floor_cases())
def test_one_search_decides_each_target_at_its_own_floor(chain, query, targets):
    # one search over mixed metrics gives every target the bracket of a
    # search of its own, and leaves out exactly the targets such a search
    # refuses; it raises the refusal of the first of them
    answers, refusals = {}, {}
    for metric, eps in targets:
        q = DistanceQuery(query.time_mode, metric, delta=query.delta, start=query.start,
                          exhaustive=query.exhaustive)
        try:
            answers[(metric, eps)] = mixing_bracket(chain, eps, q)
        except NoConvergence as exc:
            refusals[(metric, eps)] = str(exc)
    if query.time_mode == "discrete" and chain.period > 1:
        assert answers and refusals
    for order in _orders(targets):
        ev = _Evaluator(chain, query, 1e-10)
        if refusals:
            with pytest.raises(NoConvergence) as raised:
                ev.search(order)
            first = next(tg for tg in order if tg in refusals)
            assert str(raised.value) == refusals[first]
        else:
            ev.search(order)
        assert ev.found == answers


@pytest.mark.parametrize("chain,eps,query,message", [
    (flip(), 0.25, DistanceQuery("discrete", "tv"),
     "the chain has period 2; its tv distance stays at or above 0.5 > 0.25"),
    (ehrenfest(8), 0.9, DistanceQuery("discrete", "sep"),
     "the chain has period 2; its sep distance stays at or above 1 > 0.9"),
    (ehrenfest(7), 0.25, DistanceQuery("discrete", "dbar"),
     "the chain has period 2; its dbar distance stays at or above 1 > 0.25"),
    (ehrenfest(8), 0.4, DistanceQuery("discrete", "sep", start=_spread_start(8)),
     "the chain has period 2; its sep distance stays above its floor 0.4 at every step"),
    (two_state(1e-9, 1e-9), 0.25, DistanceQuery("discrete", "tv", start=[1.0, 0.0]),
     "distance stays above 0.25 through 10000000 steps"),
    (_rates_path([1e-9, 1e-9, 0.0], [0.0, 1e-9, 1e-9]), 0.25, DistanceQuery("continuous", "tv"),
     "distance stays above 0.25 through t = 10000000"),
    (_rates_path([1e-9, 1e-9, 0.0], [0.0, 1e-9, 1e-9]), 0.25,
     DistanceQuery("lazy", "sep", delta=0.5),
     "distance stays above 0.25 through 10000000 steps"),
])
def test_single_target_refusals_keep_their_text(chain, eps, query, message):
    # the CLI prints these after "error: " and exits 3
    with pytest.raises(NoConvergence) as raised:
        mixing_time(chain, eps, query)
    assert str(raised.value) == message


def test_refused_targets_leave_no_evaluator_to_the_cycle_collector():
    # Ehrenfest 16 has period 2, so verify_bounds' discrete targets are
    # refused.  A refusal kept as an exception held the search's frame in a
    # cycle, and through verify_bounds' frame every evaluator, until a full
    # collection
    chain = ehrenfest(16)
    gc.collect()
    gc.disable()
    try:
        verify_bounds(chain)
        alive = [o for o in gc.get_objects() if isinstance(o, _Evaluator) and o.base is chain]
    finally:
        gc.enable()
    assert alive == []


def test_discrete_probes_reduce_only_their_groups_metrics(monkeypatch):
    # 115 reductions on the discrete clock when every probe reduced every
    # metric still to be searched, and 81 when the fixed times also reduced
    # dbar at 2m, which no entry reads
    reductions, checks = [], []
    real_metric, real_check = _Evaluator._metric, distances_module._check_separation

    def counted_metric(ev, rows, metric, time=None):
        if ev.query.time_mode == "discrete":
            reductions.append(metric)
        return real_metric(ev, rows, metric, time)

    monkeypatch.setattr(_Evaluator, "_metric", counted_metric)
    verify_bounds(random_bd(2031, 34))
    assert len(reductions) == 78
    # separation is checked once per search, not at every probe
    monkeypatch.setattr(distances_module, "_check_separation",
                        lambda pi: checks.append(1) or real_check(pi))
    ev = _Evaluator(random_bd(2031, 34), _query("discrete", "tv"), 1e-10)
    ev.search([(metric, eps) for metric in ("tv", "sep") for eps in (0.4, 0.2, 0.1)])
    assert len(checks) == 1 and len(ev.found) == 6


def test_verify_bounds_reduces_only_the_fixed_time_values_it_reads(monkeypatch):
    # the metric comparisons read tv, dbar and sep at each grid time and sep
    # at 2t; discrete tv at 2t is reduced too, to seed the discrete tv search
    reductions = []
    real_metric = _Evaluator._metric

    def counted_metric(ev, rows, metric, time=None):
        reductions.append((ev.query.time_mode, metric, time))
        return real_metric(ev, rows, metric, time)

    monkeypatch.setattr(_Evaluator, "_metric", counted_metric)
    chain = random_bd(2031, 34)
    verify_bounds(chain)
    s = eigen_summary(chain).spectral_sum
    t_grid = [0.3 * s, 0.7 * s, 1.2 * s]
    m_grid = sorted({max(1, round(t)) for t in t_grid})
    dbar = [(mode, time) for mode, metric, time in reductions if metric == "dbar"]
    assert sorted(dbar) == sorted([("discrete", m) for m in m_grid]
                                  + [("continuous", t) for t in t_grid])
    assert ("continuous", "tv") not in {
        (mode, metric) for mode, metric, time in reductions if time in {2 * t for t in t_grid}
    }


FAMILY_LEVELS = (0.75, 0.5, 0.25, 0.1, 0.05)
# verify_bounds searches eps and eps / 4 on the grid (0.1, 0.2, 0.4)
VERIFY_LEVELS = (0.4, 0.2, 0.1, 0.05, 0.025)
WALK_CHAINS = [
    ehrenfest(8), ehrenfest(64), ehrenfest(256), ehrenfest(1024),
    generate(FamilySpec("path_biased", (40,), rho=0.3), 40), random_bd(3, 40), random_bd(54, 29),
]


@pytest.mark.parametrize("chain", WALK_CHAINS)
def test_one_pass_per_anchor_keeps_the_per_probe_brackets(chain):
    # endpoint rows on 9..1025 states take the banded route: one pass per
    # anchor stops once every target is below, and must bracket every
    # target as one uniformization per probe did
    query = _query("continuous", "tv", exhaustive=False)
    targets = [(m, eps) for m in ("tv", "sep") for eps in {*FAMILY_LEVELS, *VERIFY_LEVELS, 0.9}]
    ev = _Evaluator(chain, query, 1e-10)
    assert not ev.dense_probes
    ev.search(targets)
    assert ev.found == oracles.per_probe_brackets(_Evaluator(chain, query, 1e-10), targets)
    if chain.num_states == 9:  # tv from the endpoints falls below 0.9 at t = 0.45
        assert 0.0 < ev.found[("tv", 0.9)][1] <= 1.0


@pytest.mark.parametrize("chain", ORACLE_CHAINS[:3] + [_nonreversible()])
def test_dense_probes_keep_the_per_probe_brackets(chain):
    query = _query("continuous", "tv")
    targets = [(m, eps) for m in ("tv", "sep", "dbar") for eps in LEVELS]
    ev = _Evaluator(chain, query, 1e-10)
    assert ev.dense_probes
    ev.search(targets)
    assert ev.found == oracles.per_probe_brackets(_Evaluator(chain, query, 1e-10), targets)


@pytest.mark.parametrize("chain,exhaustive,cap", [
    # a cap of 300 on Ehrenfest 256's endpoint rows (banded): tv 0.75 crosses
    # at 248.8, below the rung 256; the others are above at the last rung, 300
    (ehrenfest(256), False, 300),
    # the 3-state path at rate 1e-9, exhaustive (dense), at the true cap
    (_rates_path([1e-9, 1e-9, 0.0], [0.0, 1e-9, 1e-9]), True, SEARCH_CAP),
])
def test_one_pass_walk_refuses_at_the_cap_as_the_per_probe_walk(chain, exhaustive, cap, monkeypatch):
    monkeypatch.setattr(distances_module, "SEARCH_CAP", cap)
    query = _query("continuous", "tv", exhaustive=exhaustive)
    targets = [("tv", 0.75), ("tv", 0.7), ("tv", 0.5), ("sep", 0.5)]
    ev, found = _Evaluator(chain, query, 1e-10), {}
    with pytest.raises(NoConvergence) as new:
        ev.search(targets)
    with pytest.raises(NoConvergence) as old:
        oracles.per_probe_brackets(_Evaluator(chain, query, 1e-10), targets, found, cap)
    assert str(new.value) == str(old.value)
    assert ev.found == found and len(found) == 2


def test_ehrenfest_1024_endpoint_search_applies(work_count):
    chain = ehrenfest(1024)
    ev = _Evaluator(chain, _query("continuous", "tv", exhaustive=False), 1e-10)
    work_count.apply_by_chain.clear()
    ev.search([("tv", eps) for eps in FAMILY_LEVELS])
    # 13,971 with one uniformization per probe, which ran every gallop rung
    # to its end and re-uniformized from the anchor after each probe that
    # came out below; one pass per anchor that stops once every target is
    # below takes 6,390.  Pinned exactly, so that a change in the number of
    # Poisson terms shows as a count
    assert work_count.applies == 6_390


def test_a_repeated_search_reads_its_found_brackets(work_count):
    ev = _Evaluator(ehrenfest(64), _query("continuous", "tv", exhaustive=False), 1e-10)
    targets = [(metric, eps) for metric in ("tv", "sep") for eps in LEVELS]
    ev.search(targets)
    calls, found = work_count.uniformized_calls, dict(ev.found)
    assert calls > 0
    ev.search(targets[::-1])
    assert work_count.uniformized_calls == calls
    assert ev.found == found
