"""Distance-to-stationarity queries and mixing time searches."""

import math
import tracemalloc
from fractions import Fraction

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
    LengthMismatch,
    NoConvergence,
    NonIntegerTime,
    continuous_distribution,
    corner_separation,
    distance,
    distance_curve,
    generate,
    mixing_time,
    total_variation,
)
from cutofflab.distances import _Evaluator, mixing_bracket

from conftest import ehrenfest, flip, random_bd, rank_one, two_state
import oracles


def test_total_variation_basics():
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(LengthMismatch):
        total_variation([0.5, 0.5], [0.2, 0.3, 0.5])


def test_query_validation():
    with pytest.raises(BadShape):
        DistanceQuery(time_mode="diffuse", metric="tv")
    with pytest.raises(BadShape):
        DistanceQuery(time_mode="discrete", metric="hellinger")
    with pytest.raises(BadDelta):
        DistanceQuery(time_mode="lazy", metric="tv")
    for bad in (1.0, True, np.True_, np.float32("nan"), np.float32(1.5)):
        with pytest.raises(BadDelta):
            DistanceQuery(time_mode="lazy", metric="tv", delta=bad)
    with pytest.raises(BadDelta):
        DistanceQuery(time_mode="continuous", metric="tv", delta=0.5)
    with pytest.raises(BadShape):
        DistanceQuery(time_mode="discrete", metric="dbar", start=[1.0, 0.0])
    with pytest.raises(BadShape):
        DistanceQuery(time_mode="discrete", metric="tv", start=[1.0, 0.0], exhaustive=True)


def test_rank_one_chain_mixes_in_one_step():
    chain = rank_one([0.2, 0.3, 0.5])
    q = DistanceQuery(time_mode="discrete", metric="tv")
    assert distance(chain, q, 1) == pytest.approx(0.0, abs=1e-15)
    assert distance(chain, q, 0) == pytest.approx(0.8, abs=1e-15)
    assert mixing_time(chain, 0.25, q) == 1


def test_flip_chain_never_mixes_discretely():
    chain = flip()
    q = DistanceQuery(time_mode="discrete", metric="tv")
    for m in (0, 1, 2, 17):
        assert distance(chain, q, m) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(NoConvergence):
        mixing_time(chain, 0.25, q)


def test_flip_chain_floor_is_strict():
    # from a point mass the flip chain sits at tv = 1/2 at every time, so an
    # eps of exactly 1/2 is met at time 0 and only a smaller eps is refused
    chain = flip()
    assert mixing_time(chain, 0.5, DistanceQuery(time_mode="discrete", metric="tv")) == 0
    with pytest.raises(NoConvergence, match="period 2"):
        mixing_time(chain, 0.4999, DistanceQuery(time_mode="discrete", metric="tv"))


def test_periodic_floor_per_metric_and_start_set():
    cycle3 = Chain.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    tv = DistanceQuery(time_mode="discrete", metric="tv")
    assert mixing_time(cycle3, 0.7, tv) == 0  # floor 1 - 1/3
    with pytest.raises(NoConvergence):
        mixing_time(cycle3, 0.6, tv)
    sep = DistanceQuery(time_mode="discrete", metric="sep")
    with pytest.raises(NoConvergence):
        mixing_bracket(ehrenfest(8), 0.9, sep)
    # dbar has a floor only when the starts meet two cyclic classes: the
    # endpoints 0 and n share a parity class for even n
    dbar = DistanceQuery(time_mode="discrete", metric="dbar")
    full = DistanceQuery(time_mode="discrete", metric="dbar", exhaustive=True)
    m = mixing_time(ehrenfest(8), 0.25, dbar)
    assert distance(ehrenfest(8), dbar, m) <= 0.25 < distance(ehrenfest(8), dbar, m - 1)
    for chain, query in ((ehrenfest(8), full), (ehrenfest(7), dbar)):
        with pytest.raises(NoConvergence):
            mixing_time(chain, 0.25, query)
    # a fixed start vector on a periodic chain is refused below its class-mass
    # floor; on an aperiodic chain that mixes too slowly the capped search
    # still refuses
    start = DistanceQuery(time_mode="discrete", metric="tv", start=[1.0, 0.0])
    with pytest.raises(NoConvergence, match="period 2"):
        mixing_time(flip(), 0.25, start)
    with pytest.raises(NoConvergence, match="through"):
        mixing_time(two_state(1e-9, 1e-9), 0.25, start)


def test_point_mass_floors_on_periods_two_four_and_eight():
    # one-hot start rows give tv floor 1 - 1/d, sep floor 1, and dbar floor
    # 1 once the rows meet two cyclic classes, 0 while they share one
    def cycle(d):
        return Chain.from_dense(np.roll(np.eye(d), 1, axis=1))

    cases = [(flip(), 2, 1.0), (ehrenfest(8), 2, 0.0), (ehrenfest(7), 2, 1.0)]
    cases += [(cycle(d), d, 1.0) for d in (4, 8)]
    for chain, period, dbar in cases:
        assert chain.period == period
        floors = {}
        for metric in ("tv", "sep", "dbar"):
            query = DistanceQuery(time_mode="discrete", metric=metric)
            floors[metric] = _Evaluator(chain, query, 1e-10).period_floor(metric)
        assert floors == {"tv": 1.0 - 1.0 / period, "sep": 1.0, "dbar": dbar}
        with pytest.raises(NoConvergence, match=f"period {period}"):
            mixing_time(chain, np.nextafter(1.0 - 1.0 / period, 0.0),
                        DistanceQuery(time_mode="discrete", metric="tv"))


def test_tv_floor_decides_the_doubles_next_to_it_on_every_period():
    # from a point mass the pure d-cycle sits at tv = (d-1)/d at every time;
    # a floor summed in floats put the double just below or at (d-1)/d on the
    # wrong side for d = 6, 7, 10, 13, 14 and 19..23
    query = DistanceQuery(time_mode="discrete", metric="tv")
    for d in range(3, 25):
        chain = Chain.from_dense(np.roll(np.eye(d), 1, axis=1))
        exact = Fraction(d - 1, d)
        at_or_above = float(exact)
        if Fraction(at_or_above) < exact:
            at_or_above = math.nextafter(at_or_above, 1.0)
        with pytest.raises(NoConvergence, match=f"period {d}"):
            mixing_time(chain, math.nextafter(at_or_above, 0.0), query)
        assert mixing_time(chain, at_or_above, query) == 0, d


def test_eps_at_the_floor_is_decided_exactly():
    # Ehrenfest 400 has period 2.  From the endpoints tv = 1/2 exactly from
    # the first time P^t >= pi on the occupied parity class; the float
    # distance straddles 1/2 by rounding around it.
    n = 400
    chain = ehrenfest(n)
    query = DistanceQuery(time_mode="discrete", metric="tv")
    assert mixing_time(chain, 0.5, query) == 1271
    # the same start given as a vector, as ``analyze --start`` builds it
    start = np.zeros(n + 1)
    start[0] = 1.0
    start_query = DistanceQuery(time_mode="discrete", metric="tv", start=start)
    assert mixing_time(chain, 0.5, start_query) == 1271
    kernel, pi = chain.dense_kernel, chain.stationary
    points = np.eye(n + 1)[[0, n]]
    assert min(oracles.class_ratio_floor(kernel, pi, x, 1270) for x in points) < -1e-3
    assert min(oracles.class_ratio_floor(kernel, pi, x, 1271) for x in points) > 1e-3
    for t in (1270, 1271, 1272):
        assert distance(chain, query, t) == pytest.approx(0.5, abs=1e-12)
    # the flip chain sits at its floor from time 0
    for exhaustive in (False, True):
        flip_query = DistanceQuery(time_mode="discrete", metric="tv", exhaustive=exhaustive)
        assert mixing_time(flip(), 0.5, flip_query) == 0


def test_spread_start_at_its_floor_is_decided_exactly():
    # masses 0.7 / 0.3 on the two parity classes of Ehrenfest 400: tv equals
    # its floor 1/2 (|0.7 - 1/2| + |0.3 - 1/2|) from the first time P^t >= pi
    # on the class holding 0.7 and P^t <= pi on the other
    n = 400
    chain = ehrenfest(n)
    start = np.zeros(n + 1)
    start[0], start[1] = 0.7, 0.3
    query = DistanceQuery(time_mode="discrete", metric="tv", start=start)
    floor = 0.19999999999999998
    assert mixing_time(chain, floor, query) == 1413
    with pytest.raises(NoConvergence, match="period 2"):
        mixing_time(chain, np.nextafter(floor, 0.0), query)
    kernel, pi = chain.dense_kernel, chain.stationary
    assert oracles.class_ratio_floor(kernel, pi, start, 1412) < -1e-3
    assert oracles.class_ratio_floor(kernel, pi, start, 1413) > 1e-4


def test_start_vector_floor_refuses_without_work(work_count):
    # masses 0.7 / 0.3 on the two parity classes of Ehrenfest 8 rotate with
    # t: tv stays >= 1/2 (|0.7 - 1/2| + |0.3 - 1/2|) = 0.2 and sep >= 1 - 2 * 0.3
    chain = ehrenfest(8)
    start = np.zeros(9)
    start[[0, 2]] = 0.35
    start[[1, 3]] = 0.15
    work_count.apply_by_chain.clear()
    for metric, eps in (("tv", 0.19), ("sep", 0.39)):
        query = DistanceQuery(time_mode="discrete", metric=metric, start=start)
        with pytest.raises(NoConvergence, match="period 2"):
            mixing_time(chain, eps, query)
    assert work_count.applies == 0 and work_count.matrix_powers == 0
    for metric, eps in (("tv", 0.21), ("sep", 0.41)):
        query = DistanceQuery(time_mode="discrete", metric=metric, start=start)
        m = mixing_time(chain, eps, query)
        assert distance(chain, query, m) <= eps < distance(chain, query, m - 1)


def test_sep_floor_no_step_meets_is_refused_at_step_n(work_count):
    # mass 0.7 on state 0 and 0.3 on state 1: the sep floor 1 - 2 * 0.3 is
    # exactly the double 0.4, and the 0.3 packet never spreads exactly as pi
    for n in (7, 8, 400):
        chain = ehrenfest(n)
        start = np.zeros(n + 1)
        start[0], start[1] = 0.7, 0.3
        query = DistanceQuery(time_mode="discrete", metric="sep", start=start)
        work_count.apply_by_chain.clear()
        with pytest.raises(NoConvergence, match="stays above its floor 0.4"):
            mixing_time(chain, 0.4, query)
        assert work_count.applies == chain.num_states + 2 and work_count.matrix_powers == 0
        m = mixing_time(chain, 0.41, query)
        assert distance(chain, query, m) <= 0.41 < distance(chain, query, m - 1)


def test_sep_floor_met_at_a_finite_step_is_answered():
    # the least-mass packet sits on one state, or spreads as pi after one
    # step (Ehrenfest 2: 0.3 on the middle state moves to 0.15 / 0.15)
    cycle = Chain.from_dense(np.roll(np.eye(4), 1, axis=1))
    cases = [(flip(), [0.7, 0.3], 0.4, 0), (ehrenfest(2), [0.7, 0.3, 0.0], 0.4, 1),
             (cycle, [0.4, 0.2, 0.2, 0.2], 1 - 4 * 0.2, 0)]
    for chain, start, eps, answer in cases:
        query = DistanceQuery(time_mode="discrete", metric="sep", start=start)
        floor = _Evaluator(chain, query, 1e-10).period_floor("sep")
        assert eps == floor
        assert mixing_time(chain, eps, query) == answer
        assert distance(chain, query, answer) == eps


def test_endpoint_shortcut_undershoots_on_random_bd():
    # random_bd is a built-in family, and the endpoint shortcut is not exact
    # on it: the exhaustive values agree with brute force, the shortcut's
    # fall below them
    chain = random_bd(54, 29)
    fast = DistanceQuery(time_mode="lazy", metric="tv", delta=0.5)
    slow = DistanceQuery(time_mode="lazy", metric="tv", delta=0.5, exhaustive=True)
    exact = oracles.metric_at(chain.dense_kernel, chain.stationary, 1, "lazy", "tv", 0.5)
    assert distance(chain, slow, 1) == pytest.approx(exact, abs=1e-12)
    assert exact == pytest.approx(0.93770, abs=1e-5)
    assert distance(chain, fast, 1) == pytest.approx(0.92567, abs=1e-5)

    chain = random_bd(3, 8)
    kernel, pi = chain.dense_kernel, chain.stationary
    m = 0
    while oracles.metric_at(kernel, pi, m, "lazy", "tv", 0.5) > 0.9:
        m += 1
    assert mixing_time(chain, 0.9, slow) == m == 1
    assert mixing_time(chain, 0.9, fast) == 0


def test_flip_chain_lazy_half_mixes_instantly():
    chain = flip()
    q = DistanceQuery(time_mode="lazy", metric="tv", delta=0.5)
    assert distance(chain, q, 1) == pytest.approx(0.0, abs=1e-12)
    assert mixing_time(chain, 0.25, q) == 1


def test_two_state_continuous_closed_form():
    # symmetric two-state relaxes at rate p+q; T(eps) = ln(1/(2 eps))/(p+q)
    for p, q_rate in ((0.5, 0.5), (0.3, 0.3)):
        chain = two_state(p, q_rate)
        q = DistanceQuery(time_mode="continuous", metric="tv")
        rate = p + q_rate
        for t in (0.4, 1.3):
            assert distance(chain, q, t) == pytest.approx(0.5 * math.exp(-rate * t), abs=1e-10)
        for eps in (0.25, 0.1):
            expect = math.log(1 / (2 * eps)) / rate
            assert mixing_time(chain, eps, q) == pytest.approx(expect, rel=2e-4)


def test_mixing_time_validates_eps():
    chain = two_state()
    q = DistanceQuery(time_mode="continuous", metric="tv")
    for bad in (0.0, 1.0, -0.1, True, np.True_, np.float32("nan"), np.float32(1.5)):
        with pytest.raises(BadEpsilon):
            mixing_time(chain, bad, q)


def test_numpy_float32_inputs_read_as_their_float():
    chain = random_bd(3, 12)
    cont = DistanceQuery("continuous", "tv")
    for eps in (np.float32(0.25), np.float32(0.1)):
        assert mixing_bracket(chain, eps, cont) == mixing_bracket(chain, float(eps), cont)
    lazy = DistanceQuery("lazy", "tv", delta=np.float32(0.3))
    assert type(lazy.delta) is float and lazy.delta == float(np.float32(0.3))
    twin = DistanceQuery("lazy", "tv", delta=float(np.float32(0.3)))
    assert mixing_time(chain, np.float32(0.25), lazy) == mixing_time(chain, 0.25, twin)
    t = np.float32(1.5)
    assert distance(chain, cont, t).hex() == distance(chain, cont, float(t)).hex()
    assert distance(chain, DistanceQuery("discrete", "tv"), np.float32(3.0)) == distance(
        chain, DistanceQuery("discrete", "tv"), 3
    )
    # in float32, 1 - tol rounds to 1 and a Poisson sum would never stop
    tol = np.float32(1e-10)
    few = DistanceQuery("continuous", "tv", start=[1.0] + [0.0] * 12)
    assert distance(chain, few, 2.5, tol).hex() == distance(chain, few, 2.5, float(tol)).hex()
    assert continuous_distribution(chain, few.start, 2.5, tol).tobytes() == (
        continuous_distribution(chain, few.start, 2.5, float(tol)).tobytes()
    )


def test_discrete_time_must_be_integer():
    chain = two_state()
    q = DistanceQuery(time_mode="discrete", metric="tv")
    with pytest.raises(NonIntegerTime):
        distance(chain, q, 1.5)
    with pytest.raises(BadShape):
        distance(chain, q, -2)
    # a float that carries an integer value is accepted
    assert distance(chain, q, 3.0) == distance(chain, q, 3)


@pytest.mark.parametrize("metric", ["tv", "sep", "dbar"])
@pytest.mark.parametrize("mode", ["discrete", "continuous", "lazy"])
def test_distance_matches_dense_oracle(metric, mode):
    chain = random_bd(3, 7)
    kernel = chain.dense_kernel
    pi = chain.stationary
    delta = 0.3 if mode == "lazy" else None
    q = DistanceQuery(time_mode=mode, metric=metric, delta=delta, exhaustive=True)
    times = (1, 4, 19) if mode != "continuous" else (0.7, 3.1, 14.0)
    for t in times:
        expect = oracles.metric_at(kernel, pi, t, mode, metric, delta)
        assert distance(chain, q, t, tol=1e-12) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("mode", ["discrete", "continuous", "lazy"])
def test_endpoint_shortcut_agrees_with_exhaustive(mode):
    # monotone birth-death chains attain the worst start at an endpoint
    delta = 0.5 if mode == "lazy" else None
    for chain in (random_bd(1, 12), ehrenfest(8)):
        for metric in ("tv", "sep"):
            fast = DistanceQuery(time_mode=mode, metric=metric, delta=delta)
            slow = DistanceQuery(time_mode=mode, metric=metric, delta=delta, exhaustive=True)
            times = (2, 9) if mode != "continuous" else (1.5, 6.0)
            for t in times:
                assert distance(chain, fast, t) == pytest.approx(
                    distance(chain, slow, t), abs=1e-10
                )


def test_start_vector_restricts_the_query():
    chain = random_bd(2, 8)
    n = chain.num_states
    kernel = chain.dense_kernel
    mid = n // 2
    start = np.zeros(n)
    start[mid] = 1.0
    q = DistanceQuery(time_mode="continuous", metric="tv", start=start)
    rows = oracles.rows_at(kernel, 2.0, "continuous")
    expect = oracles.tv_worst(rows[mid : mid + 1], chain.stationary)
    assert distance(chain, q, 2.0, tol=1e-12) == pytest.approx(expect, abs=1e-10)
    # a spread-out start is also allowed
    q2 = DistanceQuery(time_mode="continuous", metric="tv", start=np.full(n, 1.0 / n))
    expect2 = oracles.tv_worst((np.full(n, 1.0 / n) @ rows)[None, :], chain.stationary)
    assert distance(chain, q2, 2.0, tol=1e-12) == pytest.approx(expect2, abs=1e-10)


def test_sandwich_between_tv_and_dbar(small_corpus):
    for chain in small_corpus:
        tv_q = DistanceQuery(time_mode="continuous", metric="tv", exhaustive=True)
        dbar_q = DistanceQuery(time_mode="continuous", metric="dbar")
        for t in (0.5, 2.0, 8.0):
            d = distance(chain, tv_q, t)
            dbar = distance(chain, dbar_q, t)
            assert d <= dbar + 1e-10
            assert dbar <= 2 * d + 1e-10


@pytest.mark.parametrize("n", [2, 7, 64, 129, 300])
def test_blocked_dbar_keeps_the_row_loop_bits(n):
    # 129 states cross the 128-entry block of numpy's pairwise sum
    ev = _Evaluator(ehrenfest(n - 1), DistanceQuery("discrete", "dbar"), 1e-10)
    rng = np.random.default_rng(n)
    inputs = [rng.dirichlet(np.full(n, 0.5), size=count) for count in (1, 2, n)]
    if n == 64:
        # every start of Ehrenfest 64 at a few steps: rows x and 64 - x are
        # mirror images, so many pairs tie
        full = _Evaluator(ehrenfest(64), DistanceQuery("discrete", "dbar", exhaustive=True), 1e-10)
        inputs += full.evolve([1, 5, 32, 300])
    for rows in inputs:
        tracemalloc.start()
        try:
            value = ev._metric(rows, "dbar")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value.hex() == oracles.dbar_by_rows(rows).hex(), rows.shape
        # one chunk of pairs within 2**16 entries, and r (r - 1) pair
        # indices for r rows; all pairs at once would take r**2 n / 2
        assert peak <= 2 * 8 * max(2**16, rows.size)


def test_evaluator_refuses_a_metric_it_does_not_know():
    # an unknown name fell through to the dbar reduction and was cached
    # under its own key
    path = generate(FamilySpec("path_symmetric", (6,)), 6)
    ev = _Evaluator(path, DistanceQuery("lazy", "tv", delta=0.5), 1e-10)
    for name in ("tvv", "DBAR", "excess2"):
        with pytest.raises(BadShape, match=f"unknown metric '{name}'"):
            ev.value(3, name)
    assert ev._cache == {}
    assert ev.value(3, "dbar") == distance(path, DistanceQuery("lazy", "dbar", delta=0.5), 3)


def test_dbar_below_separation(small_corpus):
    for chain in small_corpus:
        dbar_q = DistanceQuery(time_mode="continuous", metric="dbar")
        sep_q = DistanceQuery(time_mode="continuous", metric="sep", exhaustive=True)
        for t in (1.0, 4.0):
            assert distance(chain, dbar_q, t) <= distance(chain, sep_q, t) + 1e-10


def test_separation_doubling_inequality():
    # sep at 2m is at most 1 - (1 - dbar at m)^2 in discrete time
    chain = random_bd(4, 10).lazy(0.5)
    dbar_q = DistanceQuery(time_mode="discrete", metric="dbar")
    sep_q = DistanceQuery(time_mode="discrete", metric="sep", exhaustive=True)
    for m in (1, 3, 8, 20):
        dbar = distance(chain, dbar_q, m)
        sep2 = distance(chain, sep_q, 2 * m)
        assert sep2 <= 1 - (1 - dbar) ** 2 + 1e-10


def test_tv_and_sep_mixing_time_ordering():
    # T_tv(eps) <= T_sep(eps) <= 2 T_tv(eps/4), continuous time
    for chain in (two_state(0.4, 0.4), random_bd(0, 9), ehrenfest(6)):
        tv_q = DistanceQuery(time_mode="continuous", metric="tv", exhaustive=True)
        sep_q = DistanceQuery(time_mode="continuous", metric="sep", exhaustive=True)
        for eps in (0.1, 0.2, 0.4):
            t_tv_lo, t_tv_hi = mixing_bracket(chain, eps, tv_q)
            t_sep_lo, t_sep_hi = mixing_bracket(chain, eps, sep_q)
            t_quarter_hi = mixing_bracket(chain, eps / 4, tv_q)[1]
            assert t_tv_lo <= t_sep_hi
            assert t_sep_lo <= 2 * t_quarter_hi


def test_mixing_bracket_contains_midpoint_estimate():
    chain = random_bd(6, 11)
    q = DistanceQuery(time_mode="continuous", metric="tv")
    lo, hi = mixing_bracket(chain, 0.25, q)
    mid = mixing_time(chain, 0.25, q)
    assert lo <= mid <= hi
    assert hi - lo <= max(1e-6, 1e-4 * hi)
    # the distance actually crosses eps inside the bracket
    assert distance(chain, q, lo) >= 0.25 - 1e-9
    assert distance(chain, q, hi) <= 0.25 + 1e-9


def test_discrete_mixing_time_is_exact_integer():
    chain = random_bd(5, 9).lazy(0.5)
    q = DistanceQuery(time_mode="discrete", metric="tv")
    m = mixing_time(chain, 0.25, q)
    assert isinstance(m, int)
    assert distance(chain, q, m) <= 0.25
    if m > 0:
        assert distance(chain, q, m - 1) > 0.25


def test_lazy_mixing_matches_direct_lazy_chain():
    # querying the base chain in lazy mode equals querying the lazified chain
    chain = random_bd(2, 10)
    lazy_q = DistanceQuery(time_mode="lazy", metric="tv", delta=0.4)
    disc_q = DistanceQuery(time_mode="discrete", metric="tv")
    direct = chain.lazy(0.4)
    for m in (1, 5, 12):
        assert distance(chain, lazy_q, m) == pytest.approx(
            distance(direct, disc_q, m), abs=1e-12
        )
    assert mixing_time(chain, 0.25, lazy_q) == mixing_time(direct, 0.25, disc_q)


def test_distance_curve_grid_and_monotonicity():
    chain = random_bd(1, 9)
    q = DistanceQuery(time_mode="continuous", metric="tv")
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    curve = distance_curve(chain, q, grid)
    assert list(curve.times) == grid
    assert len(curve.samples) == len(grid)
    assert curve.samples[0] == (0.0, curve.values[0])
    vals = np.asarray(curve.values)
    assert np.all(np.diff(vals) <= 1e-9)
    with pytest.raises(BadShape):
        distance_curve(chain, q, [1.0, 0.5])


def test_endpoint_shortcut_is_only_a_lower_bound():
    # this chain's stationary law dips in the interior, so at small times the
    # worst start is not an endpoint; the exhaustive flag is the guard
    chain = random_bd(3076, 9)
    fast = DistanceQuery(time_mode="continuous", metric="tv")
    slow = DistanceQuery(time_mode="continuous", metric="tv", exhaustive=True)
    early_fast = distance(chain, fast, 0.05)
    early_slow = distance(chain, slow, 0.05)
    assert early_fast < early_slow - 1e-3
    assert early_slow == pytest.approx(
        oracles.metric_at(chain.dense_kernel, chain.stationary, 0.05, "continuous", "tv"),
        abs=1e-10,
    )
    # by moderate times the endpoints take over again
    assert distance(chain, fast, 4.0) == pytest.approx(
        distance(chain, slow, 4.0), abs=1e-10
    )


def test_separation_is_one_before_support_spreads():
    # until mass reaches every state the separation stays exactly 1
    chain = ehrenfest(8)
    q = DistanceQuery(time_mode="discrete", metric="sep", exhaustive=True)
    assert distance(chain, q, 3) == 1.0


def test_separation_refuses_an_underflowed_stationary_entry(work_count):
    # pi(0) = 2**-1100 underflows to 0, so P^t(x, 0) / pi(0) is undefined;
    # separation read NaN or raised a bare KeyError
    chain = ehrenfest(1100)
    assert chain.stationary[0] == 0.0
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    lazy = DistanceQuery(time_mode="lazy", metric="sep", delta=0.5)
    calls = [
        lambda: distance(chain, DistanceQuery(time_mode="discrete", metric="sep"), 5),
        lambda: distance(chain, DistanceQuery(time_mode="continuous", metric="sep"), 5.0),
        lambda: distance(chain, lazy, 5),
        lambda: mixing_time(chain, 0.25, DistanceQuery(time_mode="continuous", metric="sep")),
        lambda: mixing_time(chain, 0.25, lazy),
        lambda: distance_curve(chain, lazy, [0, 3]),
        lambda: corner_separation(chain, 5.0),
        lambda: corner_separation(chain, 5, mode="lazy", delta=0.5),
    ]
    # one evaluator refuses every separation request and search, not only
    # the first
    ev = _Evaluator(chain, lazy, 1e-10)
    calls += [lambda: ev.value(5, "sep"), lambda: ev.search([("sep", 0.25)]),
              lambda: ev.evaluate([(3, "tv"), (5, "sep")])]
    for call in calls:
        with pytest.raises(ChainError, match="underflows"):
            call()
    assert ev._cache == {}
    assert work_count.applies == 0
    assert work_count.matrix_powers == 0 and work_count.uniformized_calls == 0
    # tv and dbar divide by nothing and stay defined
    for metric in ("tv", "dbar"):
        assert 0.0 < distance(chain, DistanceQuery(time_mode="continuous", metric=metric), 5.0) <= 1.0
