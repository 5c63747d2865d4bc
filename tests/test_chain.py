"""Kernel construction, laziness, and the two time parameterizations."""

import json
import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from cutofflab import (
    BadDelta,
    BadShape,
    Chain,
    DistanceQuery,
    NonIntegerTime,
    NotIrreducible,
    NotStochastic,
    TolTooLoose,
    as_probability_vector,
    continuous_distribution,
    corner_separation,
    distance,
    load_chain,
    sst_tail,
    step_distribution,
)
from cutofflab.chain import (
    SEARCH_CAP,
    _EXP_RANGE,
    _poisson_weights,
    _pure_birth_tail,
    _uniformized,
)
from cutofflab.distances import _poisson_power

from conftest import ehrenfest, flip, random_bd, two_state
import oracles


def test_probability_vector_accepts_list_and_normalizes_dtype():
    vec = as_probability_vector([0.25, 0.25, 0.5])
    assert vec.dtype == np.float64
    assert vec.shape == (3,)
    assert vec.sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_vector_rejects_bad_inputs():
    with pytest.raises(BadShape):
        as_probability_vector([[0.5, 0.5]])
    with pytest.raises(BadShape):
        as_probability_vector([0.5, 0.5], size=3)
    with pytest.raises(NotStochastic):
        as_probability_vector([0.7, -0.3, 0.6])
    with pytest.raises(NotStochastic):
        as_probability_vector([0.4, 0.4])
    with pytest.raises(BadShape):
        as_probability_vector([np.nan, 1.0])


def test_from_dense_validation():
    with pytest.raises(BadShape):
        Chain.from_dense([[0.5, 0.5]])
    with pytest.raises(BadShape):
        Chain.from_dense([[1.0]])
    with pytest.raises(NotStochastic):
        Chain.from_dense([[0.5, 0.5], [0.6, 0.6]])
    with pytest.raises(NotStochastic):
        Chain.from_dense([[1.1, -0.1], [0.5, 0.5]])
    # two closed classes
    with pytest.raises(NotIrreducible):
        Chain.from_dense(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.5, 0.5],
            ]
        )
    # state 0 reaches every state, but no state leaves the absorbing one
    with pytest.raises(NotIrreducible):
        Chain.from_dense([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])


def test_from_rates_validation():
    with pytest.raises(NotStochastic):
        Chain.from_rates([0.5, 0.5], [0.0, 0.5], [0.5, 0.0])
    with pytest.raises(NotStochastic):
        Chain.from_rates([0.5, 0.0], [0.2, 0.5], [0.3, 0.5])
    with pytest.raises(NotStochastic):
        Chain.from_rates([0.5, 0.0], [0.0, 0.4], [0.5, 0.5])
    # a zero birth rate in the middle disconnects the path
    with pytest.raises(NotIrreducible):
        Chain.from_rates([0.0, 0.5, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.5])
    with pytest.raises(BadShape):
        Chain.from_rates([0.5], [0.3, 0.2], [0.5, 0.2])


def test_ehrenfest_stationary_is_binomial():
    chain = ehrenfest(2)
    assert np.allclose(chain.stationary, [0.25, 0.5, 0.25], atol=1e-14)
    chain = ehrenfest(10)
    weights = np.array([math.comb(10, i) for i in range(11)], dtype=float)
    assert np.allclose(chain.stationary, weights / weights.sum(), atol=1e-12)


def test_two_state_stationary():
    chain = two_state(0.3, 0.6)
    assert np.allclose(chain.stationary, [2 / 3, 1 / 3], atol=1e-14)


def test_dense_stationary_matches_eigenvector_oracle():
    rng = np.random.default_rng(7)
    for n in (3, 5, 9, 17):
        kernel = oracles.random_reversible_dense(rng, n)
        chain = Chain.from_dense(kernel)
        assert np.allclose(chain.stationary, oracles.stationary_by_eig(kernel), atol=1e-9)


def test_stationary_is_fixed_point():
    for chain in (ehrenfest(6), random_bd(3, 11), two_state(0.2, 0.7)):
        after = step_distribution(chain, chain.stationary, 1)
        assert np.allclose(after, chain.stationary, atol=1e-12)


def test_lazy_kernel_formula_and_reuse():
    chain = random_bd(1, 8)
    half = chain.lazy(0.25)
    expect = 0.25 * np.eye(chain.num_states) + 0.75 * chain.dense_kernel
    assert np.allclose(half.dense_kernel, expect, atol=1e-14)
    # stationary measure is unchanged, and a lazy walk on a path stays on the path
    assert half.stationary is chain.stationary or np.array_equal(half.stationary, chain.stationary)
    assert half.is_birth_death


def test_lazy_rejects_degenerate_delta():
    chain = two_state()
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(BadDelta):
            chain.lazy(bad)


@pytest.mark.parametrize("seed,n", [(0, 4), (1, 7), (2, 12)])
def test_lazy_power_binomial_identity(seed, n):
    # (delta*I + (1-delta)*K)^m expanded against binomial weights on K^i
    chain = random_bd(seed, n)
    kernel = chain.dense_kernel
    delta = 0.35
    lazy_kernel = chain.lazy(delta).dense_kernel
    for m in (1, 2, 5, 11, 20):
        direct = np.linalg.matrix_power(lazy_kernel, m)
        acc = np.zeros_like(kernel)
        power = np.eye(chain.num_states)
        for i in range(m + 1):
            acc += math.comb(m, i) * delta ** (m - i) * (1 - delta) ** i * power
            power = power @ kernel
        assert np.max(np.abs(direct - acc)) <= 1e-10


def test_flip_chain_steps():
    chain = flip()
    start = [1.0, 0.0]
    assert np.array_equal(step_distribution(chain, start, 0), [1.0, 0.0])
    assert np.array_equal(step_distribution(chain, start, 3), [0.0, 1.0])
    assert np.array_equal(step_distribution(chain, start, 4), [1.0, 0.0])


def test_flip_chain_continuous_closed_form():
    # the swap kernel relaxes like exp(-2t) toward the uniform split
    chain = flip()
    out = continuous_distribution(chain, [1.0, 0.0], 1.0, tol=1e-12)
    expect = [(1 + math.exp(-2)) / 2, (1 - math.exp(-2)) / 2]
    assert np.allclose(out, expect, atol=1e-11)


def test_period_by_holding_and_by_cycle_gcd():
    assert flip().period == 2
    assert ehrenfest(8).period == 2
    assert ehrenfest(8).lazy(0.5).period == 1
    assert two_state(0.3, 0.6).period == 1
    assert random_bd(3, 9).period == 1
    cycle3 = Chain.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert cycle3.period == 3
    # a 4-cycle with both directions is bipartite; a self-loop makes it
    # aperiodic
    ring = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]) / 2.0
    assert Chain.from_dense(ring).period == 2
    loop = ring.copy()
    loop[0] = [0.2, 0.4, 0.0, 0.4]
    assert Chain.from_dense(loop).period == 1
    # cycles of lengths 4 and 6 through state 0 leave period 2; lengths 4
    # and 5 leave none
    def cycles(edges, n):
        mat = np.zeros((n, n))
        for u, v in edges:
            mat[u, v] = 1.0
        return Chain.from_dense(mat / mat.sum(axis=1, keepdims=True))

    four = ((0, 1), (1, 2), (2, 3), (3, 0))
    assert cycles(four + ((2, 4), (4, 5), (5, 6), (6, 0)), 7).period == 2
    assert cycles(four + ((2, 4), (4, 5), (5, 0)), 6).period == 1


def test_step_distribution_validates_steps():
    chain = two_state()
    with pytest.raises(NonIntegerTime):
        step_distribution(chain, [1.0, 0.0], 1.5)
    with pytest.raises(BadShape):
        step_distribution(chain, [1.0, 0.0], -1)
    # the rule of the discrete distance: a float holding an integer counts
    start = [1.0, 0.0]
    assert np.array_equal(step_distribution(chain, start, 3.0), step_distribution(chain, start, 3))


def test_continuous_distribution_validates_time_and_tol():
    chain = two_state()
    with pytest.raises(BadShape):
        continuous_distribution(chain, [1.0, 0.0], -0.5)
    with pytest.raises(BadShape):
        continuous_distribution(chain, [1.0, 0.0], math.inf)
    # True would read as t = 1.0; the discrete clocks refuse it as well
    with pytest.raises(BadShape):
        continuous_distribution(chain, [1.0, 0.0], True)
    with pytest.raises(BadShape):
        distance(chain, DistanceQuery("continuous", "tv"), True)
    for bad in (np.True_, np.float32(-0.5), np.float32("nan")):
        with pytest.raises(BadShape):
            continuous_distribution(chain, [1.0, 0.0], bad)
    for bad in (1e-3, np.float32(1e-3), np.True_):
        with pytest.raises(TolTooLoose):
            continuous_distribution(chain, [1.0, 0.0], 1.0, tol=bad)
    with pytest.raises(TolTooLoose):
        continuous_distribution(chain, [1.0, 0.0], 1.0, tol=0.0)


def test_continuous_time_zero_returns_start():
    chain = random_bd(4, 9)
    start = np.zeros(chain.num_states)
    start[5] = 1.0
    assert np.array_equal(continuous_distribution(chain, start, 0.0), start)


@pytest.mark.parametrize("time", [0.1, 1.0, 13.7, 900.0])
def test_uniformization_matches_matrix_exponential(time):
    # t=900 exercises the log-domain Poisson weights
    chain = random_bd(2, 6)
    kernel = chain.dense_kernel
    rows = oracles.rows_at(kernel, time, "continuous")
    for x in range(chain.num_states):
        start = np.zeros(chain.num_states)
        start[x] = 1.0
        out = continuous_distribution(chain, start, time, tol=1e-12)
        assert np.max(np.abs(out - rows[x])) <= 1e-10


def test_lazy_continuous_correspondence():
    # running the lazy chain for time t equals running the base for (1-delta)*t
    chain = random_bd(5, 10)
    start = np.zeros(chain.num_states)
    start[0] = 1.0
    tol = 1e-10
    for delta in (0.2, 0.5, 0.8):
        for t in (0.5, 3.0, 20.0):
            slow = continuous_distribution(chain.lazy(delta), start, t, tol=tol)
            fast = continuous_distribution(chain, start, (1 - delta) * t, tol=tol)
            assert np.max(np.abs(slow - fast)) <= 2 * tol


def test_outputs_are_probability_vectors(small_corpus):
    for chain in small_corpus:
        start = np.zeros(chain.num_states)
        start[0] = 1.0
        for out in (
            step_distribution(chain, start, 7),
            continuous_distribution(chain, start, 2.5),
        ):
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_load_chain_round_trip(tmp_path):
    path = tmp_path / "chain.json"
    spec = {"type": "birth_death", "p": [0.4, 0.3, 0.0], "q": [0.0, 0.2, 0.5], "r": [0.6, 0.5, 0.5]}
    path.write_text(json.dumps(spec))
    chain = load_chain(path)
    assert chain.is_birth_death
    assert chain.num_states == 3
    assert np.allclose(chain.dense_kernel, oracles.bd_kernel(spec["p"], spec["q"], spec["r"]), atol=1e-15)

    dense = {"type": "dense", "matrix": [[0.5, 0.5], [0.25, 0.75]]}
    path.write_text(json.dumps(dense))
    chain = load_chain(path)
    assert not chain.is_birth_death
    assert np.array_equal(chain.dense_kernel, np.array(dense["matrix"]))


def test_load_chain_bad_inputs(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(BadShape, match="cannot read chain spec"):
        load_chain(missing)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(BadShape, match="cannot read chain spec"):
        load_chain(garbled)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"type": "sparse", "matrix": []}))
    with pytest.raises(BadShape):
        load_chain(wrong)
    nolist = tmp_path / "nolist.json"
    nolist.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(BadShape):
        load_chain(nolist)


def _hex(rows):
    return [float(x).hex() for x in np.ravel(rows)]


def _endpoint_rows(n):
    rows = np.zeros((2, n + 1))
    rows[0, 0] = rows[1, n] = 1.0
    return rows


@pytest.mark.parametrize("chain,rows", [
    (random_bd(3, 12), np.eye(13)),                 # every state, dense matmul per term
    (random_bd(3, 12), np.eye(13)[4:5]),            # one row, banded Chain.apply
    (ehrenfest(700), _endpoint_rows(700)),          # stacked rows, banded Chain.apply
    (Chain.from_dense(oracles.random_reversible_dense(np.random.default_rng(5), 6)),
     np.full((1, 6), 1.0 / 6.0)),                   # one row, Chain.apply on the dense kernel
])
def test_multi_time_pass_equals_single_time_passes(chain, rows):
    every_state = rows.shape[0] == chain.num_states
    step = chain.dense_kernel.__rmatmul__ if every_state else chain.apply
    times = (0.0, 0.25, 3.0, 699.5, 700.5, 760.0)  # both sides of _EXP_RANGE
    assert times[3] < _EXP_RANGE < times[4]
    together = _uniformized(step, rows, times, 1e-10)
    assert len(together) == len(times)
    for time, got in zip(times, together):
        assert _hex(got) == _hex(_uniformized(step, rows, (time,), 1e-10)[0]), time
    assert _hex(together[0]) == _hex(rows)


def test_evolutions_past_the_cap_are_refused_before_any_step(work_count):
    small = two_state(0.3, 0.6)   # discrete probes of >= 256 steps take matrix powers
    large = ehrenfest(400)        # every discrete probe runs Chain.apply
    work_count.apply_by_chain.clear()  # construction checks pi with one application
    past = SEARCH_CAP + 1
    with pytest.raises(BadShape, match="cap"):
        continuous_distribution(small, [1.0, 0.0], 1e9)
    with pytest.raises(BadShape, match="cap"):
        step_distribution(small, [1.0, 0.0], past)
    for chain in (small, large):
        for query in (
            DistanceQuery("continuous", "tv"),
            DistanceQuery("discrete", "sep"),
            DistanceQuery("lazy", "tv", delta=0.5),
        ):
            with pytest.raises(BadShape, match="cap"):
                distance(chain, query, past)
    with pytest.raises(BadShape, match="cap"):
        corner_separation(small, float(past), mode="continuous")
    with pytest.raises(BadShape, match="cap"):
        corner_separation(small, past, mode="lazy", delta=0.5)
    with pytest.raises(BadShape, match="cap"):
        sst_tail(small, 1e9)
    assert work_count.applies == 0 and work_count.matrix_powers == 0


@pytest.mark.parametrize("chain,rows", [
    (random_bd(3, 12), np.eye(13)),
    (ehrenfest(700), _endpoint_rows(700)),
])
def test_an_early_stopped_pass_returns_the_times_it_finished(chain, rows):
    times = (0.25, 3.0, 699.5, 700.5, 760.0)
    full = _uniformized(chain.apply, rows, times, 1e-10)
    seen = []

    def until(finished):
        seen.append(finished)
        return len(seen) == 3

    stopped = _uniformized(chain.apply, rows, times, 1e-10, until)
    assert len(stopped) == 3 and all(a is b for a, b in zip(stopped, seen))
    for got, expect in zip(stopped, full):
        assert _hex(got) == _hex(expect)


def _banded_step(chain, rows):
    # one birth-death step row by row, the formula the contiguous step keeps
    out = rows * chain.hold
    out[..., 1:] += rows[..., :-1] * chain.birth[:-1]
    out[..., :-1] += rows[..., 1:] * chain.death[1:]
    return out


@pytest.mark.parametrize("chain", [random_bd(3, 40).lazy(0.5), two_state(0.3, 0.6)])
def test_contiguous_step_equals_the_row_by_row_step(chain):
    n = chain.num_states
    wide = np.random.default_rng(4).random((5, 3 * n))
    cases = [
        wide[0, :n],                   # one row
        wide[:3, :n].copy(),           # stacked rows
        wide[:2, :2 * n].reshape(2, 2, n),
        wide[:, 1::3],                 # non-contiguous rows
        wide[:, :n].T[:n, :5].T,       # non-contiguous, transposed
    ]
    for rows in cases:
        got = chain.apply(rows)
        assert got.shape == rows.shape
        assert np.array_equal(got, _banded_step(chain, rows))


def _poisson_run(time, tol):
    # the collected terms (i, w_i) of Poisson(time) and their mass, up to
    # the stop of a uniformization pass
    terms, mass = [], 0.0
    cap = int(time + 40.0 * math.sqrt(time + 1.0) + 120.0)
    for i, weight in _poisson_weights(time):
        terms.append((i, weight))
        mass += weight
        if mass >= 1.0 - tol or i >= cap:
            return terms, mass


def test_poisson_sums_stop_with_the_true_tail_below_tol():
    # the sum stops on its collected mass alone, so that mass must not
    # overstate the weights' true total past t = 700
    tol = 1e-10 / 128
    for time in (701.5, 1000.25, 2048.0, 4999.0, 17000.0):
        terms, mass = _poisson_run(time, tol)
        (first, _), (i, _) = terms[0], terms[-1]
        assert mass >= 1.0 - tol, time
        assert i <= time + 8.0 * math.sqrt(time), time
        # the exact Poisson mass beyond term i is P(Gamma(i + 1) < t)
        assert gammainc(i + 1, time) <= tol, time
        # and the skipped terms before the first collected one carry
        # P(Poisson(t) < first), which the factors keep below t e^{-350}
        assert gammaincc(first, time) <= time * math.exp(-350.0), time


@pytest.mark.parametrize("time", [0.0, 0.25, 3.0, 699.5, _EXP_RANGE])
def test_poisson_weights_up_to_the_exp_range_are_the_plain_recurrence(time):
    terms, collected = _poisson_run(time, 1e-10)
    w = math.exp(-time)
    plain, mass = [w], w
    i = 0
    while mass < 1.0 - 1e-10:
        i += 1
        w *= time / i
        plain.append(w)
        mass += w
    assert [j for j, _ in terms] == list(range(i + 1))
    assert [x.hex() for _, x in terms] == [x.hex() for x in plain]
    assert collected.hex() == mass.hex()


# at tol = 1e-16 the mass of t = 699.5, 700.5 and 2048 stays below 1 - tol,
# and those sums stop at the term cap
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-10 / 128, 1e-13, 1e-16])
def test_poisson_sums_keep_the_bits_of_the_per_time_sums(tol):
    # the pass over one weight generator per time against the per-time
    # Poisson sums it replaced, on both sides of _EXP_RANGE; a counted step
    # pins the number of kernel applications too
    times = (0.0, 0.25, 3.0, 699.5, _EXP_RANGE, 700.5, 760.0, 2048.0, 4999.0)
    chain = random_bd(3, 12)
    cases = [
        (chain.apply, np.eye(13)[4:5]),                  # one row
        (chain.apply, _endpoint_rows(12)),               # stacked rows
        (chain.dense_kernel.__rmatmul__, np.eye(13)),    # every state, dense step
    ]
    for step, rows in cases:
        for until in (None, 4):
            runs = []
            for uniformized in (_uniformized, oracles.uniformized_by_poisson_sums):
                steps, seen = [], []

                def counted(rows):
                    steps.append(1)
                    return step(rows)

                def stop(finished):
                    seen.append(finished)
                    return len(seen) == until

                out = uniformized(counted, rows, times, tol, stop if until else None)
                runs.append(([_hex(r) for r in out], len(steps)))
            assert runs[0] == runs[1]
            assert len(runs[0][0]) == (until or len(times))
    # the pure-birth tail of Ehrenfest 64's stage rates, at L * time = times
    rates = 2.0 * np.arange(1, 65) / 64
    for time in times:
        got = _pure_birth_tail(rates, 0.5 * time, tol)
        assert got.hex() == oracles.pure_birth_tail_by_poisson_sum(rates, 0.5 * time, tol).hex()


@pytest.mark.parametrize("h", [2.0 ** -10, 0.3, 0.5, 1.0])
def test_poisson_power_keeps_the_bits_of_its_recurrence(h):
    kernel = random_bd(3, 12).dense_kernel
    assert _hex(_poisson_power(kernel, h)) == _hex(oracles.poisson_power_by_recurrence(kernel, h))


def test_pure_birth_tail_meets_a_tight_tol_on_a_long_horizon():
    # Ehrenfest 2048's stage rates 2j/n at t = E[S] / 2: the weights' rounding
    # over about 8,400 Poisson terms must stay below tol
    n, tol = 2048, 1e-13
    rates = 2.0 * np.arange(1, n + 1) / n
    time = 0.5 * float(np.sum(1.0 / rates))
    below = oracles.ehrenfest_sst_tail(n, time) - _pure_birth_tail(rates, time, tol)
    assert 0.0 <= below <= tol
