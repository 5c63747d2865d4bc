"""Eigenvalue machinery: Sturm bisection, summaries, lazy contraction factor."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from cutofflab import (
    BadDelta,
    BadShape,
    Chain,
    FamilySpec,
    NotReversible,
    beta_delta,
    detailed_balance_residual,
    eigen_summary,
    generate,
    spectral,
    tridiagonal_eigenvalues,
)

import oracles
from conftest import ehrenfest, flip, random_bd, two_state


def test_sturm_bisection_matches_scipy():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 60))
        diag = rng.normal(size=n)
        off = rng.normal(size=n - 1)
        mine = tridiagonal_eigenvalues(diag, off**2)
        ref = eigvalsh_tridiagonal(diag, np.abs(off))
        worst = max(worst, float(np.max(np.abs(mine - ref))))
    assert worst <= 1e-12


def test_sturm_bisection_exact_symmetric_spectrum():
    # all-ones diagonal puts the bisection midpoint exactly on an eigenvalue
    diag = np.ones(2)
    off2 = np.array([0.5])
    vals = tridiagonal_eigenvalues(diag, off2)
    expect = np.array([1 - math.sqrt(0.5), 1 + math.sqrt(0.5)])
    assert np.max(np.abs(vals - expect)) <= 1e-14


def test_sturm_bisection_validates_lengths():
    for diag, off2 in (([1.0, 1.0, 1.0], [0.1]), ([1.0], [0.1]), ([], [0.1])):
        with pytest.raises(BadShape):
            tridiagonal_eigenvalues(diag, off2)


def test_sturm_bisection_refuses_malformed_entries():
    nan, inf = float("nan"), float("inf")
    for diag, off2 in (
        ([1.0, nan, 2.0], [0.5, 0.5]),
        ([1.0, 1.0, 2.0], [0.5, nan]),
        ([1.0, inf, 2.0], [0.5, 0.5]),
        ([1.0, 1.0, -inf], [0.5, 0.5]),
        ([1.0, 1.0, 2.0], [inf, 0.5]),
        ([1.0, 1.0, 2.0], [0.5, -0.25]),
        ([nan], []),
    ):
        with pytest.raises(BadShape):
            tridiagonal_eigenvalues(diag, off2)


def _bd_tridiagonals(chain):
    # the symmetrized I - K of a birth-death chain, and its restriction to
    # {0..n-1} that passage_time solves
    diag = 1.0 - chain.hold
    off2 = chain.birth[:-1] * chain.death[1:]
    return [(diag, off2), (diag[:-1], off2[:-1])]


def _bisection_cases():
    cases = []
    families = [(FamilySpec("ehrenfest", (2,)), range(2, 70))]
    families.append(
        (FamilySpec("path_symmetric", (2,)), (2, 3, 4, 7, 16, 31, 64, 100, 128, 255, 256, 512, 1024))
    )
    families += [(FamilySpec("path_biased", (2,), rho=rho), (5, 40, 200)) for rho in (0.3, 0.7)]
    families += [(FamilySpec("random_bd", (2,), seed=s), (3 + 17 * s,)) for s in range(10)]
    for spec, sizes in families:
        for n in sizes:
            cases += _bd_tridiagonals(generate(spec, n))
    cases += [(np.zeros(n), np.zeros(n - 1)) for n in (2, 7)]
    cases += [(np.ones(n), np.ones(n - 1)) for n in (2, 7)]
    rng = np.random.default_rng(5)
    for _ in range(36):  # small integers: exact hits, and exact zeros in off_squared
        n = int(rng.integers(2, 40))
        diag = rng.integers(-3, 4, n).astype(float)
        off2 = rng.integers(0, 3, n - 1).astype(float) ** 2
        cases.append((diag, off2))
    return cases


def test_sturm_bisection_keeps_the_original_bits():
    cases = _bisection_cases()
    assert len(cases) == 234
    assert any(not off2.all() for _, off2 in cases)
    for diag, off2 in cases:
        expect = oracles.sturm_bisection(diag, off2)
        assert tridiagonal_eigenvalues(diag, off2).tobytes() == expect.tobytes(), len(diag)


def test_a_solve_that_runs_out_of_halvings_keeps_the_original_bits():
    # an eigenvalue near 0 under a bracket 1e30 wide needs more than the 120
    # halvings either solver makes
    for diag, off2 in (([1e30, 0.0, 1.0], [0.0, 1e-3]), ([1e25, -3e-20, 2e-20, 5.0], [1e-40, 0.0, 2.0])):
        expect = oracles.sturm_bisection(diag, off2)
        assert tridiagonal_eigenvalues(diag, off2).tobytes() == expect.tobytes()


def _record_counts(monkeypatch):
    # every shift passed to the block count, and to the clamped recount with
    # the number of rows it runs
    swept, clamped, rows = [], [], []
    block, recount = spectral._negative_pivots, spectral._sturm_counts

    def counted_block(d, e2, xs):
        swept.append(xs.copy())
        return block(d, e2, xs)

    def counted_recount(d, e2, xs, *carried):
        clamped.append(xs.copy())
        rows.append(d.shape[0])
        return recount(d, e2, xs, *carried)

    monkeypatch.setattr(spectral, "_negative_pivots", counted_block)
    monkeypatch.setattr(spectral, "_sturm_counts", counted_recount)
    return swept, clamped, rows


def _meets_a_tiny_pivot(d, e2, x) -> bool:
    # the unclamped recurrence, one shift at a time
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = d[0] - x
        tiny = abs(q) < 1e-290
        for i in range(1, len(d)):
            q = (d[i] - x) - e2[i - 1] / q
            tiny = tiny or abs(q) < 1e-290
    return tiny


def test_clamped_recount_runs_on_the_flagged_shifts_only(monkeypatch):
    # Ehrenfest 4's spectrum is symmetric about 1, and its bisection
    # midpoints hit eigenvalues exactly; so do speculative subtree midpoints
    # that no index walks through (3 flagged shifts before multisection)
    (diag, off2), _ = _bd_tridiagonals(ehrenfest(4))
    swept, clamped, _ = _record_counts(monkeypatch)
    vals = tridiagonal_eigenvalues(diag, off2)
    assert vals.tobytes() == oracles.sturm_bisection(diag, off2).tobytes()
    flagged = [
        np.array([x for x in xs if _meets_a_tiny_pivot(diag, off2, x)]) for xs in swept
    ]
    assert sum(f.size for f in flagged) == 16
    assert [xs.tobytes() for xs in clamped] == [f.tobytes() for f in flagged if f.size]


def test_ehrenfest_1024_solve_counts_each_distinct_unfinished_shift_once(monkeypatch):
    # the plain loop counts all 1,025 indices in each of its 52 sweeps: 53,300
    # shifts.  One sweep per call counted 43,051 distinct shifts in 52 calls;
    # the first pass now takes the 511 midpoints of 9 levels, then one level
    # per pass while the brackets are many, and the last pass 7 levels below
    # 4 brackets, whose midpoints repeat at ulp widths
    (diag, off2), _ = _bd_tridiagonals(ehrenfest(1024))
    swept, clamped, rows = _record_counts(monkeypatch)
    tracemalloc.start()
    try:
        vals = tridiagonal_eigenvalues(diag, off2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(swept) == 44
    assert sum(xs.size for xs in swept) == 43_067
    assert all(np.unique(xs).size == xs.size for xs in swept)
    assert sum(xs.size for xs in clamped) == 14
    # each recount starts at the first block of 64 rows that holds a pivot
    # below pivmin; from row 0, its 4 calls ran 4,100 rows
    assert len(rows) == 4 and sum(rows) == 2_756
    assert peak < 1025 * 1025 * 8 / 4  # no n x n table
    assert np.max(np.abs(vals - 2.0 * np.arange(1025) / 1024)) <= 1e-12


@pytest.mark.parametrize("n, calls", [(2, 8), (5, 9)])
def test_a_small_solve_takes_few_multisection_passes(monkeypatch, n, calls):
    # one _negative_pivots call per sweep took 52 calls at either size
    (diag, off2), _ = _bd_tridiagonals(ehrenfest(n))
    swept, _, _ = _record_counts(monkeypatch)
    vals = tridiagonal_eigenvalues(diag, off2)
    assert len(swept) == calls
    assert vals.tobytes() == oracles.sturm_bisection(diag, off2).tobytes()


def test_ehrenfest_spectrum_is_arithmetic():
    for n in (2, 5, 16):
        summary = eigen_summary(ehrenfest(n))
        expect = 2.0 * np.arange(1, n + 1) / n
        assert np.max(np.abs(summary.eigenvalues - expect)) <= 1e-12
        assert summary.gap == pytest.approx(2.0 / n, abs=1e-12)


def test_two_state_single_eigenvalue():
    summary = eigen_summary(two_state(0.3, 0.6))
    assert summary.eigenvalues.shape == (1,)
    assert summary.eigenvalues[0] == pytest.approx(0.9, abs=1e-14)
    assert summary.spectral_sum == pytest.approx(1 / 0.9, abs=1e-12)


def test_symmetric_path_spectrum_closed_form():
    # holding 1/2 at both ends gives kernel eigenvalues cos(k*pi/(n+1))
    n = 9
    p = np.full(n + 1, 0.5)
    q = np.full(n + 1, 0.5)
    p[n] = 0.0
    q[0] = 0.0
    chain = Chain.from_rates(p, q, 1.0 - p - q)
    summary = eigen_summary(chain)
    expect = 1.0 - np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
    assert np.max(np.abs(summary.eigenvalues - np.sort(expect))) <= 1e-12


def test_summary_invariants(small_corpus):
    for chain in small_corpus:
        summary = eigen_summary(chain)
        n = chain.num_states
        assert summary.eigenvalues.shape == (n - 1,)
        assert summary.kernel_spectrum.shape == (n,)
        assert summary.kernel_spectrum[0] == 1.0
        # one zero eigenvalue of I-K, the rest strictly inside (0, 2]
        assert summary.eigenvalues.min() > 0.0
        assert summary.eigenvalues.max() <= 2.0 + 1e-12
        assert np.all(np.diff(summary.eigenvalues) >= 0.0)
        assert summary.gap == summary.eigenvalues[0]
        assert summary.spectral_sum == pytest.approx(np.sum(1.0 / summary.eigenvalues), rel=1e-12)
        assert summary.spectral_sum >= (n - 1) / 2.0 - 1e-12
        # eigenvalue sum equals the kernel trace, which is nonnegative
        trace = float(np.trace(chain.dense_kernel))
        assert np.sum(summary.kernel_spectrum) == pytest.approx(trace, abs=1e-9)
        assert trace >= 0.0


def test_birth_death_eigenvalues_are_simple():
    for seed in range(4):
        chain = random_bd(seed, 20)
        summary = eigen_summary(chain)
        assert np.min(np.diff(summary.eigenvalues)) > 0.0


def test_dense_and_tridiagonal_paths_agree():
    # path_biased and Ehrenfest chains whose pi spans many decades: the dense
    # spectrum must not read pi, whose small entries lose their digits
    chains = [generate(FamilySpec("path_biased", (n,), rho=rho), n)
              for rho, n in ((0.3, 40), (0.3, 60), (0.2, 40), (0.1, 60), (0.7, 60), (0.05, 100))]
    chains += [ehrenfest(n) for n in (16, 64, 200)]
    chains += [random_bd(seed, n) for seed, n in ((3, 40), (7, 15), (11, 120))]
    for chain in chains:
        dense = Chain.from_dense(chain.dense_kernel)
        a = eigen_summary(chain)
        b = eigen_summary(dense)
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-9, chain.num_states


def test_dense_reversible_matches_numpy_oracle():
    import oracles

    rng = np.random.default_rng(23)
    kernel = oracles.random_reversible_dense(rng, 12)
    chain = Chain.from_dense(kernel)
    summary = eigen_summary(chain)
    ref = np.sort(np.linalg.eigvals(kernel).real)[::-1]
    assert np.max(np.abs(summary.kernel_spectrum - ref)) <= 1e-9


def test_detailed_balance_residual_flags_nonreversible():
    cycle = Chain.from_dense(
        [
            [0.1, 0.8, 0.1],
            [0.1, 0.1, 0.8],
            [0.8, 0.1, 0.1],
        ]
    )
    assert detailed_balance_residual(cycle) > 1e-3
    with pytest.raises(NotReversible):
        eigen_summary(cycle)
    assert detailed_balance_residual(random_bd(0, 6)) == 0.0


def test_beta_delta_flip_chain():
    summary = eigen_summary(flip())
    for delta in (0.1, 0.25, 0.5, 0.9):
        assert beta_delta(summary, delta) == pytest.approx(abs(2 * delta - 1), abs=1e-14)


def test_beta_delta_nonnegative_spectrum():
    # with every kernel eigenvalue >= 0 and delta = 1/2 the factor is 1 - gap/2
    chain = random_bd(2, 9).lazy(0.5)
    summary = eigen_summary(chain)
    assert summary.kernel_spectrum.min() >= 0.0
    assert beta_delta(summary, 0.5) == pytest.approx(1 - summary.gap / 2, abs=1e-12)


def test_beta_delta_ehrenfest_two():
    summary = eigen_summary(ehrenfest(2))
    assert beta_delta(summary, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_beta_delta_validates_delta():
    summary = eigen_summary(two_state())
    for bad in (0.0, 1.0, 2.0):
        with pytest.raises(BadDelta):
            beta_delta(summary, bad)


def test_beta_delta_bounds(small_corpus):
    # min(delta, 1-delta)*gap <= 1 - beta <= (1-delta)*gap
    for chain in small_corpus:
        summary = eigen_summary(chain)
        for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
            beta = beta_delta(summary, delta)
            assert 0.0 <= beta < 1.0
            low = min(delta, 1 - delta) * summary.gap
            mid = 1 - abs(1 - (1 - delta) * summary.gap)
            high = (1 - delta) * summary.gap
            assert low <= 1 - beta + 1e-12
            assert 1 - beta <= mid + 1e-12
            assert mid <= high + 1e-12


def _counted_solves(monkeypatch):
    from cutofflab import spectral

    solves = []
    real = spectral.tridiagonal_eigenvalues

    def counted(diag, off_squared):
        solves.append(len(diag))
        return real(diag, off_squared)

    monkeypatch.setattr(spectral, "tridiagonal_eigenvalues", counted)
    return solves


def test_spectrum_is_solved_once_per_chain(monkeypatch):
    solves = _counted_solves(monkeypatch)
    chain = random_bd(4, 20)
    first = eigen_summary(chain)
    assert eigen_summary(chain) is first
    assert solves == [21]


def test_equal_chain_object_gets_its_own_solve(monkeypatch):
    solves = _counted_solves(monkeypatch)
    chain, twin = random_bd(4, 20), random_bd(4, 20)
    first, second = eigen_summary(chain), eigen_summary(twin)
    assert solves == [21, 21]
    assert second is not first
    assert np.array_equal(second.eigenvalues, first.eigenvalues)
