"""Eigenvalue machinery: Sturm bisection, summaries, lazy contraction factor."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from cutofflab import (
    BadDelta,
    BadShape,
    Chain,
    NotReversible,
    beta_delta,
    detailed_balance_residual,
    eigen_summary,
    tridiagonal_eigenvalues,
)

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
    chain = random_bd(7, 15)
    dense = Chain.from_dense(chain.dense_kernel)
    a = eigen_summary(chain)
    b = eigen_summary(dense)
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-9


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
