import os
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from cutofflab import Chain, FamilySpec, generate
from cutofflab import chain as chain_module
from cutofflab import distances as distances_module


def ehrenfest(n: int) -> Chain:
    idx = np.arange(n + 1, dtype=float)
    return Chain.from_rates(1.0 - idx / n, idx / n, np.zeros(n + 1))


def two_state(p: float = 0.5, q: float = 0.5) -> Chain:
    return Chain.from_rates([p, 0.0], [0.0, q], [1.0 - p, 1.0 - q])


def flip() -> Chain:
    # deterministic swap of two states; periodic, reversible, eigenvalue -1
    return Chain.from_rates([1.0, 0.0], [0.0, 1.0], [0.0, 0.0])


def rank_one(pi) -> Chain:
    pi = np.asarray(pi, dtype=float)
    return Chain.from_dense(np.tile(pi, (pi.size, 1)))


def random_bd(seed: int, n: int) -> Chain:
    return generate(FamilySpec("random_bd", (max(n, 2),), seed=seed), n)


def bench_workloads():
    """The benchmark's ``workloads`` module, read from bench/: its inputs,
    verb arguments and goldens."""
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


@pytest.fixture(scope="session")
def small_corpus():
    """A few birth-death chains of varied size, reused across property tests."""
    chains = [random_bd(seed, 4 + 7 * seed) for seed in range(5)]
    chains.append(ehrenfest(8))
    chains.append(two_state(0.3, 0.6))
    return chains


@dataclass
class WorkCount:
    """Kernel applications per chain, dense power factors built on the
    discrete and lazy clocks, factors E(h) built on the continuous clock,
    and uniformization calls with their summed time argument (a multi-time
    pass counts its largest time), as counted by the ``work_count``
    fixture."""

    apply_by_chain: Counter = field(default_factory=Counter)
    matrix_powers: int = 0
    continuous_factors: int = 0
    uniformized_calls: int = 0
    uniformized_time: float = 0.0

    @property
    def applies(self) -> int:
        return sum(self.apply_by_chain.values())


@pytest.fixture()
def work_count(monkeypatch):
    """Count ``Chain.apply`` calls, the power factors that evaluators build
    (``_Evaluator._build_semigroup``), apart by clock, and ``_uniformized``
    calls made during a test; the counts are deterministic, so tests can pin
    them."""
    work = WorkCount()
    real_apply = Chain.apply
    real_build = distances_module._Evaluator._build_semigroup
    real_uniformized = chain_module._uniformized

    def apply(self, dist):
        work.apply_by_chain[self] += 1
        return real_apply(self, dist)

    def build_semigroup(ev, h):
        if ev.continuous:
            work.continuous_factors += 1
        else:
            work.matrix_powers += 1
        return real_build(ev, h)

    def uniformized(step, rows, times, tol, until=None):
        work.uniformized_calls += 1
        work.uniformized_time += times[-1]
        return real_uniformized(step, rows, times, tol, until)

    monkeypatch.setattr(Chain, "apply", apply)
    monkeypatch.setattr(distances_module._Evaluator, "_build_semigroup", build_semigroup)
    for module in (chain_module, distances_module):
        monkeypatch.setattr(module, "_uniformized", uniformized)
    return work
