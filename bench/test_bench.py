"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest -q bench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cutofflab  # noqa: E402
import run  # noqa: E402
from spans import DETERMINISTIC, Tracer, layer_metrics, matrix_power_multiplies, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_counts(workload, take):
    tracer = Tracer()
    with tracer.installed():
        items = workload.build_round()[:take]
    rnd = run.run_round(items, tracer)
    assert rnd.failed == 0, rnd.failures
    metrics = layer_metrics(tracer.arrays(), tracer.names)
    return {k: metrics[k] for k in DETERMINISTIC}


@pytest.mark.parametrize("name,take", [("verify_corpus", 6), ("family_ehrenfest", 2),
                                       ("cli_cold", 4)])
def test_work_counts_repeat_exactly(name, take):
    workload = WORKLOADS[name](ROOT, 7)
    first = _traced_counts(workload, take)
    second = _traced_counts(workload, take)
    assert first == second
    assert first["chain.apply_calls"] > 0
    assert first["spectral.eigen_summary_calls"] > 0


def test_fresh_inputs_miss_the_spectrum_cache():
    workload = WORKLOADS["verify_corpus"](ROOT, 0)
    counts = [_traced_counts(workload, 3) for _ in range(2)]
    # verify_bounds asks for each chain's spectrum twice; only the second
    # request of each chain may be served from the cache.
    for c in counts:
        assert c["spectral.solves"] == 3
        assert c["spectral.eigen_summary_calls"] == 6


def test_uninstall_restores_every_attribute():
    from cutofflab import chain, distances, families, spectral

    before = (cutofflab.verify_bounds, families.eigen_summary, distances._uniformized,
              chain.Chain.__dict__["apply"], chain.Chain.__dict__["from_rates"],
              np.linalg.matrix_power, spectral.tridiagonal_eigenvalues)
    tracer = Tracer()
    with tracer.installed():
        assert cutofflab.verify_bounds is not before[0]
        assert np.linalg.matrix_power is not before[5]
    after = (cutofflab.verify_bounds, families.eigen_summary, distances._uniformized,
             chain.Chain.__dict__["apply"], chain.Chain.__dict__["from_rates"],
             np.linalg.matrix_power, spectral.tridiagonal_eigenvalues)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_direct_children():
    arrs = {
        "start": np.array([0.0, 1.0, 2.0, 6.0]),
        "end": np.array([10.0, 5.0, 3.0, 7.0]),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
    }
    assert self_times(arrs).tolist() == [5.0, 3.0, 1.0, 1.0]


@pytest.mark.parametrize("exponent", [0, 1, 2, 3, 4, 5, 7, 8, 255, 256, 1000])
def test_matrix_power_multiplies_matches_numpy(exponent, monkeypatch):
    calls = []
    real = np.matmul

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg._linalg, "matmul", counting)
    np.linalg.matrix_power(np.eye(3) * 0.5, exponent)
    assert len(calls) == matrix_power_multiplies(exponent)


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 43)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(100 * 32 / 42)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_probe_output_matches_the_console_entry_point():
    workload = WORKLOADS["cli_cold"](ROOT, 2)
    workload.write_inputs()
    for verb, args in workload.verbs().items():
        plain = workload._invoke(args, None)
        tracer = Tracer()
        with tracer.span("bench.item"):
            probed = workload._invoke(args, tracer)
        assert probed.stdout == plain.stdout
        assert probed.returncode == plain.returncode == 0
        names = set(tracer.names)
        assert {"cli.interp", "cli.import", "cli.main", "cli.verb"} <= names, verb


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            [sys.executable, *cmd[1:], "--workload", "cli_cold", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
