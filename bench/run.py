#!/usr/bin/env python3
"""cutofflab benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-process, closed-loop harness with one client: each item (one public
call) starts only after the previous one finished and was checked.  The run
measures whole rounds of the same items, each on freshly built inputs: at
least two rounds, and more while they fit into S seconds; with tracing the
rounds alternate untraced and traced.  Each item's latency is its best over
the untraced rounds: on a machine shared with other tenants, slow phases
last seconds to minutes, and the best of repeats spaced a round apart
removes the shorter ones (the reasoning behind ``timeit``'s minimum).  The run prints a readable
report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

See bench/NOTES.md for the workloads, the metrics and what each should move.
"""
import os

# Fix the BLAS/OpenMP pools before numpy loads; children inherit this.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
# Every item gets a repeat to take the best of; tracing needs an untraced
# and a traced round.
MIN_ROUNDS = 2
TAIL_BEYOND = 10
DIGITS_CAP = 15.0  # a double carries 15-16 significant digits

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "correct_digits": "digits",
    "peak_rss_mb": "MiB",
}
IMPORT_PROBE = "import time; t = time.perf_counter(); import cutofflab; print(time.perf_counter() - t)"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples above it.  Below 2 * TAIL_BEYOND samples no such percentile lies
    above the median, so the maximum (percentile 100) is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def digits(errors: list[float]) -> float:
    worst = max(errors)
    return DIGITS_CAP if worst <= 10.0**-DIGITS_CAP else -math.log10(worst)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def child_import_seconds(env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip())


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[float] = []
        self.failures: list[str] = []


def run_round(items, tracer) -> Round:
    rnd = Round(tracer is not None)
    if tracer is not None:
        tracer.install()
        item_span = tracer.name_id("bench.item")
    try:
        for index, item in enumerate(items):
            out, raised = None, None
            if tracer is not None:
                tracer.item_id = index
                span = tracer.open(item_span)
            t0 = time.perf_counter()
            try:
                out = item.call(tracer)
            except Exception:  # an item that raises is a failed item, not a crash
                raised = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
                tracer.item_id = -1
            rnd.latencies.append(t1 - t0)
            ok = False
            if raised is None:
                try:
                    ok, errors = item.check(out)
                    rnd.errors.extend(errors)
                except Exception:
                    raised = traceback.format_exc(limit=3)
            if not ok:
                rnd.failed += 1
                rnd.failures.append(f"{item.label}: {raised or 'output check failed'}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rnd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cutofflab" / "__init__.py").is_file():
        fail(f"no cutofflab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cutofflab

    if Path(cutofflab.__file__).resolve().parent != (SRC / "cutofflab").resolve():
        fail(f"imported cutofflab from {cutofflab.__file__}, not from {SRC}")

    from spans import DETERMINISTIC, LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    env = child_env(ROOT)
    trace = bool(args.trace)

    # Set-up happens before each round, so every round gets fresh inputs
    # (the id-keyed spectrum cache must not serve a repeat) and the set-up
    # samples are spread over the run; the import is timed in a fresh
    # interpreter.  A traced round also traces the building of its inputs.
    setup: list[float] = []

    def set_up(tracer):
        imported = child_import_seconds(env)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        items = workload.build_round()
        built = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        setup.append(imported + built)
        return items

    child_import_seconds(env)  # the first fresh interpreter pays cold-cache costs
    if hasattr(workload, "warm_up"):
        workload.warm_up()

    rounds: list[Round] = []
    tracers: list = []
    started = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        items = set_up(tracer)
        t0 = time.perf_counter()
        rounds.append(run_round(items, tracer))
        tracers.append(tracer)
        last = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - started + last > args.seconds:
            break
    measured = time.perf_counter() - started
    while len(setup) < SETUP_REPEATS:
        set_up(None)

    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    plain = [r for r in rounds if not r.traced]
    # Each item's latency is its best over the untraced rounds.
    latencies = [min(lat) for lat in zip(*(r.latencies for r in plain))]
    items_per_s = len(latencies) / sum(latencies)
    tail_value, tail_pct = tail(latencies)
    errors = [e for r in rounds for e in r.errors]
    child = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    end_to_end = {
        "setup_s": statistics.median(setup),
        "items_per_s": items_per_s,
        "item_p50_s": statistics.median(latencies),
        "item_tail_s": tail_value,
        "correct_digits": digits(errors) if errors else 0.0,
        "peak_rss_mb": resource.getrusage(child).ru_maxrss / 1024.0,
    }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": workload.sizes,
        "rounds": len(rounds),
        "measured_s": measured,
        "round_busy_s": [sum(r.latencies) for r in rounds],
        "samples": len(latencies),
        "tail_percentile": tail_pct,
        "error_rate": failed / attempted,
        "setup_samples_s": setup,
        "env": environment(),
    }
    print(f"cutofflab bench: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} items in {len(rounds)} round(s), {measured:.2f} s measured")
    for line in (f for r in rounds for f in r.failures):
        print(f"  FAILED {line}")

    if trace:
        traced = [(r, t) for r, t in zip(rounds, tracers) if r.traced]
        per_round = [layer_metrics(t.arrays(), t.names) for _, t in traced]
        layer = {k: statistics.fmean(m[k] for m in per_round) for k in per_round[0]}
        untraced_s = sum(sum(r.latencies) for r in plain) / len(plain)
        traced_s = sum(sum(r.latencies) for r, _ in traced) / len(traced)
        layer["trace.overhead_ratio"] = 1.0 - untraced_s / traced_s  # 1 - traced/untraced items_per_s
        metrics = {k: {"value": layer[k], "unit": unit} for k, (unit, _) in LAYER_METRICS.items()}
        info["spans_file"] = str(save_spans(args.workload, args.seed, [t for _, t in traced]))
        info["per_round_counts_identical"] = all(
            m[k] == per_round[0][k] for m in per_round for k in DETERMINISTIC)
    else:
        metrics = {k: {"value": end_to_end[k], "unit": unit} for k, unit in END_TO_END.items()}
        print(f"  {'error_rate':<32} {info['error_rate']:<14.6g} ratio ({failed}/{attempted})")
    for name, entry in metrics.items():
        note = ""
        if name == "item_p50_s":
            note = f"(n={len(latencies)})"
        elif name == "item_tail_s":
            note = f"(p{tail_pct:.1f}, n={len(latencies)})"
        elif name == "setup_s":
            note = f"(median of {len(setup)} set-ups)"
        print(f"  {name:<32} {entry['value']:<14.6g} {entry['unit']} {note}")
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def save_spans(workload: str, seed: int, tracers) -> Path:
    import numpy as np

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.npz"
    arrays = {}
    for k, tracer in enumerate(tracers):
        for key, value in tracer.arrays().items():
            arrays[f"round{k}_{key}"] = value
        arrays[f"round{k}_names"] = np.array(tracer.names)
    np.savez_compressed(path, **arrays)
    return path.relative_to(ROOT)


if __name__ == "__main__":
    sys.exit(main())
