#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 bench/sweep.py [--workloads a,b] [--seeds 0-9] [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one after another, with the
run length from BENCHMARK.json; by default on all four workloads.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's regression bound; a spread above a
third of the bound is flagged.  With ``--trace 1`` it runs each seed twice and
reports whether the deterministic work counts repeated exactly.  ``--out``
writes every run's result and the summary as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from spans import DETERMINISTIC  # noqa: E402

# spectrum_large is not in BENCHMARK.json: its run-to-run spread is above the
# largest bound the regression gate allows (see NOTES.md), so it is reported
# here but gates nothing.
ALL_WORKLOADS = "verify_corpus,family_ehrenfest,spectrum_large,cli_cold"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {"seed": seed, "wall_s": wall, "result": json.loads(lines[-1]), "info": info}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=ALL_WORKLOADS)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, seconds, args.trace))
            if args.trace:
                again = run_once(workload, seed, seconds, args.trace)
                same = all(again["result"]["metrics"][k] == runs[-1]["result"]["metrics"][k]
                           for k in DETERMINISTIC)
                runs[-1]["counts_repeat"] = same
                print(f"{workload} seed {seed}: deterministic counts "
                      f"{'repeat exactly' if same else 'DIFFER'} between two runs")
                steady = steady and same
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, run wall {min(walls):.1f}..{max(walls):.1f} s")
        print(f"  {'error_rate':<30} {failed / attempted:<12.6g} ratio  ({failed}/{attempted} items)")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  <-- spread above bound/3"
                steady = False
            bound = "" if s["bound"] is None else f"bound {s['bound']:.2f}"
            print(f"  {name:<30} {s['median']:<12.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
