"""The four workloads: inputs made from a seed, one public call per item, and
an output check per item.

Every workload runs in rounds.  A round is a fixed list of items; all rounds
of one run hold the same inputs, rebuilt as fresh objects, so per-round work
counts repeat exactly and a run's figures do not depend on how many rounds
fit into it.  The seed orders the items and picks the two-state chain of
cli_cold; the other inputs are the fixed sizes the workloads are defined by.

A check returns ``(ok, rel_errors)``: ``ok`` says whether the output passed
at the library's stated tolerance, and ``rel_errors`` lists relative errors
against independent closed forms, from which ``correct_digits`` is taken.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Library calls go through the package attributes, which the tracer replaces.
import cutofflab as lib
from cutofflab import FamilySpec

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"

# The first 40 chains of criterion 7 of the acceptance gate: random_bd seed
# 2000 + k on n = 3 + k % 38, so every size of 4..41 states appears.  The
# slice is fixed, as ROADMAP's verify benchmark asks; the seed orders it.
CORPUS_BASE_SEED = 2000
CORPUS_SLICE = 40
CORPUS_EHRENFEST = (16, 64)
MARGIN_FLOOR = -1e-9

FAMILY_SIZES = (64, 128, 256, 512, 1024)
FAMILY_DELTA = 0.5

SPECTRUM_SIZES = (1024, 2048, 4096)

# Two-state chains (p = P(0->1), q = P(1->0)); the seed picks one.
TWO_STATE = ((0.3, 0.6), (0.25, 0.5), (0.4, 0.45), (0.2, 0.7))
CLI_FAMILY = {"family": "ehrenfest", "sizes": [4, 8]}

# Tolerances, as the library states them.
SPECTRUM_ABS_TOL = 1e-10      # eigenvalues against closed forms (criterion 1)
GOLDEN_SPECTRUM_TOL = 1e-10   # gap and spectral sum against the seed goldens
IDENTITY_REL_TOL = 1e-8       # passage means and spectral sums, ROADMAP's 1e-8..1e-10 band


@dataclass
class Item:
    label: str
    call: Callable          # (tracer or None) -> output
    check: Callable         # output -> (ok, rel_errors)


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _shuffled(items: list, seed: int) -> list:
    random.Random(seed).shuffle(items)
    return items


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify_corpus


class VerifyCorpus:
    name = "verify_corpus"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.corpus = [(CORPUS_BASE_SEED + k, 3 + k % 38) for k in range(CORPUS_SLICE)]
        self.sizes = {"random_bd": f"seeds {CORPUS_BASE_SEED}..{CORPUS_BASE_SEED + CORPUS_SLICE - 1}, "
                                   "4..41 states", "ehrenfest": list(CORPUS_EHRENFEST)}

    def build_round(self) -> list[Item]:
        items = []
        for chain_seed, n in self.corpus:
            chain = lib.generate(FamilySpec("random_bd", (n,), seed=chain_seed), n)
            items.append(self._item(f"random_bd seed={chain_seed} n={n}", chain, None))
        for n in CORPUS_EHRENFEST:
            chain = lib.generate(FamilySpec("ehrenfest", (n,)), n)
            items.append(self._item(f"ehrenfest n={n}", chain, n))
        return _shuffled(items, self.seed)

    @staticmethod
    def _item(label, chain, ehrenfest_n) -> Item:
        def check(report):
            ok = bool(report.entries) and report.min_margin >= MARGIN_FLOOR
            errors = []
            if ehrenfest_n is not None:
                # gap-sandwich-outer at delta=1/2 has rhs = gap / 2; the
                # Ehrenfest gap is 2/n.
                exact = 2.0 / ehrenfest_n
                gaps = [2.0 * e.rhs for e in report.entries
                        if e.inequality == "gap-sandwich-outer" and e.point == "delta=0.5"]
                errors = [_rel(g, exact) for g in gaps]
                ok = ok and len(gaps) == 1 and abs(gaps[0] - exact) <= SPECTRUM_ABS_TOL
            return ok, errors

        return Item(label, lambda _tracer: lib.verify_bounds(chain), check)


# ---------------------------------------------------------------------------
# family_ehrenfest


class FamilyEhrenfest:
    name = "family_ehrenfest"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.golden = load_goldens()["family_ehrenfest"]
        self.sizes = list(FAMILY_SIZES)

    def build_round(self) -> list[Item]:
        items = []
        for n in FAMILY_SIZES:
            spec = FamilySpec("ehrenfest", (n,))
            items.append(Item(
                f"family_scan ehrenfest n={n}",
                lambda _tracer, spec=spec: lib.family_scan(spec, delta=FAMILY_DELTA),
                lambda report, n=n: self._check(report, n),
            ))
        return _shuffled(items, self.seed)

    def _check(self, report, n: int):
        gold = self.golden[str(n)]
        rec = report.records[0]
        ok = rec.n == n
        ok = ok and sorted(rec.mixing_lazy.items()) == [tuple(kv) for kv in gold["mixing_lazy"]]
        cont = sorted(rec.mixing_continuous.items())
        ok = ok and [e for e, _ in cont] == [e for e, _ in gold["mixing_continuous"]]
        for (_, t), (_, g) in zip(cont, gold["mixing_continuous"]):
            ok = ok and abs(t - g) <= max(1e-6, 1e-4 * g)
        ok = ok and _rel(rec.gap, gold["gap"]) <= GOLDEN_SPECTRUM_TOL
        ok = ok and _rel(rec.spectral_sum, gold["spectral_sum"]) <= GOLDEN_SPECTRUM_TOL
        # Ehrenfest spectrum 2i/n: gap 2/n, spectral sum (n/2) H_n.
        harmonic = math.fsum(1.0 / i for i in range(1, n + 1))
        errors = [_rel(rec.gap, 2.0 / n), _rel(rec.spectral_sum, 0.5 * n * harmonic)]
        ok = ok and max(errors) <= IDENTITY_REL_TOL
        return ok, errors


# ---------------------------------------------------------------------------
# spectrum_large


def _closed_spectrum(family: str, n: int) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=float)
    if family == "ehrenfest":
        return 2.0 * j / n
    # path_symmetric: 1 - cos(pi j/(n+1)), written without cancellation
    return 2.0 * np.sin(0.5 * np.pi * j / (n + 1)) ** 2


class SpectrumLarge:
    name = "spectrum_large"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.sizes = list(SPECTRUM_SIZES)
        self.exact = {(f, n): _closed_spectrum(f, n)
                      for f in ("ehrenfest", "path_symmetric") for n in SPECTRUM_SIZES}

    def build_round(self) -> list[Item]:
        items = []
        for n in SPECTRUM_SIZES:
            for family in ("ehrenfest", "path_symmetric"):
                chain = lib.generate(FamilySpec(family, (n,)), n)
                items.append(Item(
                    f"eigen_summary {family} n={n}",
                    lambda _tracer, chain=chain: lib.eigen_summary(chain),
                    lambda summary, key=(family, n): self._check_spectrum(summary, key),
                ))
            chain = lib.generate(FamilySpec("path_symmetric", (n,)), n)
            items.append(Item(
                f"passage_time path_symmetric n={n}",
                lambda _tracer, chain=chain: lib.passage_time(chain),
                lambda report, n=n: self._check_passage(report, n),
            ))
        return _shuffled(items, self.seed)

    def _check_spectrum(self, summary, key):
        exact = self.exact[key]
        got = np.asarray(summary.eigenvalues)
        if got.shape != exact.shape:
            return False, []
        exact_sum = math.fsum((1.0 / exact).tolist())
        errors = [float(np.max(np.abs(got - exact) / exact)),
                  _rel(summary.gap, exact[0]),
                  _rel(summary.spectral_sum, exact_sum)]
        ok = (float(np.max(np.abs(got - exact))) <= SPECTRUM_ABS_TOL
              and abs(summary.gap - exact[0]) <= SPECTRUM_ABS_TOL
              and errors[2] <= IDENTITY_REL_TOL)
        return ok, errors

    @staticmethod
    def _check_passage(report, n: int):
        exact = float(n * (n + 1))  # E[tau_n] on the symmetric path
        errors = [_rel(report.mean_by_rates, exact), _rel(report.mean_by_spectrum, exact)]
        return max(errors) <= IDENTITY_REL_TOL, errors


# ---------------------------------------------------------------------------
# cli_cold

ENTRY = "import sys; from cutofflab.cli import main; sys.exit(main())"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # keep the warmed bytecode cache
    return env


class CliCold:
    name = "cli_cold"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.p, self.q = TWO_STATE[seed % len(TWO_STATE)]
        self.golden = load_goldens()["cli_cold"][f"{self.p},{self.q}"]
        self.workdir = root / "bench" / "out" / "cli"
        self.env = child_env(root)
        self.sizes = {"chain": "2 states", "family": CLI_FAMILY["sizes"]}

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        chain = two_state_spec(self.p, self.q)
        (self.workdir / "chain.json").write_text(json.dumps(chain), encoding="utf-8")
        (self.workdir / "family.json").write_text(json.dumps(CLI_FAMILY), encoding="utf-8")

    def verbs(self) -> dict[str, list[str]]:
        chain = str((self.workdir / "chain.json").relative_to(self.root))
        family = str((self.workdir / "family.json").relative_to(self.root))
        return verb_args(chain, family)

    def build_round(self) -> list[Item]:
        self.write_inputs()
        items = [
            Item(f"cli {verb}",
                 lambda tracer, args=args: self._invoke(args, tracer),
                 lambda out, verb=verb: self._check(out, verb))
            for verb, args in self.verbs().items()
        ]
        return _shuffled(items, self.seed)

    def warm_up(self) -> None:
        self.write_inputs()
        for args in self.verbs().values():
            self._invoke(args, None)

    def _invoke(self, args: list[str], tracer):
        if tracer is None:
            cmd = [sys.executable, "-c", ENTRY, *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_probe.py"), repr(time.perf_counter()), *args]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True)
        if tracer is not None:
            lines = proc.stderr.decode("utf-8", "replace").splitlines()
            if lines and lines[-1].startswith("SPANS "):
                tracer.merge_json(lines[-1][len("SPANS "):], tracer.current())
        return proc

    def _check(self, proc, verb: str):
        text = proc.stdout.decode("utf-8")
        ok = proc.returncode == 0 and text == self.golden[verb]
        errors = []
        if verb == "spectrum" and proc.returncode == 0:
            out = json.loads(text)
            rate = self.p + self.q  # the one nonzero eigenvalue of I - K
            errors = [_rel(out["gap"], rate), _rel(out["spectral_sum"], 1.0 / rate)]
        return ok, errors


def two_state_spec(p: float, q: float) -> dict:
    return {"type": "birth_death", "p": [p, 0.0], "q": [0.0, q], "r": [1.0 - p, 1.0 - q]}


def verb_args(chain: str, family: str) -> dict[str, list[str]]:
    return {
        "spectrum": ["spectrum", "--chain", chain],
        "analyze": ["analyze", "--chain", chain, "--mode", "lazy", "--delta", "0.5",
                    "--eps", "0.1"],
        "family": ["family", "--spec", family],
        "verify": ["verify", "--chain", chain],
    }


WORKLOADS = {cls.name: cls for cls in (VerifyCorpus, FamilyEhrenfest, SpectrumLarge, CliCold)}
