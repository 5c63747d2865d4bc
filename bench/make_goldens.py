#!/usr/bin/env python3
"""Regenerate bench/goldens.json from the library as it stands.

Usage (from the repository root): python3 bench/make_goldens.py

The goldens pin outputs that have no closed form: the family_ehrenfest scan
records and the byte-exact stdout of every cli_cold invocation.  They were
made once from the commit that introduced the benchmark; regenerate them only
for a change that is meant to alter those outputs, and say so.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cutofflab  # noqa: E402
from workloads import (  # noqa: E402
    CLI_FAMILY, ENTRY, FAMILY_DELTA, FAMILY_SIZES, GOLDENS, TWO_STATE, child_env, two_state_spec,
    verb_args,
)


def family_goldens() -> dict:
    out = {}
    for n in FAMILY_SIZES:
        rec = cutofflab.family_scan(cutofflab.FamilySpec("ehrenfest", (n,)), delta=FAMILY_DELTA).records[0]
        out[str(n)] = {
            "gap": rec.gap,
            "spectral_sum": rec.spectral_sum,
            "mixing_lazy": [list(kv) for kv in sorted(rec.mixing_lazy.items())],
            "mixing_continuous": [list(kv) for kv in sorted(rec.mixing_continuous.items())],
        }
    return out


def cli_goldens() -> dict:
    out = {}
    env = child_env(ROOT)
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
        family = Path(tmp) / "family.json"
        family.write_text(json.dumps(CLI_FAMILY), encoding="utf-8")
        for p, q in TWO_STATE:
            chain = Path(tmp) / "chain.json"
            chain.write_text(json.dumps(two_state_spec(p, q)), encoding="utf-8")
            verbs = {}
            for verb, args in verb_args(str(chain), str(family)).items():
                proc = subprocess.run([sys.executable, "-c", ENTRY, *args], cwd=ROOT, env=env,
                                      capture_output=True, check=True)
                verbs[verb] = proc.stdout.decode("utf-8")
            out[f"{p},{q}"] = verbs
    return out


def main() -> int:
    goldens = {"family_ehrenfest": family_goldens(), "cli_cold": cli_goldens()}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
