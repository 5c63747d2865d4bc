"""The committed benchmark records: every ``BENCH_<label>.json`` at the
repository root, which speed claims cite."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_root_holds_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_benchmark_record_names_itself_its_machine_and_a_declared_claim(path):
    record = json.loads(path.read_text())
    assert record["label"] == path.stem.removeprefix("BENCH_")
    assert "machine" in record
    claim = record.get("claim")
    if isinstance(claim, dict):
        # a measured claim names one of the declared workloads and metrics
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert claim["workload"] in {w["name"] for w in declared["workloads"]}
        metrics = declared["end_to_end"] + declared["per_layer"]
        assert claim["metric"] in {m["name"] for m in metrics}


def _verdict(path):
    claim = json.loads(path.read_text()).get("claim")
    return claim if isinstance(claim, dict) and "met" in claim else None


@pytest.mark.parametrize("path", [p for p in RECORDS if _verdict(p)], ids=lambda path: path.name)
def test_a_claim_marked_met_or_not_agrees_with_its_numbers(path):
    # met: the median gain exceeds the parent's interquartile range over its
    # median, and, where the pairs are given, the change won 9 in 10 of them
    claim = _verdict(path)
    met = claim["median_change_rel"] > claim["parent_iqr_rel"]
    if "pairs" in claim:
        met = met and claim["pairs_won"] >= 0.9 * claim["pairs"]
    assert claim["met"] == met
