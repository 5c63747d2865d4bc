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
