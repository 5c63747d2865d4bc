"""Command-line contract: verbs, exit codes, JSON payloads, CSV schema."""

import glob
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cutofflab
from cutofflab import (
    Chain, FamilyReport, FamilySpec, NumericalFailure, SizeRecord, cli, distances, family_scan,
)
from cutofflab.cli import export_csv, main

from conftest import bench_workloads


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def ehrenfest8(tmp_path):
    n = 8
    idx = list(range(n + 1))
    return write_json(
        tmp_path / "ehrenfest8.json",
        {
            "type": "birth_death",
            "p": [1 - i / n for i in idx],
            "q": [i / n for i in idx],
            "r": [0.0] * (n + 1),
        },
    )


@pytest.fixture()
def two_state_file(tmp_path):
    return write_json(
        tmp_path / "two_state.json",
        {"type": "birth_death", "p": [0.5, 0.0], "q": [0.0, 0.5], "r": [0.5, 0.5]},
    )


@pytest.fixture()
def flip_file(tmp_path):
    return write_json(
        tmp_path / "flip.json",
        {"type": "birth_death", "p": [1.0, 0.0], "q": [0.0, 1.0], "r": [0.0, 0.0]},
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_payload(capsys, ehrenfest8):
    code, out, err = run_cli(capsys, "spectrum", "--chain", ehrenfest8)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["num_states"] == 9
    expect = [0.25 * k for k in range(9)]
    assert payload["eigenvalues"] == pytest.approx(expect, abs=1e-12)
    assert payload["gap"] == pytest.approx(0.25, abs=1e-12)
    assert payload["kernel_eigenvalues"][0] == 1.0


def test_analyze_mixing_time(capsys, two_state_file):
    code, out, _ = run_cli(
        capsys, "analyze", "--chain", two_state_file, "--eps", "0.25"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mixing_time"] == pytest.approx(math.log(2.0), rel=2e-4)
    assert payload["metric"] == "tv" and payload["mode"] == "continuous"


def test_analyze_distance_at_time(capsys, two_state_file):
    code, out, _ = run_cli(
        capsys, "analyze", "--chain", two_state_file, "--time", "1.0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-9)


def test_analyze_start_flag(capsys, ehrenfest8):
    code, out, _ = run_cli(
        capsys, "analyze", "--chain", ehrenfest8, "--time", "2.0", "--start", "4"
    )
    assert code == 0
    middle = json.loads(out)["distance"]
    code, out, _ = run_cli(capsys, "analyze", "--chain", ehrenfest8, "--time", "2.0")
    corner = json.loads(out)["distance"]
    assert middle < corner  # the central start is closer to binomial equilibrium


def test_analyze_usage_errors(capsys, two_state_file):
    # exactly one of --eps/--time
    code, _, err = run_cli(capsys, "analyze", "--chain", two_state_file)
    assert code == 2 and "--eps" in err and "--time" in err
    code, _, err = run_cli(
        capsys, "analyze", "--chain", two_state_file, "--eps", "0.2", "--time", "1.0"
    )
    assert code == 2
    # lazy mode without delta
    code, _, err = run_cli(
        capsys, "analyze", "--chain", two_state_file, "--mode", "lazy", "--time", "3"
    )
    assert code == 2 and "delta" in err.lower()
    # start index out of range
    code, _, err = run_cli(
        capsys, "analyze", "--chain", two_state_file, "--time", "1.0", "--start", "7"
    )
    assert code == 2 and "--start" in err
    # eps outside (0,1)
    code, _, err = run_cli(
        capsys, "analyze", "--chain", two_state_file, "--eps", "1.5"
    )
    assert code == 2 and "--eps" in err


def test_analyze_time_past_the_cap_exits_two(capsys, two_state_file):
    # uniformization to t = 1e9 would take about 1e9 kernel applications
    code, out, err = run_cli(capsys, "analyze", "--chain", two_state_file, "--time", "1e9")
    assert code == 2 and out == "" and "cap" in err


def test_analyze_missing_chain_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "analyze", "--chain", str(tmp_path / "absent.json"), "--eps", "0.25"
    )
    assert code == 2 and "absent.json" in err


def test_analyze_nonmixing_exit_three(capsys, flip_file):
    code, _, err = run_cli(
        capsys, "analyze", "--chain", flip_file, "--mode", "discrete", "--eps", "0.25"
    )
    assert code == 3 and err.startswith("error:")


def test_analyze_periodic_chain_above_dense_cliff_exits_three(capsys, tmp_path):
    # 401 states: the discrete search would step toward the 10**7 cap; the
    # period certificate refuses at once
    n = 400
    chain = write_json(
        tmp_path / "ehrenfest400.json",
        {
            "type": "birth_death",
            "p": [1 - i / n for i in range(n + 1)],
            "q": [i / n for i in range(n + 1)],
            "r": [0.0] * (n + 1),
        },
    )
    code, out, err = run_cli(
        capsys, "analyze", "--chain", chain, "--mode", "discrete", "--eps", "0.25"
    )
    assert code == 3 and out == "" and "period 2" in err


@pytest.mark.parametrize("flag,spec", [
    ("--chain", {"type": "dense", "matrix": {"a": 1}}),
    ("--chain", {"type": "birth_death", "p": {"a": 1}, "q": [0.0, 0.5], "r": [0.5, 0.5]}),
    ("--spec", {"family": "ehrenfest", "sizes": [4, 8], "delta": "0.5"}),
    ("--spec", {"family": "ehrenfest", "sizes": [None]}),
    ("--spec", {"family": "ehrenfest", "sizes": 5}),
    ("--spec", {"family": "ehrenfest", "sizes": [4, 8], "eps_grid": 0.25}),
    ("--spec", {"family": "ehrenfest", "sizes": [4.5, 8]}),
])
def test_spec_fields_of_the_wrong_type_exit_two(capsys, tmp_path, flag, spec):
    path = write_json(tmp_path / "spec.json", spec)
    verb = "spectrum" if flag == "--chain" else "family"
    code, out, err = run_cli(capsys, verb, flag, path)
    assert code == 2 and out == "" and err.startswith("error:")


workloads = bench_workloads()


@pytest.mark.parametrize("pair", workloads.TWO_STATE, ids=str)
@pytest.mark.parametrize("verb", ["spectrum", "analyze", "family", "verify"])
def test_cli_output_equals_the_bench_goldens(capsys, tmp_path, pair, verb):
    golden = workloads.load_goldens()["cli_cold"]["%s,%s" % pair][verb]
    chain = write_json(tmp_path / "chain.json", workloads.two_state_spec(*pair))
    family = write_json(tmp_path / "family.json", workloads.CLI_FAMILY)
    code, out, _ = run_cli(capsys, *workloads.verb_args(chain, family)[verb])
    assert code == 0 and out == golden


def test_the_golden_verbs_read_their_steps_below_the_power_floor(capsys, tmp_path, monkeypatch):
    # the pinned discrete and lazy outputs are banded bits: a step at or
    # above _POW_MIN_STEPS may take a dense power, whose rows can differ in
    # the last bits.  analyze and verify read up to step 8 on the two-state
    # chains, and the Ehrenfest {4, 8} family scan up to lazy step 28; a
    # floor of 28 or below puts pinned steps on the power route (at 8 the
    # verify golden of (0.2, 0.7) moves), so lowering it further means
    # regenerating the goldens
    steps = []
    real_evolve = distances._Evaluator.evolve

    def evolve(ev, times):
        if not ev.continuous:
            steps.extend(int(t) for t in times)
        return real_evolve(ev, times)

    monkeypatch.setattr(distances._Evaluator, "evolve", evolve)
    family = write_json(tmp_path / "family.json", workloads.CLI_FAMILY)
    for pair in workloads.TWO_STATE:
        chain = write_json(tmp_path / "chain.json", workloads.two_state_spec(*pair))
        for verb in ("analyze", "verify"):
            assert run_cli(capsys, *workloads.verb_args(chain, family)[verb])[0] == 0
    verbs = max(steps)
    steps.clear()
    assert run_cli(capsys, *workloads.verb_args(chain, family)["family"])[0] == 0
    scan = max(steps)
    assert (verbs, scan) == (8, 28)
    assert max(verbs, scan) < distances._POW_MIN_STEPS


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["summon"])
    assert info.value.code == 2


def test_out_flag_writes_atomically(capsys, two_state_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "analyze", "--chain", two_state_file, "--eps", "0.25",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["mixing_time"] == pytest.approx(math.log(2.0), rel=2e-4)
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("flag,target", [
    ("--out", "missing/report.json"), ("--csv", "missing/table.csv"), ("--out", "."),
])
def test_an_unwritable_output_path_exits_two(capsys, two_state_file, tmp_path, flag, target):
    # a missing directory, or a path naming a directory: an error line and
    # exit 2, not a traceback, and no temp file left behind
    spec_file = write_json(tmp_path / "family.json", {"family": "ehrenfest", "sizes": [4]})
    path = str(tmp_path / target)
    if flag == "--out":
        argv = ["spectrum", "--chain", two_state_file, "--out", path]
    else:
        argv = ["family", "--spec", spec_file, "--eps-grid", "0.25", "--csv", path]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert glob.glob(str(tmp_path / "**" / ".tmp-*"), recursive=True) == []


@pytest.mark.parametrize("out,csv", [("missing/r.json", "t.csv"), ("r.json", ".")])
def test_family_writes_both_outputs_or_neither(capsys, tmp_path, out, csv):
    # the CSV was written before the report, and stayed behind when the
    # report could not be written; a CSV path naming a directory fails only
    # at its rename, so it is refused before any output is renamed
    spec_file = write_json(tmp_path / "family.json", {"family": "ehrenfest", "sizes": [4]})
    out, csv = str(tmp_path / out), str(tmp_path / csv)
    code, stdout, err = run_cli(capsys, "family", "--spec", spec_file, "--eps-grid", "0.25",
                                "--csv", csv, "--out", out)
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write ")
    assert sorted(os.listdir(tmp_path)) == ["family.json"]
    assert glob.glob(str(tmp_path / "**" / ".tmp-*"), recursive=True) == []


def test_out_and_csv_files_take_the_umask_mode(capsys, two_state_file, tmp_path):
    # the files get the mode a plain open() gives, not mkstemp's 0600
    spec_file = write_json(tmp_path / "family.json", {"family": "ehrenfest", "sizes": [4]})
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
            os.umask(umask)
            out, csv = tmp_path / f"r{umask:o}.json", tmp_path / f"t{umask:o}.csv"
            run_cli(capsys, "spectrum", "--chain", two_state_file, "--out", str(out))
            run_cli(capsys, "family", "--spec", spec_file, "--eps-grid", "0.25",
                    "--out", str(out), "--csv", str(csv))
            assert os.stat(out).st_mode & 0o777 == mode
            assert os.stat(csv).st_mode & 0o777 == mode
    finally:
        os.umask(old)


def test_inputs_are_not_mutated(capsys, ehrenfest8):
    before = open(ehrenfest8, "rb").read()
    run_cli(capsys, "spectrum", "--chain", ehrenfest8)
    run_cli(capsys, "analyze", "--chain", ehrenfest8, "--time", "1.0")
    assert open(ehrenfest8, "rb").read() == before


def test_family_verb_with_csv(capsys, tmp_path):
    spec_file = write_json(
        tmp_path / "family.json",
        {"family": "ehrenfest", "sizes": [4, 8]},
    )
    csv_file = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys,
        "family", "--spec", spec_file,
        "--eps-grid", "0.1,0.5",
        "--csv", str(csv_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"] == {"family": "ehrenfest", "sizes": [4, 8]}
    assert [r["n"] for r in payload["records"]] == [4, 8]

    lines = csv_file.read_text().splitlines()
    assert lines[0] == "n,gap,s,product,T_c_eps0.1,T_c_eps0.5,T_lazy_eps0.1,T_lazy_eps0.5,ratio,window,sqrt_t"
    assert len(lines) == 4  # header, two sizes, verdict footer
    assert lines[-1].startswith("verdict,")
    assert lines[-1].count(",") == lines[0].count(",")

    # reruns are byte identical
    first = csv_file.read_bytes()
    run_cli(
        capsys,
        "family", "--spec", spec_file, "--eps-grid", "0.1,0.5", "--csv", str(csv_file),
    )
    assert csv_file.read_bytes() == first


def test_family_verb_with_an_empty_spec_grid(capsys, tmp_path):
    # an empty eps grid asks for the spectral columns and the verdict alone
    spec_file = write_json(
        tmp_path / "family.json", {"family": "ehrenfest", "sizes": [4, 16], "eps_grid": []}
    )
    csv_file = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "family", "--spec", spec_file, "--csv", str(csv_file))
    assert code == 0
    payload = json.loads(out)
    spectral = family_scan(FamilySpec("ehrenfest", (4, 16), eps_grid=()))
    assert payload == spectral.to_dict()
    assert payload["delta"] is None and payload["verdict"] == "cutoff-trend"
    for rec in payload["records"]:
        assert rec["product"] > 0.0
        assert rec["mixing_continuous"] == [] and rec["mixing_lazy"] == []
        assert rec["ratio_c_over_lazy"] is None and rec["window"] is None
    lines = csv_file.read_text().splitlines()
    assert lines[0] == "n,gap,s,product,ratio,window,sqrt_t"
    assert "T_" not in csv_file.read_text()
    assert len(lines) == 4 and lines[-1].startswith("verdict,cutoff-trend")


def test_family_bad_tol_exits_two_with_an_empty_spec_grid(capsys, tmp_path):
    spec_file = write_json(
        tmp_path / "family.json", {"family": "ehrenfest", "sizes": [4], "eps_grid": []}
    )
    code, out, err = run_cli(capsys, "family", "--spec", spec_file, "--tol", "-3")
    assert code == 2 and out == "" and "tol" in err


def test_family_flag_precedence(capsys, tmp_path):
    spec_file = write_json(
        tmp_path / "family.json",
        {"family": "ehrenfest", "sizes": [4], "delta": 0.25, "eps_grid": [0.3]},
    )
    code, out, _ = run_cli(capsys, "family", "--spec", spec_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 0.25 and payload["eps_grid"] == [0.3]
    code, out, _ = run_cli(capsys, "family", "--spec", spec_file, "--delta", "0.5")
    assert json.loads(out)["delta"] == 0.5


def test_family_bad_grid_flag(capsys, tmp_path):
    spec_file = write_json(tmp_path / "family.json", {"family": "ehrenfest", "sizes": [4]})
    with pytest.raises(SystemExit) as info:
        main(["family", "--spec", spec_file, "--eps-grid", "0.1,2.0"])
    assert info.value.code == 2


@pytest.mark.parametrize("verb", ["family", "verify"])
def test_eps_grid_flag_refuses_an_entry_that_is_not_a_float(capsys, tmp_path, two_state_file, verb):
    spec_file = write_json(tmp_path / "family.json", {"family": "ehrenfest", "sizes": [4]})
    source = ["--spec", spec_file] if verb == "family" else ["--chain", two_state_file]
    with pytest.raises(SystemExit) as info:
        main([verb, *source, "--eps-grid", "0.1,quarter"])
    assert info.value.code == 2
    assert "expected comma-separated floats, got '0.1,quarter'" in capsys.readouterr().err


def test_verify_verb(capsys, two_state_file):
    code, out, _ = run_cli(capsys, "verify", "--chain", two_state_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["min_margin"] >= -1e-9
    assert isinstance(payload["entries"], list) and payload["entries"]


def test_verify_bad_delta_exits_two(capsys, two_state_file):
    code, out, err = run_cli(capsys, "verify", "--chain", two_state_file, "--delta", "1.0")
    assert code == 2 and out == "" and "delta" in err


def test_numerical_failure_exits_two(capsys, two_state_file, monkeypatch):
    # a failed consistency check is a typed refusal with a message, not a
    # traceback
    def corrupt(chain):
        raise NumericalFailure("no eigenvalue of I-K within 1e-09 of 0")

    monkeypatch.setattr(cli, "eigen_summary", corrupt)
    code, out, err = run_cli(capsys, "spectrum", "--chain", two_state_file)
    assert code == 2 and out == "" and err.startswith("error: no eigenvalue")


def test_analyze_separation_with_underflowed_pi_exits_two(capsys, tmp_path):
    # Ehrenfest 1100: pi(0) = 2**-1100 underflows to 0
    n = 1100
    path = write_json(tmp_path / "ehrenfest1100.json", {
        "type": "birth_death",
        "p": [1 - i / n for i in range(n + 1)],
        "q": [i / n for i in range(n + 1)],
        "r": [0.0] * (n + 1),
    })
    code, out, err = run_cli(capsys, "analyze", "--chain", path, "--metric", "sep", "--eps", "0.25")
    assert code == 2 and out == "" and "underflows" in err


def test_export_csv_twelve_digits(tmp_path):
    report = FamilyReport(
        spec=FamilySpec("ehrenfest", (4,)),
        delta=0.5,
        eps_grid=(0.25,),
        records=[
            SizeRecord(
                n=4,
                gap=1.0 / 3.0,
                spectral_sum=2.0,
                product=2.0 / 3.0,
                mixing_continuous={0.25: 1.23456789012345},
                mixing_lazy={0.25: 2.0},
                ratio_c_over_lazy=0.5,
            )
        ],
        verdict=None,
    )
    path = tmp_path / "one.csv"
    export_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[4] == "1.23456789012"
    assert lines[1].split(",")[1] == "0.333333333333"
    # absent fields render empty, missing verdict leaves an empty cell
    assert lines[1].split(",")[-2] == ""
    assert lines[2].split(",")[1] == ""


def test_export_csv_empty_report(tmp_path):
    report = FamilyReport(
        spec=FamilySpec("ehrenfest", (4,)), delta=0.5, eps_grid=(0.1,), records=[]
    )
    path = tmp_path / "empty.csv"
    export_csv(report, str(path))
    assert path.read_text() == "n,gap,s,product,T_c_eps0.1,T_lazy_eps0.1,ratio,window,sqrt_t\n"


def child_env():
    """Environment in which a fresh interpreter imports the same cutofflab as
    this process, wherever it came from."""
    package_root = os.path.dirname(os.path.dirname(cutofflab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def declared_entry_point(name):
    """The ``module:attr`` that ``[project.scripts]`` in pyproject.toml declares."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def entry_point_command(spec):
    """Run ``module:attr`` the way pip's console-script shim does, in a fresh interpreter."""
    module, _, attr = spec.partition(":")
    shim = (
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        f"sys.exit({attr}())\n"
    )
    return [sys.executable, "-c", shim]


def test_console_script_runs(tmp_path):
    chain = write_json(
        tmp_path / "chain.json",
        {"type": "dense", "matrix": [[0.5, 0.5], [0.25, 0.75]]},
    )
    env = child_env()
    commands = [entry_point_command(declared_entry_point("cutofflab"))]
    installed = shutil.which("cutofflab")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            command + ["spectrum", "--chain", chain],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert json.loads(proc.stdout)["num_states"] == 2


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only verify's Poisson tail, imported where it is used
    code = "import sys, cutofflab.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, demo], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr



def _readme_blocks(language):
    """The fenced ``language`` blocks of README.md, as (section heading,
    block text) pairs."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        sections = re.split(r"^## ", fh.read(), flags=re.M)[1:]
    return [(section.splitlines()[0], block) for section in sections
            for block in re.findall(rf"^```{language}\n(.*?)^```", section, flags=re.M | re.S)]


def test_readme_examples_run():
    # the library quick start runs as printed, and every JSON example loads
    # as the spec it shows
    quick = [block for heading, block in _readme_blocks("python")
             if heading == "Library quick start"]
    assert len(quick) == 1
    exec(compile(quick[0], "README.md", "exec"), {})
    specs = [json.loads(line) for _, block in _readme_blocks("json")
             for line in block.splitlines()]
    chains = [spec for spec in specs if "type" in spec]
    families = [spec for spec in specs if "family" in spec]
    assert len(chains) == 2 and len(families) == 3 and len(specs) == 5
    for spec in chains:
        Chain.from_spec(spec)
    for spec in families:
        FamilySpec.from_dict(spec)
