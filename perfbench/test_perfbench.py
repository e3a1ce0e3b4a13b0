"""Self-tests of the benchmark: tiny runs and checks that reject wrong values.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from cvqpv.channel import ChannelParams  # noqa: E402
from cvqpv.protocol import (  # noqa: E402
    HonestProver, ProtocolParams, gamma_threshold, run_session, write_rounds_csv)

WORKLOADS = ("mc_plan", "calc_table", "cli_outputs")
REPORT_NAMES = {
    "mc_plan": ["mc_rounds_per_s", "mc_session_ms_p50", "mc_session_ms_tail"],
    "calc_table": ["calc_points_per_s", "calc_point_ms_p50", "calc_point_ms_tail"],
    "cli_outputs": ["cli_mb_written_per_s", "cli_batch_s_p50", "cli_batch_s_tail"],
}
COUNT_UNITS = {"count/pass", "count/solve", "count/q_max", "B/pass", "B/session"}


def bench(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = bench(w, trace)
            assert proc.returncode == 0, proc.stderr
            out[w, trace] = proc.stdout.splitlines()
    return out


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_reports_every_metric(runs, workload, trace):
    lines = runs[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name in REPORT_NAMES[workload] + ["setup_s", "peak_rss_mb", "fail_frac"]:
        assert f"metric {name} = " in text, name
    assert "10 beyond" in text and "env {" in text
    if trace:
        assert "trace.overhead_share" in result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_same_seed_runs(runs, workload):
    again = bench(workload, 1)
    assert again.returncode == 0, again.stderr
    first = json.loads(runs[workload, 1][-1])["metrics"]
    second = json.loads(again.stdout.splitlines()[-1])["metrics"]
    counts = {k for k, v in first.items() if v["unit"] in COUNT_UNITS}
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("mc_plan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_binomial_check_rejects_rates_outside_the_region():
    p = checks.exact_acceptance(139_999, gamma_threshold(139_999, 0.01), 0.0, 0.5)
    assert p == pytest.approx(0.99882, abs=1e-5)
    assert checks.check_acceptance("honest", 675, 676, p) == []
    assert checks.check_acceptance("honest", 600, 676, p)
    assert checks.check_acceptance("attacker", 0, 676, 2.1e-24) == []
    assert checks.check_acceptance("attacker", 1, 676, 2.1e-24)


def test_session_check_rejects_wrong_gamma_and_nan_score():
    assert checks.check_session(1.01, 0.99, 1.01) == []
    assert checks.check_session(1.02, 0.99, 1.01)
    assert checks.check_session(1.01, math.nan, 1.01)


def test_calc_checks_reject_wrong_optima():
    from cvqpv.bounds import BoundInputs, condition_holds, max_eps_tilde

    point = (0.1, 1.0, 0.0, 1e3)
    res = max_eps_tilde(0.1, 1e3, 1.0, 0.0)
    et, alpha = res.eps_tilde_max, res.alpha_star
    assert checks.check_optimum(condition_holds, BoundInputs, point, alpha, et) == []
    assert checks.check_optimum(condition_holds, BoundInputs, point, alpha, 1.5 * et)
    assert checks.check_optimum(condition_holds, BoundInputs, point, alpha, 0.5 * et)
    assert checks.check_published(point, et) == []
    assert checks.check_published(point, 1.2 * 0.0037)
    assert checks.check_budget(point, 5, 5) == [] and checks.check_budget(point, 4, 5)


@pytest.fixture
def trace_dir(tmp_path):
    ch = ChannelParams(1.0, 0.0)
    params = ProtocolParams(sigma=10.0, n=8, N=200, eps_hon=0.01)
    write_rounds_csv(run_session(params, ch, HonestProver(ch), 5, trace=True),
                     tmp_path / "honest_rounds.csv")
    (tmp_path / "x.json").write_text('{"a": 1}\n')
    return tmp_path


def test_trace_check_rejects_a_corrupted_row(trace_dir):
    path = trace_dir / "honest_rounds.csv"
    sample = [0, 7, 199]
    assert checks.check_trace_csv(path, 200, 1.0, 0.0, sample) == []
    assert checks.check_trace_csv(path, 201, 1.0, 0.0, sample)
    lines = path.read_bytes().decode().split("\r\n")
    fields = lines[8].split(",")
    fields[4] = repr(float(fields[4]) * 1.001 + 1e-9)
    lines[8] = ",".join(fields)
    path.write_bytes("\r\n".join(lines).encode())
    assert checks.check_trace_csv(path, 200, 1.0, 0.0, sample)


def test_digest_and_parse_checks_reject_changed_files(trace_dir):
    reference = checks.file_digests(trace_dir)
    assert checks.check_digests(reference, checks.file_digests(trace_dir)) == []
    assert all(checks.check_parses(p) == [] for p in trace_dir.iterdir())
    (trace_dir / "x.json").write_text('{"a": 2}\n')
    assert checks.check_digests(reference, checks.file_digests(trace_dir))
    (trace_dir / "x.json").write_text('{"a": ')
    assert checks.check_parses(trace_dir / "x.json")
    with open(trace_dir / "honest_rounds.csv", "a") as fh:
        fh.write("1,2\r\n")
    assert checks.check_parses(trace_dir / "honest_rounds.csv")
