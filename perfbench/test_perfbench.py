"""Tests of the benchmark itself: count determinism, the layer/workload
matrix, the output check's tolerance, and the tracer's transparency.

    python3 -m pytest perfbench -q

They run small configs of the same subcommands and thread settings as the
workloads, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import check  # noqa: E402
from run import Bench  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL_COMPARE = Workload(
    "small-compare", "compare",
    {"n": 300, "d": 8, "beta": 1.0, "c": 0.01, "scale": 5.0, "trials": 5, "replicates": 70},
    threads=2, blas_threads=1, why="two replicate blocks through the thread pool")
SMALL_VERIFY = Workload(
    "small-verify", "verify", {"d": 8, "mc_m_estimate": 4000, "mc_chisq": 4000},
    threads=1, blas_threads=1, why="every verify check, small Monte Carlo")
SEED = 11


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _count_metrics():
    return [m["name"] for m in _spec()["per_layer"] if m["unit"] in ("count", "bytes")]


def _traced(workload):
    bench = Bench(ROOT, workload, SEED)
    try:
        metrics, attempted, failed, problems = bench.traced()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    assert problems == [] and failed == 0 and attempted == 2
    return metrics


@pytest.fixture(scope="module")
def compare_traces():
    # The second run's scratch directory has another name (it includes the
    # workload's name), so an absolute path in the output would show up as a
    # difference in harness.bytes_written.
    elsewhere = replace(SMALL_COMPARE, name="small-compare-in-a-longer-scratch-path")
    return [_traced(SMALL_COMPARE), _traced(elsewhere)]


@pytest.fixture(scope="module")
def verify_traces():
    return [_traced(SMALL_VERIFY) for _ in range(2)]


def test_spec_matches_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS.values():
        assert wl.threads * wl.blas_threads <= 2


def test_traced_run_reports_every_per_layer_metric(compare_traces):
    assert set(compare_traces[0]) == {m["name"] for m in _spec()["per_layer"]}


@pytest.mark.parametrize("traces", ["compare_traces", "verify_traces"])
def test_counts_repeat_exactly(traces, request):
    first, second = request.getfixturevalue(traces)
    for name in _count_metrics():
        assert first[name] == second[name], name


def test_compare_work_counts(compare_traces):
    m = compare_traces[0]
    cfg = SMALL_COMPARE.config
    n, trials, replicates = cfg["n"], cfg["trials"], cfg["replicates"]
    # one Oja pass per trial plus the bootstrap's plain track
    assert m["oja.steps"] == (trials + 1) * n
    assert m["model.sample_x.rows"] == (trials + 1) * n
    assert m["bootstrap.replicate_steps"] == replicates * n
    assert m["harness.bytes_written"] > 0
    # no reference law, no Hoeffding oracle, no closed-form covariance
    assert m["reference.mc_values"] == 0
    assert m["hoeffding.terms"] == 0
    assert m["bootstrap.bootstrap_covariance.self_s"] == 0.0
    assert 0.0 < m["harness.parallel_efficiency"] <= 1.0


def test_verify_layer_matrix(verify_traces):
    m = verify_traces[0]
    assert m["oja.steps"] == 0
    assert m["bootstrap.replicate_steps"] == 0
    assert m["harness.parallel_efficiency"] == 0.0
    assert m["reference.mc_values"] > 0
    assert m["hoeffding.terms"] > 0
    assert m["linalg.eigh.calls"] > 0


@pytest.fixture(scope="module")
def output(tmp_path_factory):
    """Output directory of one untraced SMALL_COMPARE run that passed its check."""
    bench = Bench(ROOT, SMALL_COMPARE, SEED)
    try:
        _, out, _, problems = bench.run_checked("check", {})
        assert problems == []
        kept = tmp_path_factory.mktemp(SMALL_COMPARE.name) / "out"
        shutil.copytree(out, kept)
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    return kept


def test_recompute_tolerance_has_margin(output, monkeypatch):
    monkeypatch.setattr(check, "RECOMPUTE_RTOL", check.RECOMPUTE_RTOL / 100)
    assert check.check_compare(output, SMALL_COMPARE.config, SEED) == []


@pytest.mark.parametrize("attr, value", [("W_VARIANCE", 1.0), ("SQRT3", 1.7)])
def test_recompute_catches_a_wrong_kernel(output, monkeypatch, attr, value):
    monkeypatch.setattr(check, attr, value)
    problems = check.check_compare(output, SMALL_COMPARE.config, SEED)
    assert problems and all("recomputed" in p for p in problems)


def test_check_rejects_an_edited_csv(output, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(output, out)
    csv = out / "sampling_cdf.csv"
    lines = csv.read_text().splitlines()
    t, f = lines[2].split(",")
    lines[2] = f"{float(t) * (1 + 1e-6)!r},{f}"
    csv.write_text("\n".join(lines) + "\n")
    assert check.check_compare(out, SMALL_COMPARE.config, SEED) != []


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
