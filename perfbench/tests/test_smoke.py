"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs at the tiny input size, traced and untraced, and
must print exactly the metric names of BENCHMARK.json. The output
checks must report tampered outputs and wrong digests as failures.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "0", "--seconds", "0.5",
                         "--trace", trace, "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_benchmark("--workload", "train", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def deploy_pass(tmp_path_factory):
    """One tiny randomspan pass: (workload, state, output directory)."""
    base = tmp_path_factory.mktemp("deploy")
    wl = bench.WORKLOADS["deploy-randomspan"]()
    inputs = wl.make_inputs(base / "inputs", 0, "tiny")
    state = wl.setup(inputs)
    out = base / "out"
    out.mkdir()
    wl.run_pass(state, 0, out)
    return wl, state, out


def _copy_outputs(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for name in ("masked.jsonl", "summary.json"):
        shutil.copy(src / name, dst / name)
    return dst


def test_untouched_output_passes_every_check(deploy_pass):
    wl, state, out = deploy_pass
    assert wl.check(state, 0, out, {}) == []
    reference = bench.load_reference()["deploy-randomspan"]["tiny"]
    assert wl.check_reference(wl.digests(out, {}), {}, reference) == []


def test_tampered_target_is_a_failure(deploy_pass, tmp_path):
    wl, state, out = deploy_pass
    tampered = _copy_outputs(out, tmp_path / "t")
    lines = (tampered / "masked.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["target_ids"][0] += 1
    lines[0] = json.dumps(record, sort_keys=True)
    (tampered / "masked.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = wl.check(state, 0, tampered, {})
    assert any("reconstruct" in p for p in problems)


def test_dropped_example_is_a_failure(deploy_pass, tmp_path):
    wl, state, out = deploy_pass
    tampered = _copy_outputs(out, tmp_path / "t")
    lines = (tampered / "masked.jsonl").read_text(encoding="utf-8").splitlines()
    (tampered / "masked.jsonl").write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    problems = wl.check(state, 0, tampered, {})
    assert any("chunk_document" in p for p in problems)


def test_wrong_digest_is_a_failure(deploy_pass):
    wl, _, out = deploy_pass
    wrong = {"digests": {"masked.jsonl": "0" * 64, "summary.json": "0" * 64}}
    assert len(wl.check_reference(wl.digests(out, {}), {}, wrong)) == 2


def test_a_problem_fails_every_operation_of_the_run():
    run = bench.Run()
    run.attempted = 40
    assert run.outcome() == (True, 40, 0)
    run.problem("outputs: masked.jsonl digest differs")
    assert run.outcome() == (False, 40, 40)


def test_training_log_checks():
    log = [{"epoch": 1, "train_loss": 2.5, "valid_loss": 2.4, "chosen": False},
           {"epoch": 2, "train_loss": 2.3, "valid_loss": 2.2, "chosen": True}]
    assert checks.check_training_log(log) == []
    assert checks.check_log_reference(log, log) == []
    drifted = [dict(r, valid_loss=r["valid_loss"] * (1 + 1e-4)) for r in log]
    assert len(checks.check_log_reference(drifted, log)) == 2
    broken = [dict(log[0], train_loss=float("nan")), log[1]]
    assert checks.check_training_log(broken)
