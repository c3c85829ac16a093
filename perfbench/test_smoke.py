"""Smoke test of the benchmark at its short sizes.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SEED  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "solve-default", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--size", "short")
    doc = _result(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 6
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_accounts_for_the_wall(workload):
    # the short sizes are below the acceptance sizes, so the statistical study
    # flags are only known to hold on the reference seed
    doc = _result(_run("--workload", workload, "--seed", str(REFERENCE_SEED),
                       "--seconds", "1", "--trace", "1", "--size", "short"))
    assert doc["correct"] and doc["failed"] == 0
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    from tracer import LAYERS
    total = sum(metrics[f"{layer}_s"] for layer in LAYERS)
    assert total + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.targets_absent"] == 0
    if workload.startswith("solve"):
        assert metrics["solver.fft_calls_per_step"] == 4


def test_absent_target_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    monkeypatch.setitem(tracer.LAYERS, "solver.gone",
                        [("solver", "no_such_function")])
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["solver.gone (sprinkled_nls.solver.no_such_function)"]
    finally:
        t.uninstall()
    assert t.summary()["trace.targets_absent"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "solve-default", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
