"""Smoke-scale self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload at a tiny size, untraced and traced, and checks
that the result line carries every metric ``BENCHMARK.json`` names,
with its unit, and that every output check passed.  Also checks the
refusals: a measurement-changing environment variable, and a checkout
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, env: dict[str, str] | None = None) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170, check=False,
    )


def clean_env() -> dict[str, str]:
    return {key: value for key, value in os.environ.items() if key not in run.REFUSED_ENV}


def test_spec_matches_run_py() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.EXECUTORS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.EXECUTORS))
def test_smoke_run_emits_every_metric(workload: str, trace: str) -> None:
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
        "--size", "smoke", env=clean_env(),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert "# check FAIL" not in done.stdout


def test_refuses_measurement_changing_environment() -> None:
    env = clean_env()
    env["REPRO_EXECUTOR"] = "thread:2"
    done = bench(
        "--workload", "neural-maintained", "--seed", "1", "--seconds", "1", "--trace", "0",
        "--size", "smoke", env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "REPRO_EXECUTOR" in done.stderr


def test_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "--workload", "uniform-rejoin", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, env=clean_env(),
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    for samples in (20, 50, 60, 90, 600):
        pct = run.tail_percentile(samples)
        assert samples * (100 - pct) / 100 >= run.TAIL_BEYOND
        assert samples * (100 - pct - 1) / 100 < run.TAIL_BEYOND
