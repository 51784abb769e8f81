"""Benchmark entry point for the THERMAL-JOIN reproduction.

Runs one workload and prints its metrics, one per line with the unit,
then a JSON object on the last stdout line::

    python3 perfbench/run.py --workload uniform-rejoin --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``uniform-rejoin``
    20k objects at the paper's uniform density, every object moving
    every step, full THERMAL-JOIN re-join per step on ``process:2``.
``neural-maintained``
    20k neural-morphology segments, 2 % of them moving per step, the
    pair set maintained incrementally on the serial executor with a
    durable checkpoint every 5 steps.
``service-epochs``
    the sharded async ``JoinService`` over 2k uniform objects: per
    epoch one motion frame is pushed, then 4 closed-loop clients each
    send 5 queries; every epoch's 20 queries are 60 % join, 20 %
    neighbors and 20 % distance, dealt to the clients by the seed.

``--trace 0`` measures with tracing off for ``--seconds`` (in whole
passes of the workload, at least a fixed number) and reports the
end-to-end metrics.  ``--trace 1`` makes an untraced and a traced run
of two passes each, each in its own process, requires their exact
counters to agree, and reports the per-layer metrics (per-pass totals
or ratios) plus the tracing overhead.

Every run checks its outputs against an independent reference join
(``reference.py``, sharing no code with the program)
and requires every pass of one seed to repeat the first pass's exact
counters; any failed check makes the result ``"correct": false`` and
the exit code 1.  The run refuses to start (exit code 2, no result)
when an environment variable that changes what is measured is set,
when the host has fewer CPUs than the workload's executor needs, or
when the program's sources are not in ``src/``.

Self-test at smoke scale: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: Environment variables that would silently change what is measured.
REFUSED_ENV = (
    "REPRO_FAULTS",
    "REPRO_TRACE",
    "REPRO_INCREMENTAL",
    "REPRO_EXECUTOR",
    "REPRO_KERNELS",
    "REPRO_TASK_TIMEOUT",
    "REPRO_TASK_RETRIES",
)

#: Executor spec per workload, pinned so no environment default applies.
EXECUTORS = {
    "uniform-rejoin": "process:2",
    "neural-maintained": "serial",
    "service-epochs": "serial",
}

#: A ``.tail`` metric is the highest whole percentile that keeps at
#: least this many samples beyond it, given the samples a run is
#: guaranteed to take (its minimum number of passes).
TAIL_BEYOND = 10

#: Passes of the untraced and of the traced run behind ``--trace 1``.
TRACE_PASSES = 2

#: Every child process must end before the whole run's limit.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "step_s.p50": "s",
    "step_s.tail": "s",
    "steps_per_s": "1/s",
    "query_s.p50": "s",
    "query_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kernels.cell_pair_sweep_s": "s",
    "kernels.hot_cell_emit_s": "s",
    "kernels.self_join_groups_s": "s",
    "kernels.cross_join_groups_s": "s",
    "kernels.tgrid_s": "s",
    "kernels.overlap_tests": "count",
    "kernels.selectivity": "ratio",
    "kernels.shortcut_pairs": "count",
    "engine.verify_s": "s",
    "engine.merge_s": "s",
    "engine.tasks": "count",
    "engine.task_cpu_s": "s",
    "engine.verify_parallelism": "ratio",
    "engine.task_retries": "count",
    "engine.unaccounted_s": "s",
    "incremental.steps": "count",
    "incremental.fallbacks": "count",
    "incremental.pairs_reverified": "count",
    "incremental.reuse_ratio": "ratio",
    "pairs.seed_s": "s",
    "core.prepare_s": "s",
    "core.partition_s": "s",
    "core.rebuilds": "count",
    "core.tuner_moves": "count",
    "core.cells_created": "count",
    "core.hot_spot_cells": "count",
    "core.tgrid_cells": "count",
    "core.memory_bytes": "bytes",
    "datasets.motion_s": "s",
    "recovery.checkpoint_s": "s",
    "recovery.checkpoint_bytes": "bytes",
    "recovery.checkpoints": "count",
    "service.update_s": "s",
    "service.compute_s": "s",
    "service.shard_s": "s",
    "service.boundary_s": "s",
    "service.boundary_tests": "count",
    "service.queue_wait_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.batched_ratio": "ratio",
    "service.rehomes": "count",
    "service.stale_served": "count",
    "obs.trace_overhead": "ratio",
}


class Refused(Exception):
    """The run cannot measure what the benchmark defines."""


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples beyond it."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / min_samples)))


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def preflight(workload: str, root: Path) -> None:
    set_vars = [name for name in REFUSED_ENV if name in os.environ]
    if set_vars:
        raise Refused(f"unset {', '.join(set_vars)}: they change what is measured")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise Refused(f"no program sources under {root / 'src'}")
    spec = EXECUTORS[workload]
    workers = int(spec.split(":")[1]) if ":" in spec else 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if workers > (cpus or 1):
        raise Refused(f"{workload} runs {spec} but only {cpus} CPUs are available")


def run_child(args: argparse.Namespace, root: Path, traced: bool, seconds: float,
              passes: int | None, deadline: float) -> dict[str, Any]:
    """Run the workload in a fresh process; returns its report."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--traced", str(int(traced)), "--size", args.size,
    ]
    if passes is not None:
        command += ["--passes", str(passes)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # A new process group, so a timeout also stops the executor's workers.
    child = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {child.returncode}")
    report = json.loads(lines[-1])
    if not str(report.get("repro_file", "")).startswith(str(root / "src")):
        raise RuntimeError(f"repro was imported from {report.get('repro_file')}, not {root / 'src'}")
    return report


def end_to_end(report: dict[str, Any]) -> dict[str, float]:
    step_tail = tail_percentile(report["min_samples"]["step"])
    query_tail = tail_percentile(report["min_samples"]["query"])
    return {
        "step_s.p50": statistics.median(report["step_s"]),
        "step_s.tail": percentile(report["step_s"], step_tail),
        "steps_per_s": report["steps"] / sum(report["pass_s"]),
        "query_s.p50": statistics.median(report["query_s"]),
        "query_s.tail": percentile(report["query_s"], query_tail),
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def print_report(workload: str, plain: dict[str, Any],
                 metrics: dict[str, float], units: dict[str, str]) -> None:
    env = plain["environment"]
    floors = plain["min_samples"]
    print(
        f"# {workload} seed={plain['seed']} n={env['n_objects']} executor={env['executor']} "
        f"kernels={env['kernel_backend']} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']}"
    )
    print(
        f"# {plain['passes']} passes, {len(plain['step_s'])} step samples "
        f"(tail = p{tail_percentile(floors['step'])}), {len(plain['query_s'])} query samples "
        f"(tail = p{tail_percentile(floors['query'])})"
    )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if workload == "service-epochs" and "step_s.p50" in metrics:
        print(f"epoch_s.p50 {metrics['step_s.p50']:.6g} s  (= step_s.p50: one epoch is one step)")
        print(f"queries_per_s {plain['queries'] / sum(plain['pass_s']):.6g} 1/s")
    print(f"failed_frac {plain['failed'] / max(plain['attempted'], 1):.6g} ratio")
    for row in plain.get("layer_rows", []):
        print(
            "# traced step {step:>2} {mode:<11} wall {wall_s:.4f} s = motion {motion_s:.4f}"
            " + stages {stages_s:.4f} + checkpoint {checkpoint_s:.4f}"
            " + unaccounted {unaccounted_s:.4f} (maintained-set seeding {seed_s:.4f})".format(**row)
        )
    for name in plain.get("missing_probes", []):
        print(f"# probe unavailable, its per-layer metrics read 0: {name}")
    for check in plain["checks"]:
        print(f"# check {'ok  ' if check['ok'] else 'FAIL'} {check['name']} {check['detail']}")
    for failure in plain["failures"]:
        print(f"# failed operation: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXECUTORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs for the self-test (default: full)",
    )
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    deadline = time.monotonic() + DEADLINE_S
    try:
        preflight(args.workload, root)
        if args.trace == 0:
            plain = run_child(args, root, False, args.seconds, None, deadline)
            checks = list(plain["checks"])
            metrics = end_to_end(plain)
            units = END_TO_END_UNITS
        else:
            plain = run_child(args, root, False, 0.0, TRACE_PASSES, deadline)
            traced = run_child(args, root, True, 0.0, TRACE_PASSES, deadline)
            checks = list(plain["checks"]) + list(traced["checks"])
            checks.append(
                {
                    "name": "traced counters equal untraced counters",
                    "ok": traced["counters"] == plain["counters"],
                    "detail": "",
                }
            )
            metrics = {name: float(traced["layers"].get(name, 0.0)) for name in PER_LAYER_UNITS}
            metrics["obs.trace_overhead"] = sum(traced["pass_s"]) / sum(plain["pass_s"]) - 1.0
            units = PER_LAYER_UNITS
            plain["checks"] = checks
            plain["layer_rows"] = traced["layer_rows"]
            plain["missing_probes"] = traced["missing_probes"]
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print_report(args.workload, plain, metrics, units)
    correct = all(check["ok"] for check in checks)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(plain["attempted"]),
                "failed": int(plain["failed"]),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
