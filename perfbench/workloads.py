"""One benchmark workload, run in a fresh process.

``run.py`` starts this script once per measurement so that peak
memory, the lazily spawned process pool and the kernel dispatch
counters never leak from one workload (or from the untraced run) into
another.  It prints one JSON object on its last stdout line: the raw
timing samples, the exact counters of every pass, the output checks
and, when ``--traced 1``, the per-layer breakdown.

A *pass* is one complete trajectory of a workload on a freshly set-up
program: 20 simulation steps, 30 maintained steps or 20 service
epochs.  Passes repeat until ``--seconds`` of measured time have been
spent (at least ``min_passes``); every pass of one seed must reproduce
the first pass's counters exactly.

Only public calls of the ``repro`` package are made.  The untraced
run times each step (or epoch) and each query from outside; its only
hook is a timer around the runner's join call, which is the step's
query.  The traced run adds the engine's own tracer and class-level
timers around a few public methods (:class:`Probes`).

Usage (normally through ``run.py``)::

    python3 perfbench/workloads.py --workload uniform-rejoin --seed 1 \\
        --seconds 20 --traced 0
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import ThermalJoin
from repro.datasets import IntermittentTranslation, RandomTranslation, SpatialDataset
from repro.experiments.workloads import scaled_neural, scaled_uniform
from repro.obs import Tracer, set_tracer
from repro.service import JoinService, ServiceOverloadedError
from repro.simulation import SimulationRunner
import reference
from run import EXECUTORS

#: Sizes per workload.  ``full`` is the measured benchmark; ``smoke``
#: only proves that every metric is emitted and every check passes.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "uniform-rejoin": {"n": 20_000, "steps": 20, "min_passes": 4},
        "neural-maintained": {
            "n": 20_000, "steps": 30, "min_passes": 4, "checkpoint_every": 5,
        },
        "service-epochs": {
            "n": 2_000, "epochs": 20, "min_passes": 2, "shards": 4,
            "clients": 4, "queries": 5,
        },
    },
    "smoke": {
        "uniform-rejoin": {"n": 800, "steps": 4, "min_passes": 2},
        "neural-maintained": {
            "n": 800, "steps": 8, "min_passes": 2, "checkpoint_every": 3,
        },
        "service-epochs": {
            "n": 400, "epochs": 3, "min_passes": 2, "shards": 3,
            "clients": 4, "queries": 5,
        },
    },
}

#: Set-ups timed per run (each pass sets up once; extra set-ups of
#: throw-away instances top the sample up to this count).
MIN_SETUPS = 15

#: The service's client query mix: kind -> share of every epoch's
#: queries.  Every epoch sends exactly this mix; the seed only deals it
#: out to the clients' slots, so epochs stay comparable across seeds.
QUERY_MIX = {"join": 0.6, "neighbors": 0.2, "distance": 0.2}
QUERY_DISTANCE = 1.0

#: Engine task class -> verify-kernel family it drives.
KERNEL_FAMILIES = {
    "CellPairSweepTask": "cell_pair_sweep",
    "HotCellsTask": "hot_cell_emit",
    "GroupSelfJoinTask": "self_join_groups",
    "GroupCrossJoinTask": "cross_join_groups",
    "TGridCellsTask": "tgrid",
}
STAGES = ("prepare", "partition", "verify", "merge")

#: Degradation event kinds (the runner's ``StepRecord.degraded`` set).
DEGRADED_EVENTS = ("pool_broken", "pool_rebuild", "degraded")

#: Scratch directory for checkpoints, inside the checkout.
WORK_DIR = Path(".perfbench_work")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _hwm_kb(pid: int | str) -> int:
    """Peak resident set (VmHWM) of one process in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children_hwm_kb() -> int:
    """Summed peak RSS of this process's live children (pool workers)."""
    total = 0
    task_dir = Path("/proc/self/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return 0
    for task in tasks:
        try:
            pids = (task / "children").read_text().split()
        except OSError:
            continue
        total += sum(_hwm_kb(pid) for pid in pids)
    return total


@dataclass
class Memory:
    """Peak RSS of this process plus its executor workers."""

    workers_kb: int = 0

    def sample_workers(self) -> None:
        self.workers_kb = max(self.workers_kb, _children_hwm_kb())

    def peak_mb(self) -> float:
        return (_hwm_kb("self") + self.workers_kb) / 1024.0


# ----------------------------------------------------------------------
# Traced-run probes
# ----------------------------------------------------------------------
class Probes:
    """Class-level timers around public calls, for the traced run only.

    Every join call of every :class:`ThermalJoin` instance (the
    service's shard joins included) is recorded with its public
    statistics; P-Grid constructions, tuner moves, maintained-set
    seeding, motion steps and the shard ring's update and query calls
    are timed or counted.  :meth:`restore` undoes every patch.
    """

    def __init__(self) -> None:
        self.joins: list[dict[str, Any]] = []
        self.pgrid_builds = 0
        self.tuner_moves = 0
        self.seed_s = 0.0
        self.motion_s = 0.0
        self.update_s = 0.0
        self.compute_s = 0.0
        self.missing: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._depth = 0

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        if not hasattr(owner, name):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def install(self, motion_classes: tuple[type, ...]) -> None:
        import repro.core.thermal as thermal
        from repro.core import HillClimbingTuner
        from repro.service import ShardRing

        probes = self

        def join_call(original: Any) -> Any:
            def wrapper(join: Any, *args: Any, **kwargs: Any) -> Any:
                probes._depth += 1
                try:
                    result = original(join, *args, **kwargs)
                finally:
                    probes._depth -= 1
                if probes._depth == 0:
                    info = getattr(join, "last_step_info", {}) or {}
                    stats = result.stats
                    probes.joins.append(
                        {
                            "n_results": int(result.n_results),
                            "overlap_tests": int(stats.overlap_tests),
                            "join_seconds": float(stats.join_seconds),
                            "memory_bytes": int(stats.memory_bytes),
                            "incremental": dict(
                                stats.index_counters.get("incremental", {})
                            ),
                            **{
                                key: int(info.get(key, 0))
                                for key in ("cells_created", "hot_spot_cells", "tgrid_cells")
                            },
                        }
                    )
                return result

            return wrapper

        for name in ("step", "step_delta"):
            self._patch(ThermalJoin, name, join_call(getattr(ThermalJoin, name)))

        def timed_subclass(base: type, on_init: Any) -> type:
            class Timed(base):  # type: ignore[misc, valid-type]
                def __init__(self, *args: Any, **kwargs: Any) -> None:
                    started = time.perf_counter()
                    super().__init__(*args, **kwargs)
                    on_init(time.perf_counter() - started)

            Timed.__name__ = Timed.__qualname__ = base.__name__
            return Timed

        def count_build(_: float) -> None:
            probes.pgrid_builds += 1

        def add_seed(seconds: float) -> None:
            probes.seed_s += seconds

        for name, on_init in (("PGrid", count_build), ("MaintainedPairSet", add_seed)):
            base = getattr(thermal, name, None)
            if base is None:
                self.missing.append(f"repro.core.thermal.{name}")
            else:
                self._patch(thermal, name, timed_subclass(base, on_init))

        observe = HillClimbingTuner.observe

        def counted_observe(tuner: Any, cost: float) -> bool:
            moved = observe(tuner, cost)
            probes.tuner_moves += int(bool(moved))
            return moved

        self._patch(HillClimbingTuner, "observe", counted_observe)

        def timed(original: Any, attribute: str) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    setattr(
                        probes,
                        attribute,
                        getattr(probes, attribute) + time.perf_counter() - started,
                    )

            return wrapper

        for motion_class in motion_classes:
            self._patch(motion_class, "step", timed(motion_class.step, "motion_s"))
        self._patch(ShardRing, "apply_update", timed(ShardRing.apply_update, "update_s"))
        for name in ("join_pairs", "distance_pairs"):
            self._patch(ShardRing, name, timed(getattr(ShardRing, name), "compute_s"))


class Layers:
    """Accumulates the traced run's per-layer totals over its passes."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.task_wall = 0.0
        self.verify_wall = 0.0
        self.results = 0
        self.reused = 0
        self.maintained = 0
        self.memory_bytes = 0
        self.passes = 0
        #: Per-step attribution of the first pass (step workloads).
        self.rows: list[dict[str, Any]] = []

    def add_spans(self, spans: list[Any]) -> float:
        """Fold one step's (or epoch's) spans in; returns Σ stage wall."""
        stage_wall = 0.0
        for span in spans:
            if span.name in STAGES and span.parent_id is not None:
                key = "core" if span.name in ("prepare", "partition") else "engine"
                self.totals[f"{key}.{span.name}_s"] += span.wall_seconds
                stage_wall += span.wall_seconds
                if span.name == "verify":
                    self.verify_wall += span.wall_seconds
            elif span.name.startswith("task:"):
                family = KERNEL_FAMILIES.get(span.name[len("task:"):], "other")
                self.totals[f"kernels.{family}_s"] += span.wall_seconds
                self.totals["engine.tasks"] += 1
                self.totals["engine.task_cpu_s"] += span.cpu_seconds
                self.task_wall += span.wall_seconds
                counters = span.counters
                self.totals["kernels.overlap_tests"] += int(counters.get("overlap_tests", 0))
                self.totals["kernels.shortcut_pairs"] += int(counters.get("shortcut_pairs", 0))
        return stage_wall

    def add_joins(self, joins: list[dict[str, Any]]) -> None:
        for join in joins:
            self.results += join["n_results"]
            self.memory_bytes = max(self.memory_bytes, join["memory_bytes"])
            for key in ("cells_created", "hot_spot_cells", "tgrid_cells"):
                self.totals[f"core.{key}"] += join[key]
            incremental = join["incremental"]
            mode = incremental.get("mode")
            if mode == "incremental":
                self.totals["incremental.steps"] += 1
                self.totals["incremental.pairs_reverified"] += int(
                    incremental.get("pairs_reverified", 0)
                )
                self.reused += int(incremental.get("pairs_reused", 0))
                self.maintained += int(incremental.get("maintained_pairs", 0))
            elif mode == "fallback":
                self.totals["incremental.fallbacks"] += 1

    def metrics(self, probes: Probes) -> dict[str, float]:
        """Per-pass averages of the totals, plus the ratios."""
        passes = max(self.passes, 1)
        out = {key: value / passes for key, value in self.totals.items()}
        for key, value in (
            ("core.rebuilds", probes.pgrid_builds),
            ("core.tuner_moves", probes.tuner_moves),
            ("pairs.seed_s", probes.seed_s),
            ("datasets.motion_s", probes.motion_s),
            ("service.update_s", probes.update_s),
            ("service.compute_s", probes.compute_s),
        ):
            out[key] = value / passes
        tests = self.totals.get("kernels.overlap_tests", 0.0)
        out["kernels.selectivity"] = self.results / tests if tests else 0.0
        out["engine.verify_parallelism"] = (
            self.task_wall / self.verify_wall if self.verify_wall else 0.0
        )
        out["incremental.reuse_ratio"] = (
            self.reused / self.maintained if self.maintained else 0.0
        )
        out["core.memory_bytes"] = float(self.memory_bytes)
        return out


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Everything one workload process reports back to ``run.py``."""

    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    steps: int = 0
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counters: Any = None
    checks: list[dict[str, Any]] = field(default_factory=list)
    #: Output checks to run once the measurement (and its peak memory)
    #: is complete.
    deferred: list[Callable[[Outcome], None]] = field(default_factory=list)
    #: Public calls the traced run could not wrap (their metrics read 0).
    missing_probes: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def pass_counters(self, counters: Any) -> None:
        """Record one pass's exact counters; every pass must agree."""
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self.check(
                "counters repeat across passes of one seed",
                False,
                f"pass {len(self.pass_s)} differs from pass 1",
            )


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Step workloads: uniform-rejoin and neural-maintained
# ----------------------------------------------------------------------
@dataclass
class StepInputs:
    centers: np.ndarray
    widths: np.ndarray
    bounds: tuple[np.ndarray, np.ndarray]
    motion_seed: int


def step_inputs(workload: str, n: int, seed: int) -> StepInputs:
    if workload == "uniform-rejoin":
        dataset, _ = scaled_uniform(n, seed=seed)
    else:
        dataset, _, _ = scaled_neural(n, seed=seed)
    lo, hi = dataset.bounds
    return StepInputs(
        dataset.centers.copy(), dataset.widths.copy(), (lo.copy(), hi.copy()), seed + 1
    )


def step_setup(
    workload: str, centers: np.ndarray, inputs: StepInputs, config: dict[str, Any], work: Path
) -> SimulationRunner:
    """Construct the program's objects on the inputs (the timed set-up).

    ``centers`` is a private copy: the dataset adopts it and the motion
    model moves it in place.
    """
    dataset = SpatialDataset(centers, inputs.widths, bounds=inputs.bounds)
    if workload == "uniform-rejoin":
        motion = RandomTranslation(dataset, distance=10.0, seed=inputs.motion_seed)
        join = ThermalJoin(
            count_only=True, pair_maintenance=False, executor=EXECUTORS[workload]
        )
        return SimulationRunner(dataset, motion, join)
    motion = IntermittentTranslation(
        dataset, move_fraction=0.02, distance=1.0, seed=inputs.motion_seed
    )
    join = ThermalJoin(
        count_only=True, pair_maintenance=True, executor=EXECUTORS[workload]
    )
    return SimulationRunner(
        dataset,
        motion,
        join,
        checkpoint_dir=work,
        checkpoint_every=config["checkpoint_every"],
    )


def _record_counters(record: Any) -> list[Any]:
    return [
        int(record.n_results),
        int(record.overlap_tests),
        float(record.index_counters.get("tuner", {}).get("resolution", 0.0)),
        str(record.incremental.get("mode", "off")),
    ]


def _reference_keys(dataset: SpatialDataset) -> np.ndarray:
    return reference.overlap_keys(*reference.boxes(dataset.centers, dataset.widths))


def run_steps(
    workload: str,
    config: dict[str, Any],
    seed: int,
    budget: float,
    passes: int | None,
    traced: bool,
    memory: Memory,
) -> tuple[Outcome, dict[str, float] | None, list[dict[str, Any]]]:
    out = Outcome()
    inputs = step_inputs(workload, config["n"], seed)
    n_steps = config["steps"]
    layers = Layers() if traced else None
    probes = Probes() if traced else None
    tracer = Tracer() if traced else None
    if probes is not None:
        probes.install((RandomTranslation, IntermittentTranslation))
    previous = set_tracer(tracer) if tracer is not None else None
    measured = 0.0
    try:
        while _more(len(out.pass_s), passes, config["min_passes"], measured, budget):
            work = WORK_DIR / f"pass{len(out.pass_s)}"
            centers = inputs.centers.copy()
            started = time.perf_counter()
            runner = step_setup(workload, centers, inputs, config, work)
            out.setup_s.append(time.perf_counter() - started)
            _time_queries(runner.algorithm, out.query_s)
            first_pass = not out.pass_s
            snapshots = {}
            counters = []
            pass_wall = 0.0
            try:
                for step in range(n_steps):
                    checkpoint_before = _checkpoint_seconds(runner)
                    motion_before = probes.motion_s if probes else 0.0
                    seed_before = probes.seed_s if probes else 0.0
                    started = time.perf_counter()
                    runner.run(step + 1)
                    wall = time.perf_counter() - started
                    pass_wall += wall
                    out.step_s.append(wall)
                    out.attempted += 1
                    if runner.failed_step is not None or len(runner.records) != step + 1:
                        out.fail(f"step {step}: {runner.failure!r}")
                        break
                    record = runner.records[-1]
                    counters.append(_record_counters(record))
                    if record.task_retries:
                        out.fail(f"step {step}: {record.task_retries} task retries")
                    elif any(e.get("kind") in DEGRADED_EVENTS for e in record.events):
                        out.fail(f"step {step}: executor degraded")
                    if first_pass and not traced and step in (0, n_steps - 1):
                        snapshots[step] = runner.dataset.copy()
                    if layers is not None and probes is not None and tracer is not None:
                        stage_wall = layers.add_spans(tracer.drain())
                        layers.add_joins(probes.joins)
                        probes.joins.clear()
                        checkpoint = _checkpoint_seconds(runner) - checkpoint_before
                        motion = probes.motion_s - motion_before
                        unaccounted = wall - motion - stage_wall - checkpoint
                        layers.totals["engine.unaccounted_s"] += unaccounted
                        layers.totals["engine.task_retries"] += record.task_retries
                        if first_pass:
                            layers.rows.append(
                                {
                                    "step": step,
                                    "mode": counters[-1][3],
                                    "wall_s": wall,
                                    "motion_s": motion,
                                    "stages_s": stage_wall,
                                    "checkpoint_s": checkpoint,
                                    "seed_s": probes.seed_s - seed_before,
                                    "unaccounted_s": unaccounted,
                                }
                            )
                memory.sample_workers()
                if first_pass and not traced and len(runner.records) == n_steps:
                    out.deferred.append(_check_steps(workload, runner, snapshots))
                if layers is not None and runner.recovery is not None:
                    snap = runner.recovery.snapshot()
                    layers.totals["recovery.checkpoint_s"] += snap["checkpoint_seconds"]
                    layers.totals["recovery.checkpoint_bytes"] += snap["checkpoint_bytes"]
                    layers.totals["recovery.checkpoints"] += snap["checkpoints_written"]
            finally:
                runner.algorithm.executor.close()
                shutil.rmtree(work, ignore_errors=True)
            out.pass_s.append(pass_wall)
            out.steps += n_steps
            out.queries += n_steps
            measured += pass_wall
            if layers is not None:
                layers.passes += 1
            out.pass_counters(counters)
        while len(out.setup_s) < MIN_SETUPS:
            work = WORK_DIR / "setup"
            centers = inputs.centers.copy()
            started = time.perf_counter()
            runner = step_setup(workload, centers, inputs, config, work)
            out.setup_s.append(time.perf_counter() - started)
            runner.algorithm.executor.close()
            shutil.rmtree(work, ignore_errors=True)
    finally:
        if tracer is not None:
            set_tracer(previous)
        if probes is not None:
            probes.restore()
            out.missing_probes = probes.missing
    if layers is None or probes is None:
        return out, None, []
    return out, layers.metrics(probes), layers.rows


def _time_queries(join: Any, samples: list[float]) -> None:
    """Time each join call the runner makes: the step's self-join query."""
    step_delta = join.step_delta

    def timed(dataset: SpatialDataset, delta: Any) -> Any:
        started = time.perf_counter()
        try:
            return step_delta(dataset, delta)
        finally:
            samples.append(time.perf_counter() - started)

    join.step_delta = timed


def _checkpoint_seconds(runner: SimulationRunner) -> float:
    if runner.recovery is None:
        return 0.0
    return float(runner.recovery.snapshot()["checkpoint_seconds"])


def _more(done: int, passes: int | None, min_passes: int, measured: float, budget: float) -> bool:
    if passes is not None:
        return done < passes
    return done < min_passes or measured < budget


def _check_steps(
    workload: str, runner: SimulationRunner, snapshots: dict[int, SpatialDataset]
) -> Callable[[Outcome], None]:
    """Keep what the output check needs; returns the deferred check.

    The check compares the first and last steps with an independent
    join.  It runs after the peak memory is read, so the reference
    join's memory is not charged to the program.
    """
    records = runner.records
    counts = {step: records[step].n_results for step in snapshots}
    maintained = None
    if workload == "neural-maintained":
        arrays, _ = runner.algorithm.snapshot_state()
        maintained = np.sort(np.asarray(arrays.get("maintained_keys", []), dtype=np.int64))

    def check(out: Outcome) -> None:
        for step, dataset in sorted(snapshots.items()):
            expected = _reference_keys(dataset)
            out.check(
                f"step {step} result count matches the reference join",
                expected.size == counts[step],
                f"{counts[step]} vs {expected.size}",
            )
            if maintained is not None and step == max(snapshots):
                out.check(
                    "final maintained pair set equals the reference join",
                    np.array_equal(maintained, expected),
                    f"{maintained.size} vs {expected.size} pairs",
                )

    return check


# ----------------------------------------------------------------------
# Service workload: service-epochs
# ----------------------------------------------------------------------
@dataclass
class ServiceInputs:
    centers: np.ndarray
    widths: np.ndarray
    bounds: tuple[np.ndarray, np.ndarray]
    frames: list[np.ndarray]
    plan: np.ndarray  # (epochs, clients, queries) of query-kind names


def service_inputs(config: dict[str, Any], seed: int) -> ServiceInputs:
    dataset, motion = scaled_uniform(config["n"], seed=seed)
    lo, hi = dataset.bounds
    centers, widths = dataset.centers.copy(), dataset.widths.copy()
    frames = []
    for _ in range(config["epochs"] - 1):
        motion.step(dataset)
        frames.append(dataset.centers.copy())
    slots = config["clients"] * config["queries"]
    counts = {kind: round(share * slots) for kind, share in QUERY_MIX.items()}
    mix = np.repeat(list(counts), list(counts.values()))
    if mix.size != slots:
        raise ValueError(f"query mix {QUERY_MIX} does not divide {slots} slots")
    rng = np.random.default_rng(seed + 2)
    plan = np.stack(
        [rng.permutation(mix).reshape(config["clients"], config["queries"])
         for _ in range(config["epochs"])]
    )
    return ServiceInputs(centers, widths, (lo.copy(), hi.copy()), frames, plan)


def _answer_digest(answer: Any) -> str:
    if answer.adjacency is not None:
        return _digest(*answer.adjacency)
    return _digest(*answer.pairs)


async def _start_service(
    inputs: ServiceInputs, config: dict[str, Any], out: Outcome
) -> JoinService:
    """Construct and start the service on the inputs (the timed set-up)."""
    centers = inputs.centers.copy()
    started = time.perf_counter()
    service = JoinService(
        SpatialDataset(centers, inputs.widths, bounds=inputs.bounds),
        n_shards=config["shards"],
        executor=EXECUTORS["service-epochs"],
    )
    await service.start()
    out.setup_s.append(time.perf_counter() - started)
    return service


async def _setup_only(inputs: ServiceInputs, config: dict[str, Any], out: Outcome) -> None:
    service = await _start_service(inputs, config, out)
    await service.stop()


async def _service_pass(
    inputs: ServiceInputs,
    config: dict[str, Any],
    out: Outcome,
    layers: Layers | None,
    tracer: Tracer | None,
    probes: Probes | None,
) -> list[Any]:
    """One pass: set up the service, drive every epoch, tear down."""
    service = await _start_service(inputs, config, out)
    compute_before = probes.compute_s if probes else 0.0
    counters: list[Any] = []
    latencies: list[float] = []
    pass_wall = 0.0
    epoch_answers: list[tuple[int, int, Any]] = []

    async def client(epoch: int, index: int) -> None:
        for q, kind in enumerate(inputs.plan[epoch, index]):
            sent = time.perf_counter()
            try:
                if kind == "join":
                    answer = await service.join()
                elif kind == "neighbors":
                    answer = await service.neighbors()
                else:
                    answer = await service.distance(QUERY_DISTANCE)
            except ServiceOverloadedError as exc:
                out.fail(f"epoch {epoch}: refused: {exc}")
                continue
            latencies.append(time.perf_counter() - sent)
            epoch_answers.append((index, q, answer))

    try:
        for epoch in range(config["epochs"]):
            epoch_answers.clear()
            started = time.perf_counter()
            if epoch:
                await service.update(inputs.frames[epoch - 1])
            await asyncio.gather(*(client(epoch, c) for c in range(config["clients"])))
            wall = time.perf_counter() - started
            pass_wall += wall
            out.step_s.append(wall)
            out.attempted += (1 if epoch else 0) + config["clients"] * config["queries"]
            # Outside the timed window: digest this epoch's answers.
            for index, q, answer in sorted(epoch_answers, key=lambda a: a[:2]):
                if answer.stale or answer.degraded:
                    out.fail(f"epoch {epoch}: {'stale' if answer.stale else 'degraded'} answer")
                counters.append(
                    [epoch, index, q, answer.kind, int(answer.epoch),
                     int(answer.n_results), _answer_digest(answer), bool(answer.cached)]
                )
            if layers is not None and tracer is not None and probes is not None:
                record = service.ring.epoch_record(epoch, 0)
                stage_wall = layers.add_spans(tracer.drain())
                layers.add_joins(probes.joins)
                shard_join_s = sum(join["join_seconds"] for join in probes.joins)
                probes.joins.clear()
                layers.totals["engine.unaccounted_s"] += wall - stage_wall
                layers.totals["engine.task_retries"] += record.task_retries
                layers.totals["service.boundary_s"] += max(record.join_seconds - shard_join_s, 0.0)
                ring = record.index_counters.get("ring", {})
                layers.totals["service.boundary_tests"] += int(ring.get("boundary_tests", 0))
        snapshot = service.ring.metrics.snapshot()
    finally:
        await service.stop()
    out.query_s.extend(latencies)
    out.queries += len(latencies)
    out.pass_s.append(pass_wall)
    out.steps += config["epochs"]
    frontend = snapshot.get("frontend", {})
    cache = snapshot.get("cache", {})
    ring = snapshot.get("ring", {})
    counters.append(
        {
            "cache_hits": cache.get("hits"),
            "cache_misses": cache.get("misses"),
            "batched": frontend.get("batched"),
            "rejected": frontend.get("rejected"),
        }
    )
    if layers is not None:
        shard_s = sum(
            float(values.get("seconds", 0.0))
            for name, values in snapshot.items()
            if name.startswith("shard")
        )
        layers.totals["service.shard_s"] += shard_s
        answered = frontend.get("answered", 0) or 0
        lookups = (cache.get("hits", 0) or 0) + (cache.get("misses", 0) or 0)
        layers.totals["service.cache_hit_ratio"] += (cache.get("hits", 0) or 0) / lookups if lookups else 0.0
        layers.totals["service.batched_ratio"] += (frontend.get("batched", 0) or 0) / answered if answered else 0.0
        layers.totals["service.rehomes"] += int(ring.get("rehomes", 0))
        layers.totals["service.stale_served"] += int(ring.get("stale_served", 0))
        compute = probes.compute_s - compute_before if probes else 0.0
        layers.totals["service.queue_wait_s"] += max(sum(latencies) - compute, 0.0)
    return counters


def _check_service(inputs: ServiceInputs, counters: list[Any], out: Outcome) -> None:
    """Compare every answer with a library join on the saved frame."""
    expected: dict[tuple[int, str], tuple[int, str]] = {}
    n = len(inputs.centers)
    for epoch in range(len(inputs.frames) + 1):
        centers = inputs.centers if epoch == 0 else inputs.frames[epoch - 1]
        keys = reference.overlap_keys(*reference.boxes(centers, inputs.widths))
        expected[epoch, "join"] = (keys.size, _digest(*reference.pairs(keys, n)))
        expected[epoch, "neighbors"] = (keys.size, _digest(*reference.adjacency(keys, n)))
        keys = reference.overlap_keys(*reference.boxes(centers, inputs.widths, QUERY_DISTANCE))
        expected[epoch, "distance"] = (keys.size, _digest(*reference.pairs(keys, n)))
    mismatches = [
        row for row in counters
        if isinstance(row, list) and expected.get((row[0], row[3])) != (row[5], row[6])
    ]
    out.check(
        "every service answer equals the reference join on its frame",
        not mismatches,
        f"{len(mismatches)} mismatching answers"
        + (f", first {mismatches[0][:6]}" if mismatches else ""),
    )


def run_service(
    config: dict[str, Any],
    seed: int,
    budget: float,
    passes: int | None,
    traced: bool,
    memory: Memory,
) -> tuple[Outcome, dict[str, float] | None, list[dict[str, Any]]]:
    out = Outcome()
    inputs = service_inputs(config, seed)
    layers = Layers() if traced else None
    probes = Probes() if traced else None
    tracer = Tracer() if traced else None
    if probes is not None:
        probes.install(())
    previous = set_tracer(tracer) if tracer is not None else None
    measured = 0.0
    try:
        while _more(len(out.pass_s), passes, config["min_passes"], measured, budget):
            counters = asyncio.run(_service_pass(inputs, config, out, layers, tracer, probes))
            measured = sum(out.pass_s)
            if len(out.pass_s) == 1 and not traced:
                out.deferred.append(functools.partial(_check_service, inputs, counters))
            if layers is not None:
                layers.passes += 1
            out.pass_counters(counters)
        memory.sample_workers()
        while len(out.setup_s) < MIN_SETUPS:
            asyncio.run(_setup_only(inputs, config, out))
    finally:
        if tracer is not None:
            set_tracer(previous)
        if probes is not None:
            probes.restore()
            out.missing_probes = probes.missing
    if layers is None or probes is None:
        return out, None, []
    return out, layers.metrics(probes), []


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def environment() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def min_samples(workload: str, config: dict[str, Any]) -> dict[str, int]:
    """Step and query samples a run is guaranteed to take."""
    if workload == "service-epochs":
        epochs = config["min_passes"] * config["epochs"]
        return {"step": epochs, "query": epochs * config["clients"] * config["queries"]}
    steps = config["min_passes"] * config["steps"]
    return {"step": steps, "query": steps}


def pin_kernels() -> str:
    """Pin the verify-kernel backend to numpy where a choice exists."""
    try:
        from repro.geometry.kernels import set_backend
    except ImportError:
        return "numpy"
    set_backend("numpy")
    return "numpy"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXECUTORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    config = SIZES[args.size][args.workload]
    backend = pin_kernels()
    memory = Memory()
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.workload == "service-epochs":
            out, layers, layer_rows = run_service(
                config, args.seed, args.seconds, args.passes, bool(args.traced), memory
            )
        else:
            out, layers, layer_rows = run_steps(
                args.workload, config, args.seed, args.seconds, args.passes,
                bool(args.traced), memory,
            )
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    peak_rss_mb = memory.peak_mb()
    for check in out.deferred:
        check(out)
    import repro

    report = {
        "repro_file": str(Path(repro.__file__).resolve()),
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "environment": {
            **environment(),
            "executor": EXECUTORS[args.workload],
            "kernel_backend": backend,
            "n_objects": config["n"],
        },
        "passes": len(out.pass_s),
        "min_samples": min_samples(args.workload, config),
        "setup_s": out.setup_s,
        "step_s": out.step_s,
        "pass_s": out.pass_s,
        "query_s": out.query_s,
        "steps": out.steps,
        "queries": out.queries,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "counters": out.counters,
        "checks": out.checks,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "layer_rows": layer_rows,
        "missing_probes": out.missing_probes,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
