"""Delta-plan execution: maintain the pair set instead of recomputing it.

:func:`execute_delta_step` is the incremental sibling of
:func:`repro.engine.engine.execute_step`.  It drives the same four
stages — prepare (index refresh), partition (the algorithm's
``delta_plan`` emits re-verify tasks), verify (the ordinary executor
runs them, so retries, shared-memory publication and fault injection
apply unchanged) and merge — but instead of materialising a from-scratch
result it patches a :class:`~repro.geometry.pairs.MaintainedPairSet`:
pairs incident to a moved object are dropped and the re-verified
moved-incident pairs merged back in.  Pairs between two *settled*
objects cannot have changed, so the patched set is exactly the full
re-join's result (the property suite enforces bit-identity).

:class:`ChurnPolicy` owns the incremental-versus-fallback decision.  In
the spirit of Kipf et al.'s adaptive geospatial joins (PAPERS.md), the
threshold is *observed*, not guessed: the policy watches the measured
cost of full joins and of incremental steps and moves the break-even
churn point toward ``full_cost / cost_per_unit_churn``.  Costs must be
deterministic signals (operation counts, not wall time) so the mode
decisions — and therefore the overlap-test accounting — replay
identically across executors and runs.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.geometry import PairAccumulator, sorted_unique

if TYPE_CHECKING:
    from repro.datasets import SpatialDataset
    from repro.datasets.delta import MotionDelta
    from repro.geometry.pairs import MaintainedPairSet
    from repro.joins.base import JoinResult, SpatialJoinAlgorithm

__all__ = [
    "INCREMENTAL_ENV_VAR",
    "incremental_from_env",
    "moved_groups",
    "ChurnPolicy",
    "execute_delta_step",
]

#: Environment variable that opts a run into pair-set maintenance when
#: the algorithm was constructed with ``pair_maintenance=None``.
INCREMENTAL_ENV_VAR = "REPRO_INCREMENTAL"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def incremental_from_env() -> bool:
    """Resolve the :data:`INCREMENTAL_ENV_VAR` opt-in (default off)."""
    return os.environ.get(INCREMENTAL_ENV_VAR, "").strip().lower() in _TRUTHY


def moved_groups(delta: MotionDelta, assignment: np.ndarray) -> np.ndarray:
    """Distinct group ids whose membership intersects the delta's moved set.

    ``assignment`` maps every object index to a group id (a spatial
    shard, a partition, a cell bucket).  The result — sorted, unique —
    is the set of groups the delta *touches*: any state keyed per group
    (a shard's local index, a ``(shard, step, query)`` result-cache
    entry) is stale exactly for these groups and provably fresh for all
    others.  This is the invalidation primitive the sharded join
    service drives its result cache with.
    """
    assignment = np.asarray(assignment)
    if assignment.ndim != 1 or assignment.shape[0] != delta.n_objects:
        raise ValueError(
            f"assignment maps {assignment.shape} objects but the delta "
            f"describes {delta.n_objects}"
        )
    return sorted_unique(assignment[delta.moved])


@dataclass
class ChurnPolicy:
    """Observed, adaptive churn threshold for the fallback decision.

    A step is run incrementally when the delta's ``moved_fraction`` is
    at most :attr:`threshold`; otherwise the algorithm falls back to a
    full re-join.  With ``adaptive=True`` (default) the threshold is
    re-estimated from observed costs: if a full join costs ``C_full``
    and incremental steps cost ``C_incr(f) ≈ unit · f`` at moved
    fraction ``f``, the break-even point is ``C_full / unit``; the
    estimate is smoothed with an exponential moving average and clipped
    to ``[floor, ceiling]``.  Feed it deterministic cost signals
    (operation counts) — the decision sequence is then reproducible
    across executors, which the bit-identity tests rely on.

    ``ChurnPolicy(threshold=0.0, adaptive=False)`` forces a fallback on
    every step that moved anything — the forced-fallback configuration
    the bench and tests use.
    """

    threshold: float = 0.35
    adaptive: bool = True
    floor: float = 0.02
    ceiling: float = 0.75
    ema: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if not 0.0 < self.floor <= self.ceiling <= 1.0:
            raise ValueError(
                f"need 0 < floor <= ceiling <= 1, got {self.floor}, {self.ceiling}"
            )
        if not 0.0 < self.ema <= 1.0:
            raise ValueError(f"ema must be in (0, 1], got {self.ema}")
        self._full_cost: float | None = None
        self._unit_cost: float | None = None

    def admits(self, moved_fraction: float) -> bool:
        """True when a step at ``moved_fraction`` should run incrementally."""
        return moved_fraction <= self.threshold

    def _smooth(self, old: float | None, value: float) -> float:
        if old is None:
            return value
        return (1.0 - self.ema) * old + self.ema * value

    def observe_full(self, cost: float) -> None:
        """Record the cost of one full re-join."""
        self._full_cost = self._smooth(self._full_cost, max(float(cost), 1.0))
        self._update()

    def observe_incremental(self, cost: float, moved_fraction: float) -> None:
        """Record the cost of one incremental step at ``moved_fraction``."""
        if moved_fraction <= 0.0:
            return  # a no-motion step carries no per-unit-churn signal
        unit = max(float(cost), 1.0) / moved_fraction
        self._unit_cost = self._smooth(self._unit_cost, unit)
        self._update()

    def _update(self) -> None:
        if not self.adaptive or self._full_cost is None or self._unit_cost is None:
            return
        break_even = self._full_cost / self._unit_cost
        self.threshold = float(min(max(break_even, self.floor), self.ceiling))

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot of the adaptive state.

        The static knobs (``adaptive``/``floor``/``ceiling``/``ema``)
        come back from the algorithm's configuration; only the observed
        estimates and the current threshold travel in the checkpoint.
        """
        return {
            "threshold": self.threshold,
            "full_cost": self._full_cost,
            "unit_cost": self._unit_cost,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.threshold = float(state["threshold"])  # type: ignore[arg-type]
        full_cost = state["full_cost"]
        unit_cost = state["unit_cost"]
        self._full_cost = None if full_cost is None else float(full_cost)  # type: ignore[arg-type]
        self._unit_cost = None if unit_cost is None else float(unit_cost)  # type: ignore[arg-type]


def execute_delta_step(
    algorithm: SpatialJoinAlgorithm,
    dataset: SpatialDataset,
    delta: MotionDelta,
    maintained: MaintainedPairSet,
    on_maintained: Callable[[dict[str, Any]], None] | None = None,
) -> JoinResult:
    """Run one incremental join step, patching ``maintained`` in place.

    Mirrors :func:`~repro.engine.engine.execute_step` stage for stage;
    the differences are confined to partition (``algorithm.delta_plan``
    instead of ``plan``) and merge (re-verified shards are folded into
    the maintained set through its delta-maintenance API instead of
    becoming the result wholesale).  Tasks always materialise their
    pairs — the maintained set needs them — regardless of the
    algorithm's ``count_only`` mode; the *returned* result honours
    ``count_only`` as usual.

    ``on_maintained`` (if given) is called with the maintenance counters
    (``pairs_reused``, ``pairs_dropped``, ``pairs_reverified``,
    ``pairs_added``, ``maintained_pairs``) after the merge but before
    the metrics-registry snapshot, so algorithms can surface them
    through their providers.
    """
    from repro.joins.base import JoinResult, JoinStatistics
    from repro.obs import get_tracer

    executor = algorithm.executor
    tracer = get_tracer()
    traced = tracer.enabled
    step_span = None
    if traced:
        tracer.begin_step()
        step_cm = tracer.span(
            "step",
            counters={
                "algorithm": algorithm.name,
                "n_objects": len(dataset),
                "mode": "incremental",
            },
        )
        step_span = step_cm.__enter__()

    try:
        t0 = time.perf_counter()
        with tracer.span("prepare", parent=step_span):
            algorithm._build(dataset)  # prepare: index refresh (cell transitions)
        t1 = time.perf_counter()
        with tracer.span("partition", parent=step_span) as partition_span:
            plan = algorithm.delta_plan(dataset, delta)
            if partition_span is not None:
                partition_span.counters["n_tasks"] = len(plan.tasks)
        t2 = time.perf_counter()
        with tracer.span("verify", parent=step_span) as verify_span:
            results = executor.run(plan.tasks, plan.context, False)
            events = executor.drain_events()  # robustness: retries, downgrades
        t3 = time.perf_counter()

        # merge: drop moved-incident pairs, fold the re-verified shards
        # back in through the maintained set's delta API.
        with tracer.span("merge", parent=step_span):
            merged = PairAccumulator(count_only=False)
            overlap_tests = 0
            for task_result in results:
                merged.merge(task_result.accumulator)
                overlap_tests += int(task_result.counters.get("overlap_tests", 0))
            if plan.on_complete is not None:
                plan.on_complete(results)
            pairs_before = len(maintained)
            reverified = len(merged)
            dropped = maintained.remove_incident(delta.moved_mask())
            added = maintained.merge_delta(*merged.as_arrays())
        t4 = time.perf_counter()

        if traced:
            for index, task_result in enumerate(results):
                tracer.record(
                    f"task:{type(plan.tasks[index]).__name__}",
                    phase=task_result.phase,
                    parent=verify_span,
                    wall_seconds=task_result.seconds,
                    cpu_seconds=task_result.cpu_seconds,
                    counters={"task": index, **task_result.counters},
                )
    finally:
        if traced:
            step_cm.__exit__(None, None, None)

    algorithm._last_prepare_seconds = t1 - t0

    # All statistics flow through the recording methods (RPL202), same
    # as the full-step driver.
    stats = JoinStatistics()
    stats.record_stage("prepare", t1 - t0)
    stats.record_stage("partition", t2 - t1)
    stats.record_stage("verify", t3 - t2)
    stats.record_stage("merge", t4 - t3)
    for task_result in results:
        stats.record_task(task_result.counters)

    for phase, seconds in algorithm._phase_seconds().items():
        stats.record_phase(phase, seconds)
    for task_result in results:
        if task_result.phase != "join" or task_result.phase in stats.phase_seconds:
            stats.record_phase(task_result.phase, task_result.seconds)

    stats.record_events(events)
    stats.record_memory(algorithm.memory_footprint())

    if on_maintained is not None:
        on_maintained(
            {
                "pairs_reused": pairs_before - dropped,
                "pairs_dropped": dropped,
                "pairs_reverified": reverified,
                "pairs_added": added,
                "maintained_pairs": len(maintained),
            }
        )

    registry = getattr(algorithm, "metrics", None)
    if registry is not None:
        stats.record_index_counters(registry.snapshot())

    algorithm.stats = stats
    pairs = None
    if not algorithm.count_only:
        pairs = maintained.as_arrays()
    result = JoinResult(n_results=len(maintained), stats=stats, pairs=pairs)
    assert (result.pairs is None) == algorithm.count_only, (
        "JoinResult.pairs must be materialised exactly when not count_only"
    )
    return result
