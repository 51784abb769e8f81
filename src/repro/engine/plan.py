"""Join plans and the task vocabulary of the staged execution engine.

A :class:`JoinPlan` is what an algorithm's ``partition`` stage produces:
a *context* of shared, read-only numpy arrays (box coordinates, grouped
object ids, per-group ranges — the arrays a process pool ships through
shared memory once per step) and a list of independent :class:`JoinTask`
units.  Tasks reference context arrays by key, carry only their own
small index arrays, and emit result pairs through the accumulator they
are handed — which is what makes them schedulable by any executor.

Task types
----------
``GroupSelfJoinTask``   within-group pairs of a set of groups (grid
                        cells, PBSM partitions, tree nodes).
``GroupCrossJoinTask``  pairs across explicit (group A, group B) lists
                        (EGO neighbour cells, octree ancestor levels).
``CellPairSweepTask``   THERMAL-JOIN's external join over neighbour
                        cell pairs (optimized sweep + enclosure
                        shortcut).
``HotCellsTask``        combinatorial hot-spot emission (no tests).
``SweepStripTask``      one strip of a partitioned global plane sweep.
``FallbackJoinTask``    wraps a legacy ``_join`` as one opaque task so
                        every algorithm runs through the engine even
                        before it is ported to emit partitions.

Tasks declare ``process_safe``: whether they are pure functions of the
context arrays (shippable to a worker process) or closures over live
index objects (run inline in the parent by the process executor).

Tasks are also the engine's unit of *recovery*: because a task only
reads the context and writes its private accumulator, executors may run
it again after a failure, hang or worker crash — on the pool or inline
in the parent — and the merged result is unchanged.  Task authors must
preserve this purity: no mutation of context arrays, no side effects
outside the accumulator and the returned counters.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine.verify import (
    emit_hot_cells,
    verify_cell_pairs,
    verify_cross_groups,
    verify_self_groups,
    verify_strip,
)
from repro.geometry import PairAccumulator, chunk_edges_by_volume

if TYPE_CHECKING:
    from repro.datasets import SpatialDataset
    from repro.joins.base import SpatialJoinAlgorithm

__all__ = [
    "JoinPlan",
    "JoinTask",
    "TaskResult",
    "FallbackJoinTask",
    "GroupSelfJoinTask",
    "GroupCrossJoinTask",
    "CellPairSweepTask",
    "HotCellsTask",
    "SweepStripTask",
    "chunk_by_volume",
]


def chunk_by_volume(counts: np.ndarray, n_tasks: int) -> list[tuple[int, int]]:
    """Split ``range(len(counts))`` into ≤ ``n_tasks`` contiguous slices
    of roughly equal candidate volume.

    Returns a list of ``(start, stop)`` index pairs covering the whole
    range; empty input yields no slices.  Partitioning is deterministic
    (independent of the executor), so statistics are reproducible.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or n_tasks < 1:
        return []
    edges = chunk_edges_by_volume(counts, n_chunks=n_tasks)
    return [(int(edges[k]), int(edges[k + 1])) for k in range(len(edges) - 1)]


@dataclass
class TaskResult:
    """Outcome of one executed task: counters, wall/CPU time, pair shard.

    ``seconds``/``cpu_seconds`` are measured wherever the task actually
    ran — inline, on a pool thread or in a worker process — and carried
    back through this result so the tracer can attribute time to tasks
    without any cross-process machinery.
    """

    counters: dict[str, Any]
    seconds: float
    n_pairs: int
    accumulator: PairAccumulator  # pair shard (merged in task order)
    phase: str
    cpu_seconds: float = 0.0


@dataclass
class JoinPlan:
    """Partitioned description of one join step.

    ``context`` maps names to numpy arrays shared by all tasks;
    ``tasks`` are independent work units; ``on_complete`` (optional) is
    called with the ordered :class:`TaskResult` list during the merge
    stage, letting algorithms aggregate their own diagnostics.
    """

    context: dict[str, np.ndarray] = field(default_factory=dict)
    tasks: list[JoinTask] = field(default_factory=list)
    on_complete: Callable[[list[TaskResult]], None] | None = None


class JoinTask:
    """One independent unit of join work.

    ``run(ctx, accumulator)`` executes against the plan's context arrays,
    emits result pairs into the accumulator, and returns a counters dict
    (``overlap_tests`` plus whatever the algorithm aggregates).
    """

    #: Tag merged into ``JoinStatistics.phase_seconds``.
    phase = "join"
    #: Whether the task may run in a worker process (pure function of
    #: the context arrays and its own fields).
    process_safe = False

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        raise NotImplementedError


@dataclass
class FallbackJoinTask(JoinTask):
    """Single-task plan wrapping an unported algorithm's ``_join``."""

    algorithm: SpatialJoinAlgorithm
    dataset: SpatialDataset
    phase = "join"
    process_safe = False

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests = self.algorithm._join(self.dataset, accumulator)
        return {"overlap_tests": int(tests)}


@dataclass
class GroupSelfJoinTask(JoinTask):
    """All within-group pairs of ``groups``, via the shared verify kernel."""

    groups: np.ndarray
    count: str = "full"
    pair_filter: str | None = None
    keys: tuple[str, str, str] = ("cat", "starts", "stops")
    phase: str = "join"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        cat_key, starts_key, stops_key = self.keys
        tests = verify_self_groups(
            ctx,
            accumulator,
            self.groups,
            self.count,
            pair_filter=self.pair_filter,
            cat_key=cat_key,
            starts_key=starts_key,
            stops_key=stops_key,
        )
        return {"overlap_tests": int(tests)}


@dataclass
class GroupCrossJoinTask(JoinTask):
    """Pairs across explicit (A-group, B-group) lists."""

    pair_a: np.ndarray
    pair_b: np.ndarray
    count: str = "full"
    a_keys: tuple[str, str, str] = ("cat", "starts", "stops")
    b_keys: tuple[str, str, str] = ("cat", "starts", "stops")
    phase: str = "join"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests = verify_cross_groups(
            ctx,
            accumulator,
            self.pair_a,
            self.pair_b,
            self.count,
            a_keys=self.a_keys,
            b_keys=self.b_keys,
        )
        return {"overlap_tests": int(tests)}


@dataclass
class CellPairSweepTask(JoinTask):
    """External join over a slice of neighbour cell pairs.

    Runs the optimized plane sweep with the enclosure shortcut (the
    ``cell_pair_sweep`` kernel) over its own portion of the step's
    cell-pair list.
    """

    pair_a: np.ndarray
    pair_b: np.ndarray
    enclosure_shortcut: bool = True
    phase: str = "external"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests, shortcuts = verify_cell_pairs(
            ctx,
            accumulator,
            self.pair_a,
            self.pair_b,
            enclosure_shortcut=self.enclosure_shortcut,
        )
        return {"overlap_tests": int(tests), "shortcut_pairs": int(shortcuts)}


@dataclass
class HotCellsTask(JoinTask):
    """Combinatorial emission for a set of hot-spot cells (zero tests)."""

    hot_slots: np.ndarray
    phase: str = "internal"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        emitted = emit_hot_cells(ctx, accumulator, self.hot_slots)
        return {"overlap_tests": 0, "shortcut_pairs": int(emitted)}


@dataclass
class SweepStripTask(JoinTask):
    """One strip of the partitioned global plane sweep.

    The dataset is x-sorted once at build; a strip owns the contiguous
    sorted positions ``[start, stop)``.  It runs the forward sweep
    within the strip plus the carried-in windows of earlier objects
    whose x-extent reaches into the strip, so each x-overlapping pair is
    charged exactly once, in the strip of its later object — the global
    sweep's candidate set and test count, decomposed.
    """

    start: int
    stop: int
    carry: np.ndarray  # sorted positions < start with xhi > strip's first xlo
    phase: str = "join"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests = verify_strip(ctx, accumulator, self.start, self.stop, self.carry)
        return {"overlap_tests": int(tests)}
