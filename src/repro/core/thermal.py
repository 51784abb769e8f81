"""THERMAL-JOIN: hot-spot based spatial self-join for dynamic workloads.

This is the paper's primary contribution (Section 4), assembled from the
substrates in this package:

1. **Index building** (§4.1) — the :class:`~repro.core.pgrid.PGrid`
   assigns every object to exactly one cell by its center (no
   replication) and keeps only non-empty cells, in a sorted table of
   packed cell ids; neighbour cells are found by binary search instead
   of stored hyperlinks.
2. **Joining** (§4.2) — per occupied cell, an *external join* against
   the occupied cells of its half neighbourhood (optimized plane sweep
   with the enclosure shortcut) and an *internal join*: hot-spot cells
   emit all object combinations without a single overlap test, other
   cells are subdivided by a throw-away :class:`~repro.core.tgrid.TGrid`
   whose cells are hot spots by construction.
3. **Index maintenance** (§4.3) — cells are recycled across time steps,
   vacant cells garbage-collected at the 35 % threshold, and the grid
   resolution is self-tuned by hill climbing on the per-step cost
   (:class:`~repro.core.tuning.HillClimbingTuner`).

Example
-------
>>> from repro.datasets import make_uniform_workload
>>> from repro.core import ThermalJoin
>>> dataset, motion = make_uniform_workload(2000, width=15.0,
...     bounds=((0, 0, 0), (200, 200, 200)), seed=1)
>>> join = ThermalJoin()
>>> result = join.step(dataset)       # time step 0
>>> motion.step(dataset)              # simulation moves all objects
>>> result = join.step(dataset)       # incremental refresh + join
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.pgrid import PGrid
from repro.core.tgrid import TGrid
from repro.core.tuning import HillClimbingTuner
from repro.engine import (
    DEFAULT_PARTITION_TASKS,
    CellPairSweepTask,
    ChurnPolicy,
    GroupCrossJoinTask,
    GroupSelfJoinTask,
    HotCellsTask,
    JoinPlan,
    JoinTask,
    chunk_by_volume,
    execute_delta_step,
    incremental_from_env,
)
from repro.geometry import MaintainedPairSet
from repro.joins.base import SpatialJoinAlgorithm

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from collections.abc import Mapping

    from repro.datasets import SpatialDataset
    from repro.datasets.delta import MotionDelta
    from repro.engine import Executor
    from repro.geometry import PairAccumulator
    from repro.joins.base import JoinResult

__all__ = ["ThermalJoin", "TGridCellsTask"]

# Weights of the deterministic operation-count cost model (used when
# ``cost_model="operations"``): one unit per overlap test, plus charges
# for cell-pair join calls, cell creation, cell visits and result
# emission.  Coarse by design — it only needs to rank resolutions the
# same way wall time does, machine-independently.
_OPS_CELL_PAIR = 2.0
_OPS_CELL_CREATED = 8.0
_OPS_CELL_VISIT = 2.0
_OPS_RESULT = 0.05


class TGridCellsTask(JoinTask):
    """Internal join of the dense cells through a throw-away T-Grid.

    Takes the dense cells as per-cell arrays, one row per cell: ranges
    into the context's ``cat``, extents and member width bounds.  One
    vectorised pass plans the T-Grids of all of them, then the combined
    kernels join them.  The T-Grid object accumulates diagnostics
    (``fallbacks``, ``peak_cells``) across the step, so this stays one
    task and is not ``process_safe`` — the process executor runs it
    inline in the parent while the pure-array tasks are out on the pool.
    """

    phase = "internal"
    process_safe = False

    def __init__(
        self,
        tgrid: TGrid,
        starts: np.ndarray,
        stops: np.ndarray,
        cell_lo: np.ndarray,
        cell_hi: np.ndarray,
        min_width: np.ndarray,
        max_width: np.ndarray,
        centers: np.ndarray,
        widths: np.ndarray,
    ) -> None:
        self.tgrid = tgrid
        self.starts = starts
        self.stops = stops
        self.cell_lo = cell_lo
        self.cell_hi = cell_hi
        self.min_width = min_width
        self.max_width = max_width
        self.centers = centers
        self.widths = widths

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests, shortcut_pairs = self.tgrid.join_cells(
            ctx["cat"],
            self.starts,
            self.stops,
            self.cell_lo,
            self.cell_hi,
            self.min_width,
            self.max_width,
            ctx["lo"],
            ctx["hi"],
            self.centers,
            self.widths,
            accumulator,
        )
        return {"overlap_tests": int(tests), "shortcut_pairs": int(shortcut_pairs)}


class ThermalJoin(SpatialJoinAlgorithm):
    """The THERMAL-JOIN algorithm.

    Parameters
    ----------
    resolution:
        Fixed normalized P-Grid resolution ``r`` (cell width = ``r`` ×
        largest object width).  ``None`` (default) enables the paper's
        self-tuning: no parameter sweep is needed (§5.1.2).
    tuner:
        Optional pre-configured :class:`HillClimbingTuner`; ignored when
        ``resolution`` is fixed.
    gc_threshold:
        Vacant-cell fraction triggering garbage collection (paper: 0.35).
    cost_model:
        ``"operations"`` (default) — tune on a deterministic,
        machine-independent operation count; ``"time"`` — tune on wall
        time, the paper's exact protocol (prefer it on a quiet dedicated
        machine; on shared hardware timing noise can spuriously trip the
        10 % drift trigger).
    count_only:
        Count results without materialising pairs.
    tgrid_max_cells_per_object:
        Safety budget for degenerate T-Grids (see :class:`TGrid`).
    tgrid_min_objects:
        Non-hot-spot cells below this population take a plain in-cell
        plane sweep instead of a T-Grid (building a grid for a handful
        of objects costs more than it saves; the T-Grid's target — the
        paper's dense-cell degeneration — needs a large population).
    hot_spots:
        Ablation knob: disable the hot-spot concept entirely — every
        cell's internal join runs as a plane sweep (no combinatorial
        emits, no T-Grids).  Results are identical; cost is not.
    enclosure_shortcut:
        Ablation knob: disable the external join's enclosure shortcut.
    incremental:
        Ablation knob: disable incremental maintenance — the P-Grid is
        rebuilt from scratch every step (the "throw-away index"
        strategy of the static baselines).
    pair_maintenance:
        Maintain the *result* across steps, not just the index: when a
        :class:`~repro.datasets.delta.MotionDelta` arrives through
        :meth:`step_delta`, pairs incident to moved objects are dropped
        and only the moved-incident candidates re-verified; pairs
        between settled objects are reused verbatim.  The maintained set
        is bit-identical to a full re-join at every step.  ``None``
        (default) consults the ``REPRO_INCREMENTAL`` environment
        variable; ``True``/``False`` override it.
    churn_threshold:
        Fixed moved-fraction threshold above which :meth:`step_delta`
        falls back to a full re-join.  ``None`` (default) uses an
        observed, adaptive :class:`~repro.engine.ChurnPolicy` that
        learns the break-even point from measured operation costs;
        ``0.0`` forces a fallback whenever anything moved.
    memory_quota_bytes:
        Optional cap on the P-Grid footprint — the improvement the paper
        sketches in §6.3 ("avoiding a very fine resolution grid that
        would exceed a memory quota given by the user").  Before a build
        the projected footprint of the requested resolution is checked
        and the grid coarsened just enough to fit; the tuner simply
        observes the resulting costs, so it converges within the
        quota-feasible region.
    executor:
        Engine executor for the verify stage (see
        :class:`~repro.joins.base.SpatialJoinAlgorithm`).
    """

    name = "thermal-join"

    def __init__(
        self,
        resolution: float | None = None,
        tuner: HillClimbingTuner | None = None,
        gc_threshold: float = 0.35,
        cost_model: str = "operations",
        count_only: bool = False,
        tgrid_max_cells_per_object: int = 16,
        tgrid_min_objects: int = 24,
        hot_spots: bool = True,
        enclosure_shortcut: bool = True,
        incremental: bool = True,
        pair_maintenance: bool | None = None,
        churn_threshold: float | None = None,
        memory_quota_bytes: int | None = None,
        executor: Executor | str | None = None,
    ) -> None:
        super().__init__(count_only=count_only, executor=executor)
        if memory_quota_bytes is not None and memory_quota_bytes <= 0:
            raise ValueError(
                f"memory_quota_bytes must be positive, got {memory_quota_bytes}"
            )
        if cost_model not in ("time", "operations"):
            raise ValueError(f"unknown cost_model {cost_model!r}")
        if resolution is not None and resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        self.resolution = resolution
        self.tuner = None
        if resolution is None:
            self.tuner = tuner if tuner is not None else HillClimbingTuner()
        self.gc_threshold = gc_threshold
        self.cost_model = cost_model
        self.hot_spots = bool(hot_spots)
        self.enclosure_shortcut = bool(enclosure_shortcut)
        self.incremental = bool(incremental)
        self.memory_quota_bytes = memory_quota_bytes
        if tgrid_min_objects < 2:
            raise ValueError(
                f"tgrid_min_objects must be at least 2, got {tgrid_min_objects}"
            )
        self.tgrid_min_objects = int(tgrid_min_objects)
        self.pgrid: PGrid | None = None
        self.tgrid = TGrid(max_cells_per_object=tgrid_max_cells_per_object)
        #: Per-step diagnostics (resolution used, hot-spot counts, ...).
        self.last_step_info: dict[str, object] = {}
        self._boxes = None
        self._build_seconds = 0.0
        if pair_maintenance is None:
            pair_maintenance = incremental_from_env()
        self.pair_maintenance = bool(pair_maintenance)
        if churn_threshold is None:
            self.churn = ChurnPolicy()
        else:
            self.churn = ChurnPolicy(threshold=churn_threshold, adaptive=False)
        #: The result set carried across steps (pair-maintenance mode).
        self._maintained: MaintainedPairSet | None = None
        self._maintained_uid: int | None = None
        self._maintained_version: int | None = None
        self._incr: dict[str, object] = {
            "mode": "off",
            "moved_fraction": 0.0,
            "pairs_reused": 0,
            "pairs_dropped": 0,
            "pairs_reverified": 0,
            "pairs_added": 0,
            "maintained_pairs": 0,
            "fallbacks": 0,
            "full_steps": 0,
            "incremental_steps": 0,
            "churn_threshold": self.churn.threshold,
        }
        self.metrics.register("pgrid", self._pgrid_metrics)
        self.metrics.register("tgrid", self._tgrid_metrics)
        self.metrics.register("tuner", self._tuner_metrics)
        self.metrics.register("incremental", self._incremental_metrics)

    # ------------------------------------------------------------------
    # Metrics providers (read-only; snapshot each step by the engine)
    # ------------------------------------------------------------------
    def _pgrid_metrics(self) -> dict[str, object] | None:
        pgrid = self.pgrid
        if pgrid is None:
            return None
        return {
            "cell_width": pgrid.cell_width,
            "cells": pgrid.cell_ids.size,
            "occupied_cells": pgrid.occupied_ids.size,
            "vacant_cells": pgrid.n_vacant,
            "cells_created": pgrid.cells_created,
            "cells_recycled": pgrid.cells_recycled,
            "gc_runs": pgrid.gc_runs,
            "layers": pgrid.layers,
        }

    def _tgrid_metrics(self) -> dict[str, object]:
        return {
            "fallbacks": self.tgrid.fallbacks,
            "peak_cells": self.tgrid.peak_cells,
        }

    def _tuner_metrics(self) -> dict[str, object]:
        values = {"resolution": self.current_resolution}
        if self.tuner is not None:
            values.update(
                converged=self.tuner.converged,
                tuning_steps=self.tuner.tuning_steps,
                retunes=self.tuner.retunes,
                observations=len(self.tuner.history),
            )
        return values

    def _incremental_metrics(self) -> dict[str, object]:
        values = dict(self._incr)
        values["churn_threshold"] = self.churn.threshold
        return values

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------
    @property
    def current_resolution(self) -> float:
        """The normalized resolution the next step will use."""
        if self.resolution is not None:
            return float(self.resolution)
        return self.tuner.current_r

    @staticmethod
    def _per_cell_bytes() -> int:
        """Modelled cost of one cell: record + one-layer link budget + bucket."""
        from repro.core.pgrid import CELL_RECORD_BYTES

        return CELL_RECORD_BYTES + 13 * 8 + 8

    def _projected_footprint(self, dataset: SpatialDataset, cell_width: float) -> float:
        """Upper estimate of the P-Grid footprint at ``cell_width``.

        Occupied cells are bounded by both the object count and the
        number of cells covering the domain; the per-cell cost includes
        the record and a one-layer link budget.
        """
        lo_b, hi_b = dataset.bounds
        grid_cells = float(np.prod(np.ceil((hi_b - lo_b) / cell_width) + 1))
        cells = min(float(len(dataset)), grid_cells)
        return cells * self._per_cell_bytes() + len(dataset) * 8

    def _footprint_floor(self, dataset: SpatialDataset) -> float:
        """The projected footprint's infimum over all cell widths.

        Coarsening can shrink the grid to a single cell but never below
        it, and the per-object list entries are resolution-independent —
        so no resolution fits a quota under this floor.
        """
        return self._per_cell_bytes() + len(dataset) * 8

    def _quota_cell_width(self, dataset: SpatialDataset, cell_width: float) -> float:
        """Coarsen ``cell_width`` until the projected footprint fits.

        Raises :class:`ValueError` when the quota is infeasible: the
        projected footprint never drops below :meth:`_footprint_floor`
        however coarse the grid, so without this check an under-floor
        quota would coarsen forever (the §6.3 hang this guards against).
        """
        if self.memory_quota_bytes is None:
            return cell_width
        floor = self._footprint_floor(dataset)
        if len(dataset) and self.memory_quota_bytes < floor:
            raise ValueError(
                f"memory_quota_bytes={self.memory_quota_bytes} is infeasible "
                f"for {len(dataset)} objects: even a single-cell grid needs "
                f"~{int(floor)} bytes under the footprint model; raise the "
                "quota or shrink the dataset"
            )
        while (
            self._projected_footprint(dataset, cell_width) > self.memory_quota_bytes
        ):
            cell_width *= 1.25
        return cell_width

    def _build(self, dataset: SpatialDataset) -> None:
        t0 = time.perf_counter()
        lo, hi = dataset.boxes()
        self._boxes = (lo, hi)
        max_width = dataset.max_width
        cell_width = self._quota_cell_width(
            dataset, self.current_resolution * max_width
        )
        if not self.incremental:
            self.pgrid = None  # ablation: rebuild from scratch each step
        if self.pgrid is None or abs(self.pgrid.cell_width - cell_width) > 1e-12:
            # First build, or the resolution was re-tuned: the paper notes
            # every resolution change requires a from-scratch rebuild.
            origin, _ = dataset.bounds
            self.pgrid = PGrid(cell_width, origin, gc_threshold=self.gc_threshold)
        cells_created_before = self.pgrid.cells_created
        self.pgrid.refresh(dataset.centers, lo[:, 0], dataset.widths, max_width)
        self._cells_created_this_step = self.pgrid.cells_created - cells_created_before
        self._build_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Join phase (Algorithm 2), as an engine plan
    # ------------------------------------------------------------------
    def plan(self, dataset: SpatialDataset) -> JoinPlan:
        """Partition the step into external, hot-spot, sweep and T-Grid tasks.

        The external join's neighbour cell pairs, in (slot, offset)
        order, are split into volume-balanced :class:`CellPairSweepTask`
        slices; hot-spot cells emit through one :class:`HotCellsTask`;
        small non-hot cells sweep through one :class:`GroupSelfJoinTask`;
        dense cells go through one :class:`TGridCellsTask`.  The split is
        deterministic, so every executor reproduces the serial run's pair
        set and overlap-test total exactly.
        """
        lo, hi = self._boxes
        pgrid = self.pgrid
        context = {
            "lo": lo,
            "hi": hi,
            "cat": pgrid.cat,
            "starts": pgrid.cell_starts,
            "stops": pgrid.cell_stops,
            "center_lo": pgrid.cell_center_lo,
            "center_hi": pgrid.cell_center_hi,
        }
        tasks = []
        sizes = pgrid.cell_stops - pgrid.cell_starts

        # ---- External join: all neighbour cell pairs, chunked. ----
        pair_a, pair_b, _offsets = pgrid.neighbor_pairs(np.arange(sizes.size))
        cell_pair_joins = int(pair_a.size)
        if pair_a.size:
            weights = sizes[pair_a] * sizes[pair_b]
            for start, stop in chunk_by_volume(weights, DEFAULT_PARTITION_TASKS):
                tasks.append(
                    CellPairSweepTask(
                        pair_a=pair_a[start:stop],
                        pair_b=pair_b[start:stop],
                        enclosure_shortcut=self.enclosure_shortcut,
                    )
                )

        # ---- Internal join: hot spots, small-cell sweeps, T-Grids. ----
        multi = sizes > 1
        hot_spot_cells = 0
        tgrid_cells = 0
        if self.hot_spots:
            spread_ok = (
                (pgrid.cell_center_hi - pgrid.cell_center_lo) < pgrid.cell_min_width
            ).all(axis=1)
            hot = np.logical_and(multi, spread_ok)
            hot_slots = np.flatnonzero(hot)
            hot_spot_cells = int(hot_slots.size)
            if hot_slots.size:
                tasks.append(HotCellsTask(hot_slots=hot_slots))
            not_hot = np.logical_and(multi, ~spread_ok)
            # A T-Grid only pays off once the cell population is large
            # enough to amortise building it; small non-hot-spot cells
            # take the in-cell plane sweep in one batched task (their
            # sweep cannot "degenerate into a nested-loop join" — the
            # degeneration the paper worries about needs a dense cell).
            large = np.logical_and(not_hot, sizes >= self.tgrid_min_objects)
            small_slots = np.flatnonzero(np.logical_and(not_hot, ~large))
            if small_slots.size:
                tasks.append(
                    GroupSelfJoinTask(
                        groups=small_slots, count="x-sweep", phase="internal"
                    )
                )
            tgrid_slots = np.flatnonzero(large)
            tgrid_cells = int(tgrid_slots.size)
            if tgrid_cells:
                tasks.append(
                    TGridCellsTask(
                        self.tgrid,
                        pgrid.cell_starts[tgrid_slots],
                        pgrid.cell_stops[tgrid_slots],
                        *pgrid.cell_bounds(tgrid_slots),
                        pgrid.cell_min_width[tgrid_slots],
                        pgrid.cell_max_width[tgrid_slots],
                        dataset.centers,
                        dataset.widths,
                    )
                )
        else:
            # Ablation: plain plane sweep inside every cell (no hot spots,
            # no T-Grids).  Cell object lists are already x-sorted.
            sweep_slots = np.flatnonzero(multi)
            if sweep_slots.size:
                tasks.append(
                    GroupSelfJoinTask(
                        groups=sweep_slots, count="x-sweep", phase="internal"
                    )
                )

        def on_complete(results):
            shortcut_pairs = sum(
                int(r.counters.get("shortcut_pairs", 0)) for r in results
            )
            self.last_step_info = {
                "resolution": self.current_resolution,
                "cell_width": self.pgrid.cell_width,
                "occupied_cells": self.pgrid.occupied_ids.size,
                "total_cells": self.pgrid.cell_ids.size,
                "vacant_cells": self.pgrid.n_vacant,
                "hot_spot_cells": hot_spot_cells,
                "tgrid_cells": tgrid_cells,
                "tgrid_fallbacks": self.tgrid.fallbacks,
                "cell_pair_joins": cell_pair_joins,
                "shortcut_pairs": shortcut_pairs,
                "cells_created": self._cells_created_this_step,
                "gc_runs": self.pgrid.gc_runs,
                "layers": self.pgrid.layers,
            }

        return JoinPlan(context=context, tasks=tasks, on_complete=on_complete)

    # ------------------------------------------------------------------
    # Delta join phase: re-verify only moved-incident candidates
    # ------------------------------------------------------------------
    def delta_plan(self, dataset: SpatialDataset, delta: MotionDelta) -> JoinPlan:
        """Partition the re-verification of moved-incident candidates.

        Objects are classified moved/settled from the delta; the refreshed
        P-Grid's per-cell object lists are split into a *moved* grouping
        and a *settled* grouping (both inherit the in-cell x-sort).  Any
        pair with a moved endpoint has centers closer than the largest
        object width per dimension, so its cells are at most
        ``pgrid.layers`` apart — exactly the neighbourhood the full
        join's cell pairs cover.  Three task families emit every such
        candidate exactly once:

        * moved × settled over each moved cell's full neighbourhood
          (including its own cell; settled groups never initiate);
        * moved × moved across distinct cells, once per unordered cell
          pair via the half-neighbourhood offsets;
        * moved × moved within a cell, as a strict-upper-triangle
          self-join.

        All tasks are pure functions of ndarray context (process-safe),
        chunked deterministically, with x-sweep test accounting — so
        executors, retries and fault injection behave exactly as on the
        full plan.
        """
        lo, hi = self._boxes
        pgrid = self.pgrid
        cat = pgrid.cat
        starts = pgrid.cell_starts
        stops = pgrid.cell_stops
        moved_mask = delta.moved_mask()
        moved_in_cat = moved_mask[cat]
        csum = np.concatenate([[0], np.cumsum(moved_in_cat)]).astype(np.int64)
        moved_counts = csum[stops] - csum[starts]
        settled_counts = (stops - starts) - moved_counts
        mstops = np.cumsum(moved_counts).astype(np.int64)
        sstops = np.cumsum(settled_counts).astype(np.int64)
        context = {
            "lo": lo,
            "hi": hi,
            "mcat": cat[moved_in_cat],
            "mstarts": mstops - moved_counts,
            "mstops": mstops,
            "scat": cat[~moved_in_cat],
            "sstarts": sstops - settled_counts,
            "sstops": sstops,
        }

        # Enumerate candidate cell pairs around the cells holding moved
        # objects, in (slot, offset) order, so the pair lists — and the
        # task chunking below — are deterministic.
        has_moved = moved_counts > 0
        has_settled = settled_counts > 0
        moved_slots = np.flatnonzero(has_moved)
        front_a, front_b, front_k = pgrid.neighbor_pairs(moved_slots)
        back_a, back_b, back_k = pgrid.neighbor_pairs(moved_slots, sign=-1)
        # Moved group × settled group: the own cell, then per offset the
        # front and the back neighbour.
        own = moved_slots[has_settled[moved_slots]]
        front_s = has_settled[front_b]
        back_s = has_settled[back_b]
        ms_a = np.concatenate([own, front_a[front_s], back_a[back_s]])
        ms_b = np.concatenate([own, front_b[front_s], back_b[back_s]])
        rank = np.concatenate(
            [np.zeros(own.size, dtype=np.int64), 2 * front_k[front_s] + 1, 2 * back_k[back_s] + 2]
        )
        by_slot = np.lexsort((rank, ms_a))
        ms_a = ms_a[by_slot]
        ms_b = ms_b[by_slot]
        # Moved group × moved group across distinct cells: each unordered
        # pair once, from the front scan (the back scan would repeat it).
        front_m = has_moved[front_b]
        mm_a = front_a[front_m]
        mm_b = front_b[front_m]

        tasks: list[JoinTask] = []

        def cross_tasks(pair_a, pair_b, b_counts, b_keys):
            if not pair_a.size:
                return
            weights = moved_counts[pair_a] * b_counts[pair_b]
            for start, stop in chunk_by_volume(weights, DEFAULT_PARTITION_TASKS):
                tasks.append(
                    GroupCrossJoinTask(
                        pair_a=pair_a[start:stop],
                        pair_b=pair_b[start:stop],
                        count="x-sweep",
                        a_keys=("mcat", "mstarts", "mstops"),
                        b_keys=b_keys,
                        phase="reverify",
                    )
                )

        cross_tasks(ms_a, ms_b, settled_counts, ("scat", "sstarts", "sstops"))
        cross_tasks(mm_a, mm_b, moved_counts, ("mcat", "mstarts", "mstops"))
        self_slots = np.flatnonzero(moved_counts > 1)
        if self_slots.size:
            tasks.append(
                GroupSelfJoinTask(
                    groups=self_slots,
                    count="x-sweep",
                    keys=("mcat", "mstarts", "mstops"),
                    phase="reverify",
                )
            )

        moved_cells = int(has_moved.sum())
        cell_pair_joins = int(ms_a.size + mm_a.size)

        def on_complete(results):
            self.last_step_info = {
                "mode": "incremental",
                "resolution": self.current_resolution,
                "cell_width": self.pgrid.cell_width,
                "occupied_cells": self.pgrid.occupied_ids.size,
                "total_cells": self.pgrid.cell_ids.size,
                "vacant_cells": self.pgrid.n_vacant,
                "moved_objects": delta.n_moved,
                "moved_cells": moved_cells,
                "hot_spot_cells": 0,
                "tgrid_cells": 0,
                "tgrid_fallbacks": self.tgrid.fallbacks,
                "cell_pair_joins": cell_pair_joins,
                "shortcut_pairs": 0,
                "cells_created": self._cells_created_this_step,
                "gc_runs": self.pgrid.gc_runs,
                "layers": self.pgrid.layers,
            }

        return JoinPlan(context=context, tasks=tasks, on_complete=on_complete)

    def _phase_seconds(self) -> dict[str, float]:
        # The engine adds each task's wall time onto its phase; only the
        # build phase is timed here.
        return {
            "building": self._build_seconds,
            "internal": 0.0,
            "external": 0.0,
        }

    # ------------------------------------------------------------------
    # Step driver with self-tuning and pair-set maintenance
    # ------------------------------------------------------------------
    def step(self, dataset: SpatialDataset) -> JoinResult:
        if self.pair_maintenance:
            return self._full_step(dataset, mode="full")
        return self._plain_step(dataset)

    def _plain_step(self, dataset: SpatialDataset) -> JoinResult:
        """One from-scratch join step, feeding the resolution tuner."""
        result = super().step(dataset)
        if self.tuner is not None:
            cost = (
                result.stats.total_seconds
                if self.cost_model == "time"
                else self._operations_cost(result)
            )
            resolution_changed = self.tuner.observe(cost)
            if resolution_changed:
                # Force a from-scratch rebuild at the new resolution.
                self.pgrid = None
        return result

    def _full_step(self, dataset: SpatialDataset, mode: str) -> JoinResult:
        """Full re-join that (re)seeds the maintained pair set.

        Pairs must be materialised to seed the set, so ``count_only`` is
        lifted around the engine step and the returned result re-honours
        it.  The seeded state is re-snapshot into ``index_counters`` so
        the step's record already shows the maintained-set size.
        """
        from repro.joins.base import JoinResult

        self._incr.update(
            mode=mode,
            pairs_reused=0,
            pairs_dropped=0,
            pairs_reverified=0,
            pairs_added=0,
        )
        self._incr["full_steps"] = int(self._incr["full_steps"]) + 1
        was_count_only = self.count_only
        self.count_only = False
        try:
            result = self._plain_step(dataset)
        finally:
            self.count_only = was_count_only
        assert result.pairs is not None
        self._maintained = MaintainedPairSet(len(dataset), *result.pairs)
        self._maintained_uid = dataset.uid
        self._maintained_version = dataset.version
        self.churn.observe_full(self._operations_cost(result))
        self._incr["maintained_pairs"] = len(self._maintained)
        # Refresh only the incremental entry: re-snapshotting every
        # provider here would run *after* a possible tuner retune
        # dropped the P-Grid, wiping the engine-time pgrid counters.
        result.stats.record_index_counters(
            {
                **result.stats.index_counters,
                "incremental": self._incremental_metrics(),
            }
        )
        return JoinResult(
            n_results=result.n_results,
            stats=result.stats,
            pairs=None if was_count_only else result.pairs,
        )

    def _delta_applicable(self, dataset: SpatialDataset, delta: MotionDelta) -> bool:
        """Whether ``delta`` bridges the maintained state to ``dataset``.

        The delta must describe exactly the ``maintained version →
        current version`` transition of *this* dataset instance, and the
        tuner must be done moving the resolution (while it still climbs,
        full steps are required anyway so it can observe comparable
        costs; drift-retune steps re-enter that state).
        """
        return (
            self._maintained is not None
            and delta.dataset_uid == dataset.uid
            and self._maintained_uid == dataset.uid
            and delta.n_objects == len(dataset)
            and delta.base_version == self._maintained_version
            and delta.version == dataset.version
            and (self.tuner is None or self.tuner.converged)
        )

    def step_delta(self, dataset: SpatialDataset, delta: MotionDelta | None) -> JoinResult:
        """Maintain the pair set through ``delta`` instead of re-joining.

        Falls back to a full (seeding) step when maintenance is off, the
        delta does not match the maintained state, or the churn policy
        rules the moved fraction too high to pay off.
        """
        if not self.pair_maintenance:
            return self.step(dataset)
        if delta is None or not self._delta_applicable(dataset, delta):
            self._incr["moved_fraction"] = (
                0.0 if delta is None else delta.moved_fraction
            )
            return self._full_step(dataset, mode="full")
        moved_fraction = delta.moved_fraction
        self._incr["moved_fraction"] = moved_fraction
        if not self.churn.admits(moved_fraction):
            self._incr["fallbacks"] = int(self._incr["fallbacks"]) + 1
            return self._full_step(dataset, mode="fallback")

        self._incr["mode"] = "incremental"
        self._incr["incremental_steps"] = int(self._incr["incremental_steps"]) + 1
        maintained = self._maintained
        assert maintained is not None
        result = execute_delta_step(
            self, dataset, delta, maintained, on_maintained=self._incr.update
        )
        self._maintained_version = delta.version
        # The tuner is NOT fed here: incremental costs are not comparable
        # with the full-join costs it climbs on.  The churn policy is —
        # that is exactly the signal it adapts its threshold from.
        self.churn.observe_incremental(
            float(result.stats.overlap_tests)
            + _OPS_RESULT * float(int(self._incr["pairs_reverified"])),
            moved_fraction,
        )
        return result

    def _operations_cost(self, result: JoinResult) -> float:
        """Deterministic cost signal for reproducible tuning."""
        info = self.last_step_info
        return (
            result.stats.overlap_tests
            + _OPS_CELL_PAIR * info.get("cell_pair_joins", 0)
            + _OPS_CELL_CREATED * info.get("cells_created", 0)
            + _OPS_CELL_VISIT * info.get("occupied_cells", 0)
            + _OPS_RESULT * result.n_results
        )

    def memory_footprint(self) -> int:
        if self.pgrid is None:
            return 0
        return self.pgrid.memory_footprint()

    # ------------------------------------------------------------------
    # Checkpoint / recovery protocol
    # ------------------------------------------------------------------
    def _config_fingerprint(self) -> dict[str, object]:
        """The configuration a checkpoint is only replayable under."""
        return {
            "resolution": self.resolution,
            "gc_threshold": self.gc_threshold,
            "cost_model": self.cost_model,
            "hot_spots": self.hot_spots,
            "enclosure_shortcut": self.enclosure_shortcut,
            "incremental": self.incremental,
            "pair_maintenance": self.pair_maintenance,
            "tgrid_min_objects": self.tgrid_min_objects,
        }

    def snapshot_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Full cross-step state: tuner, churn, grids, maintained pairs.

        Everything a resumed run needs to continue bit-identically: the
        tuner's climb state, the churn policy's observed estimates, the
        incremental counters, the T-Grid diagnostics, the maintained
        pair set (packed keys) and the P-Grid's cell table — ids and
        vacancy only (rebuilding it from scratch would spike
        ``cells_created``, a tuner cost input, and lose the vacant cells
        that the footprint and the GC trigger count).
        """
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, Any] = {
            "algorithm": self.name,
            "config": self._config_fingerprint(),
            "tuner": None if self.tuner is None else self.tuner.state_dict(),
            "churn": self.churn.state_dict(),
            "incr": dict(self._incr),
            "tgrid": {
                "fallbacks": self.tgrid.fallbacks,
                "peak_cells": self.tgrid.peak_cells,
            },
            "maintained": None,
            "pgrid": None,
        }
        if self._maintained is not None:
            arrays["maintained_keys"] = self._maintained.packed_keys()
            meta["maintained"] = {
                "n": self._maintained.n,
                "version": self._maintained_version,
            }
        if self.pgrid is not None:
            pgrid_arrays, pgrid_meta = self.pgrid.snapshot_state()
            for key, value in pgrid_arrays.items():
                arrays[f"pgrid/{key}"] = value
            meta["pgrid"] = pgrid_meta
        return arrays, meta

    def restore_state(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        dataset: SpatialDataset,
    ) -> None:
        super().restore_state(arrays, meta, dataset)
        recorded = meta.get("config")
        if recorded != self._config_fingerprint():
            raise ValueError(
                "checkpoint was written under a different ThermalJoin "
                f"configuration: {recorded!r} != {self._config_fingerprint()!r}"
            )
        tuner_state = meta["tuner"]
        if (tuner_state is None) != (self.tuner is None):
            raise ValueError(
                "checkpoint tuner state does not match this instance's "
                "resolution mode"
            )
        if self.tuner is not None and tuner_state is not None:
            self.tuner.load_state_dict(tuner_state)
        self.churn.load_state_dict(meta["churn"])
        self._incr = dict(meta["incr"])
        self.tgrid.fallbacks = int(meta["tgrid"]["fallbacks"])
        self.tgrid.peak_cells = int(meta["tgrid"]["peak_cells"])

        maintained_meta = meta["maintained"]
        if maintained_meta is None:
            self._maintained = None
            self._maintained_uid = None
            self._maintained_version = None
        else:
            n = int(maintained_meta["n"])
            if n != len(dataset):
                raise ValueError(
                    f"maintained set was built over {n} objects but the "
                    f"restored dataset holds {len(dataset)}"
                )
            self._maintained = MaintainedPairSet.from_packed(
                n, arrays["maintained_keys"]
            )
            # The uid is process-local; the maintained set belongs to the
            # freshly reconstructed dataset by construction.
            self._maintained_uid = dataset.uid
            self._maintained_version = int(maintained_meta["version"])

        pgrid_meta = meta["pgrid"]
        if pgrid_meta is None:
            self.pgrid = None
        else:
            pgrid_arrays = {
                key.split("/", 1)[1]: value
                for key, value in arrays.items()
                if key.startswith("pgrid/")
            }
            lo, _hi = dataset.boxes()
            self.pgrid = PGrid.from_state(
                pgrid_arrays, pgrid_meta, dataset.centers, lo[:, 0], dataset.widths
            )

    def reset_for_retry(self) -> None:
        """Drop every cross-step structure before a from-scratch retry.

        A failure mid-``step_delta`` may have left the P-Grid refreshed
        but the maintained set half-patched; discarding both makes the
        retried step a clean seeding full join.
        """
        self.pgrid = None
        self._maintained = None
        self._maintained_uid = None
        self._maintained_version = None
