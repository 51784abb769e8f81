"""The P-Grid: THERMAL-JOIN's persistent uniform grid, held as sorted arrays.

Implements Algorithm 1 and Section 4.3.1 of the paper:

* **Build** — every object is assigned to the (single) cell containing
  its *center*; only non-empty cells exist, as entries of a sorted table
  of packed cell ids; each cell's object list is sorted by the objects'
  lower x bound.
* **Neighbours** — the paper wires *hyperlinks* from each cell to the
  existing cells of its half neighbourhood so that a pointer-based join
  never pays a hash lookup.  This join runs on whole-grid arrays
  instead, so the links are not materialised:
  :meth:`PGrid.neighbor_pairs` builds each cell's neighbour ids for all
  half-neighbourhood offsets as one table and finds them with one
  binary search of the sorted occupied ids.  The link count still
  enters the Figure 3 footprint model.
* **Incremental maintenance** — on subsequent steps the grid is not
  discarded: cells are recycled, and cells whose population migrated
  away become *vacant* (kept in the table for future reuse) and age
  each step.
* **Garbage collection** — when vacant cells exceed a threshold fraction
  (the paper's policy: 35 % of all cells) they are dropped from the
  table.

The number of neighbour layers per cell follows Section 4.2.1:
``ceil(largest object width / cell width)`` — one layer (13 half
neighbours in 3-D) when the cell width equals the largest object width
(Figure 4a), more when the cells are finer (Figure 4b).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cells import (
    half_neighborhood_offsets,
    neighbor_cell_ids,
    pack_cell_ids,
    unpack_cell_ids,
)
from repro.joins.base import ID_BYTES, MBR_BYTES, POINTER_BYTES

if TYPE_CHECKING:
    from collections.abc import Iterator

__all__ = ["PGrid"]

#: Fixed per-cell record size in the C-struct footprint model: cell id,
#: cell MBR, min-object MBR, age, and the two list headers of Figure 3.
CELL_RECORD_BYTES = ID_BYTES + MBR_BYTES + MBR_BYTES + 8 + 16 + 16


#: Most neighbour ids (cells x half-neighbourhood offsets) looked up in
#: one batch by :meth:`PGrid.neighbor_pairs` and the link count.
_BATCH = 1 << 17


def _bucket_count(n_cells: int) -> int:
    """Power-of-two hash bucket count at a 0.75 target load factor."""
    need = max(8, int(n_cells / 0.75) + 1)
    return 1 << (need - 1).bit_length()


def _find(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each id in the sorted ``table``, -1 where absent."""
    if not table.size:
        return np.full(ids.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(table, ids), table.size - 1)
    return np.where(table[pos] == ids, pos, -1)


class PGrid:
    """Persistent uniform grid over object centers.

    Parameters
    ----------
    cell_width:
        Uniform cell side length.  THERMAL-JOIN sets it to ``r`` times
        the largest object width, where ``r`` is the (tuned) normalized
        resolution of Section 4.3.2.
    origin:
        Grid origin; cell ``(0, 0, 0)`` spans ``[origin, origin + w)``.
        Fixed for the grid's lifetime so cell identifiers stay stable
        across incremental refreshes.
    gc_threshold:
        Vacant-cell fraction that triggers garbage collection (paper
        default 0.35).

    The occupied cells are numbered by *slot*: ascending packed id,
    which is the order of ``occupied_ids`` and of every per-cell array
    kept by :meth:`refresh`.
    """

    def __init__(
        self,
        cell_width: float,
        origin: np.ndarray,
        gc_threshold: float = 0.35,
    ) -> None:
        if cell_width <= 0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        if not 0.0 < gc_threshold <= 1.0:
            raise ValueError(f"gc_threshold must be in (0, 1], got {gc_threshold}")
        self.cell_width = float(cell_width)
        self.origin = np.asarray(origin, dtype=np.float64).copy()
        if self.origin.shape != (3,):
            raise ValueError(f"origin must be a 3-vector, got {self.origin.shape}")
        self.gc_threshold = float(gc_threshold)
        #: Sorted packed ids of every table cell, occupied or vacant.
        self.cell_ids = np.empty(0, dtype=np.int64)
        #: Aligned with ``cell_ids``: the refresh epoch at which the cell
        #: was vacated, -1 while it is occupied.
        self.vacant_at = np.empty(0, dtype=np.int64)
        #: Packed ids of the occupied cells, one per slot.
        self.occupied_ids = np.empty(0, dtype=np.int64)
        # Per-slot arrays retained by refresh() for the batched join:
        #: all object indices, grouped by cell and x-sorted within cells.
        self.cat: np.ndarray | None = None
        #: per-cell [start, stop) ranges into ``cat``.
        self.cell_starts: np.ndarray | None = None
        self.cell_stops: np.ndarray | None = None
        #: per-cell per-dimension min/max object widths.
        self.cell_min_width: np.ndarray | None = None
        self.cell_max_width: np.ndarray | None = None
        #: per-cell tight center bounds.
        self.cell_center_lo: np.ndarray | None = None
        self.cell_center_hi: np.ndarray | None = None
        #: Neighbour layers of the half neighbourhood (set on first build).
        self.layers: int | None = None
        #: Refresh epoch.  A vacant cell's age is ``clock - vacant_at + 1``
        #: (the vacating refresh counts as 1), so aging needs no per-step
        #: sweep over the vacant cells.
        self.clock = 0
        # Totals backing the O(1) footprint.
        self._n_objects = 0
        #: Figure 3 link count: pairs ``(P, P + o)`` of table cells, ``o``
        #: a half-neighbourhood offset.
        self._n_links = 0
        # Lifetime counters (exposed through ThermalJoin statistics).
        self.cells_created = 0
        self.cells_recycled = 0
        self.gc_runs = 0

    @property
    def n_vacant(self) -> int:
        """Number of currently vacant (structure-kept) cells."""
        return int(np.count_nonzero(self.vacant_at >= 0))

    # ------------------------------------------------------------------
    # Building and refreshing
    # ------------------------------------------------------------------
    def required_layers(self, max_object_width: float) -> int:
        """Neighbour layers needed so the external join misses no pair.

        Two objects can only overlap when their centers are closer than
        the largest object width ``W`` in every dimension, hence at most
        ``ceil(W / cell_width)`` cells apart.
        """
        ratio = max_object_width / self.cell_width
        return max(1, math.ceil(ratio - 1e-9))

    def refresh(
        self,
        centers: np.ndarray,
        xlo: np.ndarray,
        widths: np.ndarray,
        max_object_width: float,
    ) -> None:
        """Assign all objects to cells, recycling table cells where possible.

        Parameters
        ----------
        centers:
            ``(n, 3)`` current object centers.
        xlo:
            ``(n,)`` lower x bounds of the object MBRs (sort key for the
            per-cell object lists).
        widths:
            ``(n, 3)`` per-object per-dimension widths.
        max_object_width:
            Largest width in the dataset (drives the layer count).

        The first call builds from scratch; later calls reuse cells per
        Section 4.3.1.  If the required layer count changed (object
        extents changed), the grid is rebuilt from scratch since the
        neighbourhood the table was counted under no longer applies.
        """
        layers = self.required_layers(max_object_width)
        if self.layers is not None and layers != self.layers:
            self.clear()
        self.layers = layers
        self.clock += 1
        self._assign(centers, xlo, widths)

        found = _find(self.cell_ids, self.occupied_ids)
        known = found >= 0
        self.cells_recycled += int(np.count_nonzero(known))
        # Cells that lost their population become vacant now; cells
        # already vacant keep their epoch (their age is clock-derived).
        still_occupied = np.zeros(self.cell_ids.size, dtype=bool)
        still_occupied[found[known]] = True
        self.vacant_at[(self.vacant_at < 0) & ~still_occupied] = self.clock
        self.vacant_at[still_occupied] = -1

        new_ids = self.occupied_ids[~known]
        if new_ids.size:
            self.cells_created += int(new_ids.size)
            at = np.searchsorted(self.cell_ids, new_ids)
            self.cell_ids = np.insert(self.cell_ids, at, new_ids)
            self.vacant_at = np.insert(self.vacant_at, at, -1)
            self._n_links += self._links_touching(new_ids)
        self.garbage_collect_if_needed()

    def _assign(self, centers: np.ndarray, xlo: np.ndarray, widths: np.ndarray) -> None:
        """Vectorised cell grouping: the per-slot arrays and occupied ids.

        Deterministic given (centers, xlo, widths, origin, cell_width);
        shared by :meth:`refresh` and the checkpoint-restore path
        (:meth:`from_state`) so both produce identical slot order and
        per-cell aggregates.
        """
        coords = np.floor((centers - self.origin) / self.cell_width).astype(np.int64)
        packed = pack_cell_ids(coords)
        order = np.lexsort((xlo, packed))
        sorted_packed = packed[order]

        n = sorted_packed.size
        boundaries = (
            np.empty(0, dtype=np.int64)
            if n == 0
            else np.flatnonzero(sorted_packed[1:] != sorted_packed[:-1]) + 1
        )
        starts = np.concatenate([[0], boundaries]) if n else np.empty(0, dtype=np.int64)
        stops = np.concatenate([boundaries, [n]]) if n else np.empty(0, dtype=np.int64)

        sorted_widths = widths[order]
        if n:
            min_widths = np.minimum.reduceat(sorted_widths, starts, axis=0)
            max_widths = np.maximum.reduceat(sorted_widths, starts, axis=0)
            sorted_centers = centers[order]
            center_lo = np.minimum.reduceat(sorted_centers, starts, axis=0)
            center_hi = np.maximum.reduceat(sorted_centers, starts, axis=0)
        else:
            min_widths = max_widths = np.empty((0, 3))
            center_lo = center_hi = np.empty((0, 3))
        self.occupied_ids = sorted_packed[starts]
        self.cat = order
        self.cell_starts = starts
        self.cell_stops = stops
        self.cell_min_width = min_widths
        self.cell_max_width = max_widths
        self.cell_center_lo = center_lo
        self.cell_center_hi = center_hi
        self._n_objects = int(n)

    # ------------------------------------------------------------------
    # Neighbours
    # ------------------------------------------------------------------
    def _neighbor_blocks(
        self, ids: np.ndarray, sign: int
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(rows, neighbours)`` over consecutive blocks of ``ids``.

        ``neighbours[k, i]`` is the packed id of the cell at cell
        ``ids[rows][i]`` plus ``sign`` times half-neighbourhood offset
        ``k``, -1 off the grid.  Offset-major, so each row is as sorted
        as ``ids`` and the binary searches walk the table in order.
        Blocks hold at most :data:`_BATCH` ids in all, so however fine
        the grid the lookups stay a few MB.
        """
        offsets = sign * np.asarray(half_neighborhood_offsets(self.layers), dtype=np.int64)
        step = max(1, _BATCH // len(offsets))
        for first in range(0, ids.size, step):
            rows = slice(first, first + step)
            yield rows, neighbor_cell_ids(unpack_cell_ids(ids[rows]), offsets[:, None])

    def neighbor_pairs(
        self, slots: np.ndarray, sign: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Occupied neighbours of the cells at ``slots`` (ascending).

        Returns ``(a, b, k)``: the cell of slot ``b`` lies at the cell of
        slot ``a`` plus ``sign`` times half-neighbourhood offset ``k``.
        Rows are ordered by ``(a, k)``.  With ``sign=1`` over all slots
        these are the paper's hyperlinks between occupied cells, each
        adjacent pair once; ``sign=-1`` gives the mirrored half.
        """
        slots = np.asarray(slots, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        found_a, found_b, found_k = [empty], [empty], [empty]
        for rows, ahead in self._neighbor_blocks(self.occupied_ids[slots], sign):
            # Transposed to (slot, offset), the hits come out in that order.
            found = _find(self.occupied_ids, ahead).T
            slot_at, k_at = np.nonzero(found >= 0)
            found_a.append(slots[rows][slot_at])
            found_b.append(found[slot_at, k_at])
            found_k.append(k_at)
        return np.concatenate(found_a), np.concatenate(found_b), np.concatenate(found_k)

    def _links_touching(self, ids: np.ndarray) -> int:
        """Figure 3 links of the table with at least one end in ``ids``.

        ``ids`` is a sorted subset of ``cell_ids``.  A link ``(P, P + o)``
        is counted at ``P`` when ``P`` is in ``ids``, else at ``P + o``.
        """
        count = 0
        for _rows, ahead in self._neighbor_blocks(ids, 1):
            count += int(np.count_nonzero(_find(self.cell_ids, ahead) >= 0))
        for _rows, behind in self._neighbor_blocks(ids, -1):
            count += int(
                np.count_nonzero((_find(self.cell_ids, behind) >= 0) & (_find(ids, behind) < 0))
            )
        return count

    def cell_bounds(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spatial extent ``[lo, hi)`` of the occupied cells at ``slots``."""
        coords = unpack_cell_ids(self.occupied_ids[slots]).astype(np.float64)
        lo = self.origin + coords * self.cell_width
        return lo, lo + self.cell_width

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def garbage_collect_if_needed(self) -> int:
        """Prune vacant cells when they exceed the threshold fraction.

        Returns the number of cells collected (0 when below threshold).
        """
        total = self.cell_ids.size
        vacant = self.vacant_at >= 0
        collected = int(np.count_nonzero(vacant))
        if total == 0 or collected <= self.gc_threshold * total:
            return 0
        self._n_links -= self._links_touching(self.cell_ids[vacant])
        self.cell_ids = self.cell_ids[~vacant]
        self.vacant_at = self.vacant_at[~vacant]
        self.gc_runs += 1
        return collected

    def clear(self) -> None:
        """Drop the whole grid (used when the resolution is re-tuned).

        Resets the cell table *and* the per-slot arrays retained by
        :meth:`refresh` — a stale ``cat``/``cell_starts`` pairing with an
        empty cell table would let a batched consumer read assignments
        from the dropped grid generation.
        """
        self.cell_ids = np.empty(0, dtype=np.int64)
        self.vacant_at = np.empty(0, dtype=np.int64)
        self.occupied_ids = np.empty(0, dtype=np.int64)
        self.cat = None
        self.cell_starts = None
        self.cell_stops = None
        self.cell_min_width = None
        self.cell_max_width = None
        self.cell_center_lo = None
        self.cell_center_hi = None
        self.layers = None
        self._n_objects = 0
        self._n_links = 0

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """Structural snapshot: (arrays, meta) for the checkpoint format.

        The grid cannot be rebuilt from scratch on restore: a fresh build
        re-creates every cell, spiking ``cells_created`` (an input of the
        tuner's operation cost model) and forgetting which vacant cells
        the table still holds (the footprint and the GC trigger).  So the
        table itself is serialized — cell ids and vacancy epochs — and
        everything else is derived on restore: the per-slot arrays by
        regrouping the dataset, the link count from the table.
        """
        arrays = {
            "cell_ids": self.cell_ids.copy(),
            "vacant_at": self.vacant_at.copy(),
        }
        meta: dict[str, object] = {
            "cell_width": self.cell_width,
            "origin": [float(c) for c in self.origin],
            "gc_threshold": self.gc_threshold,
            "layers": self.layers,
            "clock": self.clock,
            "cells_created": self.cells_created,
            "cells_recycled": self.cells_recycled,
            "gc_runs": self.gc_runs,
        }
        return arrays, meta

    @classmethod
    def from_state(
        cls,
        arrays: dict[str, np.ndarray],
        meta: dict[str, object],
        centers: np.ndarray,
        xlo: np.ndarray,
        widths: np.ndarray,
    ) -> PGrid:
        """Rebuild a grid from :meth:`snapshot_state` plus the dataset.

        Raises :class:`ValueError` when the checkpointed table does not
        match the dataset's current cell occupancy (wrong dataset, or a
        snapshot taken at a different step).
        """
        grid = cls(
            float(meta["cell_width"]),  # type: ignore[arg-type]
            np.asarray(meta["origin"], dtype=np.float64),
            float(meta["gc_threshold"]),  # type: ignore[arg-type]
        )
        layers = meta["layers"]
        grid.layers = None if layers is None else int(layers)  # type: ignore[call-overload]
        grid.clock = int(meta["clock"])  # type: ignore[call-overload]
        grid.cells_created = int(meta["cells_created"])  # type: ignore[call-overload]
        grid.cells_recycled = int(meta["cells_recycled"])  # type: ignore[call-overload]
        grid.gc_runs = int(meta["gc_runs"])  # type: ignore[call-overload]
        grid.cell_ids = np.asarray(arrays["cell_ids"], dtype=np.int64).copy()
        grid.vacant_at = np.asarray(arrays["vacant_at"], dtype=np.int64).copy()
        if (np.diff(grid.cell_ids) <= 0).any():
            raise ValueError("checkpointed cell ids are not strictly increasing")
        if grid.cell_ids.size:
            grid._n_links = grid._links_touching(grid.cell_ids)

        grid._assign(centers, xlo, widths)
        expected = grid.cell_ids[grid.vacant_at < 0]
        if expected.size != grid.occupied_ids.size:
            raise ValueError(
                f"checkpointed grid has {expected.size} occupied cells but the "
                f"dataset occupies {grid.occupied_ids.size}; snapshot/dataset mismatch"
            )
        unknown = np.flatnonzero(_find(expected, grid.occupied_ids) < 0)
        if unknown.size:
            raise ValueError(
                f"dataset occupies cell {int(grid.occupied_ids[unknown[0]])} which "
                "the checkpointed grid does not hold occupied; snapshot/dataset mismatch"
            )
        return grid

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_footprint(self) -> int:
        """Grid footprint in bytes under the C-struct model of Figure 3.

        O(1): the object and link totals are maintained incrementally by
        :meth:`refresh` / :meth:`garbage_collect_if_needed` instead of
        being recounted on each call.
        """
        n_cells = self.cell_ids.size
        if n_cells == 0:
            return 0
        total = _bucket_count(n_cells) * POINTER_BYTES
        total += n_cells * CELL_RECORD_BYTES
        total += (self._n_objects + self._n_links) * POINTER_BYTES
        return total

    def __repr__(self) -> str:
        return (
            f"PGrid(width={self.cell_width:.3g}, cells={self.cell_ids.size}, "
            f"occupied={self.occupied_ids.size}, vacant={self.n_vacant})"
        )
