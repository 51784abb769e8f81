"""The T-Grid: throw-away nested grids inside non-hot-spot P-Grid cells.

When a P-Grid cell is not itself a hot spot, THERMAL-JOIN subdivides it
with a temporary grid whose cell width — *per dimension* — equals the
width of the smallest object assigned to that P-Grid cell (Section
4.2.2, Figure 5).  Every T-Grid cell is then a hot spot by construction:

* objects within one T-Grid cell are emitted as results combinatorially,
  without overlap tests;
* objects of different T-Grid cells are joined with the optimized plane
  sweep (including the enclosure shortcut), looking
  ``ceil(max object width / T-cell width)`` layers out per dimension so
  no overlapping pair is missed.

Unlike the P-Grid's linked-hash table, the T-Grid is array-based (the
paper: few cells, negligible empty-cell overhead, very fast to build)
and thrown away after its cell is processed — Algorithm 2's
``TGrid.initialize`` / ``TGrid.clear``.

Implementation note: both planning and joining *batch across P-Grid
cells*.  One vectorised pass plans every cell's T-Grid: it stacks the
cells' extents and width bounds, assigns all objects to T-cells with
per-cell key offsets (so one stable sort groups every cell's T-cells),
and finds neighbouring T-cell pairs with one binary search per
half-neighbourhood offset for each distinct layer triple, never once
per cell.  The joining — hot-spot emission, sweeps with the enclosure
shortcut — happens in the same whole-step vectorised kernels the P-Grid
level uses, over one combined grouping of all T-cells of the step.
Results, emission order and test accounting are identical to
processing each T-Grid individually.

A pathological corner the paper's "in practice only a few cells" remark
glosses over: if one extremely small object lands in a cell of much
larger ones, the nominal T-Grid could explode to millions of cells.  We
guard with a cell budget and fall back to a plain in-cell plane sweep —
the result is identical, only the cost model changes for that cell.
The budget is checked on the floating-point cell count, so even a
count too large for an integer (a member of width ``1e-300``) takes
the fallback.

The hot-spot emits verify the guarantee from the *actual* center spread
of each T-cell (spread strictly below the smallest member width in
every dimension) rather than from the nominal cell width.  In exact
arithmetic the two are equivalent; the spread form stays sound when
floating-point assignment puts a center an ulp past a cell boundary.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.core.celljoin import emit_hot_cells_batched, join_cell_pairs_batched
from repro.core.cells import half_neighborhood_offsets
from repro.geometry import self_join_groups

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.core.cells import PGridCell
    from repro.geometry import PairAccumulator

__all__ = ["TGrid"]


class TGrid:
    """Batched T-Grid joiner (one instance per ThermalJoin).

    Parameters
    ----------
    max_cells_per_object:
        Budget factor: a P-Grid cell with ``k`` objects may use at most
        ``max(64, max_cells_per_object * k)`` T-Grid cells before the
        plane-sweep fallback kicks in.
    """

    def __init__(self, max_cells_per_object: int = 16) -> None:
        if max_cells_per_object <= 0:
            raise ValueError(
                f"max_cells_per_object must be positive, got {max_cells_per_object}"
            )
        self.max_cells_per_object = int(max_cells_per_object)
        #: Largest combined T-Grid population (T-cells) of any step.
        self.peak_cells = 0
        #: Number of P-Grid cells joined via the fallback sweep.
        self.fallbacks = 0

    def join_cells(
        self,
        cells: Sequence[PGridCell],
        lo: np.ndarray,
        hi: np.ndarray,
        centers: np.ndarray,
        widths: np.ndarray,
        accumulator: PairAccumulator,
    ) -> tuple[int, int]:
        """Internal join of many non-hot-spot P-Grid cells, batched.

        Parameters
        ----------
        cells:
            Iterable of :class:`~repro.core.cells.PGridCell` (the large,
            non-hot-spot cells of the step).
        lo, hi:
            Global box arrays for the whole dataset.
        centers, widths:
            Global center / per-dimension width arrays.
        accumulator:
            Pair accumulator receiving the results.

        Returns
        -------
        tuple
            ``(tests, shortcut_pairs)``.
        """
        tests = 0
        shortcut_pairs = 0

        # ---- Phase 1: plan every cell's T-Grid in one vectorised pass.
        fallback_cells, plan = self._plan(cells, centers)
        self.fallbacks += len(fallback_cells)

        # ---- Phase 2: fallback cells — plain in-cell sweeps, batched.
        if fallback_cells:
            fb_cat = np.concatenate([c.object_idx for c in fallback_cells])
            fb_sizes = np.asarray(
                [c.object_idx.size for c in fallback_cells], dtype=np.int64
            )
            fb_stops = np.cumsum(fb_sizes)
            fb_starts = fb_stops - fb_sizes

            def on_fallback(left, right, _groups):
                accumulator.extend(left, right)

            tests += self_join_groups(
                lo,
                hi,
                fb_cat,
                fb_starts,
                fb_stops,
                np.arange(fb_sizes.size, dtype=np.int64),
                on_fallback,
                count="x-sweep",
            )

        if plan is None:
            return tests, shortcut_pairs

        # ---- Phase 3: combined T-cell grouping and batched joining.
        cat, starts, stops, pair_a, pair_b = plan
        self.peak_cells = max(self.peak_cells, starts.size)

        sorted_centers = centers[cat]
        center_lo = np.minimum.reduceat(sorted_centers, starts, axis=0)
        center_hi = np.maximum.reduceat(sorted_centers, starts, axis=0)
        min_member_width = np.minimum.reduceat(widths[cat], starts, axis=0)
        is_hot = ((center_hi - center_lo) < min_member_width).all(axis=1)

        hot_slots = np.flatnonzero(is_hot & (stops - starts > 1))
        shortcut_pairs += emit_hot_cells_batched(
            cat, starts, stops, hot_slots, accumulator
        )
        # Floating-point edge: unverifiable T-cells sweep internally.
        cold_slots = np.flatnonzero(~is_hot & (stops - starts > 1))
        if cold_slots.size:

            def on_cold(left, right, _groups):
                accumulator.extend(left, right)

            tests += self_join_groups(
                lo, hi, cat, starts, stops, cold_slots, on_cold, count="x-sweep"
            )

        if pair_a.size:
            pair_tests, pair_shortcuts = join_cell_pairs_batched(
                lo,
                hi,
                cat,
                starts,
                stops,
                center_lo,
                center_hi,
                pair_a,
                pair_b,
                accumulator,
            )
            tests += pair_tests
            shortcut_pairs += pair_shortcuts
        return tests, shortcut_pairs

    def _plan(
        self, cells: Sequence[PGridCell], centers: np.ndarray
    ) -> tuple[list[PGridCell], tuple[np.ndarray, ...] | None]:
        """Assign the objects of all multi-member cells to T-cells at once.

        Returns ``(fallback_cells, plan)``.  ``fallback_cells`` are the
        cells over budget, in input order.  ``plan`` is ``None`` when no
        cell gets a T-Grid, else ``(cat, starts, stops, pair_a, pair_b)``:
        object ids grouped per T-cell (x order kept within each T-cell),
        each T-cell's ``[start, stop)`` range in ``cat``, and the
        neighbouring T-cell pairs as slot indices, ordered by (P-cell,
        half-neighbourhood offset, source T-cell).
        """
        # Gather: the only per-cell Python left.
        cells = [cell for cell in cells if cell.object_idx.size > 1]
        if not cells:
            return [], None
        sizes = np.asarray([c.object_idx.size for c in cells], dtype=np.int64)
        cell_lo = np.asarray([c.lo for c in cells], dtype=np.float64)
        extent = np.asarray([c.hi for c in cells], dtype=np.float64) - cell_lo
        t_width = np.asarray([c.min_obj_width for c in cells], dtype=np.float64)
        max_width = np.asarray([c.max_obj_width for c in cells], dtype=np.float64)

        # Budget: decided on the float cell count, before any int64 cast,
        # so a minuscule member (huge or infinite count) takes the
        # fallback instead of wrapping around.
        with np.errstate(over="ignore"):
            dims_f = np.maximum(np.ceil(extent / t_width - 1e-9), 1.0)
            over = dims_f.prod(axis=1) > np.maximum(
                64, self.max_cells_per_object * sizes
            )
        fallback_cells = [cell for cell, o in zip(cells, over.tolist(), strict=True) if o]
        keep = ~over
        if not keep.any():
            return fallback_cells, None
        sizes = sizes[keep]
        cell_lo = cell_lo[keep]
        t_width = t_width[keep]
        dims = dims_f[keep].astype(np.int64)
        with np.errstate(over="ignore"):
            layers = np.maximum(np.ceil(max_width[keep] / t_width - 1e-9), 1.0)
        layers = np.maximum(np.minimum(layers, dims - 1), 0).astype(np.int64)

        # Assign: per-object T-cell keys, offset by the T-cell count of
        # the cells before, so one stable sort groups every cell's
        # T-cells in cell order and keeps the per-key x order.
        obj = np.concatenate(
            [c.object_idx for c, k in zip(cells, keep.tolist(), strict=True) if k]
        )
        owner = np.repeat(np.arange(sizes.size), sizes)
        local = np.floor((centers[obj] - cell_lo[owner]) / t_width[owner])
        obj_dims = dims[owner]
        np.clip(local, 0, obj_dims - 1, out=local)
        local = local.astype(np.int64)
        n_tcells = dims.prod(axis=1)
        key_base = np.cumsum(n_tcells) - n_tcells
        keys = key_base[owner] + (
            (local[:, 0] * obj_dims[:, 1] + local[:, 1]) * obj_dims[:, 2] + local[:, 2]
        )
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        cat = obj[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [obj.size]])
        occupied_keys = sorted_keys[starts]
        slot_owner = owner[order[starts]]

        # Pair: per distinct layer triple, one binary search over all
        # occupied keys per half-neighbourhood offset.
        slot_dims = dims[slot_owner]
        slot_base = key_base[slot_owner]
        coords_x, rem = np.divmod(occupied_keys - slot_base, slot_dims[:, 1] * slot_dims[:, 2])
        coords_y, coords_z = np.divmod(rem, slot_dims[:, 2])
        # Distinct triples by a row sort (plain np.unique stays off the
        # step path, see repro.geometry.sorted_unique).
        by_layers = np.lexsort(layers.T[::-1])
        ranked = layers[by_layers]
        first = np.ones(ranked.shape[0], dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        triple_id = np.empty(sizes.size, dtype=np.int64)
        triple_id[by_layers] = np.cumsum(first) - 1
        offset_lists = [half_neighborhood_offsets(row) for row in ranked[first]]
        n_offsets = max(len(offsets) for offsets in offset_lists)
        slot_triple = triple_id[slot_owner]
        last = occupied_keys.size - 1
        found_a = []
        found_b = []
        ranks = []
        for triple, offsets in enumerate(offset_lists):
            src = np.flatnonzero(slot_triple == triple)
            sx, sy, sz = coords_x[src], coords_y[src], coords_z[src]
            sd = slot_dims[src]
            sbase = slot_base[src]
            src_rank = slot_owner[src] * n_offsets
            for index, (ox, oy, oz) in enumerate(offsets):
                nx = sx + ox
                ny = sy + oy
                nz = sz + oz
                valid = (
                    (nx >= 0) & (nx < sd[:, 0])
                    & (ny >= 0) & (ny < sd[:, 1])
                    & (nz >= 0) & (nz < sd[:, 2])
                )
                neighbor_keys = sbase + (nx * sd[:, 1] + ny) * sd[:, 2] + nz
                found = np.minimum(np.searchsorted(occupied_keys, neighbor_keys), last)
                hit = np.flatnonzero(valid & (occupied_keys[found] == neighbor_keys))
                found_a.append(src[hit])
                found_b.append(found[hit])
                ranks.append(src_rank[hit] + index)

        # Order: by (P-cell, offset, source T-cell); each (P-cell, offset)
        # run comes from one search above, already in source order.
        if found_a:
            by_rank = np.argsort(np.concatenate(ranks), kind="stable")
            pair_a = np.concatenate(found_a)[by_rank]
            pair_b = np.concatenate(found_b)[by_rank]
        else:
            pair_a = pair_b = np.empty(0, dtype=np.int64)
        return fallback_cells, (cat, starts, stops, pair_a, pair_b)
