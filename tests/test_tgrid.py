"""Unit tests for the batched T-Grid planner (repro.core.tgrid)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import repro.core.tgrid as tgrid_module
from repro.core import PGrid, TGrid, ThermalJoin
from repro.core.celljoin import emit_hot_cells_batched, join_cell_pairs_batched
from repro.core.cells import PGridCell, half_neighborhood_offsets
from repro.datasets import SpatialDataset
from repro.datasets.motion import RandomTranslation
from repro.geometry import (
    PairAccumulator,
    mbr,
    pack_pairs,
    self_join_groups,
    unique_pairs,
)
from repro.joins import NestedLoopJoin


def build_cells(dataset, resolution=2.0):
    """Build a coarse P-Grid and return its multi-member cells."""
    lo, _hi = dataset.boxes()
    grid = PGrid(resolution * dataset.max_width, dataset.bounds[0])
    grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
    return [cell for cell in grid.occupied if cell.object_idx.size > 1]


def naive_internal_pairs(dataset, cells):
    """Oracle: all overlapping pairs *within* each cell."""
    lo, hi = dataset.boxes()
    expected = set()
    for cell in cells:
        members = cell.object_idx
        for a in range(members.size):
            for b in range(a + 1, members.size):
                i, j = int(members[a]), int(members[b])
                if mbr.overlap_single(lo[i], hi[i], lo[j], hi[j]):
                    expected.add((min(i, j), max(i, j)))
    return expected


def reference_join_cells(tgrid, cells, lo, hi, centers, widths, accumulator):
    """Oracle: ``TGrid.join_cells`` as it was, planning one cell at a time.

    Phase 1 assigns each cell's objects to T-cells and searches each
    cell's neighbouring T-cell pairs in its own Python loop; Phases 2
    and 3 are the ones the library still runs.  The library's planner
    must reproduce this function's results, emission order, overlap
    tests and diagnostics exactly.
    """
    tests = 0
    shortcut_pairs = 0
    cat_parts = []
    starts_parts = []
    stops_parts = []
    pair_a = []
    pair_b = []
    fallback_slots = []
    position = 0
    slot_base = 0

    for cell in cells:
        obj = cell.object_idx
        k = obj.size
        if k < 2:
            continue
        t_width = np.asarray(cell.min_obj_width, dtype=np.float64)
        extent = cell.hi - cell.lo
        dims = np.maximum(np.ceil(extent / t_width - 1e-9).astype(np.int64), 1)
        n_cells = int(dims.prod())
        if n_cells > max(64, tgrid.max_cells_per_object * k):
            tgrid.fallbacks += 1
            fallback_slots.append(cell)
            continue

        local = np.floor((centers[obj] - cell.lo) / t_width).astype(np.int64)
        np.clip(local, 0, dims - 1, out=local)
        keys = (local[:, 0] * dims[1] + local[:, 1]) * dims[2] + local[:, 2]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        cat_parts.append(obj[order])

        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts_local = np.concatenate([[0], boundaries])
        stops_local = np.concatenate([boundaries, [k]])
        occupied_keys = sorted_keys[starts_local]
        n_occupied = occupied_keys.size
        starts_parts.append(starts_local + position)
        stops_parts.append(stops_local + position)

        layers = np.minimum(
            np.asarray(
                [
                    max(
                        1,
                        math.ceil(
                            float(cell.max_obj_width[d]) / float(t_width[d]) - 1e-9
                        ),
                    )
                    for d in range(3)
                ],
                dtype=np.int64,
            ),
            dims - 1,
        )
        layers = np.maximum(layers, 0)
        stride_x = int(dims[1] * dims[2])
        stride_y = int(dims[2])
        coords_x, rem = np.divmod(occupied_keys, stride_x)
        coords_y, coords_z = np.divmod(rem, stride_y)
        for ox, oy, oz in half_neighborhood_offsets(layers):
            nx = coords_x + ox
            ny = coords_y + oy
            nz = coords_z + oz
            valid = (
                (nx >= 0) & (nx < dims[0])
                & (ny >= 0) & (ny < dims[1])
                & (nz >= 0) & (nz < dims[2])
            )
            if not valid.any():
                continue
            neighbor_keys = (nx * dims[1] + ny) * dims[2] + nz
            found_slots = np.searchsorted(occupied_keys, neighbor_keys)
            found_slots = np.clip(found_slots, 0, n_occupied - 1)
            hit = valid & (occupied_keys[found_slots] == neighbor_keys)
            if hit.any():
                src = np.flatnonzero(hit)
                pair_a.append(src + slot_base)
                pair_b.append(found_slots[src] + slot_base)

        position += k
        slot_base += n_occupied

    def on_sweep(left, right, _groups):
        accumulator.extend(left, right)

    if fallback_slots:
        fb_cat = np.concatenate([c.object_idx for c in fallback_slots])
        fb_sizes = np.asarray([c.object_idx.size for c in fallback_slots], dtype=np.int64)
        fb_stops = np.cumsum(fb_sizes)
        fb_starts = fb_stops - fb_sizes
        tests += self_join_groups(
            lo, hi, fb_cat, fb_starts, fb_stops,
            np.arange(fb_sizes.size, dtype=np.int64), on_sweep, count="x-sweep",
        )

    if not starts_parts:
        return tests, shortcut_pairs

    cat = np.concatenate(cat_parts)
    starts = np.concatenate(starts_parts)
    stops = np.concatenate(stops_parts)
    tgrid.peak_cells = max(tgrid.peak_cells, starts.size)

    sorted_centers = centers[cat]
    center_lo = np.minimum.reduceat(sorted_centers, starts, axis=0)
    center_hi = np.maximum.reduceat(sorted_centers, starts, axis=0)
    min_member_width = np.minimum.reduceat(widths[cat], starts, axis=0)
    is_hot = ((center_hi - center_lo) < min_member_width).all(axis=1)

    hot_slots = np.flatnonzero(is_hot & (stops - starts > 1))
    shortcut_pairs += emit_hot_cells_batched(cat, starts, stops, hot_slots, accumulator)
    cold_slots = np.flatnonzero(~is_hot & (stops - starts > 1))
    if cold_slots.size:
        tests += self_join_groups(
            lo, hi, cat, starts, stops, cold_slots, on_sweep, count="x-sweep"
        )

    if pair_a:
        pair_tests, pair_shortcuts = join_cell_pairs_batched(
            lo, hi, cat, starts, stops, center_lo, center_hi,
            np.concatenate(pair_a), np.concatenate(pair_b), accumulator,
        )
        tests += pair_tests
        shortcut_pairs += pair_shortcuts
    return tests, shortcut_pairs


def varied_dataset(n=300, seed=0, width_low=2.0, width_high=9.0, side=60.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, side, size=(n, 3))
    widths = rng.uniform(width_low, width_high, size=(n, 3))
    return SpatialDataset(centers, widths, bounds=(np.zeros(3), np.full(3, side)))


class TestJoinCells:
    def test_matches_naive_within_cell_join(self):
        dataset = varied_dataset(seed=1)
        cells = build_cells(dataset)
        assert cells, "fixture produced no multi-member cells"
        lo, hi = dataset.boxes()
        acc = PairAccumulator()
        TGrid().join_cells(cells, lo, hi, dataset.centers, dataset.widths, acc)
        n = len(dataset)
        got = set(zip(*(a.tolist() for a in unique_pairs(*acc.as_arrays(), n)), strict=True))
        assert got == naive_internal_pairs(dataset, cells)

    def test_no_duplicate_emissions(self):
        dataset = varied_dataset(seed=2)
        cells = build_cells(dataset)
        lo, hi = dataset.boxes()
        acc = PairAccumulator()
        TGrid().join_cells(cells, lo, hi, dataset.centers, dataset.widths, acc)
        i_idx, j_idx = acc.as_arrays()
        n = len(dataset)
        keys = pack_pairs(i_idx, j_idx, n)
        assert np.unique(keys).size == keys.size

    def test_fallback_on_degenerate_resolution(self):
        # One minuscule object among giants would demand a huge T-Grid;
        # the budget forces the sweep fallback, results stay exact.
        rng = np.random.default_rng(3)
        centers = rng.uniform(20.0, 30.0, size=(40, 3))
        widths = np.full((40, 3), 20.0)
        widths[0] = 0.01
        dataset = SpatialDataset(
            centers, widths, bounds=(np.zeros(3), np.full(3, 50.0))
        )
        cells = build_cells(dataset, resolution=2.0)
        lo, hi = dataset.boxes()
        tgrid = TGrid(max_cells_per_object=4)
        acc = PairAccumulator()
        tgrid.join_cells(cells, lo, hi, dataset.centers, dataset.widths, acc)
        assert tgrid.fallbacks > 0
        n = len(dataset)
        got = set(zip(*(a.tolist() for a in unique_pairs(*acc.as_arrays(), n)), strict=True))
        assert got == naive_internal_pairs(dataset, cells)

    def test_peak_cells_tracked(self):
        dataset = varied_dataset(seed=4)
        cells = build_cells(dataset)
        lo, hi = dataset.boxes()
        tgrid = TGrid()
        tgrid.join_cells(cells, lo, hi, dataset.centers, dataset.widths, acc := PairAccumulator())
        assert tgrid.peak_cells > 0
        assert len(acc) >= 0

    def test_single_member_cells_skipped(self):
        dataset = varied_dataset(n=12, seed=5, side=200.0)
        lo, _hi = dataset.boxes()
        grid = PGrid(2.0 * dataset.max_width, dataset.bounds[0])
        grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
        lo, hi = dataset.boxes()
        acc = PairAccumulator()
        tests, shortcuts = TGrid().join_cells(
            grid.occupied, lo, hi, dataset.centers, dataset.widths, acc
        )
        # Sparse layout: nothing shares a cell, nothing to join.
        expected = naive_internal_pairs(dataset, grid.occupied)
        n = len(dataset)
        got = set(zip(*(a.tolist() for a in unique_pairs(*acc.as_arrays(), n)), strict=True))
        assert got == expected

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            TGrid(max_cells_per_object=0)

    def test_counts_are_deterministic(self):
        dataset = varied_dataset(seed=6)
        cells = build_cells(dataset)
        lo, hi = dataset.boxes()
        runs = []
        for _ in range(2):
            acc = PairAccumulator(count_only=True)
            runs.append(
                TGrid().join_cells(
                    cells, lo, hi, dataset.centers, dataset.widths, acc
                )
            )
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# The vectorised planner against the per-cell reference
# ----------------------------------------------------------------------


def run_join(join_cells, cells, dataset, max_cells_per_object=16):
    """Join ``cells``, then every other one of them, on one ``TGrid``.

    The second call checks that ``fallbacks`` accumulates and
    ``peak_cells`` keeps its maximum across calls.  Returns, per call,
    the counters, the emitted pairs in order and the diagnostics.
    """
    lo, hi = dataset.boxes()
    tgrid = TGrid(max_cells_per_object=max_cells_per_object)
    outcome = []
    for batch in (cells, cells[::2]):
        acc = PairAccumulator()
        counts = join_cells(tgrid, batch, lo, hi, dataset.centers, dataset.widths, acc)
        left, right = acc.as_arrays()
        outcome.append(
            (counts, left.tolist(), right.tolist(), tgrid.fallbacks, tgrid.peak_cells)
        )
    return outcome


def assert_matches_reference(cells, dataset, max_cells_per_object=16):
    got = run_join(TGrid.join_cells, cells, dataset, max_cells_per_object)
    expected = run_join(reference_join_cells, cells, dataset, max_cells_per_object)
    assert got == expected
    return got


def record_offset_calls(monkeypatch):
    """Record the layers argument of each ``half_neighborhood_offsets`` call
    made by ``repro.core.tgrid`` (not by the reference oracle)."""
    calls = []

    def recording(layers):
        calls.append(tuple(int(v) for v in layers))
        return half_neighborhood_offsets(layers)

    monkeypatch.setattr(tgrid_module, "half_neighborhood_offsets", recording)
    return calls


def anisotropic_dataset():
    # Per-dimension width ranges differ, so cells end up with different
    # neighbour layer triples.
    rng = np.random.default_rng(11)
    n = 3000
    widths = np.column_stack(
        [
            rng.uniform(2.0, 4.0, n),
            rng.uniform(1.0, 3.0, n),
            rng.uniform(4.0, 6.0, n),
        ]
    )
    centers = rng.uniform(0.0, 60.0, size=(n, 3))
    return SpatialDataset(centers, widths, bounds=(np.zeros(3), np.full(3, 60.0)))


def flat_dataset():
    # Every object spans the P-Grid cell width in z (dims_z == 1, so
    # the z layer count clips to 0); the objects with x > 40 span it in
    # all three dimensions (no neighbour offsets at all).
    rng = np.random.default_rng(12)
    n = 2000
    centers = rng.uniform(0.0, 64.0, size=(n, 3))
    widths = np.column_stack(
        [rng.uniform(1.0, 3.0, n), rng.uniform(1.0, 3.0, n), np.full(n, 8.0)]
    )
    widths[centers[:, 0] > 40.0] = 8.0
    return SpatialDataset(centers, widths, bounds=(np.zeros(3), np.full(3, 64.0)))


def lattice_cells():
    """Hand-built cells whose centers sit on T-cell edges and upper faces.

    Six P-Grid cells of extent 8 in a row along x; every cell has a
    member of width 2 (so T-cells are 2 wide) and centers on the
    lattice ``lo + {0, 2, 4, 6, 8}``; 8 is the cell's own upper face,
    which the assignment must clip into the last T-cell.
    """
    rng = np.random.default_rng(13)
    per_cell = 40
    n_cells = 6
    centers = []
    widths = []
    for c in range(n_cells):
        lo = np.array([8.0 * c, 0.0, 0.0])
        centers.append(lo + 2.0 * rng.integers(0, 5, size=(per_cell, 3)))
        w = rng.choice([2.0, 3.0, 4.5], size=(per_cell, 3))
        w[0] = 2.0
        widths.append(w)
    centers = np.concatenate(centers)
    widths = np.concatenate(widths)
    dataset = SpatialDataset(
        centers, widths, bounds=(np.zeros(3), np.array([8.0 * n_cells, 8.0, 8.0]))
    )
    box_lo, _box_hi = dataset.boxes()
    cells = []
    for c in range(n_cells):
        obj = np.arange(c * per_cell, (c + 1) * per_cell, dtype=np.int64)
        obj = obj[np.argsort(box_lo[obj, 0], kind="stable")]
        lo = np.array([8.0 * c, 0.0, 0.0])
        cell = PGridCell((c, 0, 0), lo, lo + 8.0)
        cell.object_idx = obj
        cell.min_obj_width = widths[obj].min(axis=0)
        cell.max_obj_width = widths[obj].max(axis=0)
        cell.center_lo = centers[obj].min(axis=0)
        cell.center_hi = centers[obj].max(axis=0)
        cells.append(cell)
    return dataset, cells


class TestMatchesPerCellReference:
    def test_anisotropic_layer_triples(self, monkeypatch):
        dataset = anisotropic_dataset()
        cells = build_cells(dataset, resolution=1.0)
        calls = record_offset_calls(monkeypatch)
        outcome = assert_matches_reference(cells, dataset)
        assert len(set(calls)) > 1, "fixture gave every cell the same layers"
        assert outcome[0][0][0] > 0

    def test_flat_cells_clip_layers_to_zero(self, monkeypatch):
        dataset = flat_dataset()
        cells = build_cells(dataset, resolution=1.0)
        calls = record_offset_calls(monkeypatch)
        assert_matches_reference(cells, dataset)
        triples = set(calls)
        assert (0, 0, 0) in triples
        assert any(t[2] == 0 and t != (0, 0, 0) for t in triples)

    def test_fallbacks_interleaved_with_tgrids(self):
        rng = np.random.default_rng(14)
        n = 2500
        centers = rng.uniform(0.0, 60.0, size=(n, 3))
        widths = rng.uniform(2.0, 6.0, size=(n, 3))
        widths[::7] = 0.05
        dataset = SpatialDataset(centers, widths, bounds=(np.zeros(3), np.full(3, 60.0)))
        cells = build_cells(dataset, resolution=1.0)
        outcome = assert_matches_reference(cells, dataset, max_cells_per_object=4)
        _counts, _left, _right, fallbacks, peak_cells = outcome[0]
        assert 0 < fallbacks < len(cells)
        assert peak_cells > 0

    def test_single_member_and_empty_cell_lists(self):
        dataset = varied_dataset(n=400, seed=15, side=120.0)
        lo, _hi = dataset.boxes()
        grid = PGrid(2.0 * dataset.max_width, dataset.bounds[0])
        grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
        sizes = [cell.object_idx.size for cell in grid.occupied]
        assert 1 in sizes and max(sizes) > 1
        assert_matches_reference(list(grid.occupied), dataset)
        singles = [cell for cell in grid.occupied if cell.object_idx.size == 1]
        assert run_join(TGrid.join_cells, singles, dataset) == [((0, 0), [], [], 0, 0)] * 2
        assert run_join(TGrid.join_cells, [], dataset) == [((0, 0), [], [], 0, 0)] * 2

    def test_centers_on_tcell_edges_and_upper_face(self):
        dataset, cells = lattice_cells()
        outcome = assert_matches_reference(cells, dataset)
        assert outcome[0][0][0] > 0
        n = len(dataset)
        _counts, left, right, _fallbacks, _peak = outcome[0]
        pairs = unique_pairs(np.asarray(left), np.asarray(right), n)
        got = set(zip(*(a.tolist() for a in pairs), strict=True))
        assert got == naive_internal_pairs(dataset, cells)


class TestPlannerPins:
    def test_one_offset_enumeration_per_layer_triple(self, monkeypatch):
        # Equal widths: every cell has 2 T-cells per dimension and layers
        # (1, 1, 1), so the whole batch needs one offset enumeration
        # (the per-cell planner made one per cell).
        rng = np.random.default_rng(16)
        n = 4000
        centers = rng.uniform(0.0, 60.0, size=(n, 3))
        dataset = SpatialDataset(centers, 1.5, bounds=(np.zeros(3), np.full(3, 60.0)))
        cells = build_cells(dataset, resolution=2.0)
        assert len(cells) >= 300
        calls = record_offset_calls(monkeypatch)
        lo, hi = dataset.boxes()
        acc = PairAccumulator()
        TGrid().join_cells(cells, lo, hi, dataset.centers, dataset.widths, acc)
        assert calls == [(1, 1, 1)]
        got = set(zip(*(a.tolist() for a in unique_pairs(*acc.as_arrays(), n)), strict=True))
        assert got == naive_internal_pairs(dataset, cells)

    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_series_matches_reference_planner(self, executor, monkeypatch):
        def series():
            rng = np.random.default_rng(17)
            n = 900
            dataset = SpatialDataset(
                rng.uniform(0.0, 80.0, size=(n, 3)),
                rng.uniform(1.0, 6.0, size=(n, 3)),
                bounds=(np.zeros(3), np.full(3, 80.0)),
            )
            motion = RandomTranslation(dataset, distance=3.0, seed=18)
            join = ThermalJoin(resolution=2.0, tgrid_min_objects=2, executor=executor)
            steps = []
            try:
                for _ in range(4):
                    result = join.step(dataset)
                    keys = np.sort(pack_pairs(*unique_pairs(*result.pairs, n), n))
                    steps.append(
                        (
                            result.n_results,
                            result.stats.overlap_tests,
                            join.last_step_info["tgrid_cells"],
                            keys.tolist(),
                        )
                    )
                    motion.step(dataset)
            finally:
                join.executor.close()
            return steps

        got = series()
        with monkeypatch.context() as patch:
            patch.setattr(TGrid, "join_cells", reference_join_cells)
            expected = series()
        assert got == expected
        assert all(step[2] > 0 for step in got)


class TestBudgetOverflow:
    def test_minuscule_member_takes_the_fallback(self):
        # extent / 1e-300 does not fit int64 (and the cell count
        # overflows even a float); the budget must still see it.
        rng = np.random.default_rng(19)
        n = 400
        centers = rng.uniform(0.0, 60.0, size=(n, 3))
        widths = np.full((n, 3), 4.0)
        widths[0] = 1e-300
        centers[0] = centers[1]
        dataset = SpatialDataset(centers, widths, bounds=(np.zeros(3), np.full(3, 60.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cells = build_cells(dataset, resolution=3.0)
            lo, hi = dataset.boxes()
            tgrid = TGrid()
            acc = PairAccumulator()
            tgrid.join_cells(cells, lo, hi, dataset.centers, dataset.widths, acc)
            join = ThermalJoin(resolution=3.0, tgrid_min_objects=2)
            got_pairs = join.join_pairs(dataset)
            expected_pairs = NestedLoopJoin().join_pairs(dataset)
        assert tgrid.fallbacks == 1
        assert join.tgrid.fallbacks == 1
        got = set(zip(*(a.tolist() for a in unique_pairs(*acc.as_arrays(), n)), strict=True))
        assert got == naive_internal_pairs(dataset, cells)
        assert any(0 in pair for pair in got)
        got_keys = pack_pairs(*unique_pairs(*got_pairs, n), n)
        expected_keys = pack_pairs(*unique_pairs(*expected_pairs, n), n)
        assert np.array_equal(got_keys, expected_keys)
