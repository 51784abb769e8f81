"""Unit tests for the P-Grid (build, maintenance, GC, neighbour pairs)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pgrid as pgrid_module
from repro.core import PGrid, half_neighborhood_offsets, pack_cell_ids, unpack_cell_ids
from repro.datasets import make_uniform_dataset


def refresh_grid(grid, dataset):
    lo, _hi = dataset.boxes()
    grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
    return np.arange(grid.occupied_ids.size)


def small_dataset(n=200, width=10.0, side=100.0, seed=0):
    return make_uniform_dataset(
        n, width=width, bounds=(np.zeros(3), np.full(3, side)), seed=seed
    )


def members(grid, slot):
    return grid.cat[grid.cell_starts[slot] : grid.cell_stops[slot]]


def chebyshev_pairs(ids, layers):
    """Unordered index pairs of distinct cells at most ``layers`` apart,
    found by walking every pair of cells (O(cells^2))."""
    coords = unpack_cell_ids(ids).tolist()
    pairs = set()
    for i, ci in enumerate(coords):
        for j in range(i + 1, len(coords)):
            cj = coords[j]
            if max(abs(ci[0] - cj[0]), abs(ci[1] - cj[1]), abs(ci[2] - cj[2])) <= layers:
                pairs.add(frozenset((i, j)))
    return pairs


def assert_neighbor_table(grid):
    """``neighbor_pairs`` over all slots against the naive walk: every
    adjacent occupied pair exactly once, nothing else, each pair directed
    along a half offset and listed in (slot, offset) order."""
    a, b, k = grid.neighbor_pairs(np.arange(grid.occupied_ids.size))
    got = [frozenset(pair) for pair in zip(a.tolist(), b.tolist(), strict=True)]
    assert len(got) == len(set(got)), "cell pair listed twice"
    assert set(got) == chebyshev_pairs(grid.occupied_ids, grid.layers)
    offsets = half_neighborhood_offsets(grid.layers)
    coords = unpack_cell_ids(grid.occupied_ids)
    for slot_a, slot_b, index in zip(a.tolist(), b.tolist(), k.tolist(), strict=True):
        assert tuple((coords[slot_b] - coords[slot_a]).tolist()) == offsets[index]
    keys = a * len(offsets) + k
    assert (np.diff(keys) > 0).all(), "pairs not in (slot, offset) order"
    return a.size


def brute_force_footprint(grid):
    """Recompute the footprint from scratch: the object lists plus the
    Figure 3 links, counted by the naive walk over every table cell
    (occupied or vacant); the incrementally kept total must match it."""
    from repro.core.pgrid import CELL_RECORD_BYTES, _bucket_count
    from repro.joins.base import POINTER_BYTES

    n_cells = grid.cell_ids.size
    if n_cells == 0:
        return 0
    total = _bucket_count(n_cells) * POINTER_BYTES
    total += n_cells * CELL_RECORD_BYTES
    total += int((grid.cell_stops - grid.cell_starts).sum()) * POINTER_BYTES
    total += len(chebyshev_pairs(grid.cell_ids, grid.layers)) * POINTER_BYTES
    return total


def vacant_ages(grid):
    """Packed id -> age of every vacant table cell."""
    vacant = grid.vacant_at >= 0
    ages = grid.clock - grid.vacant_at[vacant] + 1
    return dict(zip(grid.cell_ids[vacant].tolist(), ages.tolist(), strict=True))


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PGrid(0.0, np.zeros(3))
        with pytest.raises(ValueError):
            PGrid(1.0, np.zeros(3), gc_threshold=0.0)
        with pytest.raises(ValueError):
            PGrid(1.0, np.zeros(2))

    def test_required_layers(self):
        grid = PGrid(10.0, np.zeros(3))
        assert grid.required_layers(10.0) == 1  # r = 1 -> one layer
        assert grid.required_layers(5.0) == 1  # coarser than objects
        assert grid.required_layers(20.0) == 2  # r = 0.5 -> two layers
        assert grid.required_layers(25.0) == 3


class TestBuild:
    def test_every_object_assigned_once(self):
        ds = small_dataset(300)
        grid = PGrid(10.0, np.zeros(3))
        slots = refresh_grid(grid, ds)
        seen = np.concatenate([members(grid, slot) for slot in slots])
        assert np.array_equal(np.sort(seen), np.arange(300))

    def test_objects_assigned_by_center(self):
        ds = small_dataset(300)
        grid = PGrid(10.0, np.zeros(3))
        slots = refresh_grid(grid, ds)
        cell_lo, cell_hi = grid.cell_bounds(slots)
        for slot in slots:
            centers = ds.centers[members(grid, slot)]
            assert (centers >= cell_lo[slot]).all()
            assert (centers < cell_hi[slot]).all()

    def test_object_lists_sorted_by_x_lo(self):
        ds = small_dataset(500)
        grid = PGrid(10.0, np.zeros(3))
        lo, _hi = ds.boxes()
        for slot in refresh_grid(grid, ds):
            xlo = lo[members(grid, slot), 0]
            assert (np.diff(xlo) >= 0).all()

    def test_only_nonempty_cells_materialized(self):
        ds = small_dataset(10, side=1000.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert grid.cell_ids.size <= 10  # far fewer than the 100^3 virtual cells

    def test_cell_metadata(self):
        ds = make_uniform_dataset(
            300,
            width_range=(5.0, 15.0),
            bounds=(np.zeros(3), np.full(3, 80.0)),
            seed=1,
        )
        grid = PGrid(15.0, np.zeros(3))
        for slot in refresh_grid(grid, ds):
            widths = ds.widths[members(grid, slot)]
            centers = ds.centers[members(grid, slot)]
            assert np.allclose(grid.cell_min_width[slot], widths.min(axis=0))
            assert np.allclose(grid.cell_max_width[slot], widths.max(axis=0))
            assert np.allclose(grid.cell_center_lo[slot], centers.min(axis=0))
            assert np.allclose(grid.cell_center_hi[slot], centers.max(axis=0))

    def test_slots_align_with_occupied_list(self):
        ds = small_dataset(200)
        grid = PGrid(10.0, np.zeros(3))
        slots = refresh_grid(grid, ds)
        assert (np.diff(grid.occupied_ids) > 0).all()
        assert np.array_equal(grid.cell_ids, grid.occupied_ids)  # nothing vacant yet
        coords = np.floor(ds.centers / 10.0).astype(np.int64)
        for slot in slots:
            cell_of_members = pack_cell_ids(coords[members(grid, slot)])
            assert (cell_of_members == grid.occupied_ids[slot]).all()


class TestHyperlinks:
    """The paper's hyperlinks, derived on demand as neighbour slot pairs."""

    def test_each_adjacent_pair_linked_exactly_once(self):
        ds = small_dataset(400, width=10.0, side=60.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert assert_neighbor_table(grid) > 0

    def test_links_point_to_adjacent_cells_only(self):
        ds = small_dataset(300, width=10.0, side=80.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        coords = unpack_cell_ids(grid.occupied_ids)
        offsets = half_neighborhood_offsets(grid.layers)
        slots = np.arange(grid.occupied_ids.size)
        for sign in (1, -1):
            a, b, k = grid.neighbor_pairs(slots, sign=sign)
            assert a.size
            delta = coords[b] - coords[a]
            assert np.abs(delta).max() <= grid.layers
            assert np.array_equal(delta, sign * np.asarray(offsets)[k])

    def test_multiple_layers_when_cells_finer_than_objects(self):
        ds = small_dataset(300, width=20.0, side=80.0)
        grid = PGrid(10.0, np.zeros(3))  # cell width = half the object width
        refresh_grid(grid, ds)
        assert grid.layers == 2
        assert_neighbor_table(grid)

    def test_incremental_new_cells_get_links(self):
        ds = small_dataset(300, width=10.0, side=60.0, seed=2)
        grid = PGrid(10.0, np.zeros(3), gc_threshold=1.0)
        refresh_grid(grid, ds)
        # Move everything, creating new cells next to recycled ones.
        ds.translate(np.full((300, 3), 7.0))
        refresh_grid(grid, ds)
        assert grid.cells_recycled > 0 and grid.n_vacant > 0
        assert_neighbor_table(grid)
        assert grid.memory_footprint() == brute_force_footprint(grid)

    def test_subset_pairs_in_both_directions_match_the_walk(self):
        ds = small_dataset(400, width=10.0, side=60.0, seed=3)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        slots = np.arange(0, grid.occupied_ids.size, 3)
        offsets = half_neighborhood_offsets(grid.layers)
        coords = unpack_cell_ids(grid.occupied_ids).tolist()
        for sign in (1, -1):
            expected = []
            for slot in slots.tolist():
                for index, offset in enumerate(offsets):
                    target = [coords[slot][d] + sign * offset[d] for d in range(3)]
                    if target in coords:
                        expected.append((slot, coords.index(target), index))
            a, b, k = grid.neighbor_pairs(slots, sign=sign)
            got = list(zip(a.tolist(), b.tolist(), k.tolist(), strict=True))
            assert got == expected


    def test_lookups_split_into_blocks_give_the_same_answer(self, monkeypatch):
        # A fine grid's neighbour lookups run in bounded blocks of cells;
        # pairs, their order and the link count must not depend on it.
        ds = small_dataset(300, width=10.0, side=60.0, seed=4)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=1.0)  # two layers
        refresh_grid(grid, ds)
        ds.translate(np.full((300, 3), 6.0))
        refresh_grid(grid, ds)
        slots = np.arange(grid.occupied_ids.size)
        whole = [grid.neighbor_pairs(slots, sign) for sign in (1, -1)]
        links = grid._n_links
        monkeypatch.setattr(pgrid_module, "_BATCH", 100)  # one or two cells a block
        for sign, want in zip((1, -1), whole, strict=True):
            for got, expected in zip(grid.neighbor_pairs(slots, sign), want, strict=True):
                assert np.array_equal(got, expected)
        assert grid._links_touching(grid.cell_ids) == links
        assert grid.memory_footprint() == brute_force_footprint(grid)


class TestIncrementalMaintenance:
    def test_cells_recycled_when_objects_stay(self):
        ds = small_dataset(300)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        created_first = grid.cells_created
        refresh_grid(grid, ds)  # same positions: all cells recycled
        assert grid.cells_created == created_first
        assert grid.cells_recycled >= created_first

    def test_vacated_cells_kept_and_aged(self):
        ds = small_dataset(50, width=5.0, side=30.0, seed=3)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.99)
        refresh_grid(grid, ds)
        n_before = grid.cell_ids.size
        ds.translate(np.full((50, 3), 11.0))  # everyone moves 2+ cells
        refresh_grid(grid, ds)
        assert grid.n_vacant > 0
        assert grid.cell_ids.size >= n_before  # vacants kept (GC off)
        assert all(age >= 1 for age in vacant_ages(grid).values())

    def test_vacant_cell_reused_on_return(self):
        ds = small_dataset(50, width=5.0, side=30.0, seed=4)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.99)
        refresh_grid(grid, ds)
        ids_before = set(grid.cell_ids.tolist())
        shift = np.full((50, 3), 11.0)
        ds.translate(shift)
        refresh_grid(grid, ds)
        created_mid = grid.cells_created
        ds.translate(-shift)  # everyone returns home
        refresh_grid(grid, ds)
        assert grid.cells_created == created_mid  # nothing new created
        assert set(grid.cell_ids.tolist()) >= ids_before

    def test_layer_change_forces_rebuild(self):
        ds = small_dataset(100, width=10.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert grid.layers == 1
        lo, _hi = ds.boxes()
        # Same grid, but objects now twice as wide: two layers needed.
        wide = np.full_like(ds.widths, 20.0)
        grid.refresh(ds.centers, lo[:, 0], wide, 20.0)
        assert grid.layers == 2
        assert grid.memory_footprint() == brute_force_footprint(grid)


class TestAges:
    """Cell age (§4.3.1): 0 while occupied, 1 on the vacating refresh,
    +1 per refresh spent vacant; recycling makes the cell occupied again."""

    def test_new_cells_are_occupied(self):
        ds = small_dataset(100)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert grid.clock == 1
        assert (grid.vacant_at == -1).all()
        assert grid.n_vacant == 0

    def test_vacating_then_recycling(self):
        ds = small_dataset(50, width=5.0, side=30.0, seed=8)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=1.0)
        refresh_grid(grid, ds)
        home = set(grid.occupied_ids.tolist())
        shift = np.full((50, 3), 11.0)
        ds.translate(shift)
        refresh_grid(grid, ds)
        ages = vacant_ages(grid)
        assert set(ages) == home - set(grid.occupied_ids.tolist())
        assert set(ages.values()) == {1}
        assert (grid.vacant_at[grid.vacant_at >= 0] == grid.clock).all()
        recycled_before = grid.cells_recycled
        ds.translate(-shift)
        refresh_grid(grid, ds)
        assert grid.cells_recycled - recycled_before == len(home)
        back = np.searchsorted(grid.cell_ids, sorted(home))
        assert (grid.vacant_at[back] == -1).all()

    def test_repr_counts_cells(self):
        ds = small_dataset(50, width=5.0, side=30.0, seed=9)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=1.0)
        refresh_grid(grid, ds)
        text = repr(grid)
        assert f"cells={grid.cell_ids.size}" in text
        assert f"occupied={grid.occupied_ids.size}" in text
        assert "vacant=0" in text


class TestGarbageCollection:
    def _scatter(self, grid, ds, repeats):
        rng = np.random.default_rng(9)
        for _ in range(repeats):
            ds.update_positions(rng.uniform(0, 30.0, size=ds.centers.shape))
            refresh_grid(grid, ds)

    def test_triggered_above_threshold(self):
        ds = small_dataset(30, width=5.0, side=30.0, seed=5)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        self._scatter(grid, ds, 10)
        total = grid.cell_ids.size
        assert grid.n_vacant <= 0.35 * total + 1
        assert grid.gc_runs > 0

    def test_gc_dissolves_stale_hyperlinks(self):
        # The link count drops every link to a collected cell: it equals
        # a fresh count over the surviving table.
        ds = small_dataset(30, width=5.0, side=30.0, seed=6)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        self._scatter(grid, ds, 10)
        assert grid.gc_runs > 0
        assert grid.vacant_at.size == grid.cell_ids.size
        assert np.isin(grid.occupied_ids, grid.cell_ids).all()
        assert grid._n_links == len(chebyshev_pairs(grid.cell_ids, grid.layers))

    def test_high_threshold_never_collects(self):
        ds = small_dataset(30, width=5.0, side=30.0, seed=7)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=1.0)
        self._scatter(grid, ds, 6)
        assert grid.gc_runs == 0


class TestFootprint:
    def test_footprint_grows_with_cells(self):
        small = small_dataset(50, side=50.0)
        large = small_dataset(1000, side=200.0)
        grid_s = PGrid(10.0, np.zeros(3))
        grid_l = PGrid(10.0, np.zeros(3))
        refresh_grid(grid_s, small)
        refresh_grid(grid_l, large)
        assert grid_l.memory_footprint() > grid_s.memory_footprint()

    def test_empty_grid_has_zero_footprint(self):
        assert PGrid(10.0, np.zeros(3)).memory_footprint() == 0

    def test_finer_grid_uses_more_memory(self):
        ds = small_dataset(500, width=10.0, side=100.0)
        coarse = PGrid(10.0, np.zeros(3))
        fine = PGrid(3.0, np.zeros(3))
        refresh_grid(coarse, ds)
        refresh_grid(fine, ds)
        assert fine.memory_footprint() > coarse.memory_footprint()


class TestIncrementalAccounting:
    """The vacancy table and O(1) footprint must track a from-scratch count."""

    def _drift(self, grid, ds, steps, seed=13):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            ds.update_positions(rng.uniform(0, 30.0, size=ds.centers.shape))
            refresh_grid(grid, ds)
            yield

    def test_footprint_matches_brute_force_across_steps(self):
        ds = small_dataset(40, width=5.0, side=30.0, seed=11)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        for _ in self._drift(grid, ds, 12):
            assert grid.memory_footprint() == brute_force_footprint(grid)
        assert grid.gc_runs > 0  # the equivalence held across GC too

    def test_footprint_matches_without_gc(self):
        ds = small_dataset(40, width=5.0, side=30.0, seed=12)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=1.0)
        for _ in self._drift(grid, ds, 8):
            assert grid.memory_footprint() == brute_force_footprint(grid)
        assert grid.n_vacant > 0  # vacants accumulated, still exact

    def test_vacant_set_matches_cell_walk(self):
        ds = small_dataset(40, width=5.0, side=30.0, seed=14)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        for _ in self._drift(grid, ds, 10):
            walked = set(grid.cell_ids.tolist()) - set(grid.occupied_ids.tolist())
            assert set(vacant_ages(grid)) == walked
            assert grid.n_vacant == len(walked)

    def test_vacant_ages_advance_without_per_cell_touch(self):
        ds = small_dataset(50, width=5.0, side=30.0, seed=15)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.99)
        refresh_grid(grid, ds)
        shift = np.full((50, 3), 11.0)
        ds.translate(shift)
        refresh_grid(grid, ds)
        first = vacant_ages(grid)
        assert first and all(age == 1 for age in first.values())
        ds.translate(shift)
        refresh_grid(grid, ds)
        later = vacant_ages(grid)
        for cell_id, age in first.items():
            if cell_id in later:
                assert later[cell_id] == age + 1


class TestCheckpoint:
    def _drifted(self):
        ds = small_dataset(60, width=5.0, side=30.0, seed=21)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        rng = np.random.default_rng(22)
        while grid.gc_runs == 0 or grid.n_vacant == 0:
            ds.update_positions(rng.uniform(0, 30.0, size=ds.centers.shape))
            refresh_grid(grid, ds)
        return ds, grid, rng

    def _restore(self, grid, ds):
        arrays, meta = grid.snapshot_state()
        lo, _hi = ds.boxes()
        return PGrid.from_state(arrays, meta, ds.centers, lo[:, 0], ds.widths)

    def test_round_trip_after_gc(self):
        ds, grid, rng = self._drifted()
        restored = self._restore(grid, ds)
        slots = np.arange(grid.occupied_ids.size)
        for sign in (1, -1):
            pairs = zip(
                restored.neighbor_pairs(slots, sign), grid.neighbor_pairs(slots, sign),
                strict=True,
            )
            for got, want in pairs:
                assert np.array_equal(got, want)
        assert restored.memory_footprint() == grid.memory_footprint()
        assert restored.n_vacant == grid.n_vacant
        for name in ("cells_created", "cells_recycled", "gc_runs", "clock", "layers"):
            assert getattr(restored, name) == getattr(grid, name), name
        for name in ("cell_ids", "vacant_at", "occupied_ids", "cat", "cell_starts"):
            assert np.array_equal(getattr(restored, name), getattr(grid, name)), name
        # Both grids evolve identically from here on.
        for _ in range(4):
            ds.update_positions(rng.uniform(0, 30.0, size=ds.centers.shape))
            refresh_grid(grid, ds)
            refresh_grid(restored, ds)
            assert restored.memory_footprint() == grid.memory_footprint()
            assert np.array_equal(restored.vacant_at, grid.vacant_at)
            assert restored.gc_runs == grid.gc_runs

    def test_snapshot_holds_only_the_table(self):
        _ds, grid, _rng = self._drifted()
        arrays, _meta = grid.snapshot_state()
        assert set(arrays) == {"cell_ids", "vacant_at"}

    def test_restore_rejects_a_different_dataset(self):
        ds, grid, rng = self._drifted()
        arrays, meta = grid.snapshot_state()
        ds.update_positions(rng.uniform(0, 30.0, size=ds.centers.shape))
        lo, _hi = ds.boxes()
        with pytest.raises(ValueError, match="snapshot/dataset mismatch"):
            PGrid.from_state(arrays, meta, ds.centers, lo[:, 0], ds.widths)


class TestClear:
    def test_clear_resets_batched_arrays(self):
        # Regression: clear() dropped the cell table but left the stacked
        # per-occupied-cell arrays of the dead generation behind; a
        # batched consumer could read assignments for cells that no
        # longer exist.
        ds = small_dataset(200)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert grid.cat is not None
        grid.clear()
        for name in (
            "cat",
            "cell_starts",
            "cell_stops",
            "cell_min_width",
            "cell_max_width",
            "cell_center_lo",
            "cell_center_hi",
        ):
            assert getattr(grid, name) is None, name
        assert grid.cell_ids.size == 0
        assert grid.vacant_at.size == 0
        assert grid.occupied_ids.size == 0
        assert grid.n_vacant == 0
        assert grid.memory_footprint() == 0

    def test_rebuild_after_clear_is_consistent(self):
        ds = small_dataset(200)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        before = grid.memory_footprint()
        grid.clear()
        refresh_grid(grid, ds)
        assert grid.memory_footprint() == before
        assert grid.memory_footprint() == brute_force_footprint(grid)
