"""Unit tests for cell-id packing and neighbour offsets (repro.core.cells)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import half_neighborhood_offsets, pack_cell_ids, unpack_cell_ids
from repro.core.cells import COORD_BIAS, neighbor_cell_ids


class TestPacking:
    def test_roundtrip(self):
        coords = np.array([[0, 0, 0], [1, -2, 3], [-100, 50, 7]], dtype=np.int64)
        packed = pack_cell_ids(coords)
        assert np.array_equal(unpack_cell_ids(packed), coords)
        for k in range(coords.shape[0]):
            assert tuple(unpack_cell_ids(packed[k : k + 1])[0]) == tuple(coords[k])

    def test_distinct_coords_distinct_ids(self):
        rng = np.random.default_rng(1)
        coords = np.unique(rng.integers(-50, 50, size=(500, 3)), axis=0)
        packed = pack_cell_ids(coords)
        assert np.unique(packed).size == coords.shape[0]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            pack_cell_ids(np.array([[1 << 21, 0, 0]]))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            pack_cell_ids(np.array([1, 2, 3]))


class TestHalfNeighborhood:
    def test_one_layer_has_13_offsets(self):
        # The paper: 13 adjacent cells in 3-D when cell width equals the
        # largest object width (Figure 4a).
        assert len(half_neighborhood_offsets(1)) == 13

    def test_count_formula(self):
        for layers in (1, 2, 3):
            expected = ((2 * layers + 1) ** 3 - 1) // 2
            assert len(half_neighborhood_offsets(layers)) == expected

    def test_no_offset_and_its_negation(self):
        offsets = set(half_neighborhood_offsets(2))
        for ox, oy, oz in offsets:
            assert (-ox, -oy, -oz) not in offsets

    def test_union_with_negation_covers_neighborhood(self):
        offsets = half_neighborhood_offsets(1)
        full = set(offsets) | {(-x, -y, -z) for x, y, z in offsets}
        assert len(full) == 26
        assert (0, 0, 0) not in full

    def test_per_dimension_layers(self):
        offsets = half_neighborhood_offsets((2, 1, 1))
        assert len(offsets) == ((5 * 3 * 3) - 1) // 2
        assert max(abs(o[0]) for o in offsets) == 2
        assert max(abs(o[1]) for o in offsets) == 1

    def test_zero_layers(self):
        assert half_neighborhood_offsets(0) == []

    def test_negative_layers_raise(self):
        with pytest.raises(ValueError):
            half_neighborhood_offsets(-1)


class TestNeighborCellIds:
    def test_matches_packing_the_shifted_coordinates(self):
        rng = np.random.default_rng(2)
        coords = rng.integers(-1000, 1000, size=(200, 3))
        for offset in half_neighborhood_offsets(2):
            for sign in (1, -1):
                shifted = coords + sign * np.asarray(offset)
                got = neighbor_cell_ids(coords, sign * np.asarray(offset))
                assert np.array_equal(got, pack_cell_ids(shifted))

    def test_offset_table_has_one_row_per_offset(self):
        rng = np.random.default_rng(3)
        coords = rng.integers(-1000, 1000, size=(50, 3))
        offsets = np.asarray(half_neighborhood_offsets(1))
        table = neighbor_cell_ids(coords, offsets[:, None])
        assert table.shape == (13, 50)
        for row, offset in zip(table, offsets, strict=True):
            assert np.array_equal(row, pack_cell_ids(coords + offset))

    def test_off_grid_neighbours_map_to_minus_one(self):
        edge = COORD_BIAS - 1
        coords = np.array(
            [[edge, 0, 0], [-COORD_BIAS, 5, 5], [0, edge, -COORD_BIAS], [3, 4, 5]],
            dtype=np.int64,
        )
        up = neighbor_cell_ids(coords, np.array([1, 0, 0]))
        assert up[0] == -1 and up[1] >= 0 and up[2] >= 0
        down = neighbor_cell_ids(coords, np.array([-1, 0, 0]))
        assert down[1] == -1 and down[0] >= 0
        diagonal = neighbor_cell_ids(coords, np.array([0, 1, -1]))
        assert diagonal[2] == -1
        assert up[3] == pack_cell_ids(np.array([[4, 4, 5]]))[0]
        # -1 can never match a cell: packed ids are non-negative.
        assert (pack_cell_ids(coords) >= 0).all()
