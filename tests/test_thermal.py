"""Correctness and behaviour tests for THERMAL-JOIN itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HillClimbingTuner, ThermalJoin
from repro.datasets import (
    SpatialDataset,
    make_clustered_workload,
    make_neural_workload,
    make_uniform_dataset,
    make_uniform_workload,
)
from repro.geometry import brute_force_pairs, pack_pairs, unique_pairs
from repro.joins import NestedLoopJoin
from tests.conftest import assert_matches_oracle


class TestAgainstOracle:
    @pytest.mark.parametrize("resolution", [0.3, 0.5, 1.0, 1.5, 2.0])
    def test_uniform_at_resolutions(self, resolution, uniform_small):
        assert_matches_oracle(ThermalJoin(resolution=resolution), uniform_small)

    def test_varied_widths(self, uniform_varied):
        assert_matches_oracle(ThermalJoin(resolution=1.0), uniform_varied)

    def test_clustered(self, clustered_small):
        assert_matches_oracle(ThermalJoin(resolution=1.0), clustered_small)

    def test_neural(self, neural_small):
        assert_matches_oracle(ThermalJoin(resolution=1.0), neural_small)

    def test_extreme_width_variation(self):
        # Widths spanning 20x: exercises T-Grids and the fallback path.
        ds = make_uniform_dataset(
            250,
            width_range=(1.0, 20.0),
            bounds=(np.zeros(3), np.full(3, 100.0)),
            seed=21,
        )
        assert_matches_oracle(ThermalJoin(resolution=1.0), ds)

    def test_self_tuning_remains_correct_across_steps(self):
        dataset, motion = make_uniform_workload(
            600, width=15.0, bounds=(np.zeros(3), np.full(3, 140.0)), seed=13
        )
        join = ThermalJoin(cost_model="operations")
        n = len(dataset)
        for _ in range(10):
            result = join.step(dataset)
            got = pack_pairs(*unique_pairs(*result.pairs, n), n)
            exp = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
            assert np.array_equal(got, exp)
            assert result.n_results == exp.size
            motion.step(dataset)

    def test_incremental_fixed_resolution_across_steps(self):
        dataset, motion, _labels = make_clustered_workload(
            400, n_clusters=2, sd=8.0, width=6.0,
            bounds=(np.zeros(3), np.full(3, 200.0)), seed=17,
        )
        join = ThermalJoin(resolution=1.0)
        n = len(dataset)
        for _ in range(8):
            result = join.step(dataset)
            got = pack_pairs(*unique_pairs(*result.pairs, n), n)
            exp = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
            assert np.array_equal(got, exp)
            motion.step(dataset)

    def test_neural_workload_over_steps(self):
        dataset, motion, _labels = make_neural_workload(700, seed=19)
        join = ThermalJoin(resolution=1.0)
        n = len(dataset)
        for _ in range(5):
            result = join.step(dataset)
            got = pack_pairs(*unique_pairs(*result.pairs, n), n)
            exp = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
            assert np.array_equal(got, exp)
            motion.step(dataset)

    def test_single_object(self):
        ds = SpatialDataset(np.zeros((1, 3)) + 5.0, 1.0)
        assert ThermalJoin(resolution=1.0).step(ds).n_results == 0

    def test_all_in_one_hot_spot(self):
        rng = np.random.default_rng(0)
        centers = 50.0 + rng.uniform(0, 0.5, size=(20, 3))
        ds = SpatialDataset(centers, 10.0, bounds=(np.zeros(3), np.full(3, 100.0)))
        result = ThermalJoin(resolution=1.0).step(ds)
        assert result.n_results == 20 * 19 // 2
        # The hot spot reports everything combinatorially: zero tests
        # inside; only the (empty) neighbourhood could add tests.
        assert result.stats.overlap_tests == 0


class TestHotSpotBehaviour:
    def test_hot_spots_reduce_tests(self, uniform_small):
        # Same dataset and structure, r=1 (hot spots) vs r=2 (none).
        hot = ThermalJoin(resolution=1.0).step(uniform_small)
        coarse = ThermalJoin(resolution=2.0).step(uniform_small)
        assert hot.stats.overlap_tests < coarse.stats.overlap_tests
        assert hot.n_results == coarse.n_results

    def test_hot_spot_cells_reported(self, uniform_small):
        join = ThermalJoin(resolution=1.0)
        join.step(uniform_small)
        assert join.last_step_info["hot_spot_cells"] > 0

    def test_coarse_grid_uses_tgrids(self, uniform_small):
        # Small populations take the in-cell sweep; force the T-Grid by
        # lowering its population threshold.
        join = ThermalJoin(resolution=2.0, tgrid_min_objects=2)
        join.step(uniform_small)
        info = join.last_step_info
        assert info["tgrid_cells"] > 0

    def test_tests_never_exceed_nested_loop(self, uniform_small):
        n = len(uniform_small)
        result = ThermalJoin(resolution=1.0).step(uniform_small)
        assert result.stats.overlap_tests < n * (n - 1) // 2


class TestMaintenance:
    def test_grid_persists_across_steps(self):
        dataset, motion = make_uniform_workload(
            400, width=15.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=23
        )
        join = ThermalJoin(resolution=1.0)
        join.step(dataset)
        grid_first = join.pgrid
        motion.step(dataset)
        join.step(dataset)
        assert join.pgrid is grid_first  # recycled, not rebuilt

    def test_retuning_rebuilds_grid(self):
        dataset, motion = make_uniform_workload(
            400, width=15.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=29
        )
        join = ThermalJoin(cost_model="operations")
        join.step(dataset)
        width_first = join.last_step_info["cell_width"]
        assert join.pgrid is None  # first probe moved r -> grid dropped
        motion.step(dataset)
        join.step(dataset)  # rebuilt from scratch at the new resolution
        assert join.last_step_info["cell_width"] != width_first

    def test_gc_runs_in_long_simulations(self):
        dataset, motion = make_uniform_workload(
            150,
            width=4.0,
            translation=30.0,
            bounds=(np.zeros(3), np.full(3, 80.0)),
            seed=31,
        )
        join = ThermalJoin(resolution=1.0)
        for _ in range(20):
            join.step(dataset)
            motion.step(dataset)
        assert join.pgrid.gc_runs > 0


class TestPackableEdge:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_cells_at_both_ends_of_the_packable_range(self, axis):
        # Cells 0 and 2^20 - 1 along one axis: the last packable
        # coordinate.  Their outward neighbours lie off the grid and must
        # simply be missing, on the full step and on the delta step alike.
        centers = np.full((4, 3), 0.5)
        centers[:, axis] = [0.5, 1.2, 1048575.5, 1048575.9]
        dataset = SpatialDataset(centers, 1.0)
        n = len(dataset)
        join = ThermalJoin(resolution=1.0, pair_maintenance=True, churn_threshold=1.0)

        def expected_keys():
            return pack_pairs(*unique_pairs(*NestedLoopJoin().join_pairs(dataset), n), n)

        full = join.step(dataset)
        assert join.last_step_info["occupied_cells"] == 3
        assert np.array_equal(pack_pairs(*unique_pairs(*full.pairs, n), n), expected_keys())
        assert full.n_results == 2

        before = dataset.centers.copy()
        dataset.centers[3, axis] = 1048575.2
        dataset.centers[1, axis] = 0.9
        delta = dataset.commit_motion(before)
        result = join.step_delta(dataset, delta)
        assert join.last_step_info["mode"] == "incremental"
        assert np.array_equal(pack_pairs(*unique_pairs(*result.pairs, n), n), expected_keys())
        assert result.n_results == 2


class TestConfiguration:
    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            ThermalJoin(resolution=0.0)

    def test_rejects_bad_cost_model(self):
        with pytest.raises(ValueError):
            ThermalJoin(cost_model="magic")

    def test_fixed_resolution_disables_tuner(self):
        join = ThermalJoin(resolution=0.8)
        assert join.tuner is None
        assert join.current_resolution == 0.8

    def test_custom_tuner_accepted(self):
        tuner = HillClimbingTuner(initial=0.6)
        join = ThermalJoin(tuner=tuner)
        assert join.current_resolution == 0.6

    def test_count_only_mode(self, uniform_small):
        full = ThermalJoin(resolution=1.0).step(uniform_small)
        counted = ThermalJoin(resolution=1.0, count_only=True).step(uniform_small)
        assert counted.n_results == full.n_results
        assert counted.pairs is None


class TestStatistics:
    def test_phase_breakdown_present(self, uniform_small):
        join = ThermalJoin(resolution=1.0)
        result = join.step(uniform_small)
        phases = result.stats.phase_seconds
        assert set(phases) == {"building", "internal", "external"}
        assert all(v >= 0 for v in phases.values())

    def test_footprint_positive_after_step(self, uniform_small):
        join = ThermalJoin(resolution=1.0)
        assert join.memory_footprint() == 0
        join.step(uniform_small)
        assert join.memory_footprint() > 0

    def test_distance_join_via_enlarged_extent(self, uniform_small):
        # The paper's neural use case: distance join as enlarged overlap join.
        enlarged = uniform_small.with_enlarged_extent(4.0)
        base = ThermalJoin(resolution=1.0).step(uniform_small)
        wide = ThermalJoin(resolution=1.0).step(enlarged)
        assert wide.n_results > base.n_results
        assert_matches_oracle(ThermalJoin(resolution=1.0), enlarged)
