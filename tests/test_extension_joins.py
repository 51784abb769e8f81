"""Tests for the extension joins (ST2B, indexed-NL R-Tree) and the
THERMAL-JOIN extensions (parallel external join, memory quota)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.datasets import make_uniform_workload
from repro.geometry import brute_force_pairs, pack_pairs, unique_pairs
from repro.joins import IndexedNestedLoopRTreeJoin, ST2BJoin
from tests.conftest import assert_matches_oracle

EXTENSION_ALGORITHMS = [ST2BJoin, IndexedNestedLoopRTreeJoin]


@pytest.mark.parametrize("algorithm_cls", EXTENSION_ALGORITHMS)
class TestExtensionJoinsAgainstOracle:
    def test_uniform(self, algorithm_cls, uniform_small):
        assert_matches_oracle(algorithm_cls(), uniform_small)

    def test_varied_widths(self, algorithm_cls, uniform_varied):
        assert_matches_oracle(algorithm_cls(), uniform_varied)

    def test_clustered(self, algorithm_cls, clustered_small):
        assert_matches_oracle(algorithm_cls(), clustered_small)

    def test_neural(self, algorithm_cls, neural_small):
        assert_matches_oracle(algorithm_cls(), neural_small)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_tiny(self, algorithm_cls, n):
        from repro.datasets import SpatialDataset

        rng = np.random.default_rng(n)
        ds = SpatialDataset(rng.uniform(0, 10.0, size=(n, 3)), 3.0)
        assert_matches_oracle(algorithm_cls(), ds)

    def test_across_steps(self, algorithm_cls):
        dataset, motion = make_uniform_workload(
            300, width=15.0, bounds=(np.zeros(3), np.full(3, 110.0)), seed=51
        )
        algo = algorithm_cls()
        n = len(dataset)
        for _ in range(4):
            result = algo.step(dataset)
            got = pack_pairs(*unique_pairs(*result.pairs, n), n)
            exp = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
            assert np.array_equal(got, exp)
            motion.step(dataset)


class TestST2BMaintenance:
    def test_incremental_updates_tracked(self):
        dataset, motion = make_uniform_workload(
            400, width=15.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=53
        )
        algo = ST2BJoin()
        algo.step(dataset)
        inserts_after_build = algo.index_inserts
        assert inserts_after_build == 400  # bulk construction
        assert algo.index_deletes == 0
        motion.step(dataset)
        algo.step(dataset)
        # Only objects that changed cell were updated.
        moved = algo.index_deletes
        assert 0 < moved <= 400
        assert algo.index_inserts == inserts_after_build + moved

    def test_footprint_includes_tree_nodes(self, uniform_small):
        algo = ST2BJoin()
        result = algo.step(uniform_small)
        assert result.stats.memory_bytes > 0
        assert algo._tree.node_count() >= 1

    def test_stationary_objects_cause_no_updates(self, uniform_small):
        algo = ST2BJoin()
        algo.step(uniform_small)
        inserts = algo.index_inserts
        algo.step(uniform_small)  # nothing moved
        assert algo.index_inserts == inserts
        assert algo.index_deletes == 0


class TestParallelThermal:
    def test_parallel_equals_serial(self, uniform_small, neural_small):
        for dataset in (uniform_small, neural_small):
            n = len(dataset)
            serial = ThermalJoin(resolution=1.0).step(dataset)
            parallel = ThermalJoin(resolution=1.0, executor="thread:4").step(dataset)
            assert parallel.n_results == serial.n_results
            assert parallel.stats.overlap_tests == serial.stats.overlap_tests
            assert np.array_equal(
                pack_pairs(*unique_pairs(*parallel.pairs, n), n),
                pack_pairs(*unique_pairs(*serial.pairs, n), n),
            )

    def test_parallel_across_simulation_steps(self):
        dataset, motion = make_uniform_workload(
            500, width=15.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=57
        )
        join = ThermalJoin(resolution=1.0, executor="thread:3")
        n = len(dataset)
        for _ in range(4):
            result = join.step(dataset)
            exp = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
            got = pack_pairs(*unique_pairs(*result.pairs, n), n)
            assert np.array_equal(got, exp)
            motion.step(dataset)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThermalJoin(executor="thread:0")


class TestMemoryQuota:
    def test_quota_bounds_footprint(self, uniform_small):
        unbounded = ThermalJoin(resolution=0.4).step(uniform_small)
        quota = unbounded.stats.memory_bytes // 3
        bounded = ThermalJoin(resolution=0.4, memory_quota_bytes=quota).step(
            uniform_small
        )
        assert bounded.stats.memory_bytes <= quota
        assert bounded.n_results == unbounded.n_results  # still correct

    def test_quota_correctness(self, neural_small):
        assert_matches_oracle(
            ThermalJoin(resolution=1.0, memory_quota_bytes=50_000), neural_small
        )

    def test_generous_quota_changes_nothing(self, uniform_small):
        base = ThermalJoin(resolution=1.0).step(uniform_small)
        quota = ThermalJoin(
            resolution=1.0, memory_quota_bytes=10**12
        ).step(uniform_small)
        assert quota.stats.memory_bytes == base.stats.memory_bytes
        assert quota.stats.overlap_tests == base.stats.overlap_tests

    def test_invalid_quota(self):
        with pytest.raises(ValueError):
            ThermalJoin(memory_quota_bytes=0)

    def test_infeasible_quota_fails_fast(self, uniform_small):
        # Regression: a quota below the footprint floor (even a single
        # cell over-spends it) used to coarsen forever — the projected
        # footprint is monotone in the cell width with a positive
        # infimum, so the loop never terminated.  Now it raises.
        join = ThermalJoin(memory_quota_bytes=1)
        with pytest.raises(ValueError, match="memory_quota_bytes"):
            join.step(uniform_small)

    def test_quota_just_above_floor_still_runs(self, uniform_small):
        join = ThermalJoin(resolution=1.0, memory_quota_bytes=1)
        floor = join._footprint_floor(uniform_small)
        generous = ThermalJoin(resolution=1.0, memory_quota_bytes=2 * floor)
        result = generous.step(uniform_small)
        assert result.n_results == ThermalJoin(resolution=1.0).step(
            uniform_small
        ).n_results

    def test_quota_with_tuning_stays_correct(self):
        dataset, motion = make_uniform_workload(
            400, width=15.0, bounds=(np.zeros(3), np.full(3, 110.0)), seed=59
        )
        join = ThermalJoin(memory_quota_bytes=40_000)
        n = len(dataset)
        for _ in range(6):
            result = join.step(dataset)
            assert result.stats.memory_bytes <= 40_000
            exp = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
            got = pack_pairs(*unique_pairs(*result.pairs, n), n)
            assert np.array_equal(got, exp)
            motion.step(dataset)
