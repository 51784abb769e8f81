"""Benchmarks for the extensions beyond the paper's figures.

Covers the threaded external join (§2.1's parallelisation remark), the
memory-quota mode (§6.3), and the two extra baselines (indexed
nested-loop R-Tree, ST2B moving-object index), asserting each
extension's contract next to its timing.
"""

from __future__ import annotations

import pytest

from repro.core import ThermalJoin
from repro.experiments.figures import ALGORITHM_FACTORIES
from repro.experiments.workloads import scaled_neural

from conftest import NEURAL_N


@pytest.mark.parametrize("executor", [None, "thread:2", "thread:4"])
def test_parallel_external_join(benchmark, executor):
    """Threaded external join at 1/2/4 workers (identical results)."""
    dataset, _motion, _labels = scaled_neural(NEURAL_N, seed=801)
    join = ThermalJoin(resolution=1.0, count_only=True, executor=executor)

    result = benchmark(lambda: join.step(dataset))
    assert result.n_results > 0


def test_parallel_results_match_serial():
    dataset, _motion, _labels = scaled_neural(NEURAL_N, seed=802)
    serial = ThermalJoin(resolution=1.0, count_only=True).step(dataset)
    threaded = ThermalJoin(
        resolution=1.0, count_only=True, executor="thread:4"
    ).step(dataset)
    assert threaded.n_results == serial.n_results
    assert threaded.stats.overlap_tests == serial.stats.overlap_tests


@pytest.mark.parametrize("quota_factor", [1.0, 0.25])
def test_memory_quota_step(benchmark, quota_factor):
    """Quota-constrained steps: a tight quota coarsens the grid."""
    dataset, _motion, _labels = scaled_neural(NEURAL_N, seed=803)
    unconstrained = ThermalJoin(resolution=0.5, count_only=True).step(dataset)
    quota = max(int(unconstrained.stats.memory_bytes * quota_factor), 10_000)
    join = ThermalJoin(resolution=0.5, count_only=True, memory_quota_bytes=quota)

    result = benchmark(lambda: join.step(dataset))
    assert result.stats.memory_bytes <= quota
    assert result.n_results == unconstrained.n_results


@pytest.mark.parametrize("name", ["inl-rtree", "st2b"])
def test_extension_baseline_step(benchmark, name):
    """One moving-workload step for each extension baseline."""
    dataset, motion, _labels = scaled_neural(NEURAL_N, seed=804)
    algorithm = ALGORITHM_FACTORIES[name]()

    def step():
        result = algorithm.step(dataset)
        motion.step(dataset)
        return result

    result = benchmark(step)
    assert result.n_results > 0


def test_st2b_incremental_updates_bounded():
    """ST2B's maintenance is proportional to the objects that changed
    cell — far fewer than n for the default translation distance."""
    from repro.joins import ST2BJoin

    dataset, motion, _labels = scaled_neural(NEURAL_N, seed=805)
    join = ST2BJoin()
    join.step(dataset)
    motion.step(dataset)
    join.step(dataset)
    # Updates happened, but not a full rebuild's worth.
    assert 0 < join.index_deletes < NEURAL_N


def test_inl_rtree_pays_both_directions():
    """The indexed nested loop discovers every pair twice (once from
    each endpoint's range query), so its object tests are bounded below
    by 2x the result count; the synchronous traversal finds each pair
    once."""
    from repro.joins import IndexedNestedLoopRTreeJoin, SynchronousRTreeJoin

    dataset, _motion, _labels = scaled_neural(NEURAL_N, seed=806)
    inl = IndexedNestedLoopRTreeJoin(fanout=16).step(dataset)
    sync = SynchronousRTreeJoin(fanout=16).step(dataset)
    assert inl.n_results == sync.n_results
    assert inl.stats.overlap_tests >= 2 * inl.n_results
