"""Ablation benchmarks — the design choices DESIGN.md calls out.

Times THERMAL-JOIN with each mechanism individually disabled and asserts
the mechanism's measurable effect: hot spots remove overlap tests,
incremental maintenance removes rebuild work, garbage collection bounds
the footprint.
"""

from __future__ import annotations

import pytest

from repro.core import ThermalJoin
from repro.experiments.workloads import scaled_neural, scaled_uniform
from repro.simulation import SimulationRunner

from conftest import NEURAL_N

VARIANTS = {
    "full": {},
    "no-hot-spots": {"hot_spots": False},
    "no-enclosure": {"enclosure_shortcut": False},
    "rebuild-each-step": {"incremental": False},
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_ablation_step(benchmark, variant):
    """One moving-workload step per ablation variant."""
    dataset, motion, _labels = scaled_neural(NEURAL_N, seed=701)
    join = ThermalJoin(resolution=1.0, count_only=True, **VARIANTS[variant])

    def step():
        result = join.step(dataset)
        motion.step(dataset)
        return result

    result = benchmark(step)
    assert result.n_results > 0


def test_hot_spots_remove_overlap_tests():
    """The central mechanism: disabling hot spots adds overlap tests for
    every within-cell pair (the hot-spot emits) while leaving the result
    identical.  The magnitude depends on how much of the selectivity is
    in-cell; the direction must always hold."""
    dataset, _motion, _labels = scaled_neural(NEURAL_N, seed=702)
    with_hs_join = ThermalJoin(resolution=1.0, count_only=True)
    with_hs = with_hs_join.step(dataset)
    without_hs = ThermalJoin(
        resolution=1.0, count_only=True, hot_spots=False
    ).step(dataset)
    assert without_hs.n_results == with_hs.n_results
    assert without_hs.stats.overlap_tests > with_hs.stats.overlap_tests
    # ...and the hot spots did real work: pairs emitted without any test.
    assert with_hs_join.last_step_info["shortcut_pairs"] > 0
    assert with_hs_join.last_step_info["hot_spot_cells"] > 0


def test_incremental_maintenance_recycles_cells():
    """Incremental refresh reuses cells; rebuild-from-scratch creates
    them all again every step."""
    dataset, motion = scaled_uniform(3000, seed=703)
    incremental = ThermalJoin(resolution=1.0, count_only=True)
    rebuild = ThermalJoin(resolution=1.0, count_only=True, incremental=False)
    for _ in range(4):
        incremental.step(dataset)
        rebuild.step(dataset)
        motion.step(dataset)
    assert incremental.pgrid.cells_recycled > 0
    assert rebuild.pgrid.cells_recycled == 0


def test_gc_bounds_footprint():
    """With GC off the vacant cells accumulate; the 35% policy keeps the
    grid's footprint bounded over a long run.  Uses a sparse drifting
    cluster so plenty of cells are vacated behind the moving objects."""
    from repro.experiments.workloads import scaled_clustered

    def run(gc_threshold):
        dataset, motion, _labels = scaled_clustered(
            1500, sd_factor=0.6, translation=35.0, seed=704
        )
        join = ThermalJoin(resolution=1.0, count_only=True, gc_threshold=gc_threshold)
        runner = SimulationRunner(dataset, motion, join)
        runner.run(12)
        return join.pgrid.cell_ids.size

    assert run(0.35) < run(1.0)
