"""The verify kernels: chunking, per-kernel contracts, recorded oracle.

Each of the five numpy primitives of ``repro.geometry.kernels`` is
pinned against checks that do not depend on its own implementation:
the brute-force oracle's pair set, closed-form overlap-test counts, and
invariance under batch chunking.  Whole-algorithm series are pinned by
the per-step counts recorded before the kernel layer existed.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.datasets import IntermittentTranslation, make_uniform_workload
from repro.engine import chunk_by_volume
from repro.geometry import (
    PairAccumulator,
    brute_force_pairs,
    chunk_edges_by_volume,
    group_by_keys,
    pack_pairs,
)
from repro.geometry import kernels
from repro.geometry.kernels import DEFAULT_CHUNK_CANDIDATES
from repro.joins import EGOJoin, PBSMJoin, PlaneSweepJoin
from repro.simulation import SimulationRunner

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures" / "kernel_refactor_oracle.json"


# ----------------------------------------------------------------------
# Shared chunking helper
# ----------------------------------------------------------------------
class TestChunkEdges:
    def test_exactly_one_mode_required(self):
        counts = np.asarray([1, 2, 3], dtype=np.int64)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts, max_volume=4, n_chunks=2)

    def test_invalid_bounds_raise(self):
        counts = np.asarray([1, 2, 3], dtype=np.int64)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts, max_volume=0)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts, n_chunks=0)

    def test_max_volume_small_total_single_chunk(self):
        counts = np.asarray([3, 1, 2], dtype=np.int64)
        assert chunk_edges_by_volume(counts, max_volume=100).tolist() == [0, 3]

    def test_max_volume_known_split(self):
        counts = np.asarray([5, 5, 5], dtype=np.int64)
        assert chunk_edges_by_volume(counts, max_volume=5).tolist() == [0, 1, 2, 3]

    def test_max_volume_single_oversized_group(self):
        counts = np.asarray([10], dtype=np.int64)
        assert chunk_edges_by_volume(counts, max_volume=3).tolist() == [0, 1]

    def test_empty_counts(self):
        empty = np.empty(0, dtype=np.int64)
        assert chunk_edges_by_volume(empty, max_volume=4).tolist() == [0, 0]
        assert chunk_edges_by_volume(empty, n_chunks=4).tolist() == [0, 0]

    def test_max_volume_bounds_every_multi_group_chunk(self, rng):
        counts = rng.integers(0, 50, size=200).astype(np.int64)
        limit = 120
        edges = chunk_edges_by_volume(counts, max_volume=limit)
        assert edges[0] == 0 and edges[-1] == counts.size
        for a, b in zip(edges[:-1], edges[1:], strict=True):
            assert b > a
            # Each chunk is the smallest prefix reaching the target: it
            # may overshoot with its final group only.
            assert counts[a:b - 1].sum() < limit

    def test_n_chunks_mode_matches_chunk_by_volume(self, rng):
        for n_tasks in (1, 3, 8, 64):
            counts = rng.integers(0, 40, size=57).astype(np.int64)
            edges = chunk_edges_by_volume(counts, n_chunks=n_tasks)
            expected = chunk_by_volume(counts, n_tasks)
            got = [(int(edges[k]), int(edges[k + 1])) for k in range(len(edges) - 1)]
            assert got == expected
            assert len(got) <= n_tasks


# ----------------------------------------------------------------------
# Kernel-level contracts: brute-force pairs, closed-form counters
# ----------------------------------------------------------------------
def _grouped_boxes(rng, n=160, n_groups=6, span=40.0):
    """Grouped boxes with a few giants so the enclosure shortcut fires."""
    centers = rng.uniform(0, span, size=(n, 3))
    widths = rng.uniform(1.0, 9.0, size=(n, 3))
    widths[: max(2, n // 25)] = 2.5 * span  # encloses whole cells
    lo = centers - widths / 2.0
    hi = centers + widths / 2.0
    keys = rng.integers(0, n_groups, size=n)
    cat, starts, stops, _unique = group_by_keys(keys, secondary_sort=lo[:, 0])
    center_lo = np.stack(
        [centers[cat[starts[g]:stops[g]]].min(axis=0) for g in range(starts.size)]
    )
    center_hi = np.stack(
        [centers[cat[starts[g]:stops[g]]].max(axis=0) for g in range(starts.size)]
    )
    return lo, hi, cat, starts, stops, center_lo, center_hi


class _Collector:
    """``on_pairs`` callback recording every emitted (left, right, group)."""

    def __init__(self):
        self.left = []
        self.right = []
        self.groups = []

    def __call__(self, left, right, groups):
        self.left.append(np.asarray(left))
        self.right.append(np.asarray(right))
        self.groups.append(np.asarray(groups))

    def triples(self):
        if not self.left:
            return []
        left = np.concatenate(self.left)
        right = np.concatenate(self.right)
        groups = np.concatenate(self.groups)
        return sorted(zip(left.tolist(), right.tolist(), groups.tolist(), strict=True))


def _canonical(accumulator, n):
    return pack_pairs(*accumulator.as_unique_arrays(n), n).tolist()


def _group_of(cat, starts, stops):
    """Group index of every object."""
    group = np.empty(cat.size, dtype=np.int64)
    for g in range(starts.size):
        group[cat[starts[g]:stops[g]]] = g
    return group


def _x_overlap_pairs(lo, hi):
    """Every unordered pair whose x-intervals overlap (strictly)."""
    i, j = np.triu_indices(lo.shape[0], k=1)
    keep = np.logical_and(lo[i, 0] < hi[j, 0], lo[j, 0] < hi[i, 0])
    return i[keep], j[keep]


class TestKernelParity:
    @pytest.mark.parametrize("count", ["full", "x-sweep"])
    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK_CANDIDATES, 64])
    def test_self_join_groups(self, count, chunk, rng):
        lo, hi, cat, starts, stops, _cl, _ch = _grouped_boxes(rng)
        groups = np.arange(starts.size, dtype=np.int64)
        runs = {}
        for size in {DEFAULT_CHUNK_CANDIDATES, chunk}:
            collector = _Collector()
            tests = kernels.self_join_groups(
                lo, hi, cat, starts, stops, groups, collector,
                count=count, chunk_candidates=size,
            )
            runs[size] = (tests, collector.triples())
        assert runs[chunk] == runs[DEFAULT_CHUNK_CANDIDATES]
        tests, triples = runs[chunk]

        group = _group_of(cat, starts, stops)
        i, j = brute_force_pairs(lo, hi)
        same = group[i] == group[j]
        expected = sorted(
            zip(i[same].tolist(), j[same].tolist(), group[i[same]].tolist(), strict=True)
        )
        assert sorted((min(a, b), max(a, b), g) for a, b, g in triples) == expected
        if count == "full":
            sizes = stops - starts
            assert tests == int((sizes * (sizes - 1) // 2).sum())
        else:
            xi, xj = _x_overlap_pairs(lo, hi)
            assert tests == int((group[xi] == group[xj]).sum())

    @pytest.mark.parametrize("count", ["full", "x-sweep"])
    def test_cross_join_groups(self, count, rng):
        lo, hi, cat, starts, stops, _cl, _ch = _grouped_boxes(rng)
        pair_a, pair_b = np.triu_indices(starts.size, k=1)
        runs = {}
        for chunk in (DEFAULT_CHUNK_CANDIDATES, 64):
            collector = _Collector()
            tests = kernels.cross_join_groups(
                lo, hi, cat, starts, stops, cat, starts, stops,
                pair_a, pair_b, collector, count=count, chunk_candidates=chunk,
            )
            runs[chunk] = (tests, collector.triples())
        assert runs[64] == runs[DEFAULT_CHUNK_CANDIDATES]
        tests, triples = runs[DEFAULT_CHUNK_CANDIDATES]

        group = _group_of(cat, starts, stops)
        index = {
            pair: k
            for k, pair in enumerate(zip(pair_a.tolist(), pair_b.tolist(), strict=True))
        }
        expected = []
        for a, b in zip(*brute_force_pairs(lo, hi), strict=True):
            if group[a] > group[b]:
                a, b = b, a
            if group[a] != group[b]:
                expected.append((int(a), int(b), index[int(group[a]), int(group[b])]))
        assert triples == sorted(expected)
        if count == "full":
            sizes = stops - starts
            assert tests == int((sizes[pair_a] * sizes[pair_b]).sum())
        else:
            xi, xj = _x_overlap_pairs(lo, hi)
            assert tests == int((group[xi] != group[xj]).sum())

    @pytest.mark.parametrize("shortcut", [True, False])
    @pytest.mark.parametrize("chunk", [DEFAULT_CHUNK_CANDIDATES, 64])
    def test_cell_pair_sweep(self, shortcut, chunk, rng):
        lo, hi, cat, starts, stops, c_lo, c_hi = _grouped_boxes(rng)
        n = lo.shape[0]
        pair_a, pair_b = np.triu_indices(starts.size, k=1)
        runs = {}
        for size in {DEFAULT_CHUNK_CANDIDATES, chunk}:
            acc = PairAccumulator()
            counters = kernels.cell_pair_sweep(
                lo, hi, cat, starts, stops, c_lo, c_hi, pair_a, pair_b, acc,
                chunk_candidates=size, enclosure_shortcut=shortcut,
            )
            runs[size] = (counters, len(acc), _canonical(acc, n))
        assert runs[chunk] == runs[DEFAULT_CHUNK_CANDIDATES]
        (tests, shortcuts), emitted, pairs = runs[chunk]

        group = _group_of(cat, starts, stops)
        i, j = brute_force_pairs(lo, hi)
        cross = group[i] != group[j]
        assert pairs == pack_pairs(i[cross], j[cross], n).tolist()
        assert emitted == len(pairs)  # every pair emitted exactly once
        xi, xj = _x_overlap_pairs(lo, hi)
        x_candidates = int((group[xi] != group[xj]).sum())
        if shortcut:
            assert shortcuts > 0  # the giants guarantee shortcut pairs
            assert tests < x_candidates
        else:
            assert (tests, shortcuts) == (x_candidates, 0)

    def test_strip_sweep(self, rng):
        n = 200
        centers = rng.uniform(0, 60, size=(n, 3))
        widths = rng.uniform(1.0, 10.0, size=(n, 3))
        lo = centers - widths / 2.0
        hi = centers + widths / 2.0
        order = np.argsort(lo[:, 0], kind="stable").astype(np.int64)
        slo, shi, ids = lo[order], hi[order], order
        union = PairAccumulator()
        tests = 0
        for start, stop in ((0, 70), (70, 140), (140, n)):
            if start:
                carry = np.flatnonzero(shi[:start, 0] > slo[start, 0]).astype(np.int64)
            else:
                carry = np.empty(0, dtype=np.int64)
            tests += kernels.strip_sweep(slo, shi, ids, start, stop, carry, union)
        # The strips decompose the global sweep: their union is the
        # answer, and each x-overlapping pair is charged exactly once.
        expected = brute_force_pairs(lo, hi)
        assert _canonical(union, n) == pack_pairs(*expected, n).tolist()
        assert len(union) == expected[0].size
        assert tests == _x_overlap_pairs(lo, hi)[0].size

    def test_hot_cell_emit(self, rng):
        lo, hi, cat, starts, stops, _cl, _ch = _grouped_boxes(rng, n=90)
        n = lo.shape[0]
        hot = np.arange(starts.size, dtype=np.int64)
        acc = PairAccumulator()
        emitted = kernels.hot_cell_emit(cat, starts, stops, hot, acc)
        sizes = stops - starts
        assert emitted == int((sizes * (sizes - 1) // 2).sum()) > 0
        group = _group_of(cat, starts, stops)
        i, j = np.triu_indices(n, k=1)
        same = group[i] == group[j]
        assert _canonical(acc, n) == pack_pairs(i[same], j[same], n).tolist()

    def test_empty_inputs(self):
        empty_i = np.empty(0, dtype=np.int64)
        empty_box = np.empty((0, 3))
        acc = PairAccumulator()
        assert kernels.cell_pair_sweep(
            empty_box, empty_box, empty_i, empty_i, empty_i, empty_box, empty_box,
            empty_i, empty_i, acc,
        ) == (0, 0)
        assert kernels.hot_cell_emit(empty_i, empty_i, empty_i, empty_i, acc) == 0
        assert kernels.self_join_groups(
            empty_box, empty_box, empty_i, empty_i, empty_i, empty_i, _Collector()
        ) == 0
        assert len(acc) == 0


# ----------------------------------------------------------------------
# Pre-refactor oracle regression (recorded before the kernel layer existed)
# ----------------------------------------------------------------------
def _series(algorithm, steps=3, motion_factory=None, n_objects=500):
    dataset, motion = make_uniform_workload(
        n_objects, width=10.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=11
    )
    if motion_factory is not None:
        motion = motion_factory(dataset)
    runner = SimulationRunner(dataset, motion, algorithm)
    records = runner.run(steps)
    assert runner.failure is None
    return [(r.n_results, r.overlap_tests) for r in records]


class TestRecordedOracle:
    """The kernels must reproduce the pre-refactor per-step series."""

    def _recorded(self, name):
        rows = json.loads(FIXTURE_PATH.read_text())["runs"][name]
        return [(row["n_results"], row["overlap_tests"]) for row in rows]

    @pytest.mark.parametrize(
        "name, factory",
        [
            ("thermal-join", lambda: ThermalJoin(count_only=True)),
            ("pbsm", lambda: PBSMJoin(count_only=True)),
            ("plane-sweep", lambda: PlaneSweepJoin(count_only=True)),
            ("ego", lambda: EGOJoin(count_only=True)),
        ],
    )
    def test_random_walk_series(self, name, factory):
        got = _series(factory(), steps=4, n_objects=900)
        assert got == self._recorded(name)

    def test_incremental_series(self):
        got = _series(
            ThermalJoin(count_only=True, pair_maintenance=True),
            steps=6,
            n_objects=900,
            motion_factory=lambda ds: IntermittentTranslation(
                ds, seed=5, move_fraction=0.05, distance=2.0
            ),
        )
        assert got == self._recorded("thermal-join-incremental")
