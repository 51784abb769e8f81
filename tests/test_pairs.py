"""Unit tests for pair-set utilities (repro.geometry.pairs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import (
    PairAccumulator,
    all_combinations,
    brute_force_pairs,
    canonicalize_pairs,
    mbr,
    pack_pairs,
    pairs_equal,
    sorted_unique,
    unique_pairs,
    unpack_pairs,
)


class TestCanonicalize:
    def test_orders_pairs(self):
        i, j = canonicalize_pairs([5, 1, 3], [2, 4, 3])
        assert i.tolist() == [2, 1]
        assert j.tolist() == [5, 4]

    def test_drops_reflexive(self):
        i, j = canonicalize_pairs([1, 2], [1, 3])
        assert i.tolist() == [2]
        assert j.tolist() == [3]

    def test_empty_input(self):
        i, j = canonicalize_pairs([], [])
        assert i.size == 0 and j.size == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            canonicalize_pairs([1, 2], [3])


class TestPacking:
    def test_roundtrip(self):
        i = np.array([0, 3, 7], dtype=np.int64)
        j = np.array([1, 9, 8], dtype=np.int64)
        keys = pack_pairs(i, j, 10)
        ri, rj = unpack_pairs(keys, 10)
        assert np.array_equal(ri, i)
        assert np.array_equal(rj, j)

    def test_keys_are_unique_per_pair(self):
        n = 25
        i, j = np.triu_indices(n, k=1)
        keys = pack_pairs(i.astype(np.int64), j.astype(np.int64), n)
        assert np.unique(keys).size == keys.size

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            pack_pairs([0], [5], 5)

    def test_nonpositive_n_raises(self):
        with pytest.raises(ValueError):
            pack_pairs([0], [0], 0)


class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [7],
            [4, 4, 4, 4],
            [0, 1, 1, 2, 5, 5, 9],
            [9, 5, 5, 2, 1, 1, 0],
            [3, -2, 3, 0, -2, 11],
        ],
        ids=["empty", "single", "all-duplicate", "pre-sorted", "reverse-sorted", "mixed"],
    )
    def test_matches_np_unique(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        got = sorted_unique(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(arr))

    def test_packed_key_bounds(self):
        # 0 and n*n - 1 are the smallest and largest keys pack_pairs can
        # produce for modulus n.
        n = 1000
        arr = np.array([n * n - 1, 0, 17, n * n - 1, 0], dtype=np.int64)
        got = sorted_unique(arr)
        assert got.tolist() == [0, 17, n * n - 1]
        assert np.array_equal(got, np.unique(arr))

    def test_keeps_dtype_and_leaves_input_alone(self):
        arr = np.array([3, 1, 3, 2], dtype=np.int32)
        got = sorted_unique(arr)
        assert got.dtype == np.int32
        assert got.tolist() == [1, 2, 3]
        assert arr.tolist() == [3, 1, 3, 2]


class TestUniquePairs:
    def test_dedup_and_sort(self):
        i, j = unique_pairs([3, 1, 3, 2], [1, 3, 1, 2], n=5)
        # (3,1) duplicated and reversed, (2,2) reflexive dropped
        assert i.tolist() == [1]
        assert j.tolist() == [3]

    def test_pairs_equal_detects_equality(self):
        a = (np.array([1, 2]), np.array([3, 4]))
        b = (np.array([4, 3]), np.array([2, 1]))  # reversed order/commuted
        assert pairs_equal(a, b, n=5)

    def test_pairs_equal_detects_difference(self):
        a = (np.array([1]), np.array([3]))
        b = (np.array([1]), np.array([2]))
        assert not pairs_equal(a, b, n=5)


class TestPairAccumulator:
    def test_accumulates_batches(self):
        acc = PairAccumulator()
        acc.extend([1, 2], [0, 3])
        acc.extend([5], [4])
        i, j = acc.as_arrays()
        assert len(acc) == 3
        assert sorted(zip(i.tolist(), j.tolist(), strict=True)) == [(0, 1), (2, 3), (4, 5)]

    def test_reflexive_dropped_on_entry(self):
        acc = PairAccumulator()
        acc.extend([1, 2], [1, 3])
        assert len(acc) == 1

    def test_count_only_mode(self):
        acc = PairAccumulator(count_only=True)
        acc.extend([1, 2], [0, 3])
        assert len(acc) == 2
        with pytest.raises(RuntimeError):
            acc.as_arrays()

    def test_extend_canonical_fast_path(self):
        acc = PairAccumulator()
        acc.extend_canonical(np.array([0, 1]), np.array([2, 3]))
        i, j = acc.as_arrays()
        assert i.tolist() == [0, 1]
        assert j.tolist() == [2, 3]

    def test_empty_accumulator(self):
        acc = PairAccumulator()
        i, j = acc.as_arrays()
        assert i.size == 0 and j.size == 0
        assert len(acc) == 0

    def test_as_unique_arrays_dedups(self):
        acc = PairAccumulator()
        acc.extend([1, 3], [3, 1])  # same pair twice
        i, j = acc.as_unique_arrays(n=4)
        assert i.tolist() == [1]
        assert j.tolist() == [3]


class TestBruteForce:
    def test_known_configuration(self):
        # Three collinear unit-ish boxes: 0 overlaps 1, 1 overlaps 2, 0-2 disjoint.
        centers = np.array([[0.0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]])
        lo, hi = mbr.boxes_from_centers(centers, 2.0)
        i, j = brute_force_pairs(lo, hi)
        assert list(zip(i.tolist(), j.tolist(), strict=True)) == [(0, 1), (1, 2)]

    def test_no_reflexive_or_commutative_duplicates(self):
        rng = np.random.default_rng(3)
        lo, hi = mbr.boxes_from_centers(rng.uniform(0, 20, (60, 3)), 6.0)
        i, j = brute_force_pairs(lo, hi)
        assert (i < j).all()
        keys = pack_pairs(i, j, 60)
        assert np.unique(keys).size == keys.size

    def test_chunking_invariance(self):
        rng = np.random.default_rng(4)
        lo, hi = mbr.boxes_from_centers(rng.uniform(0, 30, (100, 3)), 8.0)
        small = brute_force_pairs(lo, hi, chunk_size=7)
        large = brute_force_pairs(lo, hi, chunk_size=1000)
        assert np.array_equal(small[0], large[0])
        assert np.array_equal(small[1], large[1])

    def test_all_overlapping_clique(self):
        centers = np.zeros((5, 3)) + np.linspace(0, 0.1, 5)[:, None]
        lo, hi = mbr.boxes_from_centers(centers, 10.0)
        i, j = brute_force_pairs(lo, hi)
        assert i.size == 5 * 4 // 2


class TestAllCombinations:
    def test_emits_every_unordered_pair(self):
        i, j = all_combinations([7, 3, 9])
        assert sorted(zip(i.tolist(), j.tolist(), strict=True)) == [(3, 7), (3, 9), (7, 9)]

    def test_canonical_order(self):
        i, j = all_combinations([9, 1, 5, 2])
        assert (i < j).all()

    def test_small_inputs(self):
        for indices in ([], [4]):
            i, j = all_combinations(indices)
            assert i.size == 0 and j.size == 0

    def test_count_formula(self):
        indices = np.arange(20)
        i, j = all_combinations(indices)
        assert i.size == 20 * 19 // 2
