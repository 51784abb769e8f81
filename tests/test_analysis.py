"""Tests for the analytical selectivity models and dataset I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    expected_cell_occupancy,
    expected_hot_spot_pair_fraction,
    expected_join_results,
    expected_partners_per_object,
    measured_selectivity,
)
from repro.datasets import SpatialDataset, make_neural_dataset, make_uniform_dataset
from repro.datasets.io import load_dataset, save_dataset
from repro.geometry import brute_force_pairs


class TestSelectivityModel:
    def test_matches_measured_on_uniform(self):
        # The closed form should predict the brute-force count within the
        # sampling tolerance of a uniform workload.
        n, width, side = 3000, 10.0, 200.0
        dataset = make_uniform_dataset(
            n, width=width, bounds=(np.zeros(3), np.full(3, side)), seed=5
        )
        i_idx, _j = brute_force_pairs(*dataset.boxes())
        predicted = expected_join_results(n, width, side**3)
        assert i_idx.size == pytest.approx(predicted, rel=0.15)

    def test_partner_scaling_with_width(self):
        # Partner count scales with the cube of the width.
        base = expected_partners_per_object(10_000, 10.0, 1000.0**3)
        doubled = expected_partners_per_object(10_000, 20.0, 1000.0**3)
        assert doubled == pytest.approx(8.0 * base)

    def test_paper_default_regime(self):
        # The paper's uniform default: 10M objects, width 15, 1000^3.
        partners = expected_partners_per_object(10_000_000, 15.0, 1000.0**3)
        assert 250 < partners < 280  # the high-selectivity regime

    def test_degenerate_inputs(self):
        assert expected_partners_per_object(1, 5.0, 100.0) == 0.0
        with pytest.raises(ValueError):
            expected_partners_per_object(10, 0.0, 100.0)

    def test_cell_occupancy(self):
        occupancy = expected_cell_occupancy(10_000_000, 15.0, 1000.0**3, 1.0)
        assert occupancy == pytest.approx(0.01 * 15.0**3)
        with pytest.raises(ValueError):
            expected_cell_occupancy(10, 1.0, 100.0, resolution=0.0)

    def test_hot_spot_fraction_bounds(self):
        # At r = 1 at most 1/8 of the pairs are same-cell pairs.
        assert expected_hot_spot_pair_fraction(1.0) == pytest.approx(0.125)
        assert expected_hot_spot_pair_fraction(0.5) < 0.125
        with pytest.raises(ValueError):
            expected_hot_spot_pair_fraction(1.5)

    def test_measured_selectivity_sampling(self):
        dataset = make_uniform_dataset(
            2000, width=12.0, bounds=(np.zeros(3), np.full(3, 150.0)), seed=9
        )
        i_idx, _j = brute_force_pairs(*dataset.boxes())
        exact = 2.0 * i_idx.size / len(dataset)
        sampled = measured_selectivity(dataset, sample=512, seed=1)
        assert sampled == pytest.approx(exact, rel=0.25)

    def test_measured_selectivity_small_inputs(self):
        assert measured_selectivity(SpatialDataset(np.zeros((1, 3)), 1.0)) == 0.0


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        dataset, labels = make_neural_dataset(400, seed=3)
        dataset.attributes["mass"] = np.arange(400, dtype=np.float64)
        path = tmp_path / "snapshot.npz"
        save_dataset(path, dataset, labels=labels)
        loaded, loaded_labels = load_dataset(path)
        assert np.array_equal(loaded.centers, dataset.centers)
        assert np.array_equal(loaded.widths, dataset.widths)
        assert np.array_equal(loaded_labels, labels)
        assert np.array_equal(loaded.attributes["mass"], dataset.attributes["mass"])
        lo_a, hi_a = dataset.bounds
        lo_b, hi_b = loaded.bounds
        assert np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b)

    def test_roundtrip_without_labels(self, tmp_path):
        dataset = make_uniform_dataset(100, seed=1)
        path = tmp_path / "plain.npz"
        save_dataset(path, dataset)
        loaded, labels = load_dataset(path)
        assert labels is None
        assert len(loaded) == 100

    def test_joins_identical_after_reload(self, tmp_path):
        from repro.core import ThermalJoin

        dataset, _labels = make_neural_dataset(500, seed=7)
        path = tmp_path / "join.npz"
        save_dataset(path, dataset)
        loaded, _ = load_dataset(path)
        original = ThermalJoin(resolution=1.0).step(dataset)
        reloaded = ThermalJoin(resolution=1.0).step(loaded)
        assert original.n_results == reloaded.n_results

    def test_label_length_mismatch_rejected(self, tmp_path):
        dataset = make_uniform_dataset(10, seed=1)
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "x.npz", dataset, labels=np.arange(5))

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_truncated_snapshot_rejected_with_clear_error(self, tmp_path):
        dataset = make_uniform_dataset(50, seed=1)
        path = tmp_path / "torn.npz"
        save_dataset(path, dataset)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(ValueError, match="cannot read dataset snapshot"):
            load_dataset(path)

    def test_bitflipped_snapshot_rejected_with_clear_error(self, tmp_path):
        dataset = make_uniform_dataset(50, seed=1)
        path = tmp_path / "flipped.npz"
        save_dataset(path, dataset)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="snapshot"):
            load_dataset(path)

    def test_missing_arrays_named(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(
            path,
            format=np.asarray("repro-spatial-dataset-v1"),
            centers=np.zeros((4, 3)),
        )
        with pytest.raises(ValueError, match="missing arrays"):
            load_dataset(path)

    def test_bad_shapes_rejected(self, tmp_path):
        path = tmp_path / "shapes.npz"
        np.savez(
            path,
            format=np.asarray("repro-spatial-dataset-v1"),
            centers=np.zeros((4, 2)),  # must be (n, 3)
            widths=np.zeros((4, 2)),
            bounds_lo=np.zeros(3),
            bounds_hi=np.ones(3),
        )
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            load_dataset(path)

    def test_non_finite_geometry_rejected(self, tmp_path):
        dataset = make_uniform_dataset(10, seed=1)
        centers = dataset.centers.copy()
        centers[0, 0] = np.inf
        path = tmp_path / "nan.npz"
        np.savez(
            path,
            format=np.asarray("repro-spatial-dataset-v1"),
            centers=centers,
            widths=dataset.widths,
            bounds_lo=np.zeros(3),
            bounds_hi=np.full(3, 1000.0),
        )
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(path)

    def test_label_length_mismatch_rejected_on_load(self, tmp_path):
        dataset = make_uniform_dataset(10, seed=1)
        bounds_lo, bounds_hi = dataset.bounds
        path = tmp_path / "labels.npz"
        np.savez(
            path,
            format=np.asarray("repro-spatial-dataset-v1"),
            centers=dataset.centers,
            widths=dataset.widths,
            bounds_lo=np.asarray(bounds_lo),
            bounds_hi=np.asarray(bounds_hi),
            labels=np.arange(4),
        )
        with pytest.raises(ValueError, match="labels length"):
            load_dataset(path)


class TestValidateCLI:
    def test_agreeing_algorithms(self):
        from repro.validate import validate

        messages = []
        ok = validate(
            workload="uniform",
            n=400,
            steps=2,
            algorithms=["thermal-join", "cr-tree", "ego"],
            use_oracle=True,
            log=messages.append,
        )
        assert ok
        assert any("agree" in m for m in messages)

    @pytest.mark.parametrize(
        ("edit", "report"),
        [("drop", "(1 missing, 0 spurious)"), ("add", "(0 missing, 1 spurious)")],
    )
    def test_one_pair_mismatch_is_counted(self, monkeypatch, edit, report):
        from types import SimpleNamespace

        from repro.geometry import brute_force_pairs
        from repro.validate import ALGORITHM_FACTORIES, validate

        class OffByOne:
            """Oracle pairs with the first pair dropped or a bogus one added."""

            def step(self, dataset):
                i_idx, j_idx = brute_force_pairs(*dataset.boxes())
                if edit == "drop":
                    return SimpleNamespace(pairs=(i_idx[1:], j_idx[1:]))
                taken = set(zip(i_idx.tolist(), j_idx.tolist(), strict=True))
                extra = next(
                    (0, j) for j in range(1, len(dataset)) if (0, j) not in taken
                )
                return SimpleNamespace(
                    pairs=(np.append(i_idx, extra[0]), np.append(j_idx, extra[1]))
                )

        monkeypatch.setitem(
            ALGORITHM_FACTORIES, "off-by-one", lambda count_only=True, executor=None: OffByOne()
        )
        messages = []
        ok = validate(
            workload="uniform",
            n=300,
            steps=1,
            algorithms=["nested-loop", "off-by-one"],
            use_oracle=False,
            log=messages.append,
        )
        assert not ok
        mismatches = [m for m in messages if "MISMATCH" in m]
        assert len(mismatches) == 1
        assert "off-by-one vs nested-loop" in mismatches[0]
        assert report in mismatches[0]

    def test_unknown_inputs_rejected(self):
        from repro.validate import validate

        with pytest.raises(ValueError):
            validate(workload="bogus")
        with pytest.raises(ValueError):
            validate(algorithms=["not-a-join"])

    def test_cli_exit_code(self):
        from repro.validate import main

        assert main([
            "--workload", "uniform", "--n", "300", "--steps", "1",
            "--algorithms", "thermal-join", "pbsm",
        ]) == 0
