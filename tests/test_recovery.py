"""Durable checkpoint/restore: format, atomicity, resume bit-identity.

The contract under test (docs/robustness.md): a run that checkpoints,
crashes and resumes must produce *exactly* the trajectory an
uninterrupted run produces — same result counts, same overlap tests,
same footprint, same index counters — across motion models, executors
and the incremental pipeline; and a corrupted newest checkpoint must
degrade to the previous one, never to a wrong answer.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.datasets import (
    make_clustered_workload,
    make_neural_workload,
    make_uniform_workload,
)
from repro.engine.faults import (
    SimulatedCrash,
    corrupt_bitflip,
    corrupt_truncate,
    install_fault_plan,
    parse_faults,
)
from repro.recovery import (
    CheckpointError,
    CheckpointManager,
    FORMAT_VERSION,
    RecoveryMetrics,
    atomic_write_bytes,
    restore_dataset,
    restore_motion,
    snapshot_dataset,
    snapshot_motion,
    step_record_from_jsonable,
    step_record_to_jsonable,
    write_json,
    write_npz,
)
from repro.simulation import SimulationRunner

N_STEPS = 8

#: Providers excluded from trajectory comparison: ``recovery`` counters
#: are runner-local (only the checkpointed run has them).
_RUN_LOCAL_PROVIDERS = ("recovery",)


def _make_workload(kind: str, seed: int = 11):
    if kind == "uniform":
        dataset, motion = make_uniform_workload(
            300, width=15.0, bounds=((0, 0, 0), (110, 110, 110)), seed=seed
        )
    elif kind == "clustered":
        dataset, motion, _labels = make_clustered_workload(
            300, n_clusters=3, seed=seed
        )
    elif kind == "neural":
        dataset, motion, _labels = make_neural_workload(300, seed=seed)
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(kind)
    return dataset, motion


def _strip_checkpoint_events(events):
    return [event for event in events if event.get("kind") != "checkpoint"]


def assert_trajectories_identical(baseline, resumed):
    """Bit-for-bit comparison of two record lists.

    Checkpoint events are excluded (the uninterrupted baseline writes
    none) and so are the run-local metrics providers; everything else —
    including float step times' *presence* and all integer series —
    must match exactly.
    """
    assert len(baseline) == len(resumed)
    for a, b in zip(baseline, resumed):
        assert a.step == b.step
        assert a.n_results == b.n_results, f"step {a.step}"
        assert a.overlap_tests == b.overlap_tests, f"step {a.step}"
        assert a.memory_bytes == b.memory_bytes, f"step {a.step}"
        assert a.task_retries == b.task_retries, f"step {a.step}"
        assert _strip_checkpoint_events(a.events) == _strip_checkpoint_events(
            b.events
        ), f"step {a.step}"
        counters_a = {
            k: v
            for k, v in a.index_counters.items()
            if k not in _RUN_LOCAL_PROVIDERS
        }
        counters_b = {
            k: v
            for k, v in b.index_counters.items()
            if k not in _RUN_LOCAL_PROVIDERS
        }
        assert counters_a == counters_b, f"step {a.step}"
        assert a.incremental == b.incremental, f"step {a.step}"


# ----------------------------------------------------------------------
# Atomic writer
# ----------------------------------------------------------------------
class TestAtomicWriter:
    def test_write_bytes_commits_and_returns_size(self, tmp_path):
        path = tmp_path / "blob.bin"
        nbytes = atomic_write_bytes(path, b"abcdef")
        assert nbytes == 6
        assert path.read_bytes() == b"abcdef"
        # No temp file left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]

    def test_write_replaces_existing_atomically(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new content")
        assert path.read_bytes() == b"new content"

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "doc.json"
        document = {"b": 2, "a": [1, 2.5, "x"], "nested": {"k": None}}
        write_json(path, document)
        assert json.loads(path.read_text(encoding="utf-8")) == document

    def test_write_npz_round_trips(self, tmp_path):
        path = tmp_path / "arrays.npz"
        arrays = {
            "ints": np.arange(10, dtype=np.int64),
            "floats": np.linspace(0, 1, 7),
        }
        write_npz(path, arrays)
        with np.load(path, allow_pickle=False) as payload:
            assert np.array_equal(payload["ints"], arrays["ints"])
            assert np.array_equal(payload["floats"], arrays["floats"])


# ----------------------------------------------------------------------
# Checkpoint format, verification, retention
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def _write_one(self, directory, step=0, value=1.0):
        manager = CheckpointManager(directory)
        manager.write(
            step,
            {"data": np.full(8, value)},
            {"note": f"step {step}"},
        )
        return manager

    def test_write_then_load_verifies(self, tmp_path):
        manager = self._write_one(tmp_path, step=3, value=2.0)
        checkpoint, skipped = manager.load_latest()
        assert skipped == 0
        assert checkpoint.step == 3
        assert np.array_equal(checkpoint.arrays["data"], np.full(8, 2.0))
        assert checkpoint.meta == {"note": "step 3"}

    def test_manifest_carries_format_and_checksums(self, tmp_path):
        self._write_one(tmp_path, step=1)
        manifest = json.loads((tmp_path / "step-000001.json").read_text())
        assert manifest["format"] == "repro-checkpoint"
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["payload"] == "step-000001.npz"
        entry = manifest["arrays"]["data"]
        assert set(entry) == {"sha256", "shape", "dtype"}
        assert entry["shape"] == [8]

    def test_retention_keeps_last_k(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        for step in range(5):
            manager.write(step, {"data": np.arange(step + 1)}, {})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "step-000003.json",
            "step-000003.npz",
            "step-000004.json",
            "step-000004.npz",
        ]

    def test_truncated_newest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        manager.write(1, {"data": np.arange(5)}, {})
        corrupt_truncate(tmp_path / "step-000001.json")
        checkpoint, skipped = manager.load_latest()
        assert checkpoint.step == 0
        assert skipped == 1

    def test_bitflipped_payload_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(64, dtype=np.float64)}, {})
        manager.write(1, {"data": np.arange(64, dtype=np.float64)}, {})
        corrupt_bitflip(tmp_path / "step-000001.npz")
        checkpoint, skipped = manager.load_latest()
        assert checkpoint.step == 0
        assert skipped == 1

    def test_missing_payload_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        manager.write(1, {"data": np.arange(4)}, {})
        (tmp_path / "step-000001.npz").unlink()
        checkpoint, skipped = manager.load_latest()
        assert checkpoint.step == 0
        assert skipped == 1

    def test_all_corrupt_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        corrupt_truncate(tmp_path / "step-000000.json", keep_fraction=0.1)
        with pytest.raises(CheckpointError, match="corrupt"):
            manager.load_latest()

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointManager(tmp_path).load_latest()

    def test_foreign_manifest_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        (tmp_path / "step-000000.json").write_text('{"foo": 1}')
        with pytest.raises(CheckpointError):
            manager.load(tmp_path / "step-000000.json")

    def test_version_one_checkpoint_rejected(self, tmp_path):
        # Version 1 stored the P-Grid's hyperlink edges; a version-2
        # reader must refuse it by name and fall back past it.
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        manager.write(1, {"pgrid/link_src": np.arange(4)}, {})
        old = tmp_path / "step-000001.json"
        manifest = json.loads(old.read_text())
        manifest["version"] = 1
        old.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            manager.load(old)
        checkpoint, skipped = manager.load_latest()
        assert (checkpoint.step, skipped) == (0, 1)

    def test_shape_mismatch_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        # Rewrite the payload with a different shape behind the manifest.
        write_npz(tmp_path / "step-000000.npz", {"data": np.arange(6)})
        with pytest.raises(CheckpointError, match="shape/dtype"):
            manager.load(tmp_path / "step-000000.json")


# ----------------------------------------------------------------------
# State codecs
# ----------------------------------------------------------------------
class TestStateCodecs:
    def test_dataset_round_trip(self):
        dataset, _motion = _make_workload("uniform")
        dataset.attributes["mass"] = np.arange(len(dataset), dtype=np.float64)
        dataset.version = 17
        arrays, meta = snapshot_dataset(dataset)
        restored = restore_dataset(arrays, meta)
        assert np.array_equal(restored.centers, dataset.centers)
        assert np.array_equal(restored.widths, dataset.widths)
        assert restored.version == 17
        assert np.array_equal(
            restored.attributes["mass"], dataset.attributes["mass"]
        )
        assert restored.uid != dataset.uid  # uid is process-local

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "neural"])
    def test_motion_round_trip_preserves_random_stream(self, kind):
        dataset, motion = _make_workload(kind)
        dataset_copy, motion_reference = _make_workload(kind)
        # Advance both in lockstep, snapshot one, then compare streams.
        for _ in range(3):
            motion.step(dataset)
            motion_reference.step(dataset_copy)
        arrays, meta = snapshot_motion(motion)
        restored = restore_motion(arrays, meta)
        for _ in range(3):
            restored.step(dataset)
            motion_reference.step(dataset_copy)
        assert np.array_equal(dataset.centers, dataset_copy.centers)

    def test_motion_meta_is_json_safe(self):
        _dataset, motion = _make_workload("neural")
        _arrays, meta = snapshot_motion(motion)
        replayed = json.loads(json.dumps(meta))
        assert replayed == meta  # RNG state survives JSON exactly

    def test_unknown_bit_generator_rejected(self):
        # The neural motion model carries a live Generator.
        _dataset, motion = _make_workload("neural")
        arrays, meta = snapshot_motion(motion)
        rng_entries = [
            entry for entry in meta["attrs"].values() if entry["kind"] == "rng"
        ]
        assert rng_entries, "expected the motion model to carry an RNG"
        for entry in rng_entries:
            entry["state"]["bit_generator"] = "NotAGenerator"
        with pytest.raises(ValueError, match="bit generator"):
            restore_motion(arrays, meta)

    def test_step_record_round_trip(self, uniform_small):
        runner = SimulationRunner(uniform_small, None, ThermalJoin())
        runner.run(2)
        for record in runner.records:
            doc = json.loads(json.dumps(step_record_to_jsonable(record)))
            assert step_record_from_jsonable(doc) == record


# ----------------------------------------------------------------------
# Resume equals uninterrupted — the core property
# ----------------------------------------------------------------------
class TestResumeBitIdentity:
    @pytest.mark.parametrize("kind", ["uniform", "clustered", "neural"])
    def test_resume_matches_uninterrupted(self, kind, tmp_path):
        dataset, motion = _make_workload(kind)
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload(kind)
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(5)  # dies after step 4; checkpoints at 1 and 3

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        assert resumed._next_step == 4
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_resume_matches_with_incremental_maintenance(self, tmp_path):
        def algo():
            return ThermalJoin(incremental=True, pair_maintenance=True)

        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, algo())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, algo(), checkpoint_dir=tmp_path,
            checkpoint_every=3,
        )
        first.run(6)
        resumed = SimulationRunner.resume(tmp_path, algo())
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    @pytest.mark.parametrize("executor", ["serial", "thread:2"])
    def test_resume_matches_across_executors(self, executor, tmp_path):
        def algo():
            return ThermalJoin(executor=executor)

        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, algo())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, algo(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(5)
        resumed = SimulationRunner.resume(tmp_path, algo())
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_resume_from_older_checkpoint_after_corruption(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(6)  # checkpoints at steps 1, 3, 5
        corrupt_truncate(tmp_path / "step-000005.json")
        corrupt_bitflip(tmp_path / "step-000005.npz")

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        assert resumed._next_step == 4  # fell back to the step-3 checkpoint
        assert resumed.recovery.corrupt_skipped == 1
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_resume_validates_algorithm_config(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        runner.run(3)
        with pytest.raises(ValueError, match="config"):
            SimulationRunner.resume(tmp_path, ThermalJoin(resolution=0.25))

    def test_checkpoint_event_recorded_identically(self, tmp_path):
        # The checkpointed run and its resumed continuation must agree
        # on the checkpoint events too (they are part of the records).
        dataset, motion = _make_workload("uniform")
        full = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path / "a",
            checkpoint_every=2,
        )
        full.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path / "b",
            checkpoint_every=2,
        )
        first.run(5)
        resumed = SimulationRunner.resume(tmp_path / "b", ThermalJoin())
        resumed.run(N_STEPS)
        for a, b in zip(full.records, resumed.records):
            assert a.events == b.events, f"step {a.step}"


# ----------------------------------------------------------------------
# Injected crashes end to end
# ----------------------------------------------------------------------
class TestCrashStep:
    def teardown_method(self):
        install_fault_plan(None)

    def test_crashstep_raises_out_of_run(self, tmp_path):
        install_fault_plan(parse_faults("crashstep@3"))
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        with pytest.raises(SimulatedCrash):
            runner.run(N_STEPS)
        # Completed records and the step-3 checkpoint survive the crash.
        assert [r.step for r in runner.records] == [0, 1, 2, 3]
        assert runner.failed_step is None
        assert (tmp_path / "step-000003.json").exists()

    def test_crash_then_resume_is_bit_identical(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        install_fault_plan(parse_faults("crashstep@3"))
        dataset2, motion2 = _make_workload("uniform")
        crashed = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        with pytest.raises(SimulatedCrash):
            crashed.run(N_STEPS)

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_crashstep_without_checkpoints_loses_nothing_recorded(self):
        install_fault_plan(parse_faults("crashstep@1"))
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(dataset, motion, ThermalJoin())
        with pytest.raises(SimulatedCrash):
            runner.run(4)
        assert [r.step for r in runner.records] == [0, 1]


# ----------------------------------------------------------------------
# Step-level escalation
# ----------------------------------------------------------------------
class _FlakyJoin(ThermalJoin):
    """Raises on chosen step indices, once each, past executor recovery."""

    def __init__(self, fail_steps=(), always=False, **kwargs):
        super().__init__(**kwargs)
        self._fail_steps = set(fail_steps)
        self._always = always
        self._calls = 0

    def step_delta(self, dataset, delta):
        step = self._calls
        self._calls += 1
        if self._always or step in self._fail_steps:
            self._fail_steps.discard(step)
            raise RuntimeError(f"flaky failure at call {step}")
        return super().step_delta(dataset, delta)


class TestEscalation:
    def test_retry_succeeds_and_is_recorded(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, _FlakyJoin(fail_steps={2}),
            checkpoint_dir=tmp_path, checkpoint_every=100,
        )
        records = runner.run(5)
        assert runner.failed_step is None
        assert len(records) == 5
        retried = [
            e for e in records[2].events if e.get("kind") == "step_retry"
        ]
        assert len(retried) == 1
        assert runner.recovery.step_retries == 1
        assert runner.recovery.escalations == 0

    def test_second_failure_escalates(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, _FlakyJoin(always=True),
            checkpoint_dir=tmp_path, checkpoint_every=100,
        )
        records = runner.run(3)
        assert records == []
        assert runner.failed_step == 0
        assert isinstance(runner.failure, RuntimeError)
        assert "flaky failure" in runner.failure_traceback
        assert runner.recovery.escalations == 1

    def test_retry_result_matches_clean_run(self):
        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(5)

        dataset2, motion2 = _make_workload("uniform")
        runner = SimulationRunner(dataset2, motion2, _FlakyJoin(fail_steps={3}))
        runner.run(5)
        for a, b in zip(baseline.records, runner.records):
            assert a.n_results == b.n_results, f"step {a.step}"


# ----------------------------------------------------------------------
# Recovery metrics provider
# ----------------------------------------------------------------------
class TestRecoveryMetrics:
    def test_counters_accumulate(self):
        metrics = RecoveryMetrics()
        metrics.record_checkpoint(100, seconds=0.25)
        metrics.record_checkpoint(50, seconds=0.5)
        metrics.record_load(corrupt_skipped=2)
        metrics.record_step_retry()
        metrics.record_escalation()
        assert metrics.snapshot() == {
            "checkpoints_written": 2,
            "checkpoint_bytes": 150,
            "checkpoint_seconds": 0.75,
            "checkpoint_loads": 1,
            "corrupt_skipped": 2,
            "step_retries": 1,
            "escalations": 1,
        }

    def test_provider_surfaces_in_step_records(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        runner.run(4)
        assert runner.recovery.checkpoints_written == 2
        assert runner.recovery.checkpoint_bytes > 0
        # The provider is live in the registry snapshot of later steps.
        assert "recovery" in runner.records[-1].index_counters
        snapshot = runner.records[-1].index_counters["recovery"]
        assert snapshot["checkpoints_written"] >= 1

    def test_no_provider_without_checkpointing(self):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(dataset, motion, ThermalJoin())
        runner.run(2)
        assert runner.recovery is None
        assert "recovery" not in runner.records[-1].index_counters


# ----------------------------------------------------------------------
# Corruption injection helpers
# ----------------------------------------------------------------------
class TestCorruptionHelpers:
    def test_truncate_shrinks_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        corrupt_truncate(path, keep_fraction=0.25)
        assert path.stat().st_size == 25

    def test_truncate_validates_fraction(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        with pytest.raises(ValueError):
            corrupt_truncate(path, keep_fraction=1.5)

    def test_bitflip_changes_exactly_one_bit(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(16)))
        corrupt_bitflip(path, offset=4)
        data = path.read_bytes()
        assert data[4] == 4 ^ 0x01
        assert len(data) == 16

    def test_bitflip_rejects_empty_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_bitflip(path)
