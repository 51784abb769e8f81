"""The repro-lint gate linting itself: per-rule fixtures, suppressions, CLI.

Each rule gets at least one violating fixture and one clean fixture,
written to a temporary tree whose directory names mimic the real
package layout — scope matching works on resolved-path substrings, so
``tmp/repro/joins/mod.py`` patrols exactly like ``src/repro/joins/``.
The CLI tests pin the ruff-style exit-code contract (0 clean, 1
findings, 2 usage/parse error) that the CI gate relies on, and a final
self-check keeps the repository itself clean.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # `python -m pytest` adds it; `pytest` may not
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import cli  # noqa: E402
from tools.repro_lint.core import (  # noqa: E402
    PARSE_ERROR_CODE,
    PROJECT_RULES,
    RULES,
    Diagnostic,
    all_rule_codes,
    collect_suppressions,
    lint_file,
    lint_paths,
)

ALL_CODES = {
    "RPL102",
    "RPL201",
    "RPL202",
    "RPL203",
    "RPL301",
    "RPL501",
    "RPL601",
}

PROJECT_CODES = {
    "RPL001",
    "RPL003",
    "RPL101",
    "RPL701",
    "RPL702",
    "RPL902",
}

#: Codes folded into the surviving rule of their contract.
RETIRED_CODES = {"RPL002", "RPL801", "RPL802", "RPL901"}


def lint_source(
    tmp_path: Path, rel: str, source: str, select: str | None = None
) -> list[Diagnostic]:
    """Write ``source`` at ``tmp_path/rel`` and lint it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    chosen = frozenset({select}) if select else None
    return lint_file(path, select=chosen)


def codes_of(findings: list[Diagnostic]) -> set[str]:
    return {finding.code for finding in findings}


# ----------------------------------------------------------------------
# Registry sanity
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_rules_registered(self) -> None:
        assert {rule.code for rule in RULES} == ALL_CODES

    def test_all_project_rules_registered(self) -> None:
        assert {rule.code for rule in PROJECT_RULES} == PROJECT_CODES

    def test_rules_carry_title_and_rationale(self) -> None:
        for rule in [*RULES, *PROJECT_RULES]:
            assert rule.title
            assert rule.rationale

    def test_retired_codes_are_gone(self) -> None:
        assert all_rule_codes() == ALL_CODES | PROJECT_CODES | {PARSE_ERROR_CODE}
        assert not all_rule_codes() & RETIRED_CODES


# ----------------------------------------------------------------------
# RPL001 — numpy global RNG (patrols everywhere)
# ----------------------------------------------------------------------
class TestNumpyGlobalRandom:
    def test_global_rng_call_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "pkg/mod.py",
            """
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        assert codes_of(findings) == {"RPL001"}

    def test_global_seed_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path, "pkg/mod.py", "import numpy as np\nnp.random.seed(0)\n"
        )
        assert codes_of(findings) == {"RPL001"}

    def test_unseeded_default_rng_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "pkg/mod.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert codes_of(findings) == {"RPL001"}
        assert "explicit seed" in findings[0].message

    def test_legacy_import_fires(self, tmp_path: Path) -> None:
        findings = lint_source(tmp_path, "pkg/mod.py", "from numpy.random import rand\n")
        assert codes_of(findings) == {"RPL001"}

    def test_aliased_numpy_random_module_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "pkg/mod.py",
            """
            import numpy.random as npr
            x = npr.rand(3)
            """,
        )
        assert codes_of(findings) == {"RPL001"}
        assert findings[0].line == 3

    def test_call_in_a_conditionally_redefined_function_fires(
        self, tmp_path: Path
    ) -> None:
        findings = lint_source(
            tmp_path,
            "pkg/mod.py",
            """
            import numpy as np

            try:
                import fast
            except ImportError:
                def draw():
                    return np.random.rand()
            else:
                def draw():
                    return fast.draw()
            """,
        )
        assert [(f.code, f.line) for f in findings] == [("RPL001", 8)]

    def test_seeded_generator_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "pkg/mod.py",
            """
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.random(3)
            """,
        )
        assert findings == []

    def test_generator_machinery_import_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path, "pkg/mod.py", "from numpy.random import Generator, PCG64\n"
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL001 — stdlib random in the deterministic core
# ----------------------------------------------------------------------
class TestStdlibRandom:
    def test_import_in_core_fires(self, tmp_path: Path) -> None:
        findings = lint_source(tmp_path, "repro/core/mod.py", "import random\n")
        assert codes_of(findings) == {"RPL001"}

    def test_from_import_in_joins_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path, "repro/joins/mod.py", "from random import choice\n"
        )
        assert codes_of(findings) == {"RPL001"}

    def test_out_of_scope_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(tmp_path, "repro/datasets/mod.py", "import random\n")
        assert findings == []


# ----------------------------------------------------------------------
# RPL003 — wall-clock reads in the deterministic core
# ----------------------------------------------------------------------
class TestWallClock:
    def test_perf_counter_in_joins_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            import time

            def join(boxes):
                start = time.perf_counter()
                return start
            """,
        )
        assert codes_of(findings) == {"RPL003"}

    def test_bare_imported_clock_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/geometry/mod.py",
            """
            from time import perf_counter as clock

            def f():
                return clock()
            """,
        )
        assert codes_of(findings) == {"RPL003"}

    def test_datetime_now_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            import datetime

            def f():
                return datetime.now()
            """,
        )
        assert codes_of(findings) == {"RPL003"}

    def test_datetime_class_now_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            from datetime import datetime

            def f():
                return datetime.now()
            """,
        )
        assert codes_of(findings) == {"RPL003"}

    def test_qualified_datetime_now_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            import datetime

            def f():
                return datetime.datetime.now()
            """,
        )
        assert codes_of(findings) == {"RPL003"}

    def test_aliased_time_module_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            import time as t

            def f():
                return t.perf_counter()
            """,
        )
        assert codes_of(findings) == {"RPL003"}
        assert findings[0].line == 5

    def test_whitelisted_site_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/thermal.py",
            """
            import time

            class ThermalJoin:
                def _build(self, dataset):
                    start = time.perf_counter()
                    return time.perf_counter() - start
            """,
        )
        assert findings == []

    def test_whitelist_does_not_leak_to_other_scopes(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/thermal.py",
            """
            import time

            class ThermalJoin:
                def step(self, dataset):
                    return time.perf_counter()
            """,
        )
        assert codes_of(findings) == {"RPL003"}

    def test_engine_timing_is_out_of_scope(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/mod.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
        )
        assert findings == []

    def test_aliased_time_module_in_engine_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/mod.py",
            """
            import time as t

            def measure():
                return t.perf_counter()
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL101 — executor submission discipline
# ----------------------------------------------------------------------
class TestExecutorSubmission:
    def test_lambda_submission_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/executors.py",
            """
            def run(pool):
                return pool.submit(lambda: 1)
            """,
        )
        assert codes_of(findings) == {"RPL101"}

    def test_nested_function_submission_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/executors.py",
            """
            def run(pool):
                def task():
                    return 1
                return pool.submit(task)
            """,
        )
        assert codes_of(findings) == {"RPL101"}

    def test_computed_callable_submission_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/executors.py",
            """
            def run(pool, tasks):
                return pool.submit(tasks[0])
            """,
        )
        assert codes_of(findings) == {"RPL101"}

    def test_module_level_function_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/executors.py",
            """
            def work(chunk):
                return chunk

            def run(pool, chunk):
                return pool.submit(work, chunk)
            """,
        )
        assert findings == []

    def test_same_discipline_outside_executors(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/plan.py",
            """
            def run(pool):
                return pool.submit(lambda: 1)
            """,
        )
        assert codes_of(findings) == {"RPL101"}
        assert lint_source(tmp_path, "repro/engine/plan.py", "x = 1\n") == []

    def test_nested_function_outside_executors_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/plan.py",
            """
            def run(pool):
                def task():
                    return 1
                return pool.submit(task)
            """,
        )
        assert codes_of(findings) == {"RPL101"}

    def test_computed_callable_outside_executors_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/plan.py",
            """
            def run(pool, tasks):
                return pool.submit(tasks[0])
            """,
        )
        assert codes_of(findings) == {"RPL101"}


# ----------------------------------------------------------------------
# RPL102 — shared-memory views must be read-only
# ----------------------------------------------------------------------
class TestSharedMemoryReadOnly:
    def test_unlocked_view_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/shm.py",
            """
            import numpy as np

            def attach(shm):
                view = np.ndarray((3,), dtype="f8", buffer=shm.buf)
                return view
            """,
        )
        assert codes_of(findings) == {"RPL102"}

    def test_setflags_lock_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/shm.py",
            """
            import numpy as np

            def attach(shm):
                view = np.ndarray((3,), dtype="f8", buffer=shm.buf)
                view.setflags(write=False)
                return view
            """,
        )
        assert findings == []

    def test_writeable_flag_lock_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/shm.py",
            """
            import numpy as np

            def attach(shm):
                view = np.ndarray((3,), dtype="f8", buffer=shm.buf)
                view.flags.writeable = False
                return view
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL201 — ad-hoc coordinate comparisons
# ----------------------------------------------------------------------
class TestUncountedOverlap:
    def test_raw_bound_comparison_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            def overlaps(lo_a, hi_b):
                return lo_a <= hi_b
            """,
        )
        assert codes_of(findings) == {"RPL201"}

    def test_attribute_bounds_fire(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def check(a, b):
                return a.xlo < b.xhi
            """,
        )
        assert codes_of(findings) == {"RPL201"}

    def test_non_bound_names_are_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            def smaller(first, second):
                return first <= second
            """,
        )
        assert findings == []

    def test_geometry_kernels_are_out_of_scope(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/geometry/mod.py",
            """
            def overlaps(lo_a, hi_b):
                return lo_a <= hi_b
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL202 — JoinStatistics write discipline
# ----------------------------------------------------------------------
class TestStatisticsWrite:
    def test_augmented_field_write_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            def record(stats):
                stats.overlap_tests += 5
            """,
        )
        assert codes_of(findings) == {"RPL202"}

    def test_attribute_rooted_write_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/mod.py",
            """
            def record(result):
                result.stats.events = []
            """,
        )
        assert codes_of(findings) == {"RPL202"}

    def test_recording_method_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            def record(stats, seconds):
                stats.record_stage("verify", seconds)
            """,
        )
        assert findings == []

    def test_base_module_recording_methods_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/base.py",
            """
            class JoinStatistics:
                def record_stage(self, stage, seconds):
                    self.stage_seconds[stage] = seconds
            """,
            select="RPL202",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL203 — maintained pair-set write discipline
# ----------------------------------------------------------------------
class TestPairSetWrite:
    def test_key_array_write_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def patch(maintained, keys):
                maintained._keys = keys
            """,
        )
        assert codes_of(findings) == {"RPL203"}

    def test_attribute_rooted_augmented_write_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/mod.py",
            """
            def grow(algorithm):
                algorithm._maintained.n += 1
            """,
        )
        assert codes_of(findings) == {"RPL203"}

    def test_delta_maintenance_api_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/mod.py",
            """
            def patch(maintained, delta, merged):
                dropped = maintained.remove_incident(delta)
                added = maintained.merge_delta(*merged)
                return dropped, added
            """,
        )
        assert findings == []

    def test_rebinding_the_set_itself_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def seed(algorithm, build, pairs):
                algorithm._maintained = build(pairs)
            """,
            select="RPL203",
        )
        assert findings == []

    def test_pairs_module_methods_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/geometry/pairs.py",
            """
            class MaintainedPairSet:
                def merge_delta(self, maintained, keys):
                    maintained._keys = keys
            """,
            select="RPL203",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL301 — JoinResult.pairs contract
# ----------------------------------------------------------------------
class TestJoinResultContract:
    def test_canonical_annotation_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/base.py",
            """
            class JoinResult:
                pairs: tuple | None = None
            """,
        )
        assert findings == []

    def test_drifted_annotation_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/base.py",
            """
            class JoinResult:
                pairs: list = []
            """,
        )
        assert codes_of(findings) == {"RPL301"}

    def test_post_hoc_pairs_assignment_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            def patch(result, i_idx, j_idx):
                result.pairs = (i_idx, j_idx)
            """,
        )
        assert codes_of(findings) == {"RPL301"}

    def test_list_pairs_construction_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            def build(n, tests, i_idx, j_idx):
                return JoinResult(n, tests, pairs=[i_idx, j_idx])
            """,
        )
        assert codes_of(findings) == {"RPL301"}

    def test_tuple_or_none_construction_is_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            def build(n, tests, i_idx, j_idx, count_only):
                pairs = None if count_only else (i_idx, j_idx)
                return JoinResult(n, tests, pairs=pairs)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL501 — recovery-package file writes go through the atomic writer
# ----------------------------------------------------------------------
class TestRecoveryAtomicWrite:
    def test_open_write_mode_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/recovery/mod.py",
            """
            def bad(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """,
            select="RPL501",
        )
        assert codes_of(findings) == {"RPL501"}

    def test_numpy_savez_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/recovery/mod.py",
            """
            import numpy as np

            def bad(path, arrays):
                np.savez(path, **arrays)
            """,
            select="RPL501",
        )
        assert codes_of(findings) == {"RPL501"}

    def test_json_dump_and_os_replace_fire(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/recovery/mod.py",
            """
            import json
            import os

            def bad(path, doc, handle):
                json.dump(doc, handle)
                os.replace(path, path)
            """,
            select="RPL501",
        )
        assert codes_of(findings) == {"RPL501"}
        assert len(findings) == 2

    def test_path_write_bytes_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/recovery/mod.py",
            "def bad(path):\n    path.write_bytes(b'x')\n",
            select="RPL501",
        )
        assert codes_of(findings) == {"RPL501"}

    def test_computed_open_mode_fires(self, tmp_path: Path) -> None:
        # A mode that can't be proven read-only counts as a write.
        findings = lint_source(
            tmp_path,
            "repro/recovery/mod.py",
            "def bad(path, mode):\n    return open(path, mode)\n",
            select="RPL501",
        )
        assert codes_of(findings) == {"RPL501"}

    def test_reads_are_clean(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/recovery/mod.py",
            """
            import json
            import numpy as np

            def ok(path):
                with open(path, "rb") as handle:
                    data = handle.read()
                doc = json.loads(path.read_text(encoding="utf-8"))
                with np.load(path, allow_pickle=False) as payload:
                    arrays = dict(payload)
                path.unlink(missing_ok=True)
                return data, doc, arrays
            """,
            select="RPL501",
        )
        assert findings == []

    def test_atomic_module_is_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/recovery/atomic.py",
            """
            import os

            def atomic_write_bytes(path, data):
                with open(str(path) + ".tmp", "wb") as handle:
                    handle.write(data)
                    os.fsync(handle.fileno())
                os.replace(str(path) + ".tmp", path)
            """,
            select="RPL501",
        )
        assert findings == []

    def test_outside_recovery_scope_is_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/obs/mod.py",
            "def ok(path, doc):\n    import json\n    json.dump(doc, open(path, 'w'))\n",
            select="RPL501",
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL601 — event-loop imports confined to repro/service/
# ----------------------------------------------------------------------
class TestServiceAsyncImport:
    def test_asyncio_import_in_engine_fires(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/engine/mod.py",
            "import asyncio\n\n\ndef bad():\n    return asyncio.get_event_loop()\n",
            select="RPL601",
        )
        assert codes_of(findings) == {"RPL601"}

    def test_from_import_and_submodule_fire(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            from asyncio import Queue
            import asyncio.events
            """,
            select="RPL601",
        )
        assert codes_of(findings) == {"RPL601"}
        assert len(findings) == 2

    def test_other_loop_frameworks_fire(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/obs/mod.py",
            """
            import selectors
            import trio
            """,
            select="RPL601",
        )
        assert codes_of(findings) == {"RPL601"}
        assert len(findings) == 2

    def test_service_package_is_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/service/mod.py",
            """
            import asyncio

            async def ok():
                await asyncio.sleep(0)
            """,
            select="RPL601",
        )
        assert findings == []

    def test_outside_library_scope_is_exempt(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "benchmarks/mod.py",
            "import asyncio\n",
            select="RPL601",
        )
        assert findings == []

    def test_prefix_lookalikes_are_clean(self, tmp_path: Path) -> None:
        # Only genuine module roots count, not name prefixes.
        findings = lint_source(
            tmp_path,
            "repro/engine/mod.py",
            "import asyncio_helpers\nimport triose\n",
            select="RPL601",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    SOURCE = """
    def overlaps(lo_a, hi_b):
        return lo_a <= hi_b  {comment}
    """

    def test_coded_suppression_silences_that_code(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            self.SOURCE.format(
                comment="# repro-lint: ignore[RPL201] counted in the caller"
            ),
        )
        assert findings == []

    def test_bare_suppression_silences_all_codes(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            self.SOURCE.format(comment="# repro-lint: ignore"),
        )
        assert findings == []

    def test_wrong_code_does_not_suppress(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            self.SOURCE.format(comment="# repro-lint: ignore[RPL999]"),
        )
        assert codes_of(findings) == {"RPL201"}

    def test_suppression_is_line_scoped(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "repro/joins/mod.py",
            """
            # repro-lint: ignore[RPL201]
            def overlaps(lo_a, hi_b):
                return lo_a <= hi_b
            """,
        )
        assert codes_of(findings) == {"RPL201"}

    def test_collect_suppressions_parses_code_lists(self) -> None:
        got = collect_suppressions(
            "x = 1  # repro-lint: ignore[rpl201, RPL202]\ny = 2  # repro-lint: ignore\n"
        )
        assert got == {1: frozenset({"RPL201", "RPL202"}), 2: None}


# ----------------------------------------------------------------------
# Drivers and the CLI exit-code contract
# ----------------------------------------------------------------------
class TestDrivers:
    def test_lint_paths_walks_and_sorts(self, tmp_path: Path) -> None:
        (tmp_path / "repro" / "joins").mkdir(parents=True)
        (tmp_path / "repro" / "joins" / "b.py").write_text(
            "def f(lo_a, hi_b):\n    return lo_a <= hi_b\n", encoding="utf-8"
        )
        (tmp_path / "repro" / "joins" / "a.py").write_text(
            "import random\n", encoding="utf-8"
        )
        (tmp_path / "repro" / "joins" / "notes.txt").write_text("skip", encoding="utf-8")
        report = lint_paths([tmp_path])
        assert report.checked == 2
        assert [finding.code for finding in report.findings] == ["RPL001", "RPL201"]
        assert report.findings == sorted(report.findings)

    def test_diagnostic_render_format(self, tmp_path: Path) -> None:
        findings = lint_source(tmp_path, "repro/core/mod.py", "import random\n")
        (finding,) = findings
        rendered = finding.render()
        assert rendered.endswith(f": {finding.code} {finding.message}")
        assert f"{finding.path}:{finding.line}:{finding.col}:" in rendered


class TestCli:
    def _write(self, tmp_path: Path, rel: str, source: str) -> Path:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def test_exit_zero_on_clean_tree(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        self._write(tmp_path, "repro/joins/mod.py", "def f() -> int:\n    return 1\n")
        assert cli.main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path = self._write(tmp_path, "repro/core/mod.py", "import random\n")
        assert cli.main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1:1: RPL001" in out
        assert "1 finding(s)" in out

    def test_exit_two_without_paths(self, capsys: pytest.CaptureFixture[str]) -> None:
        assert cli.main([]) == 2
        assert "no paths given" in capsys.readouterr().err

    def test_exit_two_on_missing_path(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        assert cli.main([str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_is_a_finding_not_an_abort(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        self._write(tmp_path, "broken.py", "def f(:\n")
        self._write(tmp_path, "repro/core/mod.py", "import random\n")
        assert cli.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        # The broken file is reported, and the rest is still linted.
        assert PARSE_ERROR_CODE in out
        assert "cannot parse" in out
        assert "RPL001" in out

    def test_exit_two_on_unknown_select_code(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path = self._write(tmp_path, "mod.py", "x = 1\n")
        assert cli.main(["--select", "RPL123", str(path)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_exit_two_on_retired_code(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path = self._write(tmp_path, "mod.py", "x = 1\n")
        for code in sorted(RETIRED_CODES):
            assert cli.main(["--select", code, str(path)]) == 2
            assert "unknown rule code" in capsys.readouterr().err

    def test_exit_two_on_duplicate_path(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path = self._write(tmp_path, "mod.py", "x = 1\n")
        assert cli.main([str(path), str(path)]) == 2
        assert "path given twice" in capsys.readouterr().err

    def test_select_filters_rules(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path = self._write(
            tmp_path,
            "repro/core/mod.py",
            "import random\n\n\ndef f(lo_a, hi_b):\n    return lo_a <= hi_b\n",
        )
        assert cli.main(["--select", "rpl001", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out
        assert "RPL201" not in out

    def test_list_rules_prints_catalogue(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line[:3] == "RPL"}
        assert listed == ALL_CODES | PROJECT_CODES | {PARSE_ERROR_CODE}
        assert len(listed) == 14


# ----------------------------------------------------------------------
# The repository lints itself
# ----------------------------------------------------------------------
def test_repository_is_clean() -> None:
    """The CI gate (`python -m tools.repro_lint src benchmarks tools tests examples`) holds.

    Runs the *full* rule set — per-file and whole-program families alike.
    Deliberate-violation fixture trees under ``tests/fixtures/lint`` are
    pruned by their ``.repro-lint-ignore`` marker.
    """
    findings = cli.run_paths(
        [
            str(REPO_ROOT / name)
            for name in ("src", "benchmarks", "tools", "tests", "examples")
        ]
    )
    assert findings == [], "\n".join(finding.render() for finding in findings)
