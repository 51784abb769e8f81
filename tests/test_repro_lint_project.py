"""Whole-program analysis tests: cross-file rules, index cache, CLI modes.

The cross-file fixtures live on disk under ``tests/fixtures/lint``;
each ``*_fire`` tree splits the violation across *two* modules so that a
per-file analysis provably cannot catch it — every fire test also lints
the anchoring module **alone** and asserts silence, then lints the pair
and asserts the finding.  The trees carry a ``.repro-lint-ignore``
marker so the repository self-lint prunes them.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import cli  # noqa: E402
from tools.repro_lint.core import (  # noqa: E402
    iter_python_files,
    lint_file,
    lint_paths,
)
from tools.repro_lint.project import IndexCache  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: rule code -> (fixture stem, display-path fragment of the flagged file)
FIRE_ANCHORS = {
    "RPL001": ("rpl001_reach", "repro/joins/alg.py"),
    "RPL003": ("rpl003_reach", "repro/core/alg.py"),
    "RPL101": ("rpl101_reach", "repro/engine/runner.py"),
    "RPL701": ("rpl701", "repro/service/app.py"),
    "RPL702": ("rpl702", "repro/service/app.py"),
    "RPL902": ("rpl902", "repro/engine/runner.py"),
}


def codes_of(findings) -> set[str]:
    return {finding.code for finding in findings}


# ----------------------------------------------------------------------
# The six cross-file fixture pairs: fire, clean, and the per-file impossibility
# ----------------------------------------------------------------------
class TestCrossFileRules:
    @pytest.mark.parametrize("code", sorted(FIRE_ANCHORS))
    def test_fire_fixture_fires(self, code: str) -> None:
        stem, anchor = FIRE_ANCHORS[code]
        findings = cli.run_paths([str(FIXTURES / f"{stem}_fire")])
        assert codes_of(findings) == {code}
        assert all(finding.path.endswith(anchor) for finding in findings)

    @pytest.mark.parametrize("code", sorted(FIRE_ANCHORS))
    def test_clean_fixture_is_clean(self, code: str) -> None:
        stem, _anchor = FIRE_ANCHORS[code]
        findings = cli.run_paths([str(FIXTURES / f"{stem}_clean")])
        assert findings == []

    @pytest.mark.parametrize("code", sorted(FIRE_ANCHORS))
    def test_per_file_analysis_cannot_catch_it(self, code: str) -> None:
        """Linting the anchoring module alone sees nothing — the facts it
        would need (the callee's body, its async-ness, its module globals)
        live in the *other* file of the pair."""
        stem, anchor = FIRE_ANCHORS[code]
        flagged = FIXTURES / f"{stem}_fire" / anchor
        assert lint_file(flagged) == []

    def test_suppression_silences_a_project_rule(self, tmp_path: Path) -> None:
        pkg = tmp_path / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "helpers.py").write_text(
            "import time\n\n\ndef settle() -> None:\n    time.sleep(0.01)\n",
            encoding="utf-8",
        )
        (pkg / "app.py").write_text(
            textwrap.dedent(
                """\
                from .helpers import settle


                async def handle() -> None:
                    settle()  # repro-lint: ignore[RPL701] drains in <20ms at shutdown
                """
            ),
            encoding="utf-8",
        )
        assert cli.run_paths([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# Index cache: warm hits, content-keyed invalidation, cross-file recheck
# ----------------------------------------------------------------------
class TestIndexCache:
    def _write_pair(self, tmp_path: Path, helper_body: str) -> Path:
        pkg = tmp_path / "repro"
        (pkg / "support").mkdir(parents=True, exist_ok=True)
        (pkg / "core").mkdir(parents=True, exist_ok=True)
        for sub in ("", "support", "core"):
            (pkg / sub / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "support" / "timing.py").write_text(helper_body, encoding="utf-8")
        (pkg / "core" / "alg.py").write_text(
            textwrap.dedent(
                """\
                from ..support.timing import stamp


                def decide(budget: float) -> bool:
                    return stamp() < budget
                """
            ),
            encoding="utf-8",
        )
        return tmp_path / "cache.json"

    CLEAN_HELPER = "def stamp() -> float:\n    return 0.0\n"
    CLOCK_HELPER = (
        "import time\n\n\ndef stamp() -> float:\n    return time.perf_counter()\n"
    )

    def test_warm_run_hits_every_file(self, tmp_path: Path) -> None:
        cache_path = self._write_pair(tmp_path, self.CLEAN_HELPER)
        cold = lint_paths([tmp_path], cache=IndexCache(cache_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, cold.checked)
        warm = lint_paths([tmp_path], cache=IndexCache(cache_path))
        assert (warm.cache_hits, warm.cache_misses) == (warm.checked, 0)
        assert warm.findings == cold.findings == []

    def test_editing_helper_rechecks_dependent_module(self, tmp_path: Path) -> None:
        """The cross-file contract is re-evaluated even for cache-hit files:
        only the edited helper misses the cache, yet the finding lands in
        the *unchanged* dependent module."""
        cache_path = self._write_pair(tmp_path, self.CLEAN_HELPER)
        assert lint_paths([tmp_path], cache=IndexCache(cache_path)).findings == []
        # Edit the transitively-called helper so it now reads a clock.
        (tmp_path / "repro" / "support" / "timing.py").write_text(
            self.CLOCK_HELPER, encoding="utf-8"
        )
        report = lint_paths([tmp_path], cache=IndexCache(cache_path))
        assert report.cache_misses == 1  # only the edited file re-analyzed
        assert report.cache_hits == report.checked - 1
        assert codes_of(report.findings) == {"RPL003"}
        assert report.findings[0].path.endswith("repro/core/alg.py")

    def test_cache_survives_corruption(self, tmp_path: Path) -> None:
        cache_path = self._write_pair(tmp_path, self.CLEAN_HELPER)
        cache_path.write_text("{not json", encoding="utf-8")
        report = lint_paths([tmp_path], cache=IndexCache(cache_path))
        assert report.findings == []
        assert report.cache_misses == report.checked


# ----------------------------------------------------------------------
# Directory walking: fixture trees are pruned from parent expansions
# ----------------------------------------------------------------------
class TestIgnoreMarker:
    def test_marker_prunes_parent_walk(self) -> None:
        walked = {p.resolve() for p in iter_python_files([REPO_ROOT / "tests"])}
        assert not any(FIXTURES in p.parents for p in walked)

    def test_marked_tree_lintable_when_passed_directly(self) -> None:
        walked = list(iter_python_files([FIXTURES / "rpl701_fire"]))
        assert any(p.name == "app.py" for p in walked)


# ----------------------------------------------------------------------
# CLI modes: SARIF, statistics, changed-only
# ----------------------------------------------------------------------
class TestCliModes:
    def test_sarif_output(self, tmp_path: Path) -> None:
        out = tmp_path / "report.sarif"
        code = cli.main(
            [
                "--no-cache",
                "--format",
                "sarif",
                "--output",
                str(out),
                str(FIXTURES / "rpl701_fire"),
            ]
        )
        assert code == 1
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"RPL001", "RPL701", "RPL902", "RPL999"} <= rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "RPL701"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_statistics_summary(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = cli.main(
            ["--no-cache", "--statistics", str(FIXTURES / "rpl702_fire")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "1  RPL702" in out

    def test_ignore_flag_drops_code(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = cli.main(
            ["--no-cache", "--ignore", "RPL702", str(FIXTURES / "rpl702_fire")]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_changed_only_filters_to_git_diff(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "a.py").write_text("import random\n", encoding="utf-8")
        (core / "b.py").write_text("x = 1\n", encoding="utf-8")
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t", "HOME": str(tmp_path)}
        for cmd in (
            ["git", "init", "-q"],
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "add", "."],
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "seed"],
        ):
            subprocess.run(cmd, cwd=tmp_path, check=True, env=env)
        # a.py's violation predates the diff; b.py picks up a fresh one.
        (core / "b.py").write_text("import random\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        findings = cli.run_paths(["."])
        assert len(findings) == 2  # both violations exist in the tree...
        out = tmp_path / "report.txt"
        code = cli.main(["--no-cache", "--changed-only", "--output", str(out), "."])
        assert code == 1
        # ...but only the changed file's finding is reported.
        text = out.read_text(encoding="utf-8")
        assert "b.py" in text and "a.py" not in text

    def test_changed_only_reports_nothing_when_diff_is_clean(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys
    ) -> None:
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "a.py").write_text("import random\n", encoding="utf-8")
        env = {"HOME": str(tmp_path)}
        for cmd in (
            ["git", "init", "-q"],
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "add", "."],
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "seed"],
        ):
            subprocess.run(cmd, cwd=tmp_path, check=True, env=env)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert cli.main(["--no-cache", "--changed-only", "."]) == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Performance: the warm cached full-repo lint stays fast
# ----------------------------------------------------------------------
def test_warm_full_repo_lint_under_ten_seconds(tmp_path: Path) -> None:
    roots = [
        str(REPO_ROOT / name)
        for name in ("src", "benchmarks", "tools", "tests", "examples")
    ]
    cache_path = tmp_path / "cache.json"
    lint_paths(roots, cache=IndexCache(cache_path))  # cold run seeds the cache
    started = time.perf_counter()
    report = lint_paths(roots, cache=IndexCache(cache_path))
    elapsed = time.perf_counter() - started
    assert report.cache_misses == 0
    assert elapsed < 10.0, f"warm lint took {elapsed:.2f}s"
