"""Core machinery for repro-lint: diagnostics, suppressions, file walks.

The linter is deliberately dependency-free: :mod:`ast` for structure,
:mod:`tokenize` for comments (``ast`` drops them), and nothing else.
Rules come in two shapes:

* per-file rules (:class:`Rule`, registered with :func:`register`)
  receive a :class:`FileContext` for one parsed file;
* project rules (:class:`ProjectRule`, registered with
  :func:`register_project`) receive the whole
  :class:`~tools.repro_lint.project.ProjectIndex` plus its
  :class:`~tools.repro_lint.callgraph.CallGraph` and may relate facts
  across modules.

Line suppressions use the same shape as ruff's ``noqa``::

    risky_call()  # repro-lint: ignore[RPL003] one-line justification

A bare ``# repro-lint: ignore`` (no code list) suppresses every rule on
that line; a code list suppresses exactly those codes.

Per-file results (summary + post-suppression diagnostics) are cached to
disk keyed on content hashes; project rules always re-run against the
reassembled index, so editing a helper re-checks every module that
reaches it through the call graph even though only the helper's cache
entry is invalidated.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import tokenize
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from tools.repro_lint.project import (
    IndexCache,
    ModuleSummary,
    ProjectIndex,
    file_digest,
    module_name_for_path,
    summarize_module,
)

__all__ = [
    "Diagnostic",
    "FileContext",
    "Rule",
    "ProjectRule",
    "RULES",
    "PROJECT_RULES",
    "PARSE_ERROR_CODE",
    "LintReport",
    "register",
    "register_project",
    "all_rule_codes",
    "collect_suppressions",
    "iter_python_files",
    "lint_file",
    "lint_paths",
]

SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)

#: Pseudo-rule reported when a file cannot be parsed.  A parse failure
#: is a finding about that file, not a reason to abort the whole run.
PARSE_ERROR_CODE = "RPL999"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def collect_suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number → suppressed codes (``None`` means *all* codes)."""
    suppressions: dict[int, frozenset[str] | None] = {}
    # An untokenizable file already failed ast.parse upstream.
    with contextlib.suppress(tokenize.TokenError):
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                suppressions[token.start[0]] = None
            else:
                parsed = frozenset(
                    code.strip().upper() for code in codes.split(",") if code.strip()
                )
                existing = suppressions.get(token.start[0], frozenset())
                if existing is None:
                    continue
                suppressions[token.start[0]] = parsed | existing
    return suppressions


class FileContext:
    """Everything a per-file rule needs to know about one parsed file."""

    def __init__(self, path: Path, display: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.display = display
        #: Resolved POSIX path used for scope matching, so rules behave
        #: identically on the real tree and on fixture trees.
        self.resolved = path.resolve().as_posix()
        self.source = source
        self.tree = tree
        self.suppressions = collect_suppressions(source)

    def in_scope(self, patterns: Iterable[str]) -> bool:
        return any(pattern in self.resolved for pattern in patterns)

    def diagnostic(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Diagnostic(self.display, line, col, code, message)

    def suppressed(self, diagnostic: Diagnostic) -> bool:
        codes = self.suppressions.get(diagnostic.line, frozenset())
        if diagnostic.line not in self.suppressions:
            return False
        return codes is None or diagnostic.code in codes


class Rule:
    """Base class: one diagnostic code, one :meth:`check` pass."""

    code = "RPL000"
    title = "abstract rule"
    rationale = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-program rules.

    :meth:`check_project` sees every module summary and the call graph
    at once; it is responsible for honouring suppressions itself (via
    :meth:`~tools.repro_lint.project.ModuleSummary.suppressed`) because
    there is no single :class:`FileContext` to consult.
    """

    code = "RPL700"
    title = "abstract project rule"
    rationale = ""

    def check_project(self, index: ProjectIndex, graph) -> Iterator[Diagnostic]:
        raise NotImplementedError


#: Registries, populated by :mod:`tools.repro_lint.rules` and
#: :mod:`tools.repro_lint.project_rules` at import time.
RULES: list[Rule] = []
PROJECT_RULES: list[ProjectRule] = []


def register(rule_class: type[Rule]) -> type[Rule]:
    RULES.append(rule_class())
    return rule_class


def register_project(rule_class: type[ProjectRule]) -> type[ProjectRule]:
    PROJECT_RULES.append(rule_class())
    return rule_class


def all_rule_codes() -> frozenset[str]:
    """Every selectable code: per-file, project, and the parse pseudo-rule."""
    return frozenset(
        {rule.code for rule in RULES}
        | {rule.code for rule in PROJECT_RULES}
        | {PARSE_ERROR_CODE}
    )


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".benchmarks", "results"}

#: Directories containing this marker file are pruned when *expanding a
#: directory*, so the repo self-lint skips deliberate-violation fixture
#: trees while tests can still lint those trees by passing them (or a
#: subtree below the marker) as an explicit root.
IGNORE_MARKER = ".repro-lint-ignore"


def _under_marker(candidate: Path, root: Path) -> bool:
    parent = candidate.parent
    while parent != root:
        if (parent / IGNORE_MARKER).is_file():
            return True
        if parent == parent.parent:
            break
        parent = parent.parent
    return False


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS or part.startswith(".") for part in candidate.parts):
                continue
            if _under_marker(candidate, path):
                continue
            yield candidate


@dataclass
class LintReport:
    """Everything a run produced, for the CLI to render."""

    findings: list[Diagnostic]
    checked: int
    parse_errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    summaries: list[ModuleSummary] = field(default_factory=list)

    def statistics(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


def analyze_file(
    path: Path,
    display: str | None = None,
    cache: IndexCache | None = None,
) -> ModuleSummary:
    """Produce the :class:`ModuleSummary` for one file.

    Runs every per-file rule and stores the *post-suppression*
    diagnostics on the summary, so a cache hit replays exactly what a
    fresh analysis would have reported.  A ``SyntaxError`` becomes an
    :data:`PARSE_ERROR_CODE` diagnostic instead of an exception.
    """
    display = display or str(path)
    resolved = path.resolve().as_posix()
    source = path.read_text(encoding="utf-8")
    sha = file_digest(source)
    if cache is not None:
        cached = cache.get(resolved, sha, display)
        if cached is not None:
            return cached
    module = module_name_for_path(resolved)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        summary = ModuleSummary(
            module=module,
            path=display,
            resolved=resolved,
            sha256=sha,
            parse_error=f"{error.msg} (line {error.lineno})",
        )
        summary.suppressions = collect_suppressions(source)
        summary.diagnostics = [
            (
                PARSE_ERROR_CODE,
                error.lineno or 1,
                (error.offset or 1),
                f"cannot parse file: {error.msg}",
            )
        ]
        if cache is not None:
            cache.put(summary)
        return summary
    ctx = FileContext(path, display, source, tree)
    summary = summarize_module(module, display, resolved, sha, tree)
    summary.suppressions = dict(ctx.suppressions)
    diagnostics: list[tuple[str, int, int, str]] = []
    for rule in RULES:
        for diagnostic in rule.check(ctx):
            if not ctx.suppressed(diagnostic):
                diagnostics.append(
                    (diagnostic.code, diagnostic.line, diagnostic.col, diagnostic.message)
                )
    summary.diagnostics = diagnostics
    if cache is not None:
        cache.put(summary)
    return summary


def _selected(code: str, select: frozenset[str] | None, ignore: frozenset[str] | None) -> bool:
    if select is not None and code not in select:
        return False
    return not (ignore is not None and code in ignore)


def _run_project_rules(
    summaries: list[ModuleSummary],
    select: frozenset[str] | None,
    ignore: frozenset[str] | None,
) -> list[Diagnostic]:
    # Imported here: callgraph depends on project, and project_rules on
    # this module — a top-level import would be circular.
    from tools.repro_lint.callgraph import CallGraph

    index = ProjectIndex([s for s in summaries if s.parse_error is None])
    graph = CallGraph(index)
    findings: list[Diagnostic] = []
    for rule in PROJECT_RULES:
        if not _selected(rule.code, select, ignore):
            continue
        findings.extend(rule.check_project(index, graph))
    return findings


def lint_file(
    path: Path,
    display: str | None = None,
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
) -> list[Diagnostic]:
    """Lint one file standalone (per-file rules + a single-file index).

    Parse failures are reported as :data:`PARSE_ERROR_CODE` findings,
    not raised.
    """
    summary = analyze_file(path, display=display)
    findings = [
        Diagnostic(summary.path, line, col, code, message)
        for code, line, col, message in summary.diagnostics
        if _selected(code, select, ignore)
    ]
    findings.extend(_run_project_rules([summary], select, ignore))
    findings.sort()
    return findings


def lint_paths(
    paths: Iterable[str | Path],
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
    cache: IndexCache | None = None,
) -> LintReport:
    """Lint every python file under ``paths``.

    Per-file work is served from ``cache`` when content hashes match;
    project rules always run against the full reassembled index.
    Findings are sorted by location.  Import the rules modules first
    (the CLI does) or the registries are empty.
    """
    summaries: list[ModuleSummary] = []
    seen: set[str] = set()
    for path in iter_python_files(paths):
        resolved = path.resolve().as_posix()
        if resolved in seen:
            continue
        seen.add(resolved)
        summaries.append(analyze_file(path, display=str(path), cache=cache))

    findings: list[Diagnostic] = []
    parse_errors = 0
    for summary in summaries:
        if summary.parse_error is not None:
            parse_errors += 1
        findings.extend(
            Diagnostic(summary.path, line, col, code, message)
            for code, line, col, message in summary.diagnostics
            if _selected(code, select, ignore)
        )
    findings.extend(_run_project_rules(summaries, select, ignore))
    findings.sort()
    report = LintReport(
        findings=findings,
        checked=len(summaries),
        parse_errors=parse_errors,
        summaries=summaries,
    )
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
        cache.save()
    return report
