"""The per-file repro-lint rules: contracts one file's AST can decide.

Each rule encodes one repo contract (see ``docs/static-analysis.md`` for
the narrative catalogue).  The determinism and executor-submission
contracts (RPL001, RPL003, RPL101) need the call graph and live in
:mod:`tools.repro_lint.project_rules`.

=======  ==============================================================
RPL102   shared-memory views must be made read-only
RPL201   overlap predicates go through counted geometry helpers
RPL202   ``JoinStatistics`` fields written only via recording methods
RPL203   maintained pair sets mutated only via the delta-maintenance API
RPL301   ``JoinResult.pairs`` contract (``tuple | None``)
RPL501   recovery-package file writes go through the atomic writer
RPL601   event-loop imports confined to ``repro/service/``
=======  ==============================================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint import config
from tools.repro_lint.core import Diagnostic, FileContext, Rule, register


@register
class SharedMemoryReadOnlyRule(Rule):
    code = "RPL102"
    title = "writable shared-memory view"
    rationale = (
        "Context arrays published through multiprocessing.shared_memory are "
        "read concurrently by every worker in the verify stage; a writable "
        "view lets one task corrupt every other task's input.  Each "
        "np.ndarray(..., buffer=...) view must be locked with "
        "setflags(write=False) in the same function."
    )

    @staticmethod
    def _is_buffer_view(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        named_ndarray = isinstance(func, ast.Name) and func.id == "ndarray"
        attr_ndarray = (
            isinstance(func, ast.Attribute)
            and func.attr == "ndarray"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        )
        if not (named_ndarray or attr_ndarray):
            return False
        return any(keyword.arg == "buffer" for keyword in node.keywords)

    @staticmethod
    def _readonly_names(body: list[ast.stmt]) -> set[str]:
        names: set[str] = set()
        for node in body:
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "setflags"
                    and isinstance(child.func.value, ast.Name)
                ):
                    for keyword in child.keywords:
                        if (
                            keyword.arg == "write"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is False
                        ):
                            names.add(child.func.value.id)
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "writeable"
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr == "flags"
                            and isinstance(target.value.value, ast.Name)
                            and isinstance(child.value, ast.Constant)
                            and child.value.value is False
                        ):
                            names.add(target.value.value.id)
        return names

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.ENGINE_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            readonly = self._readonly_names(node.body)
            for child in ast.walk(node):
                if not (
                    isinstance(child, ast.Assign)
                    and self._is_buffer_view(child.value)
                ):
                    continue
                target = child.targets[0]
                if len(child.targets) == 1 and isinstance(target, ast.Name):
                    if target.id in readonly:
                        continue
                    yield ctx.diagnostic(
                        child,
                        self.code,
                        f"shared-memory view {target.id!r} is never locked with "
                        f"{target.id}.setflags(write=False)",
                    )
                else:
                    yield ctx.diagnostic(
                        child,
                        self.code,
                        "shared-memory view stored without a read-only lock; "
                        "assign to a name and setflags(write=False) first",
                    )


def _bound_identifiers(node: ast.expr) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _is_bound_expr(node: ast.expr) -> bool:
    return any(
        config.BOUND_NAME_RE.search(name) for name in _bound_identifiers(node)
    )


@register
class UncountedOverlapRule(Rule):
    code = "RPL201"
    title = "ad-hoc coordinate comparison"
    rationale = (
        "Figure 7(c) compares algorithms by overlap-test counts, so every "
        "candidate filter must charge JoinStatistics.overlap_tests through "
        "the counted repro.geometry helpers (overlap_*, sweep and batch "
        "kernels).  A raw lo/hi comparison inside joins/ or core/ is "
        "invisible to that accounting; counted kernels carry a justified "
        "suppression."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.COUNTED_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_bound_expr(left) and _is_bound_expr(right):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "raw box-bound comparison bypasses overlap-test "
                        "accounting; use the counted repro.geometry helpers "
                        "(or suppress with a justification on counted kernels)",
                    )
                    break


@register
class StatisticsWriteRule(Rule):
    code = "RPL202"
    title = "direct JoinStatistics field write"
    rationale = (
        "JoinStatistics fields are aggregates with invariants (task_retries "
        "mirrors retry-class events; overlap_tests sums task counters). "
        "Writing fields directly bypasses those invariants; all mutation "
        "goes through the recording methods on JoinStatistics itself."
    )

    @staticmethod
    def _is_stats_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in config.STATISTICS_ROOTS
        if isinstance(node, ast.Attribute):
            return node.attr in config.STATISTICS_ROOTS
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.LIBRARY_SCOPE) or ctx.in_scope(config.BASE_MODULE):
            return
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in config.STATISTICS_FIELDS
                    and self._is_stats_expr(target.value)
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"direct write to JoinStatistics.{target.attr}; use the "
                        "recording methods (record_stage, record_task, "
                        "record_events, add_overlap_tests, ...)",
                    )


@register
class PairSetWriteRule(Rule):
    code = "RPL203"
    title = "direct maintained pair-set mutation"
    rationale = (
        "MaintainedPairSet carries a join result across simulation steps; "
        "its bit-identity contract with a full re-join is auditable only "
        "because every mutation flows through remove_incident / merge_delta "
        "(plus construction from a full result).  Poking the packed key "
        "array or the pair-index modulus directly would let an unsorted or "
        "duplicated key slip in and silently corrupt every later step."
    )

    @staticmethod
    def _is_pairset_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in config.PAIRSET_ROOTS
        if isinstance(node, ast.Attribute):
            return node.attr in config.PAIRSET_ROOTS
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.LIBRARY_SCOPE) or ctx.in_scope(
            config.PAIRS_MODULE
        ):
            return
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in config.PAIRSET_FIELDS
                    and self._is_pairset_expr(target.value)
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"direct write to MaintainedPairSet.{target.attr}; "
                        "mutate only through remove_incident / merge_delta "
                        "(or rebuild the set from a full join result)",
                    )


@register
class JoinResultContractRule(Rule):
    code = "RPL301"
    title = "JoinResult.pairs contract"
    rationale = (
        "JoinResult.pairs is `tuple | None`: canonical (i, j) arrays, or "
        "None exactly in count-only mode.  Downstream consumers (engine "
        "merge, unique_pairs, figures) rely on that shape; lists or "
        "post-hoc mutation break the bit-identical-to-serial guarantee."
    )

    def _check_base(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ctx.tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name == "JoinResult"):
                continue
            annotation = None
            for statement in node.body:
                if (
                    isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and statement.target.id == "pairs"
                ):
                    annotation = ast.unparse(statement.annotation)
            if annotation != config.JOIN_RESULT_PAIRS_ANNOTATION:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "JoinResult.pairs must stay annotated exactly "
                    f"`{config.JOIN_RESULT_PAIRS_ANNOTATION}` "
                    f"(found {annotation!r})",
                )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_scope(config.BASE_MODULE):
            yield from self._check_base(ctx)
            return
        if not ctx.in_scope(config.LIBRARY_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "pairs":
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            "JoinResult.pairs is set only by the engine at "
                            "construction; do not assign .pairs after the fact",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if name != "JoinResult":
                    continue
                pairs_value: ast.expr | None = None
                for keyword in node.keywords:
                    if keyword.arg == "pairs":
                        pairs_value = keyword.value
                if pairs_value is None and len(node.args) >= 3:
                    pairs_value = node.args[2]
                if isinstance(pairs_value, (ast.List, ast.ListComp)):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "JoinResult.pairs must be a tuple of index arrays or "
                        "None, not a list",
                    )


@register
class RecoveryAtomicWriteRule(Rule):
    code = "RPL501"
    title = "non-atomic file write in the recovery package"
    rationale = (
        "A checkpoint is only trustworthy because its write path is "
        "crash-safe: bytes go to a temp file, are fsynced, and are "
        "renamed into place, so a manifest can never name a payload "
        "that was not fully durable.  A direct open(..., 'w'), "
        "np.savez, json.dump, Path.write_bytes or os.replace anywhere "
        "else in repro/recovery/ reintroduces exactly the torn-write "
        "window the subsystem exists to close; all durable writes go "
        "through repro.recovery.atomic."
    )

    @staticmethod
    def _open_write_mode(node: ast.Call) -> str | None:
        """The write-mode string of an ``open()`` call, or ``None``."""
        func = node.func
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open:
            return None
        mode_expr: ast.expr | None = None
        if len(node.args) >= 2:
            mode_expr = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode_expr = keyword.value
        if mode_expr is None:
            return None  # default "r": read-only
        if isinstance(mode_expr, ast.Constant) and isinstance(mode_expr.value, str):
            mode = mode_expr.value
            if set(mode) & config.WRITE_MODE_CHARS:
                return mode
            return None
        # A computed mode can't be proven read-only; flag it.
        return ast.unparse(mode_expr)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.RECOVERY_SCOPE) or ctx.in_scope(
            config.ATOMIC_MODULE
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = self._open_write_mode(node)
            if mode is not None:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"open(..., {mode!r}) in repro/recovery/ bypasses the "
                    "atomic write protocol; use repro.recovery.atomic",
                )
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and func.attr in config.MODULE_WRITE_CALLS.get(receiver.id, frozenset())
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"{receiver.id}.{func.attr}() in repro/recovery/ bypasses "
                    "the atomic write protocol; use repro.recovery.atomic "
                    "(write_npz / write_json / atomic_write_bytes)",
                )
            elif func.attr in config.PATH_WRITE_ATTRS:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f".{func.attr}() in repro/recovery/ bypasses the atomic "
                    "write protocol; use repro.recovery.atomic",
                )


@register
class ServiceAsyncImportRule(Rule):
    code = "RPL601"
    title = "event-loop import outside the service package"
    rationale = (
        "The library below the service boundary is synchronous by "
        "design: join algorithms, executors and the incremental layer "
        "are driven step-by-step and verified bit-identical against a "
        "serial oracle, which an ambient event loop would undermine "
        "(implicit scheduling, loop-bound state, unawaited coroutines).  "
        "asyncio and its kin (selectors, uvloop, trio, anyio, curio) "
        "are therefore importable only from repro/service/, where the "
        "JoinService front-end bridges into the synchronous core via "
        "asyncio.to_thread."
    )

    @staticmethod
    def _is_async_module(module: str) -> bool:
        root = module.partition(".")[0]
        return root in config.ASYNC_MODULES

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_scope(config.LIBRARY_SCOPE) or ctx.in_scope(
            config.SERVICE_SCOPE
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if self._is_async_module(module):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"event-loop import {module!r} outside repro/service/; "
                        "the library core is synchronous — async front-ends "
                        "live in repro.service",
                    )
                    break
