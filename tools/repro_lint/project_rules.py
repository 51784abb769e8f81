"""Whole-program rules: every contract that needs the project view.

These run on the :class:`~tools.repro_lint.project.ProjectIndex` and
:class:`~tools.repro_lint.callgraph.CallGraph` instead of a single
file's AST.  One rule reports both the sites written in a file and the
violations that *span modules*: for the latter the flagged line is in
the function where the contract binds (the ``async def``, the
deterministic-core caller, the ``submit`` site) while the offending
sink lives any number of calls away in any other module.  Each such
diagnostic prints the resolved call chain so the reader does not have
to rediscover the path.

========  ============================================================
RPL001    entropy outside a seeded Generator: numpy global RNG and
          unseeded ``default_rng`` anywhere; stdlib ``random``, uuid,
          secrets and ``os.urandom`` in the deterministic core, direct
          or reached through a helper
RPL003    wall-clock read in the deterministic core, direct or reached
          through a helper (``TIMING_WHITELIST`` exempt)
RPL101    executor-submitted callable must be a module-level def
RPL701    blocking call reachable from an ``async def`` (no to_thread)
RPL702    coroutine called but never awaited
RPL902    submitted callable closes over process-local module state
========  ============================================================
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from tools.repro_lint import config
from tools.repro_lint.callgraph import CallGraph, FuncNode
from tools.repro_lint.core import (
    Diagnostic,
    ProjectRule,
    register_project,
)
from tools.repro_lint.project import (
    FunctionInfo,
    ModuleSummary,
    ProjectIndex,
    SubmitSite,
)


def _emit(
    summary: ModuleSummary, line: int, col: int, code: str, message: str
) -> Diagnostic | None:
    if summary.suppressed(line, code):
        return None
    return Diagnostic(summary.path, line, col + 1, code, message)


def _is_timing_whitelisted(summary: ModuleSummary, qualname: str) -> bool:
    return any(
        pattern in summary.resolved
        and (qualname == scope or qualname.startswith(scope + "."))
        for (pattern, scope), _why in config.TIMING_WHITELIST.items()
    )


# ----------------------------------------------------------------------
# RPL7xx — async-safety
# ----------------------------------------------------------------------
@register_project
class AsyncBlockingReachRule(ProjectRule):
    code = "RPL701"
    title = "blocking call reachable from async def"
    rationale = (
        "The service front-end multiplexes every client on one event "
        "loop; a blocking call (time.sleep, sync file I/O, "
        "Future.result, subprocess) anywhere in the synchronous call "
        "tree of an async def stalls all of them at once.  Blocking "
        "work crosses the loop boundary only through asyncio.to_thread "
        "(or run_in_executor).  The reach is computed on the project "
        "call graph, so a sink hidden in a helper module is found even "
        "though no single file shows both the async def and the sink."
    )

    def check_project(
        self, index: ProjectIndex, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        closure = graph.sink_closure(
            "blocking", include=lambda node: True, traverse_offloaded=False
        )
        for summary, info in graph.iter_functions(
            lambda s: s.in_scope(config.LIBRARY_SCOPE)
        ):
            if not info.is_async:
                continue
            node = (summary.module, info.qualname)
            # Direct sinks in the async body itself.
            for label, line, col in info.sinks.get("blocking", ()):
                diag = _emit(
                    summary,
                    line,
                    col,
                    self.code,
                    f"async def {info.qualname} performs blocking call "
                    f"{label} directly; offload with asyncio.to_thread",
                )
                if diag is not None:
                    yield diag
            # Calls into the tainted synchronous closure.
            reported: set[int] = set()
            for target, site in graph.edges.get(node, ()):
                if site.offloaded or target not in closure:
                    continue
                target_info = graph.functions.get(target)
                if target_info is not None and target_info.is_async:
                    continue  # flagged at the deeper async frame itself
                if site.lineno in reported:
                    continue
                reported.add(site.lineno)
                diag = _emit(
                    summary,
                    site.lineno,
                    site.col,
                    self.code,
                    f"async def {info.qualname} reaches blocking call via "
                    f"{graph.chain(target, closure)}; offload the call "
                    "with asyncio.to_thread",
                )
                if diag is not None:
                    yield diag


@register_project
class UnawaitedCoroutineRule(ProjectRule):
    code = "RPL702"
    title = "coroutine called but never awaited"
    rationale = (
        "Calling an async def returns a coroutine object; dropping it "
        "on the floor means the body never runs (beyond a "
        "RuntimeWarning at GC time), which turns a service-side update "
        "or cleanup into a silent no-op.  Whether a callee is async is "
        "a fact about its *defining* module, so the per-file pass "
        "cannot see it through an import — the project index can."
    )

    def check_project(
        self, index: ProjectIndex, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        for summary, info in graph.iter_functions(
            lambda s: s.in_scope(config.LIBRARY_SCOPE)
        ):
            node = (summary.module, info.qualname)
            for target, site in graph.edges.get(node, ()):
                if not site.bare_stmt or site.awaited or site.offloaded:
                    continue
                target_info = graph.functions.get(target)
                if target_info is None or not target_info.is_async:
                    continue
                diag = _emit(
                    summary,
                    site.lineno,
                    site.col,
                    self.code,
                    f"coroutine {graph.describe(target)} is called but "
                    "never awaited; await it or schedule it with "
                    "asyncio.create_task",
                )
                if diag is not None:
                    yield diag


# ----------------------------------------------------------------------
# RPL001 / RPL003 — determinism of the core
# ----------------------------------------------------------------------
def _carriers(
    index: ProjectIndex, exempt: tuple[str, ...] = ()
) -> Callable[[FuncNode], bool]:
    """Reach-closure gate: only frames outside the core (and ``exempt``) carry.

    A sink written inside the core is reported where it is written, so
    each leak is reported once, at the first deterministic-core frame.
    """

    def carries(node: FuncNode) -> bool:
        summary = index.modules.get(node[0])
        return summary is not None and not summary.in_scope(
            config.DETERMINISTIC_SCOPE + exempt
        )

    return carries


def _entropy_message(label: str) -> str:
    if label.endswith("# unseeded"):
        return (
            "numpy.random.default_rng() without a seed is entropy-seeded "
            "and nondeterministic; pass an explicit seed"
        )
    if "numpy.random." in label:
        return (
            f"{label}: numpy's hidden global RNG; use a seeded Generator "
            "(numpy.random.default_rng(seed))"
        )
    return (
        f"{label}: an entropy source inside the deterministic core; take "
        "a seeded numpy Generator parameter instead"
    )


@register_project
class EntropyRule(ProjectRule):
    code = "RPL001"
    title = "entropy outside a seeded Generator"
    rationale = (
        "Results must be a pure function of the seed, so randomness flows "
        "only from a seeded numpy.random.Generator (the repro.datasets "
        "convention).  numpy's module-level RNG (np.random.rand, "
        "np.random.seed, legacy numpy.random imports) and an unseeded "
        "default_rng() are banned everywhere: they make results depend on "
        "call order across the whole process.  The grids, joins and "
        "geometry must also not touch the stdlib random module, uuid, "
        "secrets or os.urandom — neither directly nor through a helper in "
        "any other module that the call graph shows they reach."
    )

    def check_project(
        self, index: ProjectIndex, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        for summary, info in graph.iter_functions():
            in_core = summary.in_scope(config.DETERMINISTIC_SCOPE)
            for label, line, col in info.sinks.get("entropy", ()):
                if not in_core and "numpy.random." not in label:
                    continue
                diag = _emit(summary, line, col, self.code, _entropy_message(label))
                if diag is not None:
                    yield diag
        closure = graph.sink_closure("entropy", include=_carriers(index))
        yield from _reach_findings(
            graph,
            closure,
            self.code,
            "draws entropy via",
            "thread a seeded numpy.random.Generator through the call "
            "instead",
        )


@register_project
class WallClockRule(ProjectRule):
    code = "RPL003"
    title = "wall-clock read in the deterministic core"
    rationale = (
        "time.time()/perf_counter()/datetime.now() inside the grids, "
        "joins or geometry make behaviour depend on machine speed (a "
        "time-based tuning decision would diverge between serial and "
        "parallel runs) — whether the read is written in the core or in "
        "a helper, in any module, that the call graph shows the core "
        "reaches.  Timing belongs to the engine/obs layers, which are "
        "exempt carriers; TIMING_WHITELIST covers instrumentation whose "
        "*output* is the measured wall time."
    )

    def check_project(
        self, index: ProjectIndex, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        for summary, info in graph.iter_functions(
            lambda s: s.in_scope(config.DETERMINISTIC_SCOPE)
        ):
            if _is_timing_whitelisted(summary, info.qualname):
                continue
            for label, line, col in info.sinks.get("clock", ()):
                diag = _emit(
                    summary,
                    line,
                    col,
                    self.code,
                    f"{label}() read inside the deterministic core; move "
                    "timing to the engine/obs layer or whitelist the "
                    "instrumentation site",
                )
                if diag is not None:
                    yield diag
        closure = graph.sink_closure(
            "clock", include=_carriers(index, config.TIMING_LAYER_SCOPE)
        )
        yield from _reach_findings(
            graph,
            closure,
            self.code,
            "reads a wall clock via",
            "move the timing out of the deterministic call path or "
            "whitelist the site in TIMING_WHITELIST",
            respect_timing_whitelist=True,
        )


def _reach_findings(
    graph: CallGraph,
    closure: dict[FuncNode, tuple[FuncNode | None, str]],
    code: str,
    verb: str,
    remedy: str,
    respect_timing_whitelist: bool = False,
) -> Iterator[Diagnostic]:
    """Flag deterministic-core call sites whose target is in ``closure``."""
    for summary, info in graph.iter_functions(
        lambda s: s.in_scope(config.DETERMINISTIC_SCOPE)
    ):
        if respect_timing_whitelist and _is_timing_whitelisted(
            summary, info.qualname
        ):
            continue
        node = (summary.module, info.qualname)
        reported: set[int] = set()
        for target, site in graph.edges.get(node, ()):
            if target not in closure or site.lineno in reported:
                continue
            reported.add(site.lineno)
            diag = _emit(
                summary,
                site.lineno,
                site.col,
                code,
                f"{info.qualname} {verb} {graph.chain(target, closure)}; "
                f"{remedy}",
            )
            if diag is not None:
                yield diag


# ----------------------------------------------------------------------
# RPL101 / RPL902 — the executor boundary
# ----------------------------------------------------------------------
def _submit_problem(
    index: ProjectIndex, graph: CallGraph, summary: ModuleSummary, submit: SubmitSite
) -> str | None:
    """Why ``submit`` cannot cross a process boundary, or ``None``."""
    remedy = "submit a module-level function"
    if submit.kind == "lambda":
        return f"lambda submitted to an executor pool; {remedy}"
    if submit.kind == "computed":
        return f"computed callable submitted to an executor pool; {remedy}"
    if submit.kind == "local":
        return (
            f"locally defined callable {submit.target!r} submitted to an "
            f"executor pool; {remedy}"
        )
    if submit.target.startswith(("self.", "cls.")):
        return None  # a bound method pickles together with its instance
    landing = graph.resolve_in(summary, submit.target)
    if landing is None:
        return None  # not provably inside the index
    kind, home, name = landing
    resolves = f"submitted callable {submit.target!r} resolves to {home}.{name}"
    if kind != "func":
        binding = index.modules[home].globals.get(name, kind)
        what = config.PROCESS_LOCAL_GLOBAL_KINDS.get(binding, f"a {binding} binding")
        return f"{resolves}, {what}, not a def — define a module-level function instead"
    func = graph.functions[(home, name)]
    if func.kind != "function":
        return f"{resolves}, a {func.kind} — workers can only import a module-level function"
    if func.is_async:
        return (
            f"{resolves}, an async def; a pool worker returns the coroutine "
            "unawaited — submit a synchronous function"
        )
    return None


@register_project
class SubmitDisciplineRule(ProjectRule):
    code = "RPL101"
    title = "submitted callable is not a module-level def"
    rationale = (
        "ProcessPoolExecutor pickles the submitted callable by qualified "
        "name and the worker re-imports it.  A lambda, a nested or local "
        "def, a computed callable — or an imported name that its home "
        "module binds to a lambda, a method, a nested def or an async def "
        "— either fails to pickle, drags live index state across the "
        "boundary, or (async) never runs.  The project index chases each "
        "submitted name through the import chain to its defining module "
        "and demands an honest module-level def, in every library module."
    )

    def check_project(
        self, index: ProjectIndex, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        for summary, info in graph.iter_functions(
            lambda s: s.in_scope(config.LIBRARY_SCOPE)
        ):
            for submit in info.submits:
                message = _submit_problem(index, graph, summary, submit)
                if message is None:
                    continue
                diag = _emit(summary, submit.lineno, submit.col, self.code, message)
                if diag is not None:
                    yield diag


@register_project
class SubmittedCallableClosureRule(ProjectRule):
    code = "RPL902"
    title = "submitted callable closes over process-local module state"
    rationale = (
        "A function pickles by reference: the worker re-imports its "
        "module and rebinds every global from scratch.  If the "
        "submitted callable reads a module-level lock, open file, "
        "pool or shared-memory handle, each worker silently gets its "
        "own copy — mutual exclusion evaporates and handles double-"
        "close — while the submit itself looks perfectly innocent.  "
        "The defining module's globals are another file's facts; only "
        "the project index can line them up with the submit site."
    )

    def check_project(
        self, index: ProjectIndex, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        for summary, info in graph.iter_functions(
            lambda s: s.in_scope(config.LIBRARY_SCOPE)
        ):
            for submit in info.submits:
                if submit.kind != "name" or submit.target.startswith(
                    ("self.", "cls.")
                ):
                    continue
                resolved = self._resolve_target(graph, summary, submit.target)
                if resolved is None:
                    continue
                home_module, func = resolved
                home = index.modules[home_module]
                for name in func.reads:
                    kind = home.globals.get(name)
                    description = (
                        config.PROCESS_LOCAL_GLOBAL_KINDS.get(kind)
                        if kind is not None
                        else None
                    )
                    if description is None:
                        continue
                    diag = _emit(
                        summary,
                        submit.lineno,
                        submit.col,
                        self.code,
                        f"submitted callable {submit.target!r} closes over "
                        f"{home_module}.{name} — {description}; pass the "
                        "state as a task argument or re-create it inside "
                        "the worker",
                    )
                    if diag is not None:
                        yield diag

    @staticmethod
    def _resolve_target(
        graph: CallGraph, summary: ModuleSummary, target: str
    ) -> tuple[str, FunctionInfo] | None:
        landing = graph.resolve_in(summary, target)
        if landing is None or landing[0] != "func":
            return None
        return (landing[1], graph.functions[(landing[1], landing[2])])
