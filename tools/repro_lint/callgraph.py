"""Conservative whole-program call graph over a :class:`ProjectIndex`.

Resolution is name-based but *evidence-driven* — an edge exists only
when the target is provable from the summaries:

* bare names resolve to nested defs, sibling module-level functions,
  class constructors, then the import table (chasing re-export chains
  through package ``__init__`` modules);
* ``self.m()`` / ``cls.m()`` resolve within the enclosing class, then
  up its base chain, then *down* to every override in a transitive
  subclass (class-hierarchy analysis: the static type does not pin the
  dynamic receiver, so every override is a possible callee);
* ``self.attr.m()`` / ``param.m()`` / ``local.m()`` resolve through
  inferred types — ``self.x: Cls``, ``self.x = Cls(...)``, annotated
  parameters, ``x = Cls(...)`` locals, and the return annotation of a
  resolvable call — the repo is fully annotated, so this carries most
  cross-module edges;
* anything else produces *no* edge.  The analysis under-approximates
  reachability rather than drowning the tree in speculative matches;
  sinks written in a function are in its summary whether or not any
  edge reaches it.

Reachability queries return, per function, the next hop towards a sink
so rules can print an explicit call chain in the diagnostic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from tools.repro_lint.project import (
    CallSite,
    FunctionInfo,
    ModuleSummary,
    ProjectIndex,
)

__all__ = ["CallGraph", "FuncNode"]

#: ``(module name, function qualname)`` — the node id of the graph.
FuncNode = tuple[str, str]

_MAX_CHASE = 12  #: re-export chains longer than this are abandoned


class CallGraph:
    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.functions: dict[FuncNode, FunctionInfo] = {}
        self._class_modules: dict[str, list[str]] = {}
        for summary in index.summaries:
            for qualname, info in summary.functions.items():
                self.functions[(summary.module, qualname)] = info
            for name in summary.classes:
                self._class_modules.setdefault(name, []).append(summary.module)
        self._subclasses = self._build_subclasses()
        #: node -> [(target node, call site)]
        self.edges: dict[FuncNode, list[tuple[FuncNode, CallSite]]] = {}
        self._reverse: dict[FuncNode, list[FuncNode]] = {}
        self._build_edges()

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def resolve_symbol(
        self, dotted: str, depth: int = 0
    ) -> tuple[str, str, str] | None:
        """Resolve an absolute dotted name to ``(kind, module, qualname)``.

        ``kind`` is ``"func"``, ``"class"`` or ``"global"`` (any other
        module-level binding, e.g. a lambda).  Chases re-export chains
        (``from repro.engine.engine import execute_step`` inside
        ``repro/engine/__init__.py``) up to :data:`_MAX_CHASE` hops.
        """
        if depth > _MAX_CHASE:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.index.modules.get(module)
            if summary is None:
                continue
            return self._resolve_in_module(summary, parts[cut:], depth)
        return None

    def _resolve_in_module(
        self, summary: ModuleSummary, rest: list[str], depth: int
    ) -> tuple[str, str, str] | None:
        head = rest[0]
        qualname = ".".join(rest)
        if qualname in summary.functions:
            return ("func", summary.module, qualname)
        if qualname in summary.classes:
            return ("class", summary.module, qualname)
        if head in summary.imports:
            target = summary.imports[head]
            tail = ".".join(rest[1:])
            chained = f"{target}.{tail}" if tail else target
            return self.resolve_symbol(chained, depth + 1)
        if qualname in summary.globals:
            return ("global", summary.module, qualname)
        return None

    def resolve_in(
        self, summary: ModuleSummary, name: str
    ) -> tuple[str, str, str] | None:
        """:meth:`resolve_symbol` for a name as written inside ``summary``."""
        return self._resolve_in_module(summary, name.split("."), 0)

    def resolve_class(self, module: str, ref: str) -> tuple[str, str] | None:
        """Resolve a class-reference string relative to ``module``."""
        summary = self.index.modules.get(module)
        if summary is None:
            return None
        if "." not in ref:
            if ref in summary.classes:
                return (module, ref)
            if ref in summary.imports:
                resolved = self.resolve_symbol(summary.imports[ref])
                if resolved is not None and resolved[0] == "class":
                    return (resolved[1], resolved[2])
            homes = self._class_modules.get(ref, [])
            if len(homes) == 1:  # unique simple name anywhere in the index
                return (homes[0], ref)
            return None
        root, _, rest = ref.partition(".")
        if root in summary.imports:
            resolved = self.resolve_symbol(f"{summary.imports[root]}.{rest}")
        else:
            resolved = self.resolve_symbol(ref)
        if resolved is not None and resolved[0] == "class":
            return (resolved[1], resolved[2])
        return None

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def _build_subclasses(self) -> dict[tuple[str, str], set[tuple[str, str]]]:
        direct: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for summary in self.index.summaries:
            for name, info in summary.classes.items():
                for base_ref in info.bases:
                    base = self.resolve_class(summary.module, base_ref)
                    if base is not None:
                        direct.setdefault(base, set()).add((summary.module, name))
        # Transitive closure.
        closed: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for root in direct:
            seen: set[tuple[str, str]] = set()
            queue = deque(direct.get(root, ()))
            while queue:
                node = queue.popleft()
                if node in seen:
                    continue
                seen.add(node)
                queue.extend(direct.get(node, ()))
            closed[root] = seen
        return closed

    def _bases_of(self, cls: tuple[str, str]) -> list[tuple[str, str]]:
        summary = self.index.modules.get(cls[0])
        if summary is None or cls[1] not in summary.classes:
            return []
        out = []
        for ref in summary.classes[cls[1]].bases:
            base = self.resolve_class(cls[0], ref)
            if base is not None:
                out.append(base)
        return out

    def resolve_method(self, cls: tuple[str, str], method: str) -> list[FuncNode]:
        """All possible targets of ``<cls instance>.method()`` (CHA)."""
        targets: list[FuncNode] = []
        # Up the base chain for the statically named definition...
        seen: set[tuple[str, str]] = set()
        queue = deque([cls])
        defined_on: tuple[str, str] | None = None
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            summary = self.index.modules.get(node[0])
            if summary is None:
                continue
            info = summary.classes.get(node[1])
            if info is None:
                continue
            if method in info.methods:
                defined_on = node
                break
            queue.extend(self._bases_of(node))
        if defined_on is not None:
            targets.append((defined_on[0], f"{defined_on[1]}.{method}"))
        # ...and down to every override in a transitive subclass.
        for sub in self._subclasses.get(cls, ()):  # CHA
            summary = self.index.modules.get(sub[0])
            if summary is None:
                continue
            info = summary.classes.get(sub[1])
            if info is not None and method in info.methods:
                targets.append((sub[0], f"{sub[1]}.{method}"))
        return targets

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def resolve_call(self, module: str, info: FunctionInfo, callee: str) -> list[FuncNode]:
        """Possible targets of one call site; empty when unprovable."""
        summary = self.index.modules.get(module)
        if summary is None:
            return []
        parts = callee.split(".")
        root = parts[0]
        # self.m() / cls.m() and self.attr.m()
        if root in ("self", "cls") and info.owner:
            if len(parts) == 2:
                return self.resolve_method((module, info.owner), parts[1])
            if len(parts) == 3:
                class_info = summary.classes.get(info.owner)
                if class_info is not None:
                    ref = class_info.attr_types.get(parts[1])
                    if ref is not None:
                        cls = self.resolve_class(module, ref)
                        if cls is not None:
                            return self.resolve_method(cls, parts[2])
            return []
        # Bare name: nested def, sibling, constructor, import.
        if len(parts) == 1:
            nested = f"{info.qualname}.{root}"
            if nested in summary.functions:
                return [(module, nested)]
            if root in summary.functions:
                return [(module, root)]
            if root in summary.classes:
                return self._constructor((module, root))
            if root in summary.imports:
                resolved = self.resolve_symbol(summary.imports[root])
                if resolved is not None:
                    if resolved[0] == "func":
                        return [(resolved[1], resolved[2])]
                    return self._constructor((resolved[1], resolved[2]))
            return []
        # param.m() / local.m() through inferred types.
        ref = info.params.get(root) or info.local_types.get(root)
        if ref is not None and len(parts) == 2:
            cls = self.resolve_class(module, ref)
            if cls is not None:
                return self.resolve_method(cls, parts[1])
            return []
        # imported_module.path.to.callable()
        if root in summary.imports:
            dotted = summary.imports[root] + "." + ".".join(parts[1:])
            resolved = self.resolve_symbol(dotted)
            if resolved is not None:
                if resolved[0] == "func":
                    return [(resolved[1], resolved[2])]
                return self._constructor((resolved[1], resolved[2]))
        return []

    def _constructor(self, cls: tuple[str, str]) -> list[FuncNode]:
        summary = self.index.modules.get(cls[0])
        if summary is None:
            return []
        info = summary.classes.get(cls[1])
        if info is not None and "__init__" in info.methods:
            return [(cls[0], f"{cls[1]}.__init__")]
        return []

    def _build_edges(self) -> None:
        for node, info in self.functions.items():
            out: list[tuple[FuncNode, CallSite]] = []
            for site in info.calls:
                for target in self.resolve_call(node[0], info, site.callee):
                    if target == node:
                        continue  # self-recursion adds nothing to reachability
                    out.append((target, site))
                    self._reverse.setdefault(target, []).append(node)
            self.edges[node] = out

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def sink_closure(
        self,
        sink_kind: str,
        include: Callable[[FuncNode], bool],
        traverse_offloaded: bool = True,
    ) -> dict[FuncNode, tuple[FuncNode | None, str]]:
        """Functions that contain or can reach a ``sink_kind`` sink.

        ``include`` gates which functions may *carry* taint (sinks and
        intermediate hops alike) — rules use it to stop propagation at
        sanctioned layers.  The value maps each tainted function to
        ``(next hop towards the sink | None, sink label)`` so callers
        can render the chain.
        """
        closure: dict[FuncNode, tuple[FuncNode | None, str]] = {}
        queue: deque[FuncNode] = deque()
        for node, info in self.functions.items():
            if not include(node):
                continue
            sites = info.sinks.get(sink_kind)
            if sites:
                closure[node] = (None, sites[0][0])
                queue.append(node)
        while queue:
            node = queue.popleft()
            _, label = closure[node]
            for caller in self._reverse.get(node, ()):  # walk call edges backwards
                if caller in closure or not include(caller):
                    continue
                if not traverse_offloaded and not self._has_live_edge(caller, node):
                    continue
                closure[caller] = (node, label)
                queue.append(caller)
        return closure

    def _has_live_edge(self, caller: FuncNode, target: FuncNode) -> bool:
        return any(
            edge_target == target and not site.offloaded
            for edge_target, site in self.edges.get(caller, ())
        )

    def describe(self, node: FuncNode) -> str:
        module, qualname = node
        return f"{module}.{qualname}"

    def chain(
        self,
        start: FuncNode,
        closure: dict[FuncNode, tuple[FuncNode | None, str]],
        limit: int = 6,
    ) -> str:
        """Human-readable path from ``start`` to the sink it reaches."""
        hops: list[str] = []
        node: FuncNode | None = start
        label = closure.get(start, (None, "?"))[1]
        while node is not None and len(hops) < limit:
            hops.append(self.describe(node))
            node = closure.get(node, (None, ""))[0]
        hops.append(label if " " in label else f"{label}()")
        return " -> ".join(hops)

    def iter_functions(
        self, predicate: Callable[[ModuleSummary], bool] | None = None
    ) -> Iterable[tuple[ModuleSummary, FunctionInfo]]:
        for summary in self.index.summaries:
            if predicate is not None and not predicate(summary):
                continue
            yield from ((summary, info) for info in summary.functions.values())
