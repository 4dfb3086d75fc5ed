"""Interprocedural call graph over task bodies and their helpers.

The skeleton builder (:mod:`repro.static.structure`) walks one function
at a time; this module supplies the *interprocedural* substrate it and
the lint pass share:

* :class:`FunctionInfo` -- a resolvable callable: its AST, the name
  environment it closes over (module globals overlaid with closure
  cells), a stable marker, and any ``# repro: ignore[...]`` suppression
  comments found in its source;
* :func:`resolve_attribute` / :func:`resolve_function` -- name and
  attribute-chain resolution through that environment (``helpers.leaf``
  works, not just ``leaf``), and the function a spawned body, template
  body or inlined callee names;
* the ctx discipline both AST walkers apply, defined once:
  :data:`ACCESS_METHODS` / :data:`QUERY_METHODS`, the ctx predicates
  (:func:`is_ctx`, :func:`ctx_method`, :func:`references_ctx`,
  :func:`captures_ctx`), and :func:`template_bodies`, which decodes a
  :data:`TEMPLATES` entry against one call;
* :func:`build_callgraph` -- the call graph reachable from one root
  function.  Every node carries its **direct facts** (accesses, lock
  usage, spawn/sync/finish effects, ctx-escape approximations,
  unresolved call sites) collected by a lightweight AST scan; edges are
  spawn / inline / template call sites;
* :meth:`CallGraph.sccs` -- Tarjan condensation, components emitted
  callees-first, which is the evaluation order the bottom-up summary
  fixpoint (:mod:`repro.static.summaries`) needs;
* :meth:`CallGraph.stats` -- the call-graph stats (functions / SCCs /
  unresolved call sites) surfaced by
  :meth:`repro.static.lint.LintReport.to_dict` and ``repro lint --json``.

The facts collected here are deliberately coarser than the skeleton
walk: no ordering, no frames, no lock versions -- just the sets and
flags a sound recursion summary needs.  Precision still comes from the
walker; the graph tells it *when* a summary is good enough.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import textwrap
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.report import READ, WRITE
from repro.static.accesses import (
    AccessPattern,
    _call_argument,
    _location_pattern,
)

#: ctx access methods and the access types each performs, in program
#: order (a read-modify-write reads, then writes).
ACCESS_METHODS: Dict[str, Tuple[str, ...]] = {
    "read": (READ,),
    "write": (WRITE,),
    "add": (READ, WRITE),
    "update": (READ, WRITE),
}
#: ctx methods without a shared-memory or structural effect.
QUERY_METHODS = frozenset({"locked", "task_id", "depth"})

#: The parallel algorithm templates and where their task bodies live:
#: (positional index, keyword name) pairs, or ``"*"`` for "every
#: positional after ctx" / ``"list:N"`` for a literal list argument.
TEMPLATES: Dict[str, Tuple[Any, Optional[str]]] = {
    "parallel_for": (3, "body"),
    "parallel_reduce": (3, "map_body"),
    "parallel_invoke": ("*", None),
    "parallel_pipeline": ("list:2", "stages"),
}

#: ``# repro: ignore`` (all codes) or ``# repro: ignore[SAV001, SAV104]``.
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?"
)


def scan_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """``# repro: ignore[...]`` comments by 1-based source line.

    An empty frozenset means "every code on this line"; a non-empty one
    suppresses only the listed codes.
    """
    found: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = SUPPRESSION_RE.search(line)
        if match is None:
            continue
        codes = match.group(1)
        if codes is None:
            found[lineno] = frozenset()
        else:
            found[lineno] = frozenset(
                code.strip().upper() for code in codes.split(",") if code.strip()
            )
    return found


class FunctionInfo:
    """A resolvable task body / helper: AST plus its name environment."""

    __slots__ = (
        "node",
        "env",
        "marker",
        "filename",
        "line_offset",
        "suppressions",
    )

    def __init__(
        self,
        node: ast.AST,
        env: Dict[str, Any],
        marker: str,
        filename: str,
        line_offset: int,
        suppressions: Optional[Dict[int, FrozenSet[str]]] = None,
    ) -> None:
        self.node = node
        self.env = env
        self.marker = marker
        self.filename = filename
        self.line_offset = line_offset
        #: ``# repro: ignore`` comments by source line (segment-relative;
        #: add :attr:`line_offset` for the absolute line).
        self.suppressions: Dict[int, FrozenSet[str]] = suppressions or {}

    def first_param(self) -> Optional[str]:
        args = getattr(self.node, "args", None)
        if args is None or not args.args:
            return None
        return args.args[0].arg

    def body_statements(self) -> List[ast.stmt]:
        if isinstance(self.node, ast.Lambda):
            return [ast.Expr(value=self.node.body)]
        return list(self.node.body)

    def local_marker(self, name: str) -> str:
        """Marker of a nested ``def`` -- one convention everywhere."""
        return f"{self.marker}.<locals>.{name}"

    def lambda_marker(self, node: ast.Lambda) -> str:
        return f"{self.marker}.<lambda>@{getattr(node, 'lineno', 0)}"

    def site(self, node: ast.AST) -> str:
        """``file:line`` of *node* in absolute source coordinates."""
        return f"{self.filename}:{getattr(node, 'lineno', 0) + self.line_offset}"

    def child(self, node: ast.AST, marker: str) -> "FunctionInfo":
        """A nested def / lambda sharing this info's source coordinates."""
        return FunctionInfo(
            node, self.env, marker, self.filename, self.line_offset
        )


def callable_env(func: Callable[..., Any]) -> Dict[str, Any]:
    """Module globals overlaid with the function's closure cells."""
    env: Dict[str, Any] = dict(getattr(func, "__globals__", {}) or {})
    code = getattr(func, "__code__", None)
    closure = getattr(func, "__closure__", None)
    if code is not None and closure:
        for name, cell in zip(code.co_freevars, closure):
            try:
                env[name] = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                pass
    return env


def info_for_callable(func: Callable[..., Any]) -> Optional[FunctionInfo]:
    """Parse *func*'s source into a :class:`FunctionInfo`, or ``None``."""
    try:
        source = textwrap.dedent(inspect.getsource(func))
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(source)
    except SyntaxError:  # pragma: no cover - unparseable source
        return None
    if not tree.body:
        return None
    node = tree.body[0]
    marker = f"{getattr(func, '__module__', '?')}.{getattr(func, '__qualname__', repr(func))}"
    try:
        filename = os.path.basename(inspect.getsourcefile(func) or "?")
    except TypeError:  # pragma: no cover
        filename = "?"
    code = getattr(func, "__code__", None)
    offset = 0
    if code is not None:
        offset = code.co_firstlineno - getattr(node, "lineno", 1)
    return FunctionInfo(
        node,
        callable_env(func),
        marker,
        filename,
        offset,
        suppressions=scan_suppressions(source),
    )


def resolve_attribute(node: ast.expr, env: Dict[str, Any]) -> Optional[Any]:
    """Resolve a ``Name`` / dotted ``Attribute`` chain through *env*.

    ``helpers.inner.leaf`` resolves the base name through the
    environment and follows plain ``getattr`` steps -- enough for module
    attributes and namespace objects.  Anything dynamic returns ``None``.
    """
    chain: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    if current.id not in env:
        return None
    target: Any = env[current.id]
    for attr in reversed(chain):
        try:
            target = getattr(target, attr)
        except Exception:
            return None
    return target


def resolve_function(
    target: ast.expr, info: FunctionInfo, local_defs: Dict[str, FunctionInfo]
) -> Optional[FunctionInfo]:
    """The function a spawned body, template body or inlined callee names.

    A lambda is a child of *info*; a name bound by a nested ``def`` seen
    so far resolves to it; any other name or attribute chain resolves
    through *info*'s environment.  Anything dynamic returns ``None``.
    """
    if isinstance(target, ast.Lambda):
        return info.child(target, info.lambda_marker(target))
    if isinstance(target, ast.Name) and target.id in local_defs:
        return local_defs[target.id]
    resolved = resolve_attribute(target, info.env)
    if callable(resolved):
        return info_for_callable(resolved)
    return None


# ---------------------------------------------------------------------------
# The ctx discipline: the rules both AST walkers apply
# ---------------------------------------------------------------------------


def is_ctx(node: ast.AST, ctx_names: Set[str]) -> bool:
    return isinstance(node, ast.Name) and node.id in ctx_names


def references_ctx(node: ast.AST, ctx_names: Set[str]) -> bool:
    return any(is_ctx(sub, ctx_names) for sub in ast.walk(node))


def captures_ctx(node: ast.AST, ctx_names: Set[str]) -> bool:
    """Does a nested ``def`` use a ctx name its parameters do not shadow?

    Such a closure reaches the context outside the recognized forms
    (``helper()`` with no ctx argument runs ``ctx.write`` unseen), so
    both walkers treat it as an escape.
    """
    params = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
    return references_ctx(node, ctx_names - params)


def ctx_method(node: ast.expr, ctx_names: Set[str]) -> Optional[str]:
    """``m`` for ``ctx.m(...)`` or a bare ``ctx.m`` on a ctx name, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute) and is_ctx(node.value, ctx_names):
        return node.attr
    return None


def call_arguments(
    node: ast.Call, consumed: Sequence[Optional[ast.expr]]
) -> List[ast.expr]:
    """*node*'s positional, then keyword, argument expressions, minus the
    ones a recognized form consumed (compared by identity)."""
    arguments = list(node.args) + [keyword.value for keyword in node.keywords]
    return [arg for arg in arguments if not any(arg is used for used in consumed)]


def template_bodies(
    name: str, node: ast.Call
) -> Tuple[List[Optional[ast.expr]], List[ast.expr]]:
    """Decode ``TEMPLATES[name]`` against one template call.

    Returns ``(bodies, consumed)``: the task-body expressions the call
    runs, with ``None`` for a body it does not name literally (a missing
    body, a stage list that is not a literal list), and the argument
    expressions those bodies came from.  Walkers scan every argument
    except the context and *consumed* as ordinary expressions.
    """
    spec, keyword = TEMPLATES[name]
    if spec == "*":
        return list(node.args[1:]), list(node.args[1:])
    if isinstance(spec, str):  # "list:N"
        stages = _call_argument(node, int(spec.split(":", 1)[1]), keyword)
        if stages is None:
            return [None], []
        if isinstance(stages, (ast.List, ast.Tuple)):
            return list(stages.elts), [stages]
        return [None], [stages]
    body = _call_argument(node, spec, keyword)
    return [body], ([] if body is None else [body])


# ---------------------------------------------------------------------------
# The graph
# ---------------------------------------------------------------------------

#: Call-site kinds.
SPAWN = "spawn"
INLINE = "inline"
TEMPLATE = "template"


@dataclass(frozen=True)
class CallSite:
    """One call edge: caller marker, kind, callee marker (or None)."""

    caller: str
    kind: str                  # SPAWN | INLINE | TEMPLATE
    callee: Optional[str]      # None when unresolvable
    site: str                  # file:line
    detail: str = ""

    @property
    def resolved(self) -> bool:
        return self.callee is not None


@dataclass
class DirectFacts:
    """What one function does *directly* (callees excluded)."""

    patterns: Set[AccessPattern]
    constructs: bool = False   # spawn / sync / finish / template
    locks: bool = False        # lock scopes or manual acquire/release
    escapes: bool = False      # ctx leaves the recognized discipline
    unresolved: int = 0        # call sites that could not be resolved


@dataclass(frozen=True)
class CallGraphStats:
    """The call-graph stats of one analysis."""

    functions: int
    sccs: int
    unresolved_calls: int
    recursive_functions: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "functions": self.functions,
            "sccs": self.sccs,
            "unresolved_calls": self.unresolved_calls,
            "recursive_functions": self.recursive_functions,
        }


class CallGraph:
    """Call graph reachable from one root function."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.infos: Dict[str, FunctionInfo] = {}
        self.facts: Dict[str, DirectFacts] = {}
        self.edges: Dict[str, List[CallSite]] = {}

    # -- queries -----------------------------------------------------------

    def unresolved_calls(self) -> int:
        return sum(facts.unresolved for facts in self.facts.values())

    def sccs(self) -> List[List[str]]:
        """Strongly connected components, callees-first (Tarjan order).

        Iterative so deep non-recursive chains cannot blow the Python
        stack; a component is emitted only after every component it can
        reach, which is exactly the bottom-up summary order.
        """
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[List[str]] = []
        counter = [0]

        def successors(marker: str) -> List[str]:
            return [
                site.callee
                for site in self.edges.get(marker, [])
                if site.callee is not None and site.callee in self.facts
            ]

        for start in self.facts:
            if start in index:
                continue
            # (node, iterator position) work stack.
            work: List[Tuple[str, int]] = [(start, 0)]
            while work:
                node, position = work.pop()
                if position == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = successors(node)
                while position < len(children):
                    child = children[position]
                    position += 1
                    if child not in index:
                        work.append((node, position))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components

    def recursive_markers(self) -> Set[str]:
        """Markers on some call cycle (non-trivial SCC or a self edge)."""
        recursive: Set[str] = set()
        for component in self.sccs():
            if len(component) > 1:
                recursive.update(component)
            else:
                marker = component[0]
                if any(
                    site.callee == marker
                    for site in self.edges.get(marker, [])
                ):
                    recursive.add(marker)
        return recursive

    def stats(self) -> CallGraphStats:
        return CallGraphStats(
            functions=len(self.facts),
            sccs=len(self.sccs()),
            unresolved_calls=self.unresolved_calls(),
            recursive_functions=len(self.recursive_markers()),
        )


def build_callgraph(root: Any) -> CallGraph:
    """The call graph reachable from *root* (callable or FunctionInfo)."""
    if isinstance(root, FunctionInfo):
        info: Optional[FunctionInfo] = root
    else:
        info = info_for_callable(root)
    if info is None:
        marker = f"{getattr(root, '__module__', '?')}.{getattr(root, '__qualname__', repr(root))}"
        graph = CallGraph(marker)
        return graph
    graph = CallGraph(info.marker)
    queue: List[FunctionInfo] = [info]
    while queue:
        current = queue.pop()
        if current.marker in graph.infos:
            continue
        graph.infos[current.marker] = current
        collector = _FactCollector(current)
        collector.run()
        graph.facts[current.marker] = collector.facts
        graph.edges[current.marker] = collector.sites
        queue.extend(collector.callees)
    return graph


class _FactCollector:
    """One function's direct facts + call sites, by explicit AST walk.

    The traversal applies the ctx discipline defined above, as the
    skeleton walker does -- method calls on a ctx name, helpers taking
    ctx first, spawn bodies, algorithm templates -- and conservatively
    flags everything else (``escapes`` / ``unresolved``).  Child nodes consumed by a
    recognized form are not re-visited, so a ctx name inside
    ``ctx.read(...)`` does not count as an escape.
    """

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.facts = DirectFacts(patterns=set())
        self.sites: List[CallSite] = []
        #: FunctionInfos of resolved callees, for the BFS frontier.
        self.callees: List[FunctionInfo] = []
        self.ctx_names: Set[str] = set()
        self.local_defs: Dict[str, FunctionInfo] = {}

    def run(self) -> None:
        first = self.info.first_param()
        if first is not None:
            self.ctx_names.add(first)
        for statement in self.info.body_statements():
            self._stmt(statement)

    # -- traversal ---------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.local_defs[stmt.name] = self.info.child(
                stmt, self.info.local_marker(stmt.name)
            )
            if captures_ctx(stmt, self.ctx_names):
                self.facts.escapes = True
            return
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            if is_ctx(value, self.ctx_names) and all(
                isinstance(t, ast.Name) for t in stmt.targets
            ):
                for target in stmt.targets:
                    self.ctx_names.add(target.id)
                return
            self._expr(value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.ctx_names.discard(target.id)
                else:
                    self._expr(target)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.withitem):
                self._withitem(child)
            elif isinstance(child, ast.excepthandler):
                for sub in child.body:
                    self._stmt(sub)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                self._expr(child.value)

    def _withitem(self, item: ast.withitem) -> None:
        expr = item.context_expr
        method = ctx_method(expr, self.ctx_names)
        if method == "lock":
            self.facts.locks = True
            return
        if method == "finish":
            self.facts.constructs = True
            return
        self._expr(expr)

    def _expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Name):
            if node.id in self.ctx_names:
                self.facts.escapes = True
            return
        if isinstance(node, ast.Lambda):
            if references_ctx(node.body, self.ctx_names):
                self.facts.escapes = True
            return
        if isinstance(node, ast.Attribute):
            if is_ctx(node.value, self.ctx_names):
                if node.attr not in QUERY_METHODS:
                    self.facts.escapes = True
                return
            self._expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for condition in child.ifs:
                    self._expr(condition)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                self._expr(child.value)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        method = ctx_method(func, self.ctx_names)
        if method is not None:
            self._ctx_call(method, node)
            return
        if (
            isinstance(func, ast.Name)
            and func.id in TEMPLATES
            and node.args
            and is_ctx(node.args[0], self.ctx_names)
        ):
            self._template_call(func.id, node)
            return
        ctx_positions = [
            index
            for index, arg in enumerate(node.args)
            if is_ctx(arg, self.ctx_names)
        ]
        for index, arg in enumerate(node.args):
            if index not in ctx_positions:
                self._expr(arg)
        for keyword in node.keywords:
            if is_ctx(keyword.value, self.ctx_names):
                self.facts.escapes = True
            else:
                self._expr(keyword.value)
        if not isinstance(func, ast.Name):
            self._expr_func_shell(func)
        if ctx_positions == [0]:
            self._edge(INLINE, func, node)
        elif ctx_positions:
            self.facts.escapes = True

    def _expr_func_shell(self, func: ast.expr) -> None:
        """Scan a non-Name callee expression without flagging the chain."""
        if isinstance(func, ast.Attribute):
            base = func
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                if base.id in self.ctx_names:
                    self.facts.escapes = True
                return
            self._expr(base)
            return
        self._expr(func)

    def _ctx_call(self, method: str, node: ast.Call) -> None:
        if method in ACCESS_METHODS:
            location_arg = _call_argument(node, 0, "location")
            for arg in call_arguments(node, [location_arg]):
                self._expr(arg)
            if location_arg is None:
                self.facts.escapes = True
                return
            kind, value = _location_pattern(location_arg)
            for access_type in ACCESS_METHODS[method]:
                self.facts.patterns.add(AccessPattern(kind, value, access_type))
        elif method == "spawn":
            self.facts.constructs = True
            body_arg = _call_argument(node, 0, "body")
            for arg in call_arguments(node, [body_arg]):
                self._expr(arg)
            if body_arg is None:
                self._unresolved(SPAWN, node, "spawn without a body")
            else:
                self._edge(SPAWN, body_arg, node)
        elif method == "sync":
            self.facts.constructs = True
        elif method in ("acquire", "release"):
            self.facts.locks = True
        elif method in ("lock", "finish"):
            # Outside a with statement: untrackable context manager.
            self.facts.escapes = True
        elif method not in QUERY_METHODS:
            self.facts.escapes = True

    def _template_call(self, name: str, node: ast.Call) -> None:
        self.facts.constructs = True
        bodies, consumed = template_bodies(name, node)
        for arg in call_arguments(node, [node.args[0], *consumed]):
            self._expr(arg)
        for body in bodies:
            if body is None:
                self._unresolved(TEMPLATE, node, f"{name} without a literal body")
            else:
                self._edge(TEMPLATE, body, node)

    # -- resolution --------------------------------------------------------

    def _edge(self, kind: str, target: ast.expr, node: ast.Call) -> None:
        """Record one call site, resolving *target* to a FunctionInfo."""
        callee = resolve_function(target, self.info, self.local_defs)
        if callee is None:
            self._unresolved(kind, node, ast.dump(target)[:60])
            return
        self.sites.append(
            CallSite(self.info.marker, kind, callee.marker, self.info.site(node))
        )
        self.callees.append(callee)

    def _unresolved(self, kind: str, node: ast.Call, detail: str) -> None:
        self.facts.unresolved += 1
        self.sites.append(
            CallSite(self.info.marker, kind, None, self.info.site(node), detail)
        )
