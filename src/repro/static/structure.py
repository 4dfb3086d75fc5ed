"""Static series-parallel skeleton: the DPST approximated before running.

The dynamic program structure tree (Section 2) is built while a program
executes; this module builds its *static* counterpart from the program
text alone, for both front ends:

:func:`skeleton_from_spec`
    Exact skeleton of a :mod:`repro.fuzz.generate` spec tree.  Specs are
    straight-line, so the construction mirrors the runtime's scope-frame
    rules verbatim and the resulting tree is isomorphic to the DPST any
    execution of the spec would build.

:func:`skeleton_from_function`
    Best-effort skeleton of an ordinary task body from its AST.  The
    walker interprets statements against the same scope-frame rules the
    runtime applies (implicit finish frames on the first spawn after a
    task start or sync; explicit frames for ``with ctx.finish()``), with
    the static approximations:

    * loop bodies are walked **twice**, so cross-iteration parallelism
      (a spawn inside a loop is parallel with its own next instance)
      materializes structurally, while a spawn-then-sync loop stays
      correctly serial;
    * branches of a conditional are walked sequentially (accesses and
      spawns in either branch are assumed possible), but a ``sync`` whose
      execution is conditional -- it sits in a branch or loop entered
      *after* the frame it would pop was pushed -- is ignored, keeping
      the skeleton an over-approximation of parallelism;
    * plain helper calls that receive the task context as their first
      argument are inlined (they run in the caller's task and frames);
    * recursive spawns mark the corresponding async region *replicated*:
      an unbounded family of instances, parallel with itself;
    * the TBB algorithm templates (``parallel_for`` / ``parallel_reduce``
      / ``parallel_invoke`` / ``parallel_pipeline``) expand to their
      finish/async shape, with data-parallel bodies instantiated twice
      (leaf-vs-leaf parallelism).

Everything the walker cannot model soundly -- unresolvable task bodies,
a context object escaping the ``ctx`` access discipline, unbalanced
manual lock usage, control flow that can skip a task construct -- is
recorded as a structured :class:`SkeletonNote`.  Notes whose kind is in
:data:`IMPRECISE_NOTE_KINDS` void :attr:`StaticSkeleton.is_exact`.

This is the only AST front end that produces accesses.
:func:`analyze_function` and :func:`analyze_spec` project a skeleton to
the flat :class:`~repro.static.accesses.StaticAccessSet` that trace
coverage checks; the notes that may hide an access
(:data:`ACCESS_HIDING_NOTE_KINDS`) travel with it and void coverage's
completeness claim.

The AST front end is interprocedural: :func:`skeleton_from_function`
first builds the call graph reachable from the target
(:mod:`repro.static.callgraph`) and walks helpers by inlining --
names resolve through closures, module globals, and dotted attribute
chains.  Recursive helpers are unrolled twice (so same-step pairs with
their true locksets materialize) and then cut off using the bottom-up
:mod:`repro.static.summaries`: a step-local summary proves deeper
unrolling redundant (the skeleton stays exact); anything else
contributes the summary's access patterns plus a ``recursive-inline``
note, which hides no access when the summary is resolved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.static.accesses import (
    EXACT,
    PREFIX,
    UNKNOWN,
    AccessPattern,
    StaticAccessSet,
    _call_argument,
    _literal,
    _location_pattern,
)
from repro.static.callgraph import (
    ACCESS_METHODS,
    QUERY_METHODS,
    TEMPLATES,
    CallGraph,
    CallGraphStats,
    FunctionInfo,
    build_callgraph,
    call_arguments,
    captures_ctx,
    ctx_method,
    info_for_callable,
    is_ctx,
    references_ctx,
    resolve_function,
    template_bodies,
)
from repro.static.locksets import StaticLockState
from repro.static.summaries import FunctionSummary, compute_summaries

Location = Hashable

#: Static node kinds (mirroring :class:`repro.dpst.nodes.NodeKind`).
FINISH = "finish"
ASYNC = "async"
STEP = "step"

#: Note kinds that can hide an access: the walker could not bound what
#: the construct touches, so the skeleton's accesses may miss some.  A
#: ``recursive-inline`` note hides accesses only when it is not
#: ``bounded`` (see :attr:`SkeletonNote.hides_accesses`).
ACCESS_HIDING_NOTE_KINDS = frozenset(
    {"unresolved-task", "ctx-escape", "unsupported", "budget-exceeded"}
)

#: Note kinds that void the skeleton's exactness claim: anything that
#: could make the skeleton *miss* accesses or parallelism.
IMPRECISE_NOTE_KINDS = ACCESS_HIDING_NOTE_KINDS | {
    "lock-imbalance",
    "control-flow-skip",
    "recursive-inline",
}

#: Walk budget: AST nodes processed (statements + expressions) before the
#: builder gives up and marks the skeleton approximate.  Loop unrolling
#: doubles per nesting level, so this caps pathological inputs.
_DEFAULT_BUDGET = 200_000


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class SkeletonNote:
    """One structured fact the builder recorded about the program.

    ``bounded`` says the walker knows every location the construct may
    touch and emitted those accesses into the skeleton (a recursive
    helper whose resolved summary has at least one access pattern).
    """

    kind: str
    site: str
    detail: str = ""
    bounded: bool = field(default=False, compare=False)

    @property
    def hides_accesses(self) -> bool:
        """May the construct behind this note access locations that the
        skeleton's accesses do not cover?"""
        return self.kind in ACCESS_HIDING_NOTE_KINDS or (
            self.kind == "recursive-inline" and not self.bounded
        )


class StaticNode:
    """One region of the static skeleton (finish, async, or step)."""

    __slots__ = (
        "index",
        "kind",
        "parent",
        "rank",
        "children",
        "site",
        "replicated",
        "owner",
    )

    def __init__(
        self,
        index: int,
        kind: str,
        parent: Optional["StaticNode"],
        site: str = "",
    ) -> None:
        self.index = index
        self.kind = kind
        self.parent = parent
        self.rank = 0 if parent is None else len(parent.children)
        self.children: List["StaticNode"] = []
        self.site = site
        #: True when this async region stands for an unbounded family of
        #: dynamic instances (recursive spawn): parallel with itself.
        self.replicated = False
        #: Marker of the task body whose walk created this region (AST
        #: front end only) -- regions of a recursive body are parallel
        #: across instances even though the tree holds a single copy.
        self.owner: Optional[str] = None
        if parent is not None:
            parent.children.append(self)

    @property
    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def ancestors(self) -> List["StaticNode"]:
        """Strict ancestors, nearest first."""
        out = []
        node = self.parent
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{self.kind} #{self.index}{' *' if self.replicated else ''}>"


class StaticAccess:
    """One statically-derived access, attributed to its step region."""

    __slots__ = ("step", "kind", "location", "access_type", "lockset", "site")

    def __init__(
        self,
        step: StaticNode,
        kind: str,
        location: Location,
        access_type: str,
        lockset: FrozenSet[str],
        site: str,
    ) -> None:
        self.step = step
        self.kind = kind          # EXACT | PREFIX | UNKNOWN
        self.location = location
        self.access_type = access_type
        self.lockset = lockset
        self.site = site

    @property
    def pattern(self) -> AccessPattern:
        return AccessPattern(self.kind, self.location, self.access_type)

    def may_alias(self, other: "StaticAccess") -> bool:
        """Could the two accesses touch the same concrete location?"""
        if self.kind == UNKNOWN or other.kind == UNKNOWN:
            return True
        if self.kind == EXACT and other.kind == EXACT:
            return self.location == other.location
        if self.kind == PREFIX and other.kind == PREFIX:
            return self.location == other.location
        exact, prefix = (
            (self, other) if self.kind == EXACT else (other, self)
        )
        return (
            isinstance(exact.location, tuple)
            and bool(exact.location)
            and exact.location[0] == prefix.location
        )

    def describe(self) -> str:
        base = self.pattern.describe()
        locks = (
            " {" + ", ".join(sorted(self.lockset)) + "}" if self.lockset else ""
        )
        return f"{base}{locks} @ {self.site}"


class StaticSkeleton:
    """The static series-parallel skeleton plus everything found building it."""

    def __init__(self, source: str = "") -> None:
        self.source = source
        self.nodes: List[StaticNode] = []
        self.root = self._node(FINISH, None, site="<root>")
        self.accesses: List[StaticAccess] = []
        self.notes: List[SkeletonNote] = []
        #: Task-body markers that spawn themselves (directly or through a
        #: cycle): their regions stand for unboundedly many instances.
        self.recursive_markers: set = set()
        #: Call-graph stats from the AST front end (``None`` for the
        #: exact spec front end, which has no call graph).
        self.callgraph_stats: Optional[CallGraphStats] = None
        #: ``# repro: ignore[...]`` comments by absolute "file:line" site;
        #: an empty frozenset suppresses every code on that line.
        self.suppressions: Dict[str, FrozenSet[str]] = {}

    # -- construction ------------------------------------------------------

    def _node(self, kind: str, parent: Optional[StaticNode], site: str = "") -> StaticNode:
        node = StaticNode(len(self.nodes), kind, parent, site=site)
        self.nodes.append(node)
        return node

    def note(
        self,
        kind: str,
        site: str,
        detail: str = "",
        bounded: bool = False,
    ) -> None:
        self.notes.append(SkeletonNote(kind, site, detail, bounded))

    # -- queries -----------------------------------------------------------

    def steps(self) -> List[StaticNode]:
        return [node for node in self.nodes if node.kind == STEP]

    def accesses_by_step(self) -> Dict[StaticNode, List[StaticAccess]]:
        by_step: Dict[StaticNode, List[StaticAccess]] = {}
        for access in self.accesses:
            by_step.setdefault(access.step, []).append(access)
        return by_step

    @property
    def imprecise_notes(self) -> List[SkeletonNote]:
        return [n for n in self.notes if n.kind in IMPRECISE_NOTE_KINDS]

    @property
    def is_exact(self) -> bool:
        """True when the skeleton provably over-approximates the program:
        no unresolved bodies / escapes / unsupported constructs, and every
        location pattern exact."""
        if self.imprecise_notes:
            return False
        return all(a.kind == EXACT for a in self.accesses)

    def access_set(self) -> StaticAccessSet:
        """The flat access set :mod:`repro.static.coverage` checks.

        Every note that may hide an access lands in
        :attr:`StaticAccessSet.unresolved_tasks`, voiding coverage's
        completeness claim.
        """
        result = StaticAccessSet()
        for access in self.accesses:
            result.add(access.kind, access.location, access.access_type)
        for note in self.notes:
            if note.hides_accesses:
                result.unresolved_tasks.append(
                    f"{note.kind} @ {note.site}: {note.detail}"
                )
        return result

    def describe(self) -> str:
        lines = [
            f"static skeleton of {self.source or '<program>'}: "
            f"{len(self.nodes)} region(s), {len(self.accesses)} access(es)"
        ]

        def render(node: StaticNode, indent: int) -> None:
            mark = " [replicated]" if node.replicated else ""
            lines.append("  " * indent + f"{node.kind} #{node.index}{mark}")
            if node.kind == STEP:
                for access in self.accesses:
                    if access.step is node:
                        lines.append("  " * (indent + 1) + access.describe())
            for child in node.children:
                render(child, indent + 1)

        render(self.root, 0)
        for note in self.notes:
            lines.append(f"note[{note.kind}] {note.site} {note.detail}".rstrip())
        return "\n".join(lines)


class _TaskCursor:
    """Mirrors the runtime's scope-frame rules for one static task.

    ``frames`` holds ``(node, kind)`` with kind in ``body`` / ``implicit``
    / ``explicit``; the bottom frame is the task's base region (the root
    finish for the main task, the async node otherwise), exactly like
    :class:`repro.runtime.task.Task`.
    """

    __slots__ = ("sk", "frames", "step", "locks", "constructs")

    def __init__(self, skeleton: StaticSkeleton, base: StaticNode) -> None:
        self.sk = skeleton
        self.frames: List[Tuple[StaticNode, str]] = [(base, "body")]
        self.step: Optional[StaticNode] = None
        self.locks = StaticLockState()
        #: Count of task constructs (spawn/sync/finish) -- used to detect
        #: control flow that might skip one.
        self.constructs = 0

    def access(self, kind: str, location: Location, access_type: str, site: str) -> None:
        if self.step is None:
            self.step = self.sk._node(STEP, self.frames[-1][0], site=site)
        self.sk.accesses.append(
            StaticAccess(self.step, kind, location, access_type, self.locks.held(), site)
        )

    def spawn(self, site: str) -> StaticNode:
        """Create the async region for one spawn; returns it."""
        self.constructs += 1
        self.step = None
        node, frame_kind = self.frames[-1]
        if frame_kind == "body":
            finish = self.sk._node(FINISH, node, site=site)
            self.frames.append((finish, "implicit"))
            node = finish
        return self.sk._node(ASYNC, node, site=site)

    def sync(self, barrier: int) -> bool:
        """Pop the innermost implicit frame, if *barrier* allows it.

        ``barrier`` is the frame-stack height at entry of the innermost
        conditional/loop region: a sync may only pop a frame pushed at or
        above it (the frame's spawn provably precedes the sync on every
        path).  Returns False when the sync was ignored.
        """
        self.constructs += 1
        self.step = None
        if self.frames[-1][1] != "implicit":
            return True  # body/explicit top: runtime sync is a wait/no-op
        if len(self.frames) - 1 < barrier:
            return False
        self.frames.pop()
        return True

    def finish_enter(self, site: str) -> StaticNode:
        self.constructs += 1
        self.step = None
        node = self.sk._node(FINISH, self.frames[-1][0], site=site)
        self.frames.append((node, "explicit"))
        return node

    def finish_exit(self) -> None:
        self.constructs += 1
        self.step = None
        while self.frames[-1][1] == "implicit":
            self.frames.pop()
        if self.frames[-1][1] == "explicit":
            self.frames.pop()

    def end(self, site: str) -> None:
        """End of the task body: drain frames, flag drain-joined spawns."""
        self.step = None
        while len(self.frames) > 1:
            node, kind = self.frames.pop()
            if kind == "implicit" and any(
                child.kind == ASYNC for child in node.children
            ):
                self.sk.note(
                    "unjoined-spawn",
                    node.site or site,
                    "spawned children joined only by the end-of-task drain",
                )
        self.locks.drain(site)
        for imbalance_kind, base, where in self.locks.imbalances:
            self.sk.note("lock-imbalance", where or site, f"{imbalance_kind}: {base!r}")
        self.locks.imbalances.clear()


# ---------------------------------------------------------------------------
# Spec front end (exact)
# ---------------------------------------------------------------------------


def skeleton_from_spec(spec: Sequence[Any], source: str = "<spec>") -> StaticSkeleton:
    """Exact static skeleton of a generator spec tree.

    Accepts the tuple form produced by
    :class:`repro.fuzz.generate.ProgramGenerator` and the list form a JSON
    round-trip yields (locations that were tuples come back as lists and
    are re-tupled).
    """
    skeleton = StaticSkeleton(source=source)

    def canon_location(location: Any) -> Location:
        if isinstance(location, list):
            return tuple(canon_location(item) for item in location)
        return location

    def visit(items: Sequence[Any], cursor: _TaskCursor, path: str) -> None:
        for index, item in enumerate(items):
            tag = item[0]
            site = f"{path}.{index}:{tag}"
            if tag == "access":
                _, location, access_type = item
                cursor.access(EXACT, canon_location(location), access_type, site)
            elif tag == "locked":
                _, lock_name, inner = item
                cursor.locks.acquire(str(lock_name), site)
                visit(inner, cursor, site)
                cursor.locks.release(str(lock_name), site)
            elif tag == "spawn":
                child = cursor.spawn(site)
                child_cursor = _TaskCursor(skeleton, child)
                visit(item[1], child_cursor, site)
                child_cursor.end(site)
            elif tag == "sync":
                cursor.sync(barrier=1)
            elif tag == "finish":
                cursor.finish_enter(site)
                visit(item[1], cursor, site)
                cursor.finish_exit()
            else:
                raise ValueError(f"unknown spec item {tag!r}")

    root_cursor = _TaskCursor(skeleton, skeleton.root)
    if len(spec) and spec[0] == "task":
        visit(spec[1], root_cursor, "task")
    else:
        visit(spec, root_cursor, "spec")
    root_cursor.end("<end>")
    return skeleton


def analyze_spec(spec: Sequence[Any]) -> StaticAccessSet:
    """Exact access set of a generator spec tree (tuple or JSON form)."""
    return skeleton_from_spec(spec).access_set()


# ---------------------------------------------------------------------------
# AST front end (best effort, conservatively noted)
# ---------------------------------------------------------------------------


#: Unrollings of a recursive helper before the summary cutoff: two, so
#: that same-step access pairs materialize with their true locksets.
_RECURSIVE_UNROLL = 2


class _AstSkeletonBuilder:
    """Interprets task-body ASTs against the static scope-frame rules."""

    def __init__(
        self, skeleton: StaticSkeleton, budget: int, graph: CallGraph
    ) -> None:
        self.sk = skeleton
        self.budget = budget
        self.ops = 0
        #: markers of task bodies on the current spawn chain (recursion).
        self.spawn_chain: List[str] = []
        #: markers of helpers on the current inline chain.
        self.inline_chain: List[str] = []
        #: the interprocedural call graph of the target.
        self.graph = graph
        self._summaries: Optional[Dict[str, FunctionSummary]] = None

    def _summary_for(self, marker: str) -> Optional[FunctionSummary]:
        if self._summaries is None:
            self._summaries = compute_summaries(self.graph)
        return self._summaries.get(marker)

    # -- bookkeeping -------------------------------------------------------

    def _tick(self) -> None:
        self.ops += 1
        if self.ops > self.budget:
            raise _BudgetExceeded()

    def _merge_suppressions(self, info: FunctionInfo) -> None:
        """Register *info*'s ``# repro: ignore`` comments by absolute site."""
        for line, codes in getattr(info, "suppressions", {}).items():
            key = f"{info.filename}:{line + info.line_offset}"
            existing = self.sk.suppressions.get(key)
            if existing is None:
                self.sk.suppressions[key] = codes
            elif codes and existing:
                self.sk.suppressions[key] = existing | codes
            else:
                self.sk.suppressions[key] = frozenset()

    # -- task entry --------------------------------------------------------

    def build_task(self, info: FunctionInfo, base: StaticNode) -> None:
        """Walk *info* as one task's body rooted at *base*."""
        self._merge_suppressions(info)
        ctx_name = info.first_param()
        cursor = _TaskCursor(self.sk, base)
        site = info.site(info.node)
        if ctx_name is None:
            self.sk.note("unresolved-task", site, f"{info.marker}: no context parameter")
            cursor.end(site)
            return
        first_node = len(self.sk.nodes)
        self.spawn_chain.append(info.marker)
        try:
            state = _WalkState(info, cursor, {ctx_name})
            self._walk_block(state, info.body_statements(), barrier=1)
        finally:
            self.spawn_chain.pop()
            for node in self.sk.nodes[first_node:]:
                if node.owner is None:
                    node.owner = info.marker
        self._check_skipped_constructs(state, site)
        cursor.end(site)

    def _check_skipped_constructs(self, state: "_WalkState", site: str) -> None:
        """A conditional early exit before later task constructs means the
        linear walk may have over-trusted a sync: flag it."""
        for count_at_exit, where in state.early_exits:
            if state.cursor.constructs > count_at_exit:
                self.sk.note(
                    "control-flow-skip",
                    where,
                    "conditional return/break/continue may skip a later "
                    "task construct",
                )
                return

    # -- statement walking -------------------------------------------------

    def _walk_block(
        self, state: "_WalkState", statements: Sequence[ast.stmt], barrier: int
    ) -> bool:
        """Walk a statement list; returns True on an unconditional return."""
        for statement in statements:
            if self._walk_stmt(state, statement, barrier):
                return True
        return False

    def _walk_stmt(self, state: "_WalkState", stmt: ast.stmt, barrier: int) -> bool:
        self._tick()
        cursor = state.cursor
        if isinstance(stmt, ast.Expr):
            self._scan_expr(state, stmt.value, barrier)
        elif isinstance(stmt, ast.Assign):
            self._handle_assign(state, stmt, barrier)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_expr(state, stmt.value, barrier)
            self._scan_expr(state, stmt.target, barrier, store=True)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(state, stmt.value, barrier)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(state, stmt.value, barrier)
            state.early_exits.append(
                (cursor.constructs, state.info.site(stmt))
            )
            return True
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            state.early_exits.append(
                (cursor.constructs, state.info.site(stmt))
            )
        elif isinstance(stmt, ast.If):
            self._scan_expr(state, stmt.test, barrier)
            inner = len(cursor.frames)
            returned_body = self._walk_block(state, stmt.body, inner)
            returned_else = self._walk_block(state, stmt.orelse, inner)
            return returned_body and returned_else
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(state, stmt.iter, barrier)
            self._walk_loop(state, stmt.body, stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._scan_expr(state, stmt.test, barrier)
            self._walk_loop(state, stmt.body, stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_with(state, stmt, barrier)
        elif isinstance(stmt, ast.Try):
            before = cursor.constructs
            inner = len(cursor.frames)
            self._walk_block(state, stmt.body, inner)
            for handler in stmt.handlers:
                self._walk_block(state, handler.body, inner)
            self._walk_block(state, stmt.orelse, inner)
            self._walk_block(state, stmt.finalbody, inner)
            if cursor.constructs != before:
                self.sk.note(
                    "control-flow-skip",
                    state.info.site(stmt),
                    "task constructs inside a try block",
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            state.local_defs[stmt.name] = state.info.child(
                stmt, state.info.local_marker(stmt.name)
            )
            if captures_ctx(stmt, state.ctx_names):
                self.sk.note(
                    "ctx-escape",
                    state.info.site(stmt),
                    f"nested def {stmt.name!r} closes over the context",
                )
        elif isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Pass, ast.Global, ast.Nonlocal)):
            pass
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(state, child, barrier)
        else:
            # Match statements, class defs, anything exotic: scan for ctx
            # references and flag the construct when they appear.
            if references_ctx(stmt, state.ctx_names):
                self.sk.note(
                    "unsupported",
                    state.info.site(stmt),
                    f"unsupported statement {type(stmt).__name__} uses the context",
                )
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(state, child, barrier)
        return False

    def _walk_loop(
        self,
        state: "_WalkState",
        body: Sequence[ast.stmt],
        orelse: Sequence[ast.stmt],
    ) -> None:
        """Walk a loop body twice (cross-iteration parallelism), once more
        for the else clause."""
        inner = len(state.cursor.frames)
        for _ in range(2):
            self._walk_block(state, body, inner)
        self._walk_block(state, orelse, inner)

    def _walk_with(self, state: "_WalkState", stmt: ast.With, barrier: int) -> None:
        cursor = state.cursor
        entered: List[Tuple[str, Any]] = []  # ("lock", base) | ("finish", None)
        for item in stmt.items:
            expr = item.context_expr
            method = ctx_method(expr, state.ctx_names)
            site = state.info.site(expr)
            if method == "lock" and isinstance(expr, ast.Call):
                base = self._lock_base(expr, site)
                cursor.locks.acquire(base, site)
                entered.append(("lock", base))
            elif method == "finish":
                cursor.finish_enter(site)
                entered.append(("finish", None))
            else:
                self._scan_expr(state, expr, barrier)
            if item.optional_vars is not None and references_ctx(
                item.optional_vars, state.ctx_names
            ):
                self.sk.note("ctx-escape", site, "context bound by a with statement")
        self._walk_block(state, stmt.body, barrier)
        for kind, payload in reversed(entered):
            if kind == "lock":
                cursor.locks.release(payload, state.info.site(stmt))
            else:
                cursor.finish_exit()

    # -- expression scanning ----------------------------------------------

    def _scan_expr(
        self,
        state: "_WalkState",
        node: ast.expr,
        barrier: int,
        store: bool = False,
    ) -> None:
        """Collect ctx effects from *node* in (approximate) eval order."""
        self._tick()
        if isinstance(node, ast.Call):
            self._scan_call(state, node, barrier)
            return
        if isinstance(node, ast.Name):
            if not store and node.id in state.ctx_names:
                self.sk.note(
                    "ctx-escape",
                    state.info.site(node),
                    f"context {node.id!r} used outside the access discipline",
                )
            return
        if isinstance(node, ast.Lambda):
            if references_ctx(node.body, state.ctx_names):
                self.sk.note(
                    "ctx-escape",
                    state.info.site(node),
                    "lambda closing over the context in an unrecognized position",
                )
            return
        if isinstance(node, ast.Attribute):
            # ctx.method without a call (e.g. passed around) is an escape;
            # plain attribute chains are scanned for nested calls.
            if is_ctx(node.value, state.ctx_names):
                if node.attr not in QUERY_METHODS:
                    self.sk.note(
                        "ctx-escape",
                        state.info.site(node),
                        f"unbound context method {node.attr!r}",
                    )
                return
            self._scan_expr(state, node.value, barrier)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(state, child, barrier)
            elif isinstance(child, ast.comprehension):
                self._scan_expr(state, child.iter, barrier)
                for condition in child.ifs:
                    self._scan_expr(state, condition, barrier)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                self._scan_expr(state, child.value, barrier)

    def _scan_call(self, state: "_WalkState", node: ast.Call, barrier: int) -> None:
        func = node.func
        method = ctx_method(func, state.ctx_names)
        if method is not None:
            self._handle_ctx_call(state, method, node, barrier)
            return
        if isinstance(func, ast.Name) and func.id in TEMPLATES:
            if node.args and is_ctx(node.args[0], state.ctx_names):
                self._handle_template(state, func.id, node, barrier)
                return
        # Plain call: arguments first (eval order), then maybe inline.
        ctx_positions = [
            index
            for index, arg in enumerate(node.args)
            if is_ctx(arg, state.ctx_names)
        ]
        for index, arg in enumerate(node.args):
            if index not in ctx_positions:
                self._scan_expr(state, arg, barrier)
        for keyword in node.keywords:
            if is_ctx(keyword.value, state.ctx_names):
                self.sk.note(
                    "ctx-escape",
                    state.info.site(node),
                    "context passed as a keyword argument",
                )
            else:
                self._scan_expr(state, keyword.value, barrier)
        inlining = ctx_positions == [0] and isinstance(func, (ast.Name, ast.Attribute))
        if not isinstance(func, ast.Name) and not inlining:
            self._scan_expr(state, func, barrier)
        if inlining:
            self._inline_call(state, func, node, barrier)
        elif ctx_positions:
            self.sk.note(
                "ctx-escape",
                state.info.site(node),
                "context passed to an unresolvable callee position",
            )

    # -- ctx calls ---------------------------------------------------------

    def _handle_ctx_call(
        self, state: "_WalkState", method: str, node: ast.Call, barrier: int
    ) -> None:
        cursor = state.cursor
        site = state.info.site(node)
        if method in ACCESS_METHODS:
            location_arg = _call_argument(node, 0, "location")
            # Evaluate the other arguments first (they may contain nested
            # ctx calls: ctx.write(X, ctx.read(X) + 1) reads before writing).
            for arg in call_arguments(node, [location_arg]):
                self._scan_expr(state, arg, barrier)
            if location_arg is None:
                self.sk.note("unsupported", site, f"ctx.{method} without a location")
                return
            kind, value = _location_pattern(location_arg)
            if kind != EXACT:
                self.sk.note(
                    "nonconstant-location",
                    site,
                    f"ctx.{method} location degrades to a {kind} pattern",
                )
            for access_type in ACCESS_METHODS[method]:
                cursor.access(kind, value, access_type, site)
        elif method == "spawn":
            body_arg = _call_argument(node, 0, "body")
            for arg in node.args:
                if arg is not body_arg:
                    if is_ctx(arg, state.ctx_names):
                        self.sk.note("ctx-escape", site, "context passed to a spawned child")
                    else:
                        self._scan_expr(state, arg, barrier)
            for keyword in node.keywords:
                if keyword.value is not body_arg:
                    self._scan_expr(state, keyword.value, barrier)
            self._spawn_body(state, body_arg, site)
        elif method == "sync":
            if not cursor.sync(barrier):
                self.sk.note(
                    "conditional-sync",
                    site,
                    "sync under a condition ignored (parallelism over-approximated)",
                )
        elif method == "acquire" or method == "release":
            base = self._lock_base(node, site)
            if method == "acquire":
                cursor.locks.acquire(base, site)
            else:
                cursor.locks.release(base, site)
        elif method in QUERY_METHODS:
            pass
        elif method in ("lock", "finish"):
            # Correct use is inside a with statement (handled there); a
            # bare call creates a context manager we cannot track.
            self.sk.note(
                "unsupported", site, f"ctx.{method}() outside a with statement"
            )
        else:
            self.sk.note("unsupported", site, f"unknown context method {method!r}")

    def _spawn_body(self, state: "_WalkState", body_arg: Optional[ast.expr], site: str) -> None:
        info = None
        if body_arg is not None:
            info = resolve_function(body_arg, state.info, state.local_defs)
        async_node = state.cursor.spawn(site)
        if info is None:
            detail = (
                "spawn without a body argument"
                if body_arg is None
                else ast.dump(body_arg)[:60]
            )
            self.sk.note("unresolved-task", site, detail)
            return
        if info.marker in self.spawn_chain:
            # Recursive spawn: one static region stands for the whole
            # family of dynamic instances.  Every marker on the cycle is
            # replicated -- its regions are parallel across instances.
            async_node.replicated = True
            cycle_start = self.spawn_chain.index(info.marker)
            self.sk.recursive_markers.update(self.spawn_chain[cycle_start:])
            return
        self.build_task(info, async_node)

    def _handle_template(
        self, state: "_WalkState", name: str, node: ast.Call, barrier: int
    ) -> None:
        site = state.info.site(node)
        cursor = state.cursor
        bodies, consumed = template_bodies(name, node)
        for arg in call_arguments(node, [node.args[0], *consumed]):
            self._scan_expr(state, arg, barrier)
        if name == "parallel_pipeline":
            # Stages run wave-by-wave: one finish per stage, each stage
            # instantiated twice (item-vs-item parallelism within a wave).
            for stage in bodies:
                cursor.finish_enter(site)
                for _ in range(2):
                    self._spawn_body(state, stage, site)
                cursor.finish_exit()
            return
        if isinstance(TEMPLATES[name][0], int):
            bodies = bodies * 2  # one body over a range: leaf vs leaf
        cursor.finish_enter(site)
        for body in bodies:
            self._spawn_body(state, body, site)
        cursor.finish_exit()

    def _inline_call(
        self, state: "_WalkState", func: ast.expr, node: ast.Call, barrier: int
    ) -> None:
        """A helper receiving the context runs in the caller's task: inline."""
        site = state.info.site(node)
        name = self._callee_name(func)
        info = resolve_function(func, state.info, state.local_defs)
        if info is None:
            self.sk.note(
                "ctx-escape", site, f"context passed to unresolvable callee {name!r}"
            )
            return
        if self.inline_chain.count(info.marker) >= _RECURSIVE_UNROLL:
            self._recursive_cutoff(state, info, name, site)
            return
        ctx_param = info.first_param()
        if ctx_param is None:
            self.sk.note("ctx-escape", site, f"callee {name!r} has no parameters")
            return
        self._merge_suppressions(info)
        self.inline_chain.append(info.marker)
        try:
            inner = _WalkState(info, state.cursor, {ctx_param})
            self._walk_block(inner, info.body_statements(), barrier)
            state.early_exits.extend(inner.early_exits)
        finally:
            self.inline_chain.pop()

    def _recursive_cutoff(
        self, state: "_WalkState", info: FunctionInfo, name: str, site: str
    ) -> None:
        """Stop unrolling a recursive helper, consulting its summary.

        The helper has already been walked :data:`_RECURSIVE_UNROLL`
        times on this chain, so every same-step access pair it can form
        exists with its true locksets.  Three cases remain for the
        deeper iterations:

        * a **step-local** summary (straight-line ctx accesses only)
          repeats triples the unrolling already emitted -- nothing to
          add, and the skeleton stays exact;
        * a **resolved** summary bounds the deeper effects: emit its
          access patterns in the current step/lockset (may-accesses) and
          mark the note ``bounded``, so it hides no access;
        * anything else (ctx escapes or unresolved calls below) leaves
          what the deeper iterations touch unknown: the note hides
          accesses.
        """
        summary = self._summary_for(info.marker)
        if summary is not None and summary.step_local:
            return
        cursor = state.cursor
        bounded = False
        if summary is not None:
            for pattern in sorted(
                summary.patterns, key=lambda p: repr((p.kind, p.location, p.access_type))
            ):
                cursor.access(pattern.kind, pattern.location, pattern.access_type, site)
            bounded = summary.resolved and bool(summary.patterns)
        self.sk.note(
            "recursive-inline",
            site,
            f"recursive helper {name!r}: unrolled {_RECURSIVE_UNROLL}x, deeper "
            f"iterations approximated by its summary",
            bounded=bounded,
        )

    def _callee_name(self, func: ast.expr) -> str:
        parts: List[str] = []
        current = func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
        else:
            parts.append("<expr>")
        return ".".join(reversed(parts))

    # -- small helpers -----------------------------------------------------

    def _handle_assign(self, state: "_WalkState", stmt: ast.Assign, barrier: int) -> None:
        value = stmt.value
        if is_ctx(value, state.ctx_names) and all(
            isinstance(target, ast.Name) for target in stmt.targets
        ):
            for target in stmt.targets:
                state.ctx_names.add(target.id)  # ctx alias
            return
        self._scan_expr(state, value, barrier)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                state.ctx_names.discard(target.id)  # rebound away from ctx
            else:
                self._scan_expr(state, target, barrier, store=True)

    def _lock_base(self, node: ast.Call, site: str) -> str:
        name_arg = _call_argument(node, 0, "name")
        if name_arg is not None:
            constant, value = _literal(name_arg)
            if constant:
                return str(value)
        self.sk.note(
            "dynamic-lock-name",
            site,
            "lock name is not a compile-time constant; tracked per scope",
        )
        return f"?lock@{site}"


class _WalkState:
    """Per-inlined-function walking state sharing one task cursor."""

    __slots__ = ("info", "cursor", "ctx_names", "local_defs", "early_exits")

    def __init__(
        self, info: FunctionInfo, cursor: _TaskCursor, ctx_names: set
    ) -> None:
        self.info = info
        self.cursor = cursor
        self.ctx_names = set(ctx_names)
        self.local_defs: Dict[str, FunctionInfo] = {}
        #: (constructs-at-exit, site) of conditional returns/breaks.
        self.early_exits: List[Tuple[int, str]] = []


def skeleton_from_function(
    func: Callable[..., Any], budget: int = _DEFAULT_BUDGET
) -> StaticSkeleton:
    """Best-effort static skeleton of a task body function.

    Builds the interprocedural call graph first (helpers, spawned
    bodies, template bodies, through closures / module globals /
    attribute chains), records its call-graph stats on the skeleton, and
    hands the graph to the walker so recursive helpers can be cut off
    with bottom-up summaries instead of a blanket approximation note.
    """
    marker = f"{getattr(func, '__module__', '?')}.{getattr(func, '__qualname__', repr(func))}"
    skeleton = StaticSkeleton(source=marker)
    info = info_for_callable(func)
    if info is None:
        skeleton.note("unresolved-task", "<root>", f"{marker}: source unavailable")
        return skeleton
    graph = build_callgraph(info)
    skeleton.callgraph_stats = graph.stats()
    builder = _AstSkeletonBuilder(skeleton, budget, graph)
    try:
        builder.build_task(info, skeleton.root)
    except _BudgetExceeded:
        skeleton.note(
            "budget-exceeded",
            "<root>",
            f"analysis budget of {budget} AST nodes exceeded",
        )
    return skeleton


def analyze_function(func: Callable[..., Any]) -> StaticAccessSet:
    """Access set of a task body and everything it spawns or inlines."""
    return skeleton_from_function(func).access_set()
