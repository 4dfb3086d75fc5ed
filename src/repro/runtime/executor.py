"""The runtime core and its executors.

:class:`Runtime` owns everything shared by the tasks of one execution: the
DPST under construction, the shadow memory, the lock table, the observer
chain and the global event sequence counter.  It implements the semantics
of ``spawn``/``sync``/``finish`` and of instrumented memory and lock
operations; *when* spawned tasks actually run is delegated to an executor
strategy:

* :class:`SerialExecutor` with ``policy="child_first"`` runs each child at
  its spawn point (the Cilk serial elision);
* :class:`SerialExecutor` with ``policy="help_first"`` defers children and
  runs them at the matching sync point, either FIFO or LIFO -- LIFO
  reproduces the trace of the paper's Figure 5, where T3's accesses are
  observed before T2's;
* :class:`RandomOrderExecutor` randomizes both decisions with a seed;
* :class:`WorkStealingExecutor` runs tasks on a pool of worker threads
  with per-worker deques and random stealing, like the TBB scheduler.

All schedules produced by these executors are legal executions of the same
program, and -- the paper's central point -- the atomicity checker's
verdict is identical on every one of them.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)


from repro.dpst import ArrayDPST, LCAEngine, LinkedDPST, NodeKind, ROOT_ID, make_dpst
from repro.dpst.engines import make_engine
from repro.dpst.base import DPSTBase
from repro.errors import RuntimeUsageError
from repro.report import READ, WRITE
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.runtime.locks import LockTable
from repro.runtime.observer import ObserverChain, RuntimeObserver
from repro.runtime.shadow import ShadowMemory
from repro.runtime.task import FrameKind, ScopeFrame, Task, TaskBody, TaskContext

Location = Hashable

#: Step id used in events when the run executes without a DPST.
NO_STEP = -1


class RunContext:
    """Everything observers may need about the execution in progress."""

    def __init__(
        self,
        dpst: Optional[DPSTBase],
        engine: Any,
        shadow: ShadowMemory,
        locks: LockTable,
        annotations: Any,
        parallel_engine: str = "lca",
        recorder: Any = None,
    ) -> None:
        self.dpst = dpst
        #: The :class:`~repro.dpst.engines.ParallelismEngine` answering
        #: series-parallel queries for this run (``None`` when no DPST is
        #: built).
        self.engine = engine
        self.shadow = shadow
        self.locks = locks
        #: The program's atomicity annotations
        #: (:class:`repro.checker.annotations.AtomicAnnotations`).
        self.annotations = annotations
        #: The observability sink for this run -- a
        #: :class:`repro.obs.Recorder`; defaults to the no-op
        #: :data:`repro.obs.NULL_RECORDER` so observers may use it
        #: unconditionally.
        if recorder is None:
            from repro.obs import NULL_RECORDER

            recorder = NULL_RECORDER
        self.recorder = recorder
        #: The registry name of the engine answering the queries -- any
        #: name in :func:`repro.dpst.engines.available_engines`.
        self.parallel_engine = parallel_engine
        #: Wall-clock run time in seconds, filled in by the driver.
        self.elapsed: float = 0.0
        #: Map task id -> :class:`Task`, for post-run inspection.
        self.tasks: Dict[int, Task] = {}

    @property
    def dpst_nodes(self) -> int:
        return 0 if self.dpst is None else len(self.dpst)


class Executor:
    """Strategy interface: decides when spawned tasks execute."""

    #: Human-readable name used by benchmarks.
    name = "abstract"

    #: Whether tasks may run on more than one thread.  A fact each
    #: executor states about itself: the runtime takes its lock around
    #: every instrumented access unless the executor says ``False``, so
    #: an executor that does not say stays safe.
    threaded = True

    def run_root(self, runtime: "Runtime", root: Task) -> None:
        """Execute the root task to completion (including descendants)."""
        raise NotImplementedError

    def submit(self, runtime: "Runtime", parent: Task, child: Task) -> None:
        """A task was spawned; schedule it according to policy."""
        raise NotImplementedError

    def wait_frame(self, runtime: "Runtime", task: Task, frame: ScopeFrame) -> None:
        """Block (or help) until every child of *frame* has completed."""
        raise NotImplementedError


class Runtime:
    """Shared state and semantics of one task-parallel execution."""

    def __init__(
        self,
        executor: Executor,
        observers: Sequence[RuntimeObserver] = (),
        shadow: Optional[ShadowMemory] = None,
        annotations: Any = None,
        dpst_layout: str = "array",
        build_dpst: Optional[bool] = None,
        lca_cache: bool = True,
        parallel_engine: str = "lca",
        recorder: Any = None,
    ) -> None:
        self.executor = executor
        self.observer = ObserverChain(list(observers))
        if build_dpst is None:
            # Build the DPST whenever any observer is attached: checkers
            # need it and recorded traces should be replayable.  The
            # uninstrumented baseline passes build_dpst=False explicitly.
            build_dpst = bool(self.observer.observers)
        self.dpst: Optional[DPSTBase] = make_dpst(dpst_layout) if build_dpst else None
        if self.dpst is None:
            self.engine = None
        else:
            # Registry resolution: raises UnknownEngineError (a
            # CheckerError *and* ValueError) naming the valid engines.
            self.engine = make_engine(parallel_engine, self.dpst, cache=lca_cache)
        self.shadow = shadow if shadow is not None else ShadowMemory()
        self.locks = LockTable()
        self.run_context = RunContext(
            self.dpst,
            self.engine,
            self.shadow,
            self.locks,
            annotations,
            parallel_engine=parallel_engine,
            recorder=recorder,
        )
        self._lock = threading.RLock()
        self._next_task_id = 0
        self._next_seq = 0
        #: First exception raised by any task (work-stealing executor).
        self.failure: Optional[BaseException] = None
        # Uninstrumented fast path: with no observers and no DPST there is
        # nothing to notify or build, so memory operations reduce to shadow
        # loads/stores.  This models the paper's baseline -- a native
        # binary without instrumentation -- against which slowdowns are
        # measured.  (Instance attributes shadow the class methods.)
        if not self.observer.observers and self.dpst is None:
            self.read = self._read_uninstrumented  # type: ignore[assignment]
            self.write = self._write_uninstrumented  # type: ignore[assignment]
        elif not executor.threaded:
            # One thread runs every task: no access can race another, so
            # the lock would guard nothing.
            self.read = self._read_unlocked  # type: ignore[assignment]
            self.write = self._write_unlocked  # type: ignore[assignment]
        # Per-access dispatch target, resolved once: a lone observer is
        # called directly, skipping the chain's fan-out loop.
        if len(self.observer.observers) == 1:
            self._on_memory = self.observer.observers[0].on_memory
        else:
            self._on_memory = self.observer.on_memory

    def _read_uninstrumented(self, task: Task, location: Location) -> Any:
        """Baseline read: straight to shadow memory."""
        return self.shadow.load(location)

    def _write_uninstrumented(self, task: Task, location: Location, value: Any) -> None:
        """Baseline write: straight to shadow memory."""
        self.shadow.store(location, value)

    # -- id/seq allocation ---------------------------------------------------

    def _alloc_task_id(self) -> int:
        self._next_task_id += 1
        return self._next_task_id - 1

    def _alloc_seq(self) -> int:
        self._next_seq += 1
        return self._next_seq - 1

    # -- top-level driving -----------------------------------------------------

    def run(self, body: TaskBody, *args: Any, **kwargs: Any) -> RunContext:
        """Run *body* as the root task and return the populated context."""
        with self._lock:
            root_id = self._alloc_task_id()
            base_node = ROOT_ID if self.dpst is not None else NO_STEP
            root = Task(root_id, None, body, args, kwargs, base_node, None)
            self.run_context.tasks[root_id] = root
        self.observer.on_run_begin(self.run_context)
        started = time.perf_counter()
        try:
            self.executor.run_root(self, root)
            if self.failure is not None:
                raise self.failure
        except RecursionError as exc:
            # Each nested spawn costs the serial executors several Python
            # frames, so a spawn chain a few hundred deep exhausts the
            # interpreter stack: name the depth instead of a bare error.
            depth = max(task.depth for task in self.run_context.tasks.values())
            raise RuntimeUsageError(
                f"spawn chain too deep: the run reached spawn depth {depth} "
                f"and exhausted the Python recursion limit "
                f"(sys.getrecursionlimit() = {sys.getrecursionlimit()})"
            ) from exc
        finally:
            self.run_context.elapsed = time.perf_counter() - started
        self.observer.on_run_end(self.run_context)
        return self.run_context

    def execute_task(self, task: Task) -> None:
        """Run a task body and drain its scopes; called by executors."""
        with self._lock:
            seq = self._alloc_seq()
        self.observer.on_task_begin(TaskBeginEvent(seq, task.task_id))
        context = TaskContext(self, task)
        try:
            task.result = task.body(context, *task.args, **task.kwargs)
            # Implicit sync: a task does not complete until every child
            # (and descendant) has completed.
            while len(task.frames) > 1:
                self._close_top_frame(task)
        finally:
            if task.notify_frame is not None:
                task.notify_frame.child_finished()
        # Under the lock, like a memory access on a threaded executor: a
        # checker freeing the task's metadata here never races another
        # task's access.
        with self._lock:
            seq = self._alloc_seq()
            self.observer.on_task_end(TaskEndEvent(seq, task.task_id))

    # -- task management semantics ----------------------------------------------

    def spawn(
        self,
        parent: Task,
        body: TaskBody,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> Task:
        """Create a child task of *parent* and hand it to the executor."""
        with self._lock:
            parent.current_step = None  # the spawn ends the current step
            frame = parent.top_frame
            if frame.kind is FrameKind.BODY:
                frame = self._push_finish_frame(parent, FrameKind.IMPLICIT)
            if self.dpst is not None:
                async_node = self.dpst.add_node(frame.node, NodeKind.ASYNC)
            else:
                async_node = NO_STEP
            child_id = self._alloc_task_id()
            child = Task(
                child_id,
                parent.task_id,
                body,
                args,
                kwargs,
                async_node,
                frame,
                depth=parent.depth + 1,
            )
            self.run_context.tasks[child_id] = child
            frame.child_started()
            seq = self._alloc_seq()
            event = TaskSpawnEvent(seq, parent.task_id, child_id, async_node)
            self.observer.on_task_spawn(event)
        self.executor.submit(self, parent, child)
        return child

    def sync(self, task: Task) -> None:
        """Wait for the children of the innermost spawn scope."""
        task.current_step = None
        frame = task.top_frame
        if frame.kind is FrameKind.IMPLICIT:
            self._close_top_frame(task)
        elif frame.kind is FrameKind.EXPLICIT:
            # sync inside an open finish block waits for the children
            # spawned so far but keeps the scope open.
            self.executor.wait_frame(self, task, frame)
        # BODY frame: no children were ever spawned into it; no-op.

    def finish_enter(self, task: Task) -> None:
        """Open an explicit (Habanero-style) finish scope."""
        with self._lock:
            task.current_step = None
            self._push_finish_frame(task, FrameKind.EXPLICIT)

    def finish_exit(self, task: Task) -> None:
        """Close the innermost explicit finish scope, draining children."""
        task.current_step = None
        while task.top_frame.kind is FrameKind.IMPLICIT:
            self._close_top_frame(task)
        if task.top_frame.kind is not FrameKind.EXPLICIT:
            raise RuntimeUsageError(
                f"task {task.task_id} exited a finish block it never entered"
            )
        self._close_top_frame(task)

    def _push_finish_frame(self, task: Task, kind: FrameKind) -> ScopeFrame:
        """Push a finish frame (with DPST finish node) onto *task*'s stack."""
        parent_node = task.top_frame.node
        if self.dpst is not None:
            node = self.dpst.add_node(parent_node, NodeKind.FINISH)
        else:
            node = NO_STEP
        frame = ScopeFrame(kind, node)
        task.frames.append(frame)
        return frame

    def _close_top_frame(self, task: Task) -> None:
        """Wait for the top frame's children, then pop it."""
        frame = task.top_frame
        self.executor.wait_frame(self, task, frame)
        with self._lock:
            task.frames.pop()
            task.current_step = None
            seq = self._alloc_seq()
        self.observer.on_sync(SyncEvent(seq, task.task_id, frame.node))

    # -- instrumented memory -------------------------------------------------------

    def _ensure_step(self, task: Task) -> int:
        """The current step node of *task*, creating it lazily.

        Step nodes represent *maximal non-empty* instruction sequences, so
        one is only materialized when the task actually performs an access
        after a task-management construct.
        """
        if self.dpst is None:
            return NO_STEP
        step = task.current_step
        if step is None:
            step = self.dpst.add_node(task.top_frame.node, NodeKind.STEP)
            task.current_step = step
        return step

    # The unlocked read/write inline the common cases of _ensure_step and
    # _alloc_seq: they run once per instrumented access.  A runtime whose
    # executor is not threaded binds them as read/write directly.

    def read(self, task: Task, location: Location) -> Any:
        """Instrumented shared-memory read."""
        with self._lock:
            return self._read_unlocked(task, location)

    def write(self, task: Task, location: Location, value: Any) -> None:
        """Instrumented shared-memory write."""
        with self._lock:
            self._write_unlocked(task, location, value)

    def _read_unlocked(self, task: Task, location: Location) -> Any:
        step = task.current_step
        if step is None:
            step = self._ensure_step(task)
        seq = self._next_seq
        self._next_seq = seq + 1
        self._on_memory(
            MemoryEvent(
                seq,
                task.task_id,
                step,
                location,
                READ,
                task.lock_state.lockset_tuple(),
            )
        )
        return self.shadow.load(location)

    def _write_unlocked(self, task: Task, location: Location, value: Any) -> None:
        step = task.current_step
        if step is None:
            step = self._ensure_step(task)
        seq = self._next_seq
        self._next_seq = seq + 1
        self._on_memory(
            MemoryEvent(
                seq,
                task.task_id,
                step,
                location,
                WRITE,
                task.lock_state.lockset_tuple(),
            )
        )
        self.shadow.store(location, value)

    # -- instrumented locks -----------------------------------------------------------

    def acquire(self, task: Task, name: str) -> None:
        """Acquire program lock *name* for *task* (blocking)."""
        # Validate before touching the real mutex: re-acquiring a lock the
        # task already holds must raise, not self-deadlock.
        if task.lock_state.holds(name):
            raise RuntimeUsageError(
                f"task {task.task_id} re-acquired lock {name!r} it already holds"
            )
        # Take the real lock outside the runtime lock: another worker may
        # need the runtime lock to make progress toward releasing it.
        self.locks.acquire(name)
        with self._lock:
            versioned = task.lock_state.acquire(name)
            step = self._ensure_step(task)
            seq = self._alloc_seq()
        self.observer.on_acquire(
            AcquireEvent(seq, task.task_id, step, name, versioned)
        )

    def release(self, task: Task, name: str) -> None:
        """Release program lock *name* held by *task*."""
        with self._lock:
            versioned = task.lock_state.release(name)
            step = self._ensure_step(task)
            seq = self._alloc_seq()
        self.locks.release(name)
        self.observer.on_release(
            ReleaseEvent(seq, task.task_id, step, name, versioned)
        )

    def record_failure(self, exc: BaseException) -> None:
        """Remember the first task failure (work-stealing executor)."""
        with self._lock:
            if self.failure is None:
                self.failure = exc


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class SerialExecutor(Executor):
    """Single-threaded executor with a configurable scheduling policy.

    ``child_first``
        Run the child immediately at the spawn point (Cilk serial elision).
    ``help_first``
        Defer children to the frame's pending queue; run them when the
        frame is waited.  ``order`` selects FIFO (spawn order) or LIFO
        (reverse) draining.
    """

    threaded = False

    def __init__(self, policy: str = "child_first", order: str = "fifo") -> None:
        if policy not in ("child_first", "help_first"):
            raise ValueError(f"unknown policy {policy!r}")
        if order not in ("fifo", "lifo"):
            raise ValueError(f"unknown order {order!r}")
        self.policy = policy
        self.order = order
        self.name = f"serial/{policy}" + ("" if policy == "child_first" else f"/{order}")

    def run_root(self, runtime: Runtime, root: Task) -> None:
        runtime.execute_task(root)

    def submit(self, runtime: Runtime, parent: Task, child: Task) -> None:
        if self.policy == "child_first":
            runtime.execute_task(child)
        else:
            child.notify_frame.pending.append(child)

    def wait_frame(self, runtime: Runtime, task: Task, frame: ScopeFrame) -> None:
        pending = frame.pending
        while pending:
            if self.order == "fifo":
                child = pending.popleft()
            else:
                child = pending.pop()
            runtime.execute_task(child)


class RandomOrderExecutor(Executor):
    """Seeded serial executor that randomizes scheduling decisions.

    At each spawn the child either runs immediately (probability
    ``eager_probability``) or is deferred; deferred children are drained in
    shuffled order.  Useful for diversifying observed traces in tests: the
    checker must return the same verdict for every seed.
    """

    threaded = False

    def __init__(self, seed: int = 0, eager_probability: float = 0.5) -> None:
        self.rng = random.Random(seed)
        self.eager_probability = eager_probability
        self.name = f"random(seed={seed})"

    def run_root(self, runtime: Runtime, root: Task) -> None:
        runtime.execute_task(root)

    def submit(self, runtime: Runtime, parent: Task, child: Task) -> None:
        if self.rng.random() < self.eager_probability:
            runtime.execute_task(child)
        else:
            child.notify_frame.pending.append(child)

    def wait_frame(self, runtime: Runtime, task: Task, frame: ScopeFrame) -> None:
        pending = frame.pending
        while pending:
            index = self.rng.randrange(len(pending))
            pending.rotate(-index)
            child = pending.popleft()
            runtime.execute_task(child)


class WorkStealingExecutor(Executor):
    """Thread-pool executor with per-worker deques and random stealing.

    Mirrors the TBB/Cilk scheduler shape: a spawning worker pushes the
    child onto the *bottom* of its own deque and continues the parent;
    idle workers steal from the *top* of a random victim.  A worker that
    reaches a sync point helps by executing tasks from its own deque (or
    stolen ones) until the awaited scope has no outstanding children.

    Under CPython the GIL serializes the actual computation, so this
    executor exists to exercise the checkers under true interleaving, not
    to provide speedup (see DESIGN.md substitutions).
    """

    _tls = threading.local()

    def __init__(self, workers: int = 4, seed: int = 0) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.seed = seed
        self.name = f"worksteal(workers={workers})"
        self._deques: List[Deque[Task]] = []
        self._deque_guard = threading.Lock()
        self._work_available = threading.Condition(self._deque_guard)
        self._shutdown = False
        self._root_done = threading.Event()

    # -- deque plumbing ---------------------------------------------------

    def _my_index(self) -> Optional[int]:
        return getattr(self._tls, "worker_index", None)

    def _push(self, worker: int, task: Task) -> None:
        with self._work_available:
            self._deques[worker].append(task)
            self._work_available.notify()

    def _pop_local(self, worker: int) -> Optional[Task]:
        with self._deque_guard:
            own = self._deques[worker]
            if own:
                return own.pop()
        return None

    def _steal(self, thief: int, rng: random.Random) -> Optional[Task]:
        with self._deque_guard:
            victims = [i for i in range(self.workers) if i != thief and self._deques[i]]
            if not victims:
                return None
            victim = rng.choice(victims)
            return self._deques[victim].popleft()

    # -- executor interface ---------------------------------------------------

    def run_root(self, runtime: Runtime, root: Task) -> None:
        self._deques = [deque() for _ in range(self.workers)]
        self._shutdown = False
        self._root_done.clear()
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(runtime, index),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        self._push(0, root)
        self._root_done.wait()
        with self._work_available:
            self._shutdown = True
            self._work_available.notify_all()
        for thread in threads:
            thread.join()

    def submit(self, runtime: Runtime, parent: Task, child: Task) -> None:
        worker = self._my_index()
        self._push(worker if worker is not None else 0, child)

    def wait_frame(self, runtime: Runtime, task: Task, frame: ScopeFrame) -> None:
        worker = self._my_index()
        rng = getattr(self._tls, "rng", None)
        if rng is None:
            rng = random.Random(self.seed)
        while True:
            with frame.done:
                if frame.outstanding <= 0:
                    return
            stolen = None
            if worker is not None:
                stolen = self._pop_local(worker) or self._steal(worker, rng)
            if stolen is not None:
                self._run_task(runtime, stolen)
                continue
            with frame.done:
                if frame.outstanding <= 0:
                    return
                frame.done.wait(timeout=0.002)

    # -- worker body ------------------------------------------------------------

    def _run_task(self, runtime: Runtime, task: Task) -> None:
        is_root = task.parent_id is None
        try:
            runtime.execute_task(task)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the driver
            runtime.record_failure(exc)
        finally:
            if is_root:
                self._root_done.set()

    def _worker_loop(self, runtime: Runtime, index: int) -> None:
        self._tls.worker_index = index
        self._tls.rng = random.Random((self.seed, index).__hash__())
        rng = self._tls.rng
        while True:
            task = self._pop_local(index) or self._steal(index, rng)
            if task is not None:
                self._run_task(runtime, task)
                continue
            with self._work_available:
                if self._shutdown:
                    return
                self._work_available.wait(timeout=0.01)
