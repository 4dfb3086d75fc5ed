"""The unified checking front door: :class:`CheckSession`.

One entry point for every way of checking something:

* a live :class:`~repro.runtime.program.TaskProgram` (or a bare body
  function) -- executed once with trace recording, then checked;
* an in-memory recorded :class:`~repro.trace.trace.Trace`;
* a trace *file path* or an open
  :class:`~repro.trace.serialize.TraceReader` (either serialization
  format; a file is checked without ever materializing its events).

and every way of running a checker over it: any :func:`make_checker`
spec (name, class, or instance), in-process (``jobs=1``) or across
worker processes (``jobs>1``).  Each setting has one owner: ``jobs``, the
engine and the trace mode are the session's, and each
:meth:`CheckSession.check` call checks its own options once, then hands
the check to the driver in :mod:`repro.checker.sharded`.

::

    from repro import CheckSession

    report = CheckSession("run.jsonl", jobs=4).check()
    report = CheckSession(program, checker="basic").check()

    session = CheckSession(trace)
    session.check("optimized")
    session.check("racedetector")
    session.reports          # {"optimized": ..., "racedetector": ...}
    session.first_violation  # first finding across every check so far
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Union

from repro.checker import checker_name_of, make_checker
from repro.checker.annotations import AtomicAnnotations
from repro.checker.sharded import CheckerSpec, default_jobs, run_check
from repro.checker.streaming import StreamingChecker
from repro.checker.supervisor import WorkerPolicy
from repro.errors import TraceError
from repro.report import ViolationReport
from repro.runtime.program import TaskProgram, run_program
from repro.trace.serialize import TraceReader, open_trace
from repro.trace.trace import Trace

Source = Union[TaskProgram, Trace, TraceReader, str, "os.PathLike[str]"]


class CheckSession:
    """A checking session over one program, trace, or trace file.

    Parameters
    ----------
    source:
        What to check.  A :class:`TaskProgram` (or bare callable body) is
        executed once -- lazily, on first use -- with trace recording
        under *executor*; a :class:`Trace` / :class:`TraceReader` / path
        is checked offline as-is.  A path that is not a file raises
        :class:`~repro.errors.TraceError` here.  A file is opened (header,
        DPST rebuild, v3 footer) on first need only: a check that replays
        its events, or a read of :attr:`trace` or :attr:`dpst`.  So a
        result-cache hit reads just the file's digest and the entry, and
        a file that exists but cannot be decoded raises its
        :class:`~repro.errors.TraceError` from :meth:`check`.
    checker:
        Default checker spec for :meth:`check` -- a registered name, a
        checker class, or a pre-built instance.
    jobs:
        Worker count of every :meth:`check`.  ``1`` (default) checks
        in-process; ``N > 1`` runs the location-sharded pipeline (a
        ``location_sharded`` checker only: Velodrome is refused);
        ``None`` uses one worker per usable CPU; below ``1``,
        :meth:`check` raises :class:`~repro.errors.TraceError`.
    engine:
        Parallelism-query engine of every check: any registered name in
        :func:`repro.dpst.engines.available_engines` (built-ins:
        ``"lca"``, ``"labels"``, ``"vc"``, ``"depa"``).  Unknown names
        raise :class:`repro.dpst.engines.UnknownEngineError` at check
        time, naming the valid engines.  To compare engines, build one
        session per engine over the recorded :class:`Trace`.
    executor:
        Scheduling strategy when *source* is a program.
    annotations:
        Atomicity annotations.  Defaults to the program's own annotations
        for program sources, check-everything otherwise.
    lca_cache:
        Enable the LCA memo table during replay.
    recorder:
        Optional :class:`repro.obs.Recorder` collecting metrics and
        phase spans for everything this session does (recording, DPST
        builds, every check, the sharded pipeline).  Defaults to the
        no-op :data:`repro.obs.NULL_RECORDER`; pass a
        :class:`repro.obs.MetricsRecorder` and read :attr:`metrics`
        afterwards.
    strict:
        ``False`` opens a path source in lenient mode: undecodable
        events are counted (:attr:`lines_skipped`, and the
        ``trace.lines_skipped`` metric when observed) and skipped
        instead of aborting the check mid-stream.  A
        :class:`TraceReader` source keeps its own mode, which becomes
        the session's :attr:`strict`.  Ignored for in-memory sources.
    """

    def __init__(
        self,
        source: Source,
        checker: CheckerSpec = "optimized",
        jobs: Optional[int] = 1,
        engine: str = "lca",
        executor: Any = None,
        annotations: Optional[AtomicAnnotations] = None,
        lca_cache: bool = True,
        recorder: Any = None,
        strict: bool = True,
    ) -> None:
        if recorder is None:
            from repro.obs import NULL_RECORDER

            recorder = NULL_RECORDER
        self.checker = checker
        self.jobs = jobs
        self.engine = engine
        self.executor = executor
        self.lca_cache = lca_cache
        #: The trace mode; a :class:`TraceReader` source's own.
        self.strict = strict
        #: The session's observability sink (a :class:`repro.obs.Recorder`).
        self.recorder = recorder
        #: Reports of every :meth:`check` call, keyed by checker name.
        self.reports: Dict[str, ViolationReport] = {}
        #: Outcome of the last ``cache_dir=`` request (see :meth:`check`):
        #: ``{"requested", "applied", "hit", "key", "reason"}`` -- the CLI
        #: renders this so a bypassed cache is never silent.
        self.cache_info: Optional[Dict[str, Any]] = None
        self._source_digest_memo: Optional[str] = None

        self._program: Optional[TaskProgram] = None
        self._trace: Optional[Trace] = None
        #: A file source's path; its reader opens on first need.
        self._path: Optional[str] = None
        self._reader: Optional[TraceReader] = None
        self._run_result = None
        self._dpst_spanned = False

        if isinstance(source, TaskProgram):
            self._program = source
        elif callable(source):
            self._program = TaskProgram(source)
        elif isinstance(source, Trace):
            self._trace = source
        elif isinstance(source, TraceReader):
            self._reader = source
            self._path = source.path
            self.strict = source.strict
        elif isinstance(source, (str, os.PathLike)):
            self._path = os.fspath(source)
            if not os.path.isfile(self._path):
                raise TraceError(f"no trace file at {self._path!r}")
        else:
            raise TraceError(
                f"cannot check {type(source).__name__}: expected a "
                "TaskProgram, a body callable, a Trace, a TraceReader, "
                "or a trace file path"
            )
        if annotations is not None:
            self.annotations = annotations
        elif self._program is not None:
            self.annotations = self._program.annotations
        else:
            self.annotations = None

    # -- source access ----------------------------------------------------

    @property
    def source_kind(self) -> str:
        """``"program"``, ``"trace"``, or ``"file"``."""
        if self._program is not None:
            return "program"
        if self._path is not None:
            return "file"
        return "trace"

    def _file_reader(self) -> TraceReader:
        """The file source's reader, opened on first call."""
        if self._reader is None:
            self._reader = open_trace(self._path, strict=self.strict)
        return self._reader

    @property
    def run_result(self):
        """The :class:`RunResult` of a program source (run on demand)."""
        if self._program is None:
            return None
        if self._run_result is None:
            self._run_result = run_program(
                self._program,
                executor=self.executor,
                record_trace=True,
                # Runtime counters (tasks, memory events, lock ops, syncs)
                # ride along whenever the session is observed.
                collect_stats=self.recorder.enabled,
                parallel_engine=self.engine,
                lca_cache=self.lca_cache,
                recorder=self.recorder,
            )
        return self._run_result

    @property
    def trace(self) -> Trace:
        """The trace under check, materialized in memory on first access."""
        if self._trace is None:
            if self._program is not None:
                self._trace = self.run_result.trace
            else:
                self._trace = self._file_reader().read()
        return self._trace

    @property
    def dpst(self):
        """The DPST of the execution under check."""
        if self._trace is not None:
            return self._trace.dpst
        if self._path is not None:
            return self._file_reader().dpst
        return self.trace.dpst

    # -- checking ----------------------------------------------------------

    def check(
        self,
        checker: Optional[CheckerSpec] = None,
        policy: Optional[WorkerPolicy] = None,
        cache_dir: Optional[str] = None,
        streaming: bool = False,
        **checker_kwargs: Any,
    ) -> ViolationReport:
        """Run one checker over the source; return (and remember) its report.

        *checker* defaults to the session's; ``checker_kwargs`` go to
        checker construction (names and classes only).  A program source
        executes once per session.  The options are checked here, once,
        before any cache lookup.  *policy* (a
        :class:`~repro.checker.supervisor.WorkerPolicy`) supervises the
        ``jobs > 1`` workers: retry, inline fallback or abort on a failed
        worker, the per-attempt timeout and the start method.

        ``cache_dir`` enables the content-addressed result cache
        (:mod:`repro.cache`), keyed on the trace, the checker, the engine
        and the trace mode; hits and fresh results are served in
        canonical (jobs-insensitive) order.  A file source is keyed on
        its bytes' digest, so a hit never opens the file.  A ``jobs > 1``
        miss also files each shard's report under the key plus the
        layout as the shard completes, so re-running an interrupted check
        redoes only the missing shards.  Class/instance checker specs and
        non-trivial annotations bypass the cache, with the reason
        recorded in :attr:`cache_info`, never silently.

        ``streaming=True`` checks through
        :class:`~repro.checker.streaming.StreamingChecker`, a pass-through
        over the optimized checker: every check frees dead local metadata
        as it goes, so the report is the plain check's.  It is filed under
        ``"streaming"`` in :attr:`reports` and keyed, served and stored
        in the cache as the plain check; any checker but the optimized one
        raises a :class:`~repro.errors.CheckerError`.
        """
        spec = self.checker if checker is None else checker
        jobs = default_jobs() if self.jobs is None else self.jobs
        if jobs < 1:
            raise TraceError(f"jobs must be >= 1, got {jobs}")
        cache_state = self._resolve_cache(cache_dir, spec, checker_kwargs)
        if checker_kwargs:
            spec = make_checker(spec, **checker_kwargs)
        if streaming:
            spec = StreamingChecker(checker=spec)
        name = checker_name_of(spec)
        if cache_state is not None:
            entry = cache_state["cache"].load(cache_state["key"])
            if entry is not None:
                cache_state["info"]["hit"] = True
                if self.recorder.enabled:
                    self.recorder.count("cache.hit")
                    self.recorder.count("cache.bytes", entry.nbytes)
                self.reports[name] = entry.report
                return entry.report

        if self.recorder.enabled:
            from repro.obs import SPAN_CHECK

            self._span_dpst_build()
            with self.recorder.span(SPAN_CHECK):
                report = self._run(spec, jobs, policy, cache_state)
        else:
            report = self._run(spec, jobs, policy, cache_state)
        if cache_state is not None:
            from repro.cache import normalized_report_copy

            report = normalized_report_copy(report)
            nbytes = cache_state["cache"].store(
                cache_state["key"], report, meta=cache_state["meta"]
            )
            if self.recorder.enabled:
                self.recorder.count("cache.miss")
                self.recorder.count("cache.bytes", nbytes)
        self.reports[name] = report
        return report

    def _source_digest(self) -> str:
        """Content digest of the source, memoized for the session."""
        from repro.cache import file_digest, trace_digest

        if self._source_digest_memo is None:
            if self._path is not None and self._trace is None:
                try:
                    digest = file_digest(self._path)
                except OSError as exc:
                    raise TraceError(
                        f"cannot read trace file {self._path!r}: "
                        f"{exc.strerror}"
                    ) from exc
                self._source_digest_memo = "file:" + digest
            else:
                self._source_digest_memo = "trace:" + trace_digest(self.trace)
        return self._source_digest_memo

    def _resolve_cache(
        self,
        cache_dir: Optional[str],
        spec: CheckerSpec,
        checker_kwargs: Dict[str, Any],
    ) -> Optional[Dict[str, Any]]:
        """Turn a ``cache_dir=`` request into a ready cache lookup.

        The decision (and any reason for bypassing) lands in
        :attr:`cache_info`, never silently.
        """
        if cache_dir is None:
            return None
        from repro.cache import (
            ResultCache,
            checker_cache_token,
            result_cache_key,
        )

        info: Dict[str, Any] = {
            "requested": True,
            "applied": False,
            "hit": False,
            "key": None,
            "reason": "",
        }
        self.cache_info = info
        token = checker_cache_token(spec, checker_kwargs)
        if token is None:
            info["reason"] = (
                "checker spec is not content-addressable (pass a "
                "registered name, not a class or instance, with "
                "JSON-safe kwargs)"
            )
        elif self.annotations is not None and not self.annotations.trivial:
            info["reason"] = (
                "non-trivial atomicity annotations are not part of "
                "the cache key"
            )
        if info["reason"]:
            if self.recorder.enabled:
                self.recorder.count("cache.bypass")
            return None
        digest = self._source_digest()
        key = result_cache_key(digest, token, self.engine, self.strict)
        info["applied"] = True
        info["key"] = key
        info["reason"] = "content-addressed lookup enabled"
        return {
            "cache": ResultCache(cache_dir),
            "key": key,
            "info": info,
            "meta": {
                "trace": digest,
                "checker": token,
                "engine": self.engine,
                "strict": bool(self.strict),
            },
        }

    def _run(
        self,
        spec: CheckerSpec,
        jobs: int,
        policy: Optional[WorkerPolicy],
        cache_state: Optional[Dict[str, Any]],
    ) -> ViolationReport:
        """Hand the check to the driver, :func:`run_check`.

        A file source goes as its reader, so it is never materialized; a
        program source is recorded first (inside the ``check`` span).
        """
        if self._trace is None and self._path is not None:
            source = self._file_reader()
        else:
            source = self.trace
        return run_check(
            source,
            checker=spec,
            jobs=jobs,
            annotations=self.annotations,
            lca_cache=self.lca_cache,
            parallel_engine=self.engine,
            recorder=self.recorder,
            policy=WorkerPolicy() if policy is None else policy,
            cache=None if cache_state is None else (
                cache_state["cache"], cache_state["key"]
            ),
        )

    def _span_dpst_build(self) -> None:
        """Time the one-off DPST materialization under ``dpst.build``.

        Program sources build their tree inside :func:`run_program`'s
        ``record`` span, so only offline sources get the explicit span; a
        file source opens here, so the span times its header parse and
        DPST rebuild.  Subsequent checks reuse the built tree; the span
        fires once.
        """
        if self._dpst_spanned or self._program is not None:
            return
        self._dpst_spanned = True
        from repro.obs import SPAN_DPST_BUILD

        with self.recorder.span(SPAN_DPST_BUILD):
            self.dpst

    def check_all(self, *checkers: CheckerSpec) -> Dict[str, ViolationReport]:
        """Run several checkers (session defaults apply); return the mapping."""
        for spec in checkers:
            self.check(spec)
        return dict(self.reports)

    # -- aggregate views ---------------------------------------------------

    def report(self) -> ViolationReport:
        """Merged report across every :meth:`check` so far (checks the
        session default on first use)."""
        if not self.reports:
            self.check()
        return ViolationReport.merge(self.reports.values())

    @property
    def first_violation(self):
        """The first violation found so far, or ``None``."""
        for found in self.report():
            return found
        return None

    @property
    def lines_skipped(self) -> int:
        """Undecodable lines skipped so far by a lenient file reader.

        Always ``0`` for strict or non-file sources and for a file not
        opened yet (a cache hit opens none); never silent -- the CLI
        surfaces a non-zero count after every lenient check.
        """
        return self._reader.lines_skipped if self._reader is not None else 0

    @property
    def metrics(self):
        """A :class:`repro.obs.MetricsSnapshot` of everything recorded so
        far, or ``None`` when the session runs with the no-op recorder."""
        if not self.recorder.enabled:
            return None
        return self.recorder.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<CheckSession {self.source_kind} checker="
            f"{checker_name_of(self.checker)!r} jobs={self.jobs} "
            f"checked={sorted(self.reports)}>"
        )

