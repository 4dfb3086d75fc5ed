"""The unified checking front door: :class:`CheckSession`.

One entry point for every way of checking something:

* a live :class:`~repro.runtime.program.TaskProgram` (or a bare body
  function) -- executed once with trace recording, then checked;
* an in-memory recorded :class:`~repro.trace.trace.Trace`;
* a trace *file path* (either serialization format; the streaming JSONL
  format is checked without ever materializing the events).

and every way of running a checker over it: any :func:`make_checker`
spec (name, class, or instance), in-process (``jobs=1``) or across
worker processes (``jobs>1``).  Either way the session hands the check to
one offline path, :func:`repro.checker.sharded.check_sharded`; it keeps
only what it alone knows -- source resolution, annotations, the result
cache, and :attr:`CheckSession.reports`.

::

    from repro import CheckSession

    report = CheckSession("run.jsonl", jobs=4).check()
    report = CheckSession(program, checker="basic").check()

    session = CheckSession(trace)
    session.check("optimized")
    session.check("racedetector")
    session.reports          # {"optimized": ..., "racedetector": ...}
    session.first_violation  # first finding across every check so far

:func:`check_trace` is the one-call convenience wrapper.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Union

from repro.checker import checker_name_of, make_checker
from repro.checker.annotations import AtomicAnnotations
from repro.checker.sharded import CheckerSpec, check_sharded
from repro.checker.streaming import StreamingChecker, resolve_window
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
        is checked offline as-is.
    checker:
        Default checker spec for :meth:`check` -- a registered name, a
        checker class, or a pre-built instance.
    jobs:
        Default worker count for :meth:`check`.  ``1`` (default) checks
        in-process; ``N > 1`` runs the location-sharded pipeline;
        ``None`` uses one worker per CPU.
    engine:
        Parallelism-query engine: any registered name in
        :func:`repro.dpst.engines.available_engines` (built-ins:
        ``"lca"``, ``"labels"``, ``"vc"``, ``"depa"``).  Unknown names
        raise :class:`repro.dpst.engines.UnknownEngineError` at check
        time, naming the valid engines.
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
        ``False`` opens file sources in lenient mode: undecodable or
        truncated JSONL lines are counted (:attr:`lines_skipped`, and
        the ``trace.lines_skipped`` metric when observed) and skipped
        instead of aborting the check mid-stream.  Ignored for
        non-file sources.
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
        elif isinstance(source, (str, os.PathLike)):
            self._reader = open_trace(source, strict=strict)
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
        if self._reader is not None:
            return "file"
        return "trace"

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
                self._trace = self._reader.read()
        return self._trace

    @property
    def dpst(self):
        """The DPST of the execution under check."""
        if self._trace is not None:
            return self._trace.dpst
        if self._reader is not None:
            return self._reader.dpst
        return self.trace.dpst

    # -- checking ----------------------------------------------------------

    def check(
        self,
        checker: Optional[CheckerSpec] = None,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        on_shard_failure: str = "retry",
        max_retries: int = 2,
        shard_timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        cache_dir: Optional[str] = None,
        streaming: bool = False,
        window: Optional[int] = None,
        **checker_kwargs: Any,
    ) -> ViolationReport:
        """Run one checker over the source; return (and remember) its report.

        *checker* / *jobs* / *engine* default to the session's settings;
        ``checker_kwargs`` are forwarded to checker construction (names
        and classes only).  Repeated calls reuse the recorded trace, so a
        program source executes exactly once per session.  The per-call
        *engine* override lets one session compare any registered
        parallelism engines over the same recorded trace (the
        differential fuzzing oracle runs every
        :func:`~repro.dpst.engines.available_engines` name this way);
        it applies to offline replays -- a program source's recording
        engine stays the session's.

        ``checkpoint_dir`` / ``resume`` persist (and reuse) per-shard
        results; ``on_shard_failure`` / ``max_retries`` /
        ``shard_timeout`` / ``start_method`` configure the worker
        supervision of the sharded pipeline -- all forwarded to
        :func:`repro.checker.sharded.check_sharded` (a ``jobs=1``
        check honors checkpoints too, treating the run as one shard).

        ``cache_dir`` enables the content-addressed result cache
        (:mod:`repro.cache`): the check becomes a hash lookup when the
        same trace was already checked under the same checker/engine
        configuration, and both hits and fresh results are served in
        canonical (jobs-insensitive) violation order.  The cache is
        bypassed -- with the reason recorded in :attr:`cache_info`,
        never silently -- for class/instance checker specs and non-trivial
        annotations, since those carry state the key cannot see.

        ``streaming=True`` checks incrementally through
        :class:`repro.checker.streaming.StreamingChecker`: events are
        consumed one at a time (file sources are never materialized, and
        at ``jobs=1`` the full event stream -- including task ends -- is
        replayed so finished tasks free their metadata) with a compaction
        sweep every *window* events.  ``window`` defaults to
        :data:`repro.checker.streaming.DEFAULT_WINDOW`; ``0`` disables
        periodic compaction (the ∞ window).  The report is byte-identical
        to the offline check at every window; only peak memory differs.
        A streaming check is filed under ``"streaming"`` in
        :attr:`reports`.
        Requires a compactable checker -- ``velodrome``, ``basic`` and
        ``regiontrack`` are refused with a
        :class:`~repro.errors.CheckerError`.
        """
        spec = self.checker if checker is None else checker
        jobs = self.jobs if jobs is None else jobs
        engine = self.engine if engine is None else engine
        resolve_window(window, streaming)  # refuse a stray window= early
        cache_state = self._resolve_cache(
            cache_dir, spec, checker_kwargs, engine, streaming
        )
        if checker_kwargs:
            spec = make_checker(spec, **checker_kwargs)
        name = StreamingChecker.checker_name if streaming else checker_name_of(spec)
        if cache_state is not None:
            entry = cache_state["cache"].load(cache_state["key"])
            if entry is not None:
                cache_state["info"]["hit"] = True
                if self.recorder.enabled:
                    self.recorder.count("cache.hit")
                    self.recorder.count("cache.bytes", entry.nbytes)
                self.reports[name] = entry.report
                return entry.report
        options = dict(
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            on_shard_failure=on_shard_failure,
            max_retries=max_retries,
            shard_timeout=shard_timeout,
            start_method=start_method,
            streaming=streaming,
            window=window,
        )

        if self.recorder.enabled:
            from repro.obs import SPAN_CHECK

            self._span_dpst_build()
            with self.recorder.span(SPAN_CHECK):
                report = self._dispatch(spec, jobs, engine, options)
        else:
            report = self._dispatch(spec, jobs, engine, options)
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
            if self._reader is not None and self._trace is None:
                self._source_digest_memo = "file:" + file_digest(
                    self._reader.path
                )
            else:
                self._source_digest_memo = "trace:" + trace_digest(self.trace)
        return self._source_digest_memo

    def _resolve_cache(
        self,
        cache_dir: Optional[str],
        spec: CheckerSpec,
        checker_kwargs: Dict[str, Any],
        engine: str,
        streaming: bool = False,
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
        if streaming:
            info["reason"] = (
                "streaming checks consume the trace incrementally; "
                "serving (or storing) a cached offline result would "
                "defeat the bounded-memory contract"
            )
        elif token is None:
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
        key = result_cache_key(digest, token, engine, self.strict)
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
                "engine": engine,
                "strict": bool(self.strict),
            },
        }

    def _dispatch(
        self,
        spec: CheckerSpec,
        jobs: Optional[int],
        engine: str,
        options: Dict[str, Any],
    ) -> ViolationReport:
        """Hand the check to the one offline path, :func:`check_sharded`.

        A file source goes as its reader, so it is never materialized; a
        program source is recorded first (inside the ``check`` span).
        """
        file_source = self._trace is None and self._reader is not None
        return check_sharded(
            self._reader if file_source else self.trace,
            checker=spec,
            jobs=jobs,
            annotations=self.annotations,
            lca_cache=self.lca_cache,
            parallel_engine=engine,
            recorder=self.recorder,
            **options,
        )

    def _span_dpst_build(self) -> None:
        """Time the one-off DPST materialization under ``dpst.build``.

        Program sources build their tree inside :func:`run_program`'s
        ``record`` span, so only offline sources get the explicit span.
        Subsequent checks reuse the built tree; the span fires once.
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

        Always ``0`` for strict or non-file sources; never silent --
        the CLI surfaces a non-zero count after every lenient check.
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


def check_trace(
    source: Source,
    checker: CheckerSpec = "optimized",
    jobs: Optional[int] = 1,
    **session_options: Any,
) -> ViolationReport:
    """One-call convenience: check any source through a fresh session."""
    return CheckSession(
        source, checker=checker, jobs=jobs, **session_options
    ).check()
