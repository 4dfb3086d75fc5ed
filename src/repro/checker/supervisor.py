"""Worker supervision for the sharded driver.

The sharded pipeline (:mod:`repro.checker.sharded`) originally ran its
workers through ``multiprocessing.Pool.map``: one crashed worker, one
OOM-killed shard, or one hung process aborted the whole run and threw
away every completed shard.  :func:`run_supervised` runs each shard
attempt in its *own* supervised process with a result pipe instead.
Worker death (any signal, including SIGKILL) surfaces as pipe EOF,
worker exceptions travel back as strings, and a configurable per-shard
timeout kills stragglers.  Failures are handled per the
:class:`WorkerPolicy`: bounded retry with exponential backoff, then
abort or graceful degradation to in-process checking of the failed
shard.  Each shard's outcome is delivered the moment it completes, so
the driver can store it in the result cache (:mod:`repro.cache`) before
a later shard aborts the run; re-running the check then redoes only the
shards with no entry.

Workers fork where the platform has fork and use its default start
method elsewhere; the ``REPRO_START_METHOD`` environment variable
(``spawn``, ``forkserver``, ...) is the one override -- CI runs the
sharded tests under spawn through it.

Fault injection hooks (tests and the CI smoke job) are environment
variables so they reach workers under every start method:

* ``REPRO_FAULT_KILL="SHARD[@ATTEMPT]"`` -- the matching shard attempt
  SIGKILLs itself (default attempt 0, i.e. only the first try dies;
  ``@*`` kills every attempt, for exercising retry exhaustion);
* ``REPRO_FAULT_SLEEP="SHARD[@ATTEMPT]:SECONDS"`` -- the matching shard
  attempt sleeps first, for exercising timeouts.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CheckerError
from repro.report import ViolationReport

#: Legal :attr:`WorkerPolicy.on_failure` values.
FAILURE_POLICIES = ("retry", "inline")

#: Base delay in seconds before a retry; attempt *n* waits
#: ``RETRY_BACKOFF_S * 2**(n-1)``.
RETRY_BACKOFF_S = 0.05

#: The one start-method setting of the workers (see module docstring).
START_METHOD_ENV = "REPRO_START_METHOD"

#: Fault-injection environment hooks (see module docstring).
FAULT_KILL_ENV = "REPRO_FAULT_KILL"
FAULT_SLEEP_ENV = "REPRO_FAULT_SLEEP"


def _parse_target(spec: str) -> Tuple[int, Optional[int]]:
    """Parse ``"SHARD"`` / ``"SHARD@ATTEMPT"`` / ``"SHARD@*"``.

    The attempt defaults to ``0``; ``None`` (from ``@*``) matches every
    attempt.
    """
    shard, _, attempt = spec.partition("@")
    if attempt == "*":
        return int(shard), None
    return int(shard), int(attempt) if attempt else 0


def _matches(target: Tuple[int, Optional[int]], shard: int, attempt: int) -> bool:
    return target[0] == shard and target[1] in (None, attempt)


def maybe_inject_fault(shard: int, attempt: int) -> None:
    """Honor the fault-injection env hooks; a no-op unless they are set.

    Called at the top of every worker body (and of inline fallbacks) so
    tests and the CI fault smoke job can kill or stall one specific
    shard attempt without patching any code.
    """
    kill = os.environ.get(FAULT_KILL_ENV)
    if kill and _matches(_parse_target(kill), shard, attempt):
        os.kill(os.getpid(), signal.SIGKILL)
    sleep = os.environ.get(FAULT_SLEEP_ENV)
    if sleep:
        target_spec, _, seconds = sleep.rpartition(":")
        if _matches(_parse_target(target_spec), shard, attempt):
            time.sleep(float(seconds))


@dataclass(frozen=True)
class WorkerPolicy:
    """How the supervisor reacts to a shard worker failing.

    Attributes
    ----------
    on_failure:
        ``"retry"`` -- retry up to *max_retries* times, then raise
        :class:`CheckerError` (``max_retries=0`` aborts on the first
        failure); ``"inline"`` -- retry up to *max_retries* times, then
        degrade to checking the shard in-process in the driver (the run
        completes, slower).
    max_retries:
        Extra worker attempts after the first failure (so a shard runs
        at most ``max_retries + 1`` times in a worker), each after an
        exponential backoff from :data:`RETRY_BACKOFF_S`.
    timeout_s:
        Per-attempt wall-clock budget; an attempt exceeding it is killed
        and counts as a failure.  ``None`` disables the timeout.
    """

    on_failure: str = "retry"
    max_retries: int = 2
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.on_failure not in FAILURE_POLICIES:
            raise CheckerError(
                f"unknown shard failure policy {self.on_failure!r} "
                f"(expected one of {', '.join(FAILURE_POLICIES)})"
            )
        if self.max_retries < 0:
            raise CheckerError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise CheckerError(
                f"shard timeout must be positive, got {self.timeout_s}"
            )


@dataclass(frozen=True)
class ShardTask:
    """One shard of work: ``fn(payload, attempt)`` -> (report, snapshot)."""

    shard_id: int
    fn: Callable[[Any, int], Tuple[ViolationReport, Optional[dict]]]
    payload: Any


@dataclass
class ShardOutcome:
    """The result of one shard, however it was obtained."""

    shard_id: int
    report: ViolationReport
    snapshot: Optional[dict] = None
    resumed: bool = False


class _Attempt:
    """Mutable supervision state of one shard task."""

    __slots__ = ("task", "attempt", "eligible_at")

    def __init__(self, task: ShardTask) -> None:
        self.task = task
        self.attempt = 0
        self.eligible_at = 0.0


def _shard_entry(fn, payload, attempt, conn) -> None:
    """Worker process body: run the shard, ship the result up the pipe.

    Exceptions travel back as strings (always picklable); a worker that
    dies before sending shows up to the supervisor as pipe EOF.
    """
    try:
        result = fn(payload, attempt)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - report, don't crash silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def worker_context():
    """The multiprocessing context of the workers.

    Fork where the platform has it, else the platform's default; the
    ``REPRO_START_METHOD`` environment variable overrides both.  Every
    worker payload is picklable, so each start method gives identical
    reports; an unpicklable *checker instance* surfaces as a
    :class:`CheckerError` from :func:`run_supervised`.
    """
    methods = multiprocessing.get_all_start_methods()
    fork = "fork" if "fork" in methods else None
    method = os.environ.get(START_METHOD_ENV) or fork
    if method is not None and method not in methods:
        raise CheckerError(
            f"start method {method!r} is not available on this "
            f"platform (have: {', '.join(methods)})"
        )
    return multiprocessing.get_context(method)


def _drain(running: Dict[Any, Tuple[Any, _Attempt, float]]) -> None:
    """Kill and reap every still-running worker (abort path)."""
    for proc, _, _ in running.values():
        try:
            proc.terminate()
        except Exception:
            pass
    for conn, (proc, _, _) in list(running.items()):
        proc.join(timeout=2.0)
        if proc.is_alive():
            try:
                proc.kill()
            except Exception:
                pass
            proc.join(timeout=2.0)
        try:
            conn.close()
        except Exception:
            pass
    running.clear()


def run_supervised(
    tasks: List[ShardTask],
    jobs: int,
    policy: WorkerPolicy,
    recorder,
    on_outcome: Callable[[ShardOutcome], None],
) -> List[ShardOutcome]:
    """Run *tasks* in supervised worker processes; return their outcomes.

    At most *jobs* workers run concurrently, started from
    :func:`worker_context`.  Each attempt gets its own process and result
    pipe, so a worker dying from any signal is detected (EOF) rather
    than hanging the driver.  *policy* governs retry/degrade/abort
    behavior; each failure, retry and inline fallback is counted into
    *recorder* (``sharded.shard_failures``, ``sharded.retries``,
    ``sharded.inline_fallbacks``).  *on_outcome* fires with each
    :class:`ShardOutcome` the moment its shard completes -- crucially
    *before* any later shard can abort the run, so cache entries stored
    from it survive a failed run.

    Raises :class:`CheckerError` when a shard is abandoned (retries
    exhausted under ``"retry"``), with every other worker terminated
    first.
    """
    context = worker_context()
    outcomes: Dict[int, ShardOutcome] = {}
    pending: List[_Attempt] = [_Attempt(task) for task in tasks]
    #: recv-connection -> (process, attempt state, start time)
    running: Dict[Any, Tuple[Any, _Attempt, float]] = {}
    capacity = max(1, jobs)

    def launch(state: _Attempt) -> None:
        recv, send = context.Pipe(duplex=False)
        proc = context.Process(
            target=_shard_entry,
            args=(state.task.fn, state.task.payload, state.attempt, send),
        )
        try:
            proc.start()
        except Exception as exc:
            # Under spawn/forkserver the payload is pickled here; turn a
            # pickle traceback into an actionable CheckerError.
            recv.close()
            send.close()
            raise CheckerError(
                f"cannot ship shard {state.task.shard_id} to a "
                f"{context.get_start_method()!r} worker: {exc}; worker "
                "payloads (checker spec, annotations, events) must be "
                "picklable under this start method"
            ) from exc
        send.close()
        running[recv] = (proc, state, time.monotonic())

    def succeed(state: _Attempt, result) -> None:
        report, snapshot = result
        outcome = ShardOutcome(
            shard_id=state.task.shard_id, report=report, snapshot=snapshot
        )
        outcomes[state.task.shard_id] = outcome
        on_outcome(outcome)

    def fail(state: _Attempt, reason: str) -> None:
        shard_id = state.task.shard_id
        recorder.count("sharded.shard_failures")
        if state.attempt < policy.max_retries:
            state.attempt += 1
            state.eligible_at = time.monotonic() + (
                RETRY_BACKOFF_S * (2 ** (state.attempt - 1))
            )
            recorder.count("sharded.retries")
            pending.append(state)
            return
        if policy.on_failure == "inline":
            # Retries exhausted: degrade to in-process checking so the
            # run still completes.  The fault hooks are suspended for
            # the call -- it runs in the *driver* process, and a kill
            # hook matching this attempt would take down the whole run.
            recorder.count("sharded.inline_fallbacks")
            suspended = {
                name: os.environ.pop(name)
                for name in (FAULT_KILL_ENV, FAULT_SLEEP_ENV)
                if name in os.environ
            }
            try:
                result = state.task.fn(state.task.payload, state.attempt + 1)
            except Exception as exc:
                raise CheckerError(
                    f"shard {shard_id} failed in-process after "
                    f"{state.attempt + 1} worker attempt(s): {exc}"
                ) from exc
            finally:
                os.environ.update(suspended)
            succeed(state, result)
            return
        raise CheckerError(
            f"shard {shard_id} failed after {state.attempt + 1} attempt(s): "
            f"{reason}; use WorkerPolicy(on_failure='inline') "
            "(--on-shard-failure inline) to degrade to in-process "
            "checking instead of aborting"
        )

    try:
        while pending or running:
            now = time.monotonic()
            while len(running) < capacity:
                state = next(
                    (s for s in pending if s.eligible_at <= now), None
                )
                if state is None:
                    break
                pending.remove(state)
                launch(state)
            if not running:
                # Everything pending is backing off; sleep to the
                # earliest eligibility.
                wake = min(s.eligible_at for s in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            wait_timeout = 0.25
            if policy.timeout_s is not None:
                earliest = min(started for _, _, started in running.values())
                wait_timeout = min(
                    wait_timeout,
                    max(0.0, earliest + policy.timeout_s - now),
                )
            if pending:
                wake = min(s.eligible_at for s in pending)
                wait_timeout = min(wait_timeout, max(0.0, wake - now))
            ready = multiprocessing.connection.wait(
                list(running), timeout=wait_timeout
            )
            for conn in ready:
                proc, state, _started = running.pop(conn)
                status: Optional[str] = None
                value: Any = None
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    status = None  # died before (or while) sending
                finally:
                    conn.close()
                proc.join()
                if status == "ok":
                    succeed(state, value)
                elif status == "error":
                    fail(state, value)
                else:
                    fail(state, f"worker died (exit code {proc.exitcode})")
            if policy.timeout_s is not None:
                now = time.monotonic()
                expired = [
                    conn
                    for conn, (_, _, started) in running.items()
                    if now - started > policy.timeout_s
                ]
                for conn in expired:
                    proc, state, _started = running.pop(conn)
                    try:
                        proc.kill()
                    except Exception:
                        pass
                    proc.join(timeout=2.0)
                    conn.close()
                    fail(
                        state,
                        f"timed out after {policy.timeout_s:g}s",
                    )
    except BaseException:
        _drain(running)
        raise
    return [outcomes[task.shard_id] for task in tasks]
