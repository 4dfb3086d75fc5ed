"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``check MODULE:FUNC``
    Import a program and run a checker over it live (the CLI analogue of
    the prototype's instrument-and-run flow).
``suite``
    Run the 36-program violation suite and print a result table.
``workload NAME``
    Run one of the 13 benchmark kernels under a checker and print its
    statistics and report.
``dpst MODULE:FUNC``
    Execute a program and print its dynamic program structure tree.
``record MODULE:FUNC -o FILE``
    Serialize an execution trace: streaming JSONL (v2) or binary
    columnar (v3), picked by extension or ``--format``.
``check-trace FILE --jobs N``
    The offline pipeline: check a recorded trace file through the unified
    :class:`~repro.session.CheckSession` API, optionally sharded by
    location across N worker processes.
``lint MODULE:FUNC`` / ``lint --spec FILE``
    The static atomicity lint pass (:mod:`repro.static`): builds the
    static series-parallel skeleton, runs MHP + lockset analysis, and
    prints candidate unserializable triples and structural ``SAVnnn``
    diagnostics without executing the program.  ``--json`` emits the
    machine-readable report.
``coverage MODULE:FUNC``
    Check the single-trace completeness precondition: the static access
    set against one observed trace.
``compare MODULE:FUNC``
    Run every analysis on one program side by side.
``stats FILE``
    Summarize a ``--metrics`` JSON snapshot (counters, spans, per-shard
    timings) or, given a trace file, its basic shape.
``fuzz``
    Differential fuzzing of every checker/engine/sharding configuration.
``table1`` / ``fig13`` / ``fig14`` / ``ablation``
    The evaluation harnesses (thin wrappers over :mod:`repro.bench`).

Every ``MODULE:FUNC`` names a task body taking ``ctx``, a zero-argument
builder returning a :class:`~repro.runtime.program.TaskProgram`, or a
``TaskProgram``.  ``check``, ``check-trace`` and ``fuzz`` accept
``--metrics OUT.json`` to collect pipeline observability (see
:mod:`repro.obs`) and write the merged snapshot; ``repro stats OUT.json``
renders it.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
from typing import List, Optional, Sequence

from repro.checker import CHECKER_FACTORIES, make_checker
from repro.runtime import (
    RandomOrderExecutor,
    SerialExecutor,
    TaskProgram,
    WorkStealingExecutor,
    run_program,
)


def _load_program(spec: str) -> TaskProgram:
    """Resolve ``package.module:name`` to the :class:`TaskProgram` it names.

    The attribute may be a task body taking ``ctx``, a zero-argument
    builder returning a :class:`TaskProgram` (the workload/example
    convention), or a :class:`TaskProgram` instance.  Anything that
    cannot be resolved is refused with one message (exit status 2).
    """
    module_name, colon, name = spec.partition(":")
    if not colon:
        raise SystemExit(f"expected MODULE:FUNC, got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except (ImportError, ValueError) as exc:
        raise SystemExit(f"cannot import {module_name!r}: {exc}") from exc
    try:
        obj = getattr(module, name)
    except AttributeError as exc:
        raise SystemExit(f"{module_name} has no function {name!r}") from exc
    if isinstance(obj, TaskProgram):
        return obj
    if not callable(obj):
        raise SystemExit(f"{spec} is neither a callable nor a TaskProgram")
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return TaskProgram(obj)
    if any(
        param.default is param.empty
        and param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
        for param in parameters
    ):
        return TaskProgram(obj)  # takes ctx (or more): a task body
    built = obj()
    if isinstance(built, TaskProgram):
        return built
    raise SystemExit(
        f"{spec} takes no ctx parameter but did not build a TaskProgram "
        f"(got {type(built).__name__})"
    )


def _make_executor(name: str, seed: int, workers: int):
    if name == "serial":
        return SerialExecutor()
    if name == "help-first":
        return SerialExecutor(policy="help_first")
    if name == "random":
        return RandomOrderExecutor(seed=seed)
    if name == "worksteal":
        return WorkStealingExecutor(workers=workers)
    raise SystemExit(f"unknown executor {name!r}")


def _add_program_argument(parser: argparse.ArgumentParser, **kwargs) -> None:
    parser.add_argument(
        "program",
        help="import path of a task body, TaskProgram, or zero-argument "
        "builder, e.g. mypkg.mymod:main",
        **kwargs,
    )


def _add_executor_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor", choices=("serial", "help-first", "random", "worksteal"),
        default="serial", help="scheduling strategy (default: serial)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random executor seed")
    parser.add_argument("--workers", type=int, default=4, help="work-stealing pool size")


def _add_checker_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checker", choices=list(CHECKER_FACTORIES), default="optimized",
        help="analysis to run (default: optimized)",
    )


def _add_engine_option(parser: argparse.ArgumentParser) -> None:
    from repro.dpst.engines import available_engines

    choices = available_engines()
    parser.add_argument(
        "--engine", choices=choices, default="lca",
        help="parallelism-query engine: %s (default: lca)" % ", ".join(choices),
    )


def _add_metrics_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="OUT.json", default=None,
        help="collect observability metrics and write the snapshot here",
    )


def _add_live_options(parser: argparse.ArgumentParser) -> None:
    """The options of a live run under a checker (``check``, ``workload``)."""
    _add_checker_option(parser)
    _add_executor_options(parser)
    parser.add_argument(
        "--dpst-layout", choices=("array", "linked"), default="array",
        help="DPST representation (default: array)",
    )
    _add_engine_option(parser)


def _metrics_recorder(args: argparse.Namespace):
    """A collecting recorder when ``--metrics PATH`` was given, else None."""
    if not args.metrics:
        return None
    from repro.obs import MetricsRecorder

    return MetricsRecorder()


def _dump_metrics(recorder, args: argparse.Namespace) -> None:
    if recorder is None:
        return
    recorder.snapshot().dump(args.metrics)
    print(f"metrics written to {args.metrics}")


def _print_cache(session) -> None:
    """Render the outcome of a ``--cache-dir`` request.

    Bypassing is never silent.  Every line carries the stable
    ``result cache:`` prefix so report output can be compared across runs
    with the cache lines filtered out.
    """
    info = session.cache_info
    if info is None:
        return
    if not info["applied"]:
        print(f"result cache: bypassed -- {info['reason']}")
    elif info["hit"]:
        print(f"result cache: hit {info['key'][:12]}")
    else:
        print(f"result cache: miss {info['key'][:12]} (stored)")


def cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    recorder = _metrics_recorder(args)
    checker = make_checker(args.checker)
    result = run_program(
        program,
        executor=_make_executor(args.executor, args.seed, args.workers),
        observers=[checker],
        dpst_layout=args.dpst_layout,
        parallel_engine=args.engine,
        collect_stats=True,
        recorder=recorder,
    )
    print(result.report().describe())
    if args.stats and result.stats is not None:
        stats = result.stats
        print(
            f"\ntasks={stats.tasks} accesses={stats.memory_events} "
            f"dpst_nodes={stats.dpst_nodes} lca_queries={stats.lca_queries}"
        )
    _dump_metrics(recorder, args)
    return 1 if result.report() else 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.bench.reporting import render_table
    from repro.session import CheckSession
    from repro.suite import all_cases

    cache_hits = cache_misses = cache_bypasses = 0
    rows: List[List[str]] = []
    mismatches = 0
    for case in all_cases():
        if args.category and case.category != args.category:
            continue
        # Record, then check offline: the deterministic executor replays
        # each case to the same trace, so with --cache-dir a repeated
        # suite run is a pure hash lookup.  The program's own annotations
        # ride along; non-trivial ones bypass the cache (counted below)
        # rather than mis-keying.
        session = CheckSession(
            case.build(), checker=args.checker, engine=args.engine
        )
        found = set(session.check(cache_dir=args.cache_dir).locations())
        info = session.cache_info or {}
        if info.get("hit"):
            cache_hits += 1
        elif info.get("applied"):
            cache_misses += 1
        else:
            cache_bypasses += 1
        ok = found == set(case.expected)
        mismatches += 0 if ok else 1
        rows.append(
            [
                case.name,
                case.category,
                "violating" if case.violating else "safe",
                str(len(found)),
                "ok" if ok else "MISMATCH",
            ]
        )
    print(
        render_table(
            ["case", "category", "expectation", "reported", "verdict"],
            rows,
            title=f"violation suite under {args.checker!r}",
        )
    )
    print(f"\n{len(rows)} case(s), {mismatches} mismatch(es)")
    if args.cache_dir:
        print(
            f"result cache: {cache_hits} hit(s), {cache_misses} miss(es), "
            f"{cache_bypasses} bypassed"
        )
    return 1 if mismatches else 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads import get

    spec = get(args.name)
    checker = make_checker(args.checker)
    result = run_program(
        spec.build(args.scale),
        executor=_make_executor(args.executor, args.seed, args.workers),
        observers=[checker],
        dpst_layout=args.dpst_layout,
        parallel_engine=args.engine,
        collect_stats=True,
    )
    stats = result.stats
    print(f"workload {spec.name} (scale {args.scale}): {spec.description}")
    print(
        f"elapsed={result.elapsed * 1000:.1f}ms tasks={stats.tasks} "
        f"accesses={stats.memory_events} locations={result.shadow.unique_locations} "
        f"dpst_nodes={stats.dpst_nodes} lca_queries={stats.lca_queries} "
        f"unique={stats.unique_lca_percent:.1f}%"
    )
    print(result.report().describe())
    return 1 if result.report() else 0


def cmd_dpst(args: argparse.Namespace) -> int:
    result = run_program(
        _load_program(args.program), build_dpst=True, record_trace=True
    )
    print(result.dpst.dump())
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    from repro.trace.serialize import dump_trace

    result = run_program(
        _load_program(args.program),
        executor=_make_executor(args.executor, args.seed, args.workers),
        record_trace=True,
    )
    dump_trace(result.trace, args.output, format=args.format)
    print(
        f"recorded {len(result.trace)} events "
        f"({len(result.trace.memory_events())} memory) to {args.output}"
    )
    return 0


def cmd_check_trace(args: argparse.Namespace) -> int:
    from repro.checker.supervisor import WorkerPolicy
    from repro.session import CheckSession

    jobs = None if args.jobs == 0 else args.jobs
    recorder = _metrics_recorder(args)
    if recorder is None and args.lenient:
        # A private recorder so skip counts can be reported even without
        # --metrics (skipping is never silent).
        from repro.obs import MetricsRecorder

        recorder = MetricsRecorder()
    session = CheckSession(
        args.trace, checker=args.checker, jobs=jobs, engine=args.engine,
        recorder=recorder, strict=not args.lenient,
    )
    policy = WorkerPolicy(
        on_failure=args.on_shard_failure,
        max_retries=args.retries,
        timeout_s=args.shard_timeout,
        start_method=args.start_method,
    )
    report = session.check(policy=policy, cache_dir=args.cache_dir)
    print(report.describe())
    skipped = session.lines_skipped
    if not skipped and recorder is not None and recorder.enabled:
        # jobs>1: workers scan the file themselves; the count comes back
        # through the merged metrics rather than the parent's reader.
        skipped = int(
            recorder.snapshot().counters.get("trace.lines_skipped", 0)
        )
    if skipped:
        print(
            f"lenient mode: skipped {skipped} undecodable trace line(s); "
            "the verdict covers the decodable events only"
        )
    _print_cache(session)
    _dump_metrics(recorder if args.metrics else None, args)
    return 1 if report else 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.static import lint_program, lint_spec

    if bool(args.program) == bool(args.spec):
        raise SystemExit("lint needs exactly one of MODULE:FUNC or --spec FILE")
    if args.update_baseline and not args.baseline:
        raise SystemExit("--update-baseline needs --baseline FILE")
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec_tree = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read spec {args.spec}: {exc}") from exc
        report = lint_spec(spec_tree, target=args.spec)
    else:
        report = lint_program(_load_program(args.program), target=args.program)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    if args.sarif:
        from repro.static import report_to_sarif

        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(report_to_sarif(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"SARIF log written to {args.sarif}")
    gated = report.diagnostics
    if args.baseline:
        from repro.static import BaselineError, compare_to_baseline, update_baseline

        if args.update_baseline:
            data = update_baseline([report], args.baseline)
            print(
                f"baseline {args.baseline} updated: "
                f"{len(data['findings'])} known finding(s)"
            )
            return 0
        try:
            new, stale = compare_to_baseline([report], args.baseline)
        except BaselineError as error:
            raise SystemExit(str(error)) from error
        gated = [diagnostic for _, diagnostic in new]
        print(
            f"baseline {args.baseline}: {len(report.diagnostics)} finding(s), "
            f"{len(gated)} new, {len(stale)} stale baseline entr(y/ies)"
        )
        for diagnostic in gated:
            print(f"  NEW {diagnostic.describe()}")
    return _lint_exit_code(gated, args.fail_on)


def _lint_exit_code(diagnostics, fail_on: str) -> int:
    """``--fail-on`` semantics: the gate severity and everything above."""
    if fail_on == "never":
        return 0
    if fail_on == "warning":
        return (
            1
            if any(d.severity in ("error", "warning") for d in diagnostics)
            else 0
        )
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import is_metrics_dict

    # A --metrics snapshot is a small JSON object stamped with the
    # "repro-metrics/1" schema; anything else is treated as a trace.
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        data = None
    if isinstance(data, dict) and is_metrics_dict(data):
        return _print_metrics_stats(data, args.file)
    return _print_trace_stats(args.file)


def _print_metrics_stats(data: dict, path: str) -> int:
    from repro.obs import MetricsSnapshot

    try:
        snapshot = MetricsSnapshot.from_dict(data)
    except ValueError as exc:
        raise SystemExit(f"bad metrics snapshot in {path!r}: {exc}") from exc
    print(f"metrics snapshot ({data.get('schema')})")
    if snapshot.counters:
        print("\ncounters:")
        for name in sorted(snapshot.counters):
            print(f"  {name:<42} {snapshot.counters[name]}")
    if snapshot.gauges:
        print("\ngauges:")
        for name in sorted(snapshot.gauges):
            print(f"  {name:<42} {snapshot.gauges[name]:g}")
    if snapshot.spans:
        print("\nspans:")
        for path in sorted(snapshot.spans):
            span = snapshot.spans[path]
            print(
                f"  {path:<42} n={span.count} total={span.total_s * 1000:.1f}ms"
            )
    if snapshot.shards:
        print(f"\nshards: {len(snapshot.shards)}")
        for shard in snapshot.shards:
            counters = shard.get("counters", {})
            gauges = shard.get("gauges", {})
            print(
                f"  shard {shard.get('shard')}: "
                f"events={counters.get('trace.events.routed', 0)} "
                f"violations={counters.get('report.violations', 0)} "
                f"elapsed={gauges.get('worker.elapsed_s', 0.0):.3f}s"
            )
    return 0


def _print_trace_stats(path: str) -> int:
    from repro.runtime.events import MemoryEvent
    from repro.trace.serialize import open_trace

    reader = open_trace(path)
    events = 0
    memory = 0
    tasks = set()
    locations = set()
    for event in reader.events():
        events += 1
        if isinstance(event, MemoryEvent):
            memory += 1
            tasks.add(event.task)
            locations.add(event.location)
    dpst = reader.dpst
    print(f"trace {path}")
    print(
        f"events={events} memory_events={memory} tasks={len(tasks)} "
        f"locations={len(locations)} "
        f"dpst_nodes={0 if dpst is None else len(dpst)}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run every analysis on one program and print a comparison matrix."""
    from repro.bench.reporting import render_table
    from repro.checker import (
        BasicAtomicityChecker,
        ExploringVelodrome,
        OptAtomicityChecker,
        RaceDetector,
        VelodromeChecker,
    )

    program = _load_program(args.program)
    rows: List[List[str]] = []
    analyses = [
        ("optimized (paper)", OptAtomicityChecker(mode="paper")),
        ("optimized (thorough)", OptAtomicityChecker(mode="thorough")),
        ("basic (reference)", BasicAtomicityChecker()),
        ("velodrome (this trace)", VelodromeChecker()),
        ("velodrome + explorer", ExploringVelodrome()),
        ("race detector", RaceDetector()),
    ]
    any_violation = False
    for label, analysis in analyses:
        result = run_program(program, observers=[analysis])
        if isinstance(analysis, RaceDetector):
            found = sorted(str(l) for l in analysis.race_locations())
            count = len(analysis.races)
        else:
            found = sorted(str(l) for l in result.report().locations())
            count = len(result.report())
        if count and not isinstance(analysis, RaceDetector):
            any_violation = True
        extra = ""
        if isinstance(analysis, ExploringVelodrome):
            extra = f"{analysis.schedules_explored} schedules"
        rows.append([label, str(count), ", ".join(found) or "-", extra])
    print(
        render_table(
            ["analysis", "findings", "locations", "notes"],
            rows,
            title=f"all analyses on {args.program}",
        )
    )
    return 1 if any_violation else 0


def cmd_coverage(args: argparse.Namespace) -> int:
    from repro.static import analyze_function, check_trace_coverage

    program = _load_program(args.program)
    result = run_program(
        program,
        executor=_make_executor(args.executor, args.seed, args.workers),
        record_trace=True,
    )
    static = analyze_function(program.body)
    report = check_trace_coverage(static, result.trace)
    print(static.describe())
    print()
    print(report.describe())
    return 0 if report.complete else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench import table1

    table1.main([str(args.scale)] if args.scale else [])
    return 0


def cmd_fig13(args: argparse.Namespace) -> int:
    from repro.bench import fig13

    fig13.main([str(args.scale or 2), str(args.repeats)])
    return 0


def cmd_fig14(args: argparse.Namespace) -> int:
    from repro.bench import fig14

    fig14.main([str(args.scale or 2), str(args.repeats)])
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: generate programs, cross-check every config.

    Exit status 1 on any oracle disagreement (the fuzz-smoke CI job keys
    off it); with ``--shrink`` every disagreement is also minimized and
    written next to ``--report-dir`` as a ready-to-paste pytest module.
    """
    import json
    import os

    from repro.fuzz import FuzzConfig, run_campaign

    config = FuzzConfig(
        tasks=args.tasks,
        depth=args.depth,
        locations=args.locations,
        locks=args.locks,
        lock_density=args.lock_density,
        seed=args.seed,
    )
    recorder = _metrics_recorder(args)
    progress = None
    if args.verbose:
        def progress(index: int, outcome) -> None:
            status = "ok" if outcome.ok else "DISAGREEMENT"
            print(
                f"  run {index + 1}/{args.runs} seed={outcome.seed} "
                f"events={outcome.events} {status}"
            )

    summary = run_campaign(
        config=config,
        runs=args.runs,
        base_seed=args.seed,
        jobs=args.jobs,
        shrink=args.shrink,
        recorder=recorder,
        progress=progress,
        engine=args.engine,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary.to_dict(), handle, indent=2, sort_keys=True)
        print(f"campaign summary written to {args.json}")
    print(summary.describe())
    if summary.reproducers:
        os.makedirs(args.report_dir, exist_ok=True)
        for seed, (result, source) in summary.reproducers.items():
            path = os.path.join(
                args.report_dir, f"reproducer_seed_{seed}.py"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            print(f"reproducer written to {path} ({result.describe()})")
    _dump_metrics(recorder, args)
    return 0 if summary.ok else 1


def cmd_ablation(args: argparse.Namespace) -> int:
    from repro.bench import ablation

    ablation.main([args.which] + ([str(args.scale)] if args.scale else []))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Atomicity violation checking for task parallel programs "
        "(CGO'16 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="check a program MODULE:FUNC live")
    _add_program_argument(check)
    check.add_argument("--stats", action="store_true", help="print run statistics")
    _add_metrics_option(check)
    _add_live_options(check)
    check.set_defaults(handler=cmd_check)

    suite = commands.add_parser("suite", help="run the 36-program violation suite")
    suite.add_argument("--category", help="restrict to one category")
    _add_checker_option(suite)
    suite.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed result cache: record each case's trace "
        "and serve repeat checks as hash lookups",
    )
    _add_engine_option(suite)
    suite.set_defaults(handler=cmd_suite)

    workload = commands.add_parser("workload", help="run a benchmark kernel")
    workload.add_argument("name", help="workload name (see repro.workloads)")
    workload.add_argument("--scale", type=int, default=1)
    _add_live_options(workload)
    workload.set_defaults(handler=cmd_workload)

    dpst = commands.add_parser("dpst", help="print a program's DPST")
    _add_program_argument(dpst)
    dpst.set_defaults(handler=cmd_dpst)

    record = commands.add_parser("record", help="record a trace to a file")
    _add_program_argument(record)
    record.add_argument("-o", "--output", required=True)
    record.add_argument(
        "--format", choices=("auto", "jsonl", "columnar"),
        default="auto",
        help="serialization format; auto picks binary columnar (v3) for "
        ".trc/.v3 paths and JSONL (v2) for every other path",
    )
    _add_executor_options(record)
    record.set_defaults(handler=cmd_record)

    check_trace = commands.add_parser(
        "check-trace",
        help="check a recorded trace file, optionally sharded over N processes",
    )
    check_trace.add_argument(
        "trace", help="trace file: JSONL (v2) or columnar (v3, .trc)"
    )
    _add_checker_option(check_trace)
    check_trace.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for location-sharded checking "
        "(default: 1 = in-process; 0 = one per CPU)",
    )
    _add_metrics_option(check_trace)
    check_trace.add_argument(
        "--on-shard-failure", choices=("retry", "inline", "raise"),
        default="retry",
        help="crashed/hung worker handling: bounded retry (default), "
        "degrade to in-process checking, or abort",
    )
    check_trace.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra worker attempts per shard before giving up (default: 2)",
    )
    check_trace.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="kill a shard attempt exceeding this wall-clock budget "
        "(default: no timeout)",
    )
    check_trace.add_argument(
        "--lenient", action="store_true",
        help="skip (and count) undecodable trace lines instead of "
        "aborting; the skip count is always printed",
    )
    check_trace.add_argument(
        "--start-method", choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for workers (default: fork "
        "where available)",
    )
    check_trace.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed result cache: serve this check as a hash "
        "lookup when the same trace/checker/engine was seen before "
        "(bypasses are printed, never silent); at --jobs N>1 each shard "
        "is stored as it completes, so re-running an interrupted check "
        "redoes only the missing shards",
    )
    _add_engine_option(check_trace)
    check_trace.set_defaults(handler=cmd_check_trace)

    lint = commands.add_parser(
        "lint",
        help="static atomicity lint: MHP + lockset analysis, candidate "
        "unserializable triples, SAVnnn diagnostics",
    )
    _add_program_argument(lint, nargs="?", default=None)
    lint.add_argument(
        "--spec", metavar="FILE", default=None,
        help="lint a JSON generator spec tree instead of a MODULE:FUNC",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the JSON report"
    )
    lint.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="write a SARIF 2.1.0 log (SAV rule metadata included) to FILE",
    )
    lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="compare findings against a known-findings baseline; only "
        "diagnostics absent from it count toward --fail-on",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline FILE from the current findings (exit 0)",
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning", "never"), default="error",
        help="exit 1 on diagnostics at or above this severity "
        "(default: error)",
    )
    lint.set_defaults(handler=cmd_lint)

    stats = commands.add_parser(
        "stats",
        help="summarize a --metrics snapshot or a trace file",
    )
    stats.add_argument("file", help="metrics JSON or trace file")
    stats.set_defaults(handler=cmd_stats)

    compare = commands.add_parser(
        "compare", help="run every analysis on one program side by side"
    )
    _add_program_argument(compare)
    compare.set_defaults(handler=cmd_compare)

    coverage = commands.add_parser(
        "coverage",
        help="validate the single-trace completeness precondition "
        "(static access set vs observed trace)",
    )
    _add_program_argument(coverage)
    _add_executor_options(coverage)
    coverage.set_defaults(handler=cmd_coverage)

    table1 = commands.add_parser("table1", help="Table 1 harness")
    table1.add_argument("--scale", type=int, default=None)
    table1.set_defaults(handler=cmd_table1)

    fig13 = commands.add_parser("fig13", help="Figure 13 harness")
    fig13.add_argument("--scale", type=int, default=None)
    fig13.add_argument("--repeats", type=int, default=3)
    fig13.set_defaults(handler=cmd_fig13)

    fig14 = commands.add_parser("fig14", help="Figure 14 harness")
    fig14.add_argument("--scale", type=int, default=None)
    fig14.add_argument("--repeats", type=int, default=3)
    fig14.set_defaults(handler=cmd_fig14)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing: random programs through every "
        "checker/engine/sharding configuration",
    )
    fuzz.add_argument(
        "--seed", type=int, default=1,
        help="campaign base seed; per-run seeds derive from it (default: 1)",
    )
    fuzz.add_argument(
        "--runs", type=int, default=100,
        help="number of generated programs (default: 100)",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=4,
        help="workers for the sharded oracle leg; <=1 skips it (default: 4)",
    )
    fuzz.add_argument(
        "--shrink", action="store_true",
        help="delta-debug every disagreement into a minimal pytest reproducer",
    )
    fuzz.add_argument(
        "--json", metavar="OUT.json", default=None,
        help="write the machine-readable campaign summary here",
    )
    fuzz.add_argument(
        "--report-dir", metavar="DIR", default="fuzz-reports",
        help="directory for shrunk reproducer modules (default: fuzz-reports)",
    )
    _add_metrics_option(fuzz)
    fuzz.add_argument("--verbose", action="store_true", help="print per-run progress")
    _add_engine_option(fuzz)
    fuzz.add_argument(
        "--tasks", type=int, default=6,
        help="generator: spawn budget per program (default: 6)",
    )
    fuzz.add_argument(
        "--depth", type=int, default=3,
        help="generator: maximum nesting depth (default: 3)",
    )
    fuzz.add_argument(
        "--locations", type=int, default=3,
        help="generator: shared locations per program (default: 3)",
    )
    fuzz.add_argument(
        "--locks", type=int, default=2,
        help="generator: lock pool size (default: 2)",
    )
    fuzz.add_argument(
        "--lock-density", type=float, default=0.4,
        help="generator: probability an access is lock-protected (default: 0.4)",
    )
    fuzz.set_defaults(handler=cmd_fuzz)

    ablation = commands.add_parser("ablation", help="DESIGN.md ablations")
    ablation.add_argument("which", choices=("lca_cache", "metadata"))
    ablation.add_argument("--scale", type=int, default=None)
    ablation.set_defaults(handler=cmd_ablation)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)
