"""Command-line interface: ``rff``.

Subcommands map one-to-one onto the paper's workflows::

    rff list                          # the 49 benchmark programs
    rff fuzz CS/reorder_100           # fuzz one program with RFF
    rff run CS/account --tool POS     # run one baseline tool
    rff campaign --trials 5           # Appendix B table + Figure 4
    rff figure5 --executions 2000     # RQ3 rf-distribution histograms
"""

from __future__ import annotations

import argparse
import sys

from repro import bench
from repro.core.fuzzer import RffConfig, fuzz
from repro.core.reproduce import RunEnv
from repro.harness.campaign import CampaignConfig
from repro.harness.tools import paper_tools, tool_factory


def _add_substrate_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--substrate", choices=("dsl", "py"), default="dsl",
                        help="program substrate: 'dsl' (modeled benchmarks, gen: "
                             "scenarios) or 'py' (real-Python threading targets; "
                             "bare names map to the py: namespace)")


def _resolve_program(name: str, substrate: str = "dsl"):
    """Resolve a program name under the chosen substrate.

    Under ``--substrate=py`` bare names map into the ``py:`` namespace
    (``counter_race`` -> ``py:counter_race``).  Lookup failures become a
    clean ``SystemExit`` so diagnostics land on stderr, not a traceback.
    """
    if substrate == "py" and not name.startswith("py:"):
        name = f"py:{name}"
    try:
        return bench.get(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None


def _check_memory_model(prog, memory_model: str) -> None:
    """Real-Python programs execute on real memory: SC only."""
    if prog.suite == "py" and memory_model != "sc":
        raise SystemExit(
            f"{prog.name} runs real Python code on real memory; "
            f"--memory-model {memory_model} is only meaningful for DSL programs"
        )


def _parse_sanitizers(spec: str | None) -> tuple[str, ...]:
    if not spec:
        return ()
    from repro.analysis.online import parse_sanitizers

    try:
        return parse_sanitizers(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _add_guard_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--watchdog-steps", type=int, metavar="N",
                        help="deterministic step-budget watchdog: kill an execution "
                             "after N events and report it as a 'timeout' bug")
    parser.add_argument("--watchdog-seconds", type=float, metavar="S",
                        help="best-effort wall-clock watchdog per execution")
    parser.add_argument("--livelock-window", type=int, metavar="N",
                        help="report a 'livelock' bug after N consecutive steps "
                             "without any novel event")


def _parse_guard(args: argparse.Namespace):
    if (
        args.watchdog_steps is None
        and args.watchdog_seconds is None
        and args.livelock_window is None
    ):
        return None
    from repro.runtime.guard import GuardConfig

    return GuardConfig(
        step_budget=args.watchdog_steps,
        wall_seconds=args.watchdog_seconds,
        livelock_window=args.livelock_window,
    )


def _run_env(args: argparse.Namespace) -> RunEnv:
    """The runtime a command's flags ask for (``rff run`` is SC only)."""
    return RunEnv(
        memory_model=getattr(args, "memory_model", "sc"),
        sanitizers=_parse_sanitizers(args.sanitize),
        guard=_parse_guard(args),
    )


def _cmd_list(args: argparse.Namespace) -> int:
    listed = bench.py_names() if args.substrate == "py" else bench.names()
    for name in listed:
        prog = bench.get(name)
        kinds = ",".join(sorted(prog.bug_kinds)) or "none"
        mc = "mc" if prog.mc_supported else "  "
        print(f"{name:55s} [{mc}] bugs: {kinds}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    prog = _resolve_program(args.program, args.substrate)
    _check_memory_model(prog, args.memory_model)
    config = RffConfig(
        use_feedback=not args.no_feedback,
        use_power_schedule=not args.no_power,
        use_constraints=not args.no_constraints,
    )
    env = _run_env(args)
    report = fuzz(
        prog,
        max_executions=args.budget,
        seed=args.seed,
        config=config,
        stop_on_first_crash=not args.keep_going,
        env=env,
    )
    print(f"program:            {report.program_name}")
    print(f"memory model:       {env.memory_model}")
    print(f"schedules executed: {report.executions}")
    print(f"crashes:            {len(report.crashes)}")
    print(f"first crash at:     {report.first_crash_at}")
    print(f"corpus size:        {report.corpus_size}")
    print(f"rf-pair coverage:   {report.pair_coverage}")
    print(f"unique rf classes:  {report.unique_signatures}")
    if env.sanitizers:
        print(f"sanitizer reports:  {len(report.sanitizer_records)}")
    for crash in report.crashes[:5]:
        print(f"  crash #{crash.execution_index}: {crash.outcome} — {crash.failure}")
        print(f"    schedule: {crash.abstract_schedule}")
    for record in report.sanitizer_records[:5]:
        print(f"  sanitizer #{record.execution_index}: {record.report}")
    if args.minimize and report.crashes:
        from repro.core.minimize import minimize_schedule

        outcome = minimize_schedule(prog, report.crashes[0].abstract_schedule, env=env)
        print(f"minimized schedule ({outcome.removed} constraints removed, "
              f"reproduces {outcome.reproduction_rate:.0%}):")
        print(f"    {outcome.minimized}")
    if args.save_crashes and report.crashes:
        from repro.harness.persist import save_crashes

        written = save_crashes(report, args.save_crashes)
        print(f"saved {len(written)} crash file(s) under {args.save_crashes}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Dynamic analyses over sampled schedules: races, locksets, deadlocks."""
    from repro.analysis import check_lock_discipline, find_races, predict_deadlocks
    from repro.schedulers.pos import PosPolicy

    prog = _resolve_program(args.program, args.substrate)
    run = RunEnv().runner(prog)
    races: set[tuple[str, str, str]] = set()
    discipline: set[str] = set()
    deadlock_cycles: set[tuple[str, ...]] = set()
    crashes = 0
    for seed in range(args.executions):
        result = run(PosPolicy(args.seed + seed))
        crashes += result.crashed
        races |= find_races(result.trace).distinct()
        discipline |= check_lock_discipline(result.trace).flagged_locations
        for prediction in predict_deadlocks(result.trace).predictions:
            deadlock_cycles.add(prediction.cycle)
    print(f"analyzed {args.executions} schedules of {prog.name} ({crashes} crashed)")
    print(f"happens-before races ({len(races)} distinct):")
    for location, first, second in sorted(races)[:20]:
        print(f"  {location}: {first} || {second}")
    print(f"lock-discipline violations: {sorted(discipline) or 'none'}")
    print(f"predicted deadlock cycles: {[' -> '.join(c) for c in sorted(deadlock_cycles)] or 'none'}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    prog = _resolve_program(args.program, args.substrate)
    try:
        tool = tool_factory(args.tool)()
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    result = tool.find_bug(
        prog, args.budget, args.seed, env=_run_env(args), verify_replays=args.verify_replays
    )
    if result.error:
        # Diagnostics go to stderr: stdout stays parseable for pipelines.
        print(f"{tool.name} on {prog.name}: Error ({result.error})", file=sys.stderr)
        return 2
    status = f"bug ({result.outcome}) at schedule {result.schedules_to_bug}" if result.found else "no bug"
    print(f"{tool.name} on {prog.name}: {status} after {result.executions} schedules")
    if result.bucket is not None:
        verdict = result.replay_verdict or "unverified"
        print(f"  triage bucket: {result.bucket} ({verdict})")
    for report in result.sanitizer_reports:
        print(f"  {report}")
    return 0


def _validate_campaign_persistence(args: argparse.Namespace) -> str | None:
    """Catch misconfigured --resume/--store combinations early, with
    diagnostics instead of tracebacks deep inside the engine.  The store
    itself refuses a resume under a different campaign header."""
    import pathlib

    if args.resume and not args.store:
        return "--resume requires --store DIR to resume from"
    if not args.store:
        return None
    from repro.harness.store import MANIFEST_NAME

    manifest = pathlib.Path(args.store) / MANIFEST_NAME
    if args.resume:
        if not pathlib.Path(args.store).exists():
            return (
                f"cannot --resume from {args.store}: store does not exist "
                "(drop --resume to start a fresh campaign)"
            )
        if not manifest.exists():
            return (
                f"cannot --resume from {args.store}: store is empty "
                "(drop --resume to start a fresh campaign)"
            )
    elif manifest.exists():
        return (
            f"store {args.store} already holds a campaign; pass --resume to "
            "continue it or point --store at a fresh directory"
        )
    return None


#: ``rff campaign`` flags that act on worker processes only.
_WORKER_FLAGS = ("--timeout", "--profile")


def _validate_campaign_run(
    args: argparse.Namespace, tool_names: list[str], program_names: list[str]
) -> str | None:
    """Reject bad names, worker-only flags without workers and a lease no
    heartbeat can renew, before anything runs: in-process, ``--timeout`` is
    never enforced and ``--profile`` dumps nothing."""
    try:
        for name in tool_names:
            tool_factory(name)
        for name in program_names:
            bench.get(name)
    except KeyError as exc:
        return exc.args[0]
    given = [
        flag for flag in _WORKER_FLAGS if getattr(args, flag[2:].replace("-", "_")) is not None
    ]
    if given and not args.parallel:
        return f"worker-process flags need --parallel N with N >= 1: {', '.join(given)}"
    if args.heartbeat_seconds >= args.lease_seconds:
        return (
            f"--heartbeat-seconds {args.heartbeat_seconds:g} must be below "
            f"--lease-seconds {args.lease_seconds:g}, or every worker loses its lease"
        )
    return None


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.harness.parallel import ParallelCampaign
    from repro.harness.reporting import appendix_b_table, figure4_ascii, throughput_summary
    from repro.harness.store import StoreError
    from repro.harness.telemetry import (
        JsonlSink,
        MultiSink,
        ProgressSink,
        SinkLockedError,
        TelemetryAggregator,
    )

    if args.programs:
        program_names = [
            name if args.substrate != "py" or name.startswith("py:") else f"py:{name}"
            for name in args.programs
        ]
    else:
        program_names = bench.py_names() if args.substrate == "py" else bench.names()
    tool_names = list(args.tools) if args.tools else [t.name for t in paper_tools()]
    sanitizers = _parse_sanitizers(args.sanitize)
    allocator = None
    if args.allocator:
        from repro.harness.allocator import make_allocator

        allocator = make_allocator(
            args.allocator,
            rounds=args.alloc_rounds,
            min_cell_budget=args.min_cell_budget,
        )
    config = CampaignConfig(
        trials=args.trials,
        budget=args.budget,
        base_seed=args.seed,
        sanitizers=sanitizers,
        verify_replays=args.verify_replays,
        guard=_parse_guard(args),
        allocator=allocator,
    )
    problem = _validate_campaign_run(args, tool_names, program_names)
    problem = problem or _validate_campaign_persistence(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    aggregator = TelemetryAggregator()
    sinks = [aggregator]
    if args.verbose:
        sinks.append(
            ProgressSink(
                lambda tool, program, trial: print(
                    f"... {tool} / {program} / trial {trial}", file=sys.stderr
                )
            )
        )
    if args.telemetry:
        try:
            sinks.append(JsonlSink(args.telemetry))
        except SinkLockedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    sink = MultiSink(sinks)
    campaign = ParallelCampaign(
        config,
        processes=args.parallel or 0,
        cell_timeout=args.timeout,
        max_retries=args.retries,
        telemetry=sink,
        store=args.store,
        heartbeat_seconds=args.heartbeat_seconds,
        lease_seconds=args.lease_seconds,
        profile_dir=args.profile,
    )
    try:
        result = campaign.run(tool_names, program_names)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sink.close()
    print(appendix_b_table(result))
    print()
    print(figure4_ascii(result))
    print()
    print(throughput_summary(aggregator))
    if result.allocation is not None:
        from repro.harness.reporting import allocation_summary

        print()
        print(allocation_summary(result))
    if sanitizers:
        from repro.harness.reporting import sanitizer_summary

        print()
        print(sanitizer_summary(result))
    if args.verify_replays:
        from repro.harness.reporting import reproduction_summary

        print()
        print(reproduction_summary(result))
    if args.profile:
        from repro.harness.reporting import profile_summary

        print()
        print(profile_summary(args.profile))
    return 0


def _cmd_dpor(args: argparse.Namespace) -> int:
    """Exhaustive-ish race-reversal exploration (rf-DPOR)."""
    from repro.algos.rfdpor import RfDporExplorer

    prog = _resolve_program(args.program)
    report = RfDporExplorer(
        prog,
        max_executions=args.budget,
        stop_on_first_bug=not args.exhaustive,
    ).run()
    print(f"program:            {prog.name}")
    print(f"executions:         {report.executions}")
    print(f"rf classes:         {report.rf_classes}")
    print(f"reversal seeds:     {report.seeds_generated}")
    print(f"first bug at class: {report.first_bug_at} ({report.bug_outcome})")
    print(f"space exhausted:    {report.complete}")
    return 0


def _cmd_triage(args: argparse.Namespace) -> int:
    """Fuzz keep-going, then bucket + replay-verify every finding."""
    from repro.core.fuzzer import RffFuzzer
    from repro.harness.triage import triage_report, write_artifacts

    prog = _resolve_program(args.program, args.substrate)
    _check_memory_model(prog, args.memory_model)
    fuzzer = RffFuzzer(prog, seed=args.seed, env=_run_env(args))
    report = fuzzer.run(args.budget, stop_on_first_crash=False)
    result = triage_report(prog, report, replays=args.replays, minimize=args.minimize)
    print(f"schedules executed: {report.executions}")
    print(result.summary())
    if args.artifacts:
        written = write_artifacts(result, args.artifacts)
        print(f"wrote {len(written)} STABLE repro artifact(s) under {args.artifacts}")
        for path in written:
            print(f"  {path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay a bug file (a repro artifact or a saved crash); optionally verify."""
    from repro.harness.persist import ChecksumError, load_json
    from repro.harness.triage import load_artifact, verify_artifact
    from repro.schedulers import ReplayPolicy

    raw = load_json(args.file)
    recorded = raw.get("program") if isinstance(raw, dict) else None
    if args.substrate is not None and isinstance(recorded, str):
        is_py = recorded.startswith("py:")
        if is_py != (args.substrate == "py"):
            print(
                f"error: {args.file} records {recorded!r} "
                f"({'py' if is_py else 'dsl'} substrate), but --substrate "
                f"{args.substrate} was requested",
                file=sys.stderr,
            )
            return 2
    try:
        payload = load_artifact(args.file)
    except (ChecksumError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prog = _resolve_program(payload["program"])
    print(f"program:  {payload['program']}")
    print(f"bucket:   {payload['bucket']}")
    print(f"expected: {payload['outcome']} — {payload['failure']}")
    run = RunEnv.from_artifact(payload).runner(prog)
    result = run(ReplayPolicy(list(payload["concrete_schedule"])))
    print(f"replayed: {result.outcome} — {result.trace.failure} ({result.steps} steps)")
    if args.trace:
        print()
        print(result.trace.format(limit=args.trace))
    verdict = verify_artifact(payload, replays=args.replays if args.verify else 1, program=prog)
    if not args.verify:
        return 0 if verdict.stable else 1
    for index, replay in enumerate(verdict.runs, start=1):
        diverged = f", diverged at step {replay.diverged}" if replay.diverged is not None else ""
        print(f"replay {index}: {replay.outcome} ({replay.steps} steps{diverged})")
    print(f"verdict:  {verdict.verdict} ({verdict.matches}/{verdict.replays} matched)")
    return 0 if verdict.stable else 1


def _count(text: str) -> int:
    """``--parallel N`` and ``--retries N``: a negative worker count would
    never start a worker nor run in-process, so the dispatch loop would
    wait forever."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def _seconds(text: str) -> float:
    """``--timeout``/``--lease-seconds``/``--heartbeat-seconds``: 0 would
    kill every busy worker at once or stop heartbeats (and with them the
    orphaned-worker exit)."""
    seconds = float(text)
    if not 0 < seconds < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return seconds


def _parse_gen_config(token: str | None):
    from repro.gen.synth import GenConfig

    try:
        return GenConfig.from_token(token or "")
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_gen(args: argparse.Namespace) -> int:
    """Synthesize a seeded corpus of generated scenarios."""
    import json

    from repro.gen.synth import GenConfig, corpus

    try:
        config = GenConfig.from_token(args.config or "")
        programs = corpus(args.seed, args.count, config)
    except ValueError as exc:
        if args.json:
            # Machine-readable failure: one JSON object on stdout, exit 2.
            print(json.dumps({"ok": False, "error": str(exc)}))
            return 2
        raise SystemExit(str(exc)) from None
    out = None
    if args.out:
        import pathlib

        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        handle = out.open("w", encoding="utf-8")
    kinds: dict[str, int] = {}
    rows = []
    for generated in programs:
        truth = generated.ground_truth
        kinds[truth.kind] = kinds.get(truth.kind, 0) + 1
        spec = generated.spec
        rows.append(
            {
                "name": generated.name,
                "kind": truth.kind,
                "threads": len(spec.threads),
                "ops": spec.total_ops,
                "window": truth.window,
                "budget": spec.step_budget,
            }
        )
        if not args.quiet and not args.json:
            print(
                f"{generated.name:24s} {truth.kind or 'none':9s} "
                f"threads={len(spec.threads)} ops={spec.total_ops:3d} "
                f"window={truth.window} budget={spec.step_budget}"
            )
        if out is not None:
            handle.write(generated.to_json() + "\n")
    if out is not None:
        handle.close()
    breakdown = ", ".join(f"{kind}: {count}" for kind, count in sorted(kinds.items()))
    summary = f"{len(programs)} programs ({breakdown})" + (f" -> {out}" if out else "")
    if args.json:
        print(
            json.dumps(
                {
                    "ok": True,
                    "seed": args.seed,
                    "count": args.count,
                    "config": config.to_token(),
                    "programs": rows,
                    "kinds": kinds,
                    "out": str(out) if out else None,
                }
            )
        )
        print(summary, file=sys.stderr)  # human summary off the JSON stream
    else:
        print(summary)
    return 0


def _cmd_eval_gen(args: argparse.Namespace) -> int:
    """Differential ground-truth evaluation over a generated corpus."""
    from repro.harness.groundtruth import (
        GroundTruthConfig,
        GroundTruthHarness,
        check_baseline,
        load_baseline,
        write_report,
    )
    from repro.harness.reporting import groundtruth_summary
    from repro.harness.telemetry import JsonlSink, TelemetrySink

    config = GroundTruthConfig(
        seed=args.seed,
        count=args.count,
        gen_config=_parse_gen_config(args.config),
        tools=tuple(args.tools),
        trials=args.trials,
        budget=args.budget,
        base_seed=args.base_seed,
        sanitizer_budget=args.sanitizer_budget,
    )
    sink = JsonlSink(args.telemetry) if args.telemetry else TelemetrySink()
    try:
        harness = GroundTruthHarness(config, sink=sink)
        payload = harness.evaluate(processes=args.parallel)
    finally:
        sink.close()
    target = write_report(payload, args.out)
    print(groundtruth_summary(payload))
    print()
    print(f"report: {target}")
    if args.baseline:
        problems = check_baseline(payload, load_baseline(args.baseline))
        if problems:
            print()
            print("BASELINE REGRESSION:")
            for problem in problems:
                print(f"  {problem}")
            return 3
        print("baseline: ok")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Inspect, compact, or verify a durable corpus store."""
    from repro.harness.reporting import store_summary
    from repro.harness.store import CorpusStore, StoreError

    try:
        if args.store_command == "inspect":
            with CorpusStore(args.path, readonly=True) as store:
                print(store_summary(store.inspect()))
            return 0
        if args.store_command == "verify":
            with CorpusStore(args.path, readonly=True) as store:
                inspection = store.verify()
            print(store_summary(inspection))
            print("verify: ok")
            return 0
        with CorpusStore(args.path) as store:
            stats = store.compact()
        print(
            f"compacted {args.path}: "
            f"{stats['segments_before']} -> {stats['segments_after']} segment(s), "
            f"{stats['records_before']} -> {stats['records_after']} record(s)"
        )
        if args.telemetry:
            from repro.harness.telemetry import JsonlSink

            with JsonlSink(args.telemetry) as sink:
                sink.emit("store_compact", path=str(args.path), **stats)
        return 0
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.harness.reporting import figure5_ascii, rf_distribution_pos, rf_distribution_rff

    prog = bench.get(args.program)
    pos = rf_distribution_pos(prog, executions=args.executions, seed=args.seed)
    rff = rf_distribution_rff(prog, executions=args.executions, seed=args.seed)
    print(figure5_ascii(pos))
    print()
    print(figure5_ascii(rff))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``rff`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(prog="rff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list benchmark programs")
    _add_substrate_flag(p_list)
    p_list.set_defaults(func=_cmd_list)

    p_fuzz = sub.add_parser("fuzz", help="fuzz one program with RFF")
    p_fuzz.add_argument("program")
    _add_substrate_flag(p_fuzz)
    p_fuzz.add_argument("--budget", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--keep-going", action="store_true", help="do not stop at the first crash")
    p_fuzz.add_argument("--no-feedback", action="store_true")
    p_fuzz.add_argument("--no-power", action="store_true")
    p_fuzz.add_argument("--no-constraints", action="store_true")
    p_fuzz.add_argument("--memory-model", choices=("sc", "tso"), default="sc")
    p_fuzz.add_argument("--minimize", action="store_true",
                        help="delta-debug the first crashing abstract schedule")
    p_fuzz.add_argument("--save-crashes", metavar="DIR",
                        help="persist crashing schedules as JSON under DIR")
    p_fuzz.add_argument("--sanitize", metavar="LIST",
                        help="online sanitizers per execution: comma-separated subset of "
                             "race,lockset,lockorder (or 'all')")
    _add_guard_flags(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_analyze = sub.add_parser("analyze", help="dynamic trace analyses (races, locks)")
    p_analyze.add_argument("program")
    _add_substrate_flag(p_analyze)
    p_analyze.add_argument("--executions", type=int, default=20)
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_run = sub.add_parser("run", help="run one baseline tool on one program")
    p_run.add_argument("program")
    _add_substrate_flag(p_run)
    p_run.add_argument("--tool", default="POS")
    p_run.add_argument("--budget", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--sanitize", metavar="LIST",
                       help="online sanitizers per execution: comma-separated subset of "
                            "race,lockset,lockorder (or 'all')")
    p_run.add_argument("--verify-replays", type=int, default=0, metavar="N",
                       help="replay a found bug N times and report STABLE/FLAKY")
    _add_guard_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_campaign = sub.add_parser("campaign", help="run a tools x programs x trials campaign")
    _add_substrate_flag(p_campaign)
    p_campaign.add_argument("--trials", type=int, default=3)
    p_campaign.add_argument("--budget", type=int, default=500)
    p_campaign.add_argument("--seed", type=int, default=1234)
    p_campaign.add_argument("--programs", nargs="*")
    p_campaign.add_argument("--tools", nargs="*")
    p_campaign.add_argument("--verbose", action="store_true")
    p_campaign.add_argument("--parallel", type=_count, metavar="N",
                            help="run slices in N persistent worker processes "
                                 "(default 0: in-process; results are bit-identical)")
    p_campaign.add_argument("--profile", metavar="DIR",
                            help="write per-worker cProfile dumps (.pstats) under DIR "
                                 "and print a merged hot-spot summary (needs --parallel)")
    p_campaign.add_argument("--telemetry", metavar="FILE",
                            help="write structured campaign telemetry (JSONL) to FILE")
    p_campaign.add_argument("--resume", action="store_true",
                            help="resume completed cells from an existing --store")
    p_campaign.add_argument("--store", metavar="DIR",
                            help="durable corpus store directory: every completed cell is "
                                 "recorded there crash-safely (continue with --resume, "
                                 "examine with 'rff store')")
    p_campaign.add_argument("--heartbeat-seconds", type=_seconds, default=0.5, metavar="S",
                            help="worker heartbeat interval, below the lease (default 0.5)")
    p_campaign.add_argument("--lease-seconds", type=_seconds, default=10.0, metavar="S",
                            help="kill and reassign a worker silent this long (default 10)")
    p_campaign.add_argument("--timeout", type=_seconds, metavar="SECONDS",
                            help="seconds a worker may go without finishing a slice "
                                 "before it is killed and the slice retried (needs --parallel)")
    p_campaign.add_argument("--retries", type=_count, default=2,
                            help="extra attempts per crashed/timed-out cell (default 2)")
    p_campaign.add_argument("--sanitize", metavar="LIST",
                            help="attach online sanitizers to every tool: comma-separated "
                                 "subset of race,lockset,lockorder (or 'all')")
    p_campaign.add_argument("--allocator", choices=("uniform", "laplace", "novelty"),
                            help="budget allocator: uniform reproduces the classic "
                                 "per-cell split bit-for-bit; laplace/novelty re-plan "
                                 "schedule budgets across cells in seeded rounds")
    p_campaign.add_argument("--alloc-rounds", type=int, default=None, metavar="R",
                            help="allocation rounds for adaptive allocators (default 4)")
    p_campaign.add_argument("--min-cell-budget", type=int, default=None, metavar="N",
                            help="per-round schedule floor for every live cell "
                                 "(starvation freedom; default 1)")
    p_campaign.add_argument("--verify-replays", type=int, default=0, metavar="N",
                            help="replay every found bug N times; FLAKY bugs are "
                                 "quarantined in the reproduction ledger")
    _add_guard_flags(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_triage = sub.add_parser(
        "triage", help="fuzz keep-going, bucket findings, verify reproducers"
    )
    p_triage.add_argument("program")
    _add_substrate_flag(p_triage)
    p_triage.add_argument("--budget", type=int, default=1000)
    p_triage.add_argument("--seed", type=int, default=0)
    p_triage.add_argument("--replays", type=int, default=5,
                          help="verification replays per bug bucket (default 5)")
    p_triage.add_argument("--minimize", action="store_true",
                          help="shrink each reproducer with bucket-constrained ddmin")
    p_triage.add_argument("--artifacts", metavar="DIR",
                          help="write checksummed repro artifacts for STABLE bugs")
    p_triage.add_argument("--memory-model", choices=("sc", "tso"), default="sc")
    p_triage.add_argument("--sanitize", metavar="LIST",
                          help="online sanitizers per execution: comma-separated subset "
                               "of race,lockset,lockorder (or 'all')")
    _add_guard_flags(p_triage)
    p_triage.set_defaults(func=_cmd_triage)

    p_dpor = sub.add_parser("dpor", help="race-reversal rf-DPOR exploration")
    p_dpor.add_argument("program")
    p_dpor.add_argument("--budget", type=int, default=5000)
    p_dpor.add_argument("--exhaustive", action="store_true",
                        help="keep exploring after the first bug")
    p_dpor.set_defaults(func=_cmd_dpor)

    p_replay = sub.add_parser(
        "replay", help="replay a persisted crash file or repro artifact"
    )
    p_replay.add_argument("file")
    p_replay.add_argument("--substrate", choices=("dsl", "py"), default=None,
                          help="validate that the file's program belongs to this "
                               "substrate before replaying")
    p_replay.add_argument("--trace", type=int, metavar="N", default=0,
                          help="print the first N trace events")
    p_replay.add_argument("--verify", action="store_true",
                          help="replay N times and report a STABLE/FLAKY verdict "
                               "(exit 0 only for STABLE)")
    p_replay.add_argument("--replays", type=int, default=5, metavar="N",
                          help="replays for --verify (default 5)")
    p_replay.set_defaults(func=_cmd_replay)

    p_gen = sub.add_parser("gen", help="synthesize generated scenarios with planted bugs")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="first corpus seed; programs are gen:<seed>..gen:<seed+count-1>")
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--config", metavar="TOKEN",
                       help="generator knobs token, e.g. 't=3,b=4,mix=r1d1a1n1' "
                            "(see repro.gen.synth.GenConfig)")
    p_gen.add_argument("--out", metavar="FILE",
                       help="write one JSON object per program (spec + ground truth) to FILE")
    p_gen.add_argument("--quiet", action="store_true", help="suppress the per-program table")
    p_gen.add_argument("--json", action="store_true",
                       help="emit one JSON object on stdout (per-program rows + kind "
                            "breakdown); the human summary moves to stderr")
    p_gen.set_defaults(func=_cmd_gen)

    p_eval = sub.add_parser(
        "eval-gen", help="differential ground-truth evaluation over a generated corpus"
    )
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--count", type=int, default=50)
    p_eval.add_argument("--config", metavar="TOKEN", help="generator knobs token")
    p_eval.add_argument("--tools", nargs="*", default=["RFF", "Random", "PCT3", "POS"])
    p_eval.add_argument("--trials", type=int, default=3)
    p_eval.add_argument("--budget", type=int, default=400)
    p_eval.add_argument("--base-seed", type=int, default=1234)
    p_eval.add_argument("--sanitizer-budget", type=int, default=80)
    p_eval.add_argument("--parallel", type=_count, default=0, metavar="N",
                        help="worker processes for the crash channel "
                             "(default 0: in-process; results are bit-identical either way)")
    p_eval.add_argument("--out", default="results/BENCH_groundtruth.json",
                        help="report path (default results/BENCH_groundtruth.json)")
    p_eval.add_argument("--baseline", metavar="FILE",
                        help="check FN/FP rates and detection against a baseline "
                             "JSON; exit 3 on regression")
    p_eval.add_argument("--telemetry", metavar="FILE",
                        help="write the corpus, crash-channel campaign and gen_eval_end "
                             "telemetry (JSONL) to FILE")
    p_eval.set_defaults(func=_cmd_eval_gen)

    p_store = sub.add_parser("store", help="inspect/compact/verify a durable corpus store")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_inspect = store_sub.add_parser("inspect", help="summarize a store's contents and health")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=_cmd_store)
    p_compact = store_sub.add_parser(
        "compact", help="rewrite the store as one deduplicated segment (atomic)"
    )
    p_compact.add_argument("path")
    p_compact.add_argument("--telemetry", metavar="FILE",
                           help="append a store_compact telemetry record (JSONL) to FILE")
    p_compact.set_defaults(func=_cmd_store)
    p_verify = store_sub.add_parser(
        "verify", help="checksum-verify every record; nonzero exit on corruption"
    )
    p_verify.add_argument("path")
    p_verify.set_defaults(func=_cmd_store)

    p_fig5 = sub.add_parser("figure5", help="rf-distribution histograms (RQ3)")
    p_fig5.add_argument("--program", default="SafeStack")
    p_fig5.add_argument("--executions", type=int, default=2000)
    p_fig5.add_argument("--seed", type=int, default=0)
    p_fig5.set_defaults(func=_cmd_figure5)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
