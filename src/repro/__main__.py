"""Command-line entry point.

    python -m repro list                 # available experiments
    python -m repro run <name> [...]     # run selected experiments
    python -m repro run <name> --seed 7 --events ev.jsonl --manifest
    python -m repro all [--skip-accuracy]
    python -m repro info                 # technologies and gate designs
    python -m repro export [directory]   # write every artifact as CSV
    python -m repro stats ev.jsonl       # replay a telemetry event log
    python -m repro faults --seed 7 --out report.json   # fault campaign
    python -m repro harden --out frontier.json   # protection frontier
    python -m repro bench [--quick]      # hot-path microbenchmarks
    python -m repro bench --compare OLD.json [NEW.json]  # regression diff
    python -m repro profile svm          # per-scope energy attribution
    python -m repro profile svm-adult --power 100 --flame-energy e.folded
    python -m repro run fig9 --serve-metrics 9464   # live /metrics scrape
    python -m repro run fig9 --jobs 4    # parallel sweep, same bytes out
    python -m repro run fig9 --checkpoint-dir ckpt   # resumable sweep
    python -m repro resume ckpt          # continue a killed run
    python -m repro env list             # synthetic harvest-trace families
    python -m repro env describe solar --seed 1 --save solar.jsonl
    python -m repro env replay svm-adult solar --adaptive --json
    python -m repro env sweep            # adaptive vs fixed, per family
    python -m repro lint                 # statically verify programs
    python -m repro lint svm --json      # one target, JSON diagnostics
    python -m repro lint --asm prog.asm --rows 256 --cols 8
    python -m repro verify               # prove programs vs golden semantics
    python -m repro verify svm --hardened --json
    python -m repro verify --asm prog.asm --spec spec.json --rows 256
    python -m repro verify --mutants     # seeded-miscompilation corpus
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.experiments.runner import EXPERIMENTS


def _slug(label: str) -> str:
    return label.lower().replace(" ", "-").replace("(", "").replace(")", "")


@dataclass(frozen=True)
class AmbiguousSlug:
    """A short name matched by several experiments."""

    key: str
    candidates: tuple[str, ...]


def _experiment_map() -> dict[str, object]:
    out: dict[str, object] = {}
    short: dict[str, list[str]] = {}
    for label, entry in EXPERIMENTS:
        slug = _slug(label)
        out[slug] = entry
        key = label.split(" ")[0].lower().rstrip(":")
        short.setdefault(key, []).append(slug)
    # Short names are conveniences; one that fans out to several
    # experiments ("table") is an error listing the candidates rather
    # than a silent pick of whichever came first.
    for key, slugs in short.items():
        if key in out:
            continue
        if len(slugs) == 1:
            out[key] = out[slugs[0]]
        else:
            out[key] = AmbiguousSlug(key, tuple(slugs))
    return out


class CommandError(Exception):
    """Bad input found after parsing: ``main`` prints it and exits 2."""


def cmd_list(args: Optional[argparse.Namespace] = None) -> int:
    print("available experiments (python -m repro run <slug>):")
    for label, _ in EXPERIMENTS:
        print(f"  {_slug(label)}")
    return 0


def _seed_everything(seed: Optional[int]) -> None:
    """Seed the stdlib and numpy global RNGs (experiments draw from both)."""
    if seed is None:
        return
    import random

    import numpy as np

    random.seed(seed)
    np.random.seed(seed)


def _apply_jobs(jobs: Optional[int]) -> int:
    """Resolve ``--jobs`` (0 = all cores) and make it the process default.

    Parallelism is an opt-in throughput knob: results are byte-identical
    at any job count (deterministic per-task seeding + ordered merges),
    so the only observable difference is wall time — and the manifest
    records the count used.
    """
    from repro.perf.parallel import cpu_count, set_default_jobs

    resolved = 1 if jobs is None else (cpu_count() if jobs == 0 else jobs)
    set_default_jobs(resolved)
    return resolved


def _technologies(names: list[str], allow_all: bool = False) -> list:
    """Device parameters for technology slugs (``all`` = every one,
    when ``allow_all``); an unknown slug is a :class:`CommandError`."""
    from repro.devices.parameters import ALL_TECHNOLOGIES

    if allow_all and names == ["all"]:
        return list(ALL_TECHNOLOGIES)
    techs = {_slug(p.name): p for p in ALL_TECHNOLOGIES}
    for name in names:
        if name.lower() not in techs:
            known = (["all"] if allow_all else []) + sorted(techs)
            raise CommandError(
                f"unknown technology {name!r}; one of: {', '.join(known)}"
            )
    return [techs[name.lower()] for name in names]


def _read_program(path: str):
    """The assembly file at ``path`` as a :class:`Program` named after it."""
    from repro.core.program import Program
    from repro.isa.assembler import AssemblerError, assemble

    try:
        with open(path, "r", encoding="utf-8") as f:
            return Program(assemble(f.read()), name=path)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    except (AssemblerError, ValueError) as exc:
        raise CommandError(f"cannot assemble {path}: {exc}")


SESSION_SCHEMA = "repro.durability.session/v1"

#: The ``run`` arguments ``session.json`` records for ``resume``.
SESSION_KEYS = (
    "names", "events", "trace", "manifest", "seed", "jobs", "no_compiled"
)


def _write_session(checkpoint_dir: str, payload: dict) -> None:
    """Record the invocation in ``<dir>/session.json`` so ``python -m
    repro resume <dir>`` can replay it without re-typing arguments."""
    from pathlib import Path

    from repro.durability.atomic import atomic_write_json

    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_json(
        directory / "session.json",
        {"schema": SESSION_SCHEMA, **payload},
        sort_keys=True,
    )


def _read_session(checkpoint_dir: str) -> dict:
    import json
    from pathlib import Path

    path = Path(checkpoint_dir) / "session.json"
    try:
        session = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"cannot resume: {exc}")
    except ValueError as exc:
        raise SystemExit(f"cannot resume: {path} is not valid JSON: {exc}")
    if not isinstance(session, dict) or session.get("schema") != SESSION_SCHEMA:
        raise SystemExit(
            f"cannot resume: {path} does not carry schema {SESSION_SCHEMA}"
        )
    return session


def _instrumented(
    args: argparse.Namespace,
    work: Callable[[], Any],
    report: Optional[Callable[[Any], int]] = None,
    *,
    span: Optional[str] = None,
    command: tuple[str, ...] = (),
    config: Optional[dict] = None,
    extra: Callable[[], dict] = dict,
    interrupted_note: str = "flushing telemetry and manifest",
    resume_hint: Optional[str] = None,
) -> int:
    """Run one command's ``work()`` under telemetry and graceful signals.

    Telemetry goes to ``args.events``/``args.trace`` (and is served on
    ``args.serve_metrics`` where the command has that flag) and is
    closed on every exit path.  SIGINT/SIGTERM stop the work cleanly:
    the exit status is ``128 + signum`` and nothing is reported.
    Otherwise ``report(result)`` prints the result and returns the exit
    status (without ``report``, the result is the status).  With
    ``args.manifest`` the manifest is written either way: ``config``,
    plus the top-level keys ``extra()`` returns after the work.
    """
    from contextlib import nullcontext

    from repro import obs
    from repro.durability import Interrupted, graceful_signals

    trace = getattr(args, "trace", None)
    try:
        telemetry = obs.from_paths(events=args.events, trace=trace)
    except OSError as exc:
        raise CommandError(f"cannot open telemetry output: {exc}")
    server = None
    interrupted: Optional[Interrupted] = None
    try:
        if getattr(args, "serve_metrics", None) is not None:
            from repro.obs.export import MetricsServer

            try:
                server = MetricsServer(
                    telemetry, port=args.serve_metrics
                ).start()
            except OSError as exc:
                raise CommandError(f"cannot serve metrics: {exc}")
            print(f"metrics: {server.url}/metrics")
        started = time.perf_counter()
        try:
            with graceful_signals(), obs.use(telemetry):
                with telemetry.span(span) if span else nullcontext():
                    result = work()
        except Interrupted as exc:
            interrupted = exc
            print(f"\ninterrupted ({exc}); {interrupted_note}")
        wall = time.perf_counter() - started
    finally:
        if server is not None:
            server.close()
        telemetry.close()

    if interrupted is None:
        status = result if report is None else report(result)
        if telemetry.enabled:
            _print_telemetry_summary(telemetry, args.events, trace)
    if getattr(args, "manifest", None) is not None:
        from repro.obs.manifest import write_manifest
        from repro.perf.parallel import last_fanout

        path = write_manifest(
            args.manifest,
            command=["python", "-m", "repro", *command],
            config=config,
            seed=args.seed,
            wall_time_s=wall,
            metrics=telemetry.snapshot() if telemetry.enabled else None,
            extra={
                "interrupted": interrupted is not None,
                "fanout": last_fanout(),
                **extra(),
            },
        )
        print(f"manifest: {path}")
    if interrupted is not None:
        if resume_hint is not None:
            print(resume_hint)
        return interrupted.exit_code
    return status


def _print_telemetry_summary(telemetry, events, trace) -> None:
    print(f"\ntelemetry: {telemetry.events_emitted:,} events emitted")
    if trace:
        print(f"  perfetto trace: {trace} (open in https://ui.perfetto.dev)")
    if events:
        from repro.obs.replay import replay

        stats = replay(events, top=0)
        print(f"  event log: {events}")
        if stats.energy_by_category:
            print("  per-category energy sums from the event log (J):")
            for category in sorted(stats.energy_by_category):
                print(
                    f"    {category:10s} {stats.energy_by_category[category]!r}"
                )
            print(f"    {'TOTAL':10s} {stats.total_energy!r}")


def _write_out(path: str, text: str) -> None:
    from repro.durability.atomic import atomic_write_text

    atomic_write_text(path, text)
    print(f"report: {path}")


def cmd_run(args: argparse.Namespace) -> int:
    from repro import compilejit, obs
    from repro.experiments.runner import RESUMABLE

    checkpoint_dir = args.checkpoint_dir
    if args.resume and checkpoint_dir is None:
        raise CommandError("--resume requires --checkpoint-dir")
    _seed_everything(args.seed)
    compilejit.set_enabled(not args.no_compiled)
    n_jobs = _apply_jobs(args.jobs)
    table = _experiment_map()
    if checkpoint_dir is not None:
        if args.resume:
            _read_session(checkpoint_dir)  # must exist and carry the schema
        _write_session(
            checkpoint_dir,
            {"command": "run", **{key: vars(args)[key] for key in SESSION_KEYS}},
        )
    ran: list[str] = []  # filled by work(); the manifest lists it

    def work() -> int:
        status = 0
        for name in args.names:
            entry = table.get(name.lower())
            if entry is None:
                print(
                    f"unknown experiment {name!r}; "
                    "try 'python -m repro list'"
                )
                status = 2
                continue
            if isinstance(entry, AmbiguousSlug):
                print(
                    f"ambiguous experiment {name!r}; candidates: "
                    + ", ".join(entry.candidates)
                )
                status = 2
                continue
            with obs.current().span(name.lower()):
                if checkpoint_dir is not None and entry in RESUMABLE:
                    entry(checkpoint_dir=f"{checkpoint_dir}/{name.lower()}")
                else:
                    entry()
            ran.append(name.lower())
        return status

    return _instrumented(
        args,
        work,
        command=("run", *args.names),
        config={
            "experiments": ran,
            "events": args.events,
            "trace": args.trace,
            "jobs": n_jobs,
            "checkpoint_dir": checkpoint_dir,
            "compiled": compilejit.enabled(),
        },
        extra=lambda: {
            "resumed": args.resume,
            "compilejit": compilejit.stats_snapshot(),
        },
        resume_hint=(
            None
            if checkpoint_dir is None
            else f"resume with: python -m repro resume {checkpoint_dir}"
        ),
    )


def cmd_resume(args: argparse.Namespace) -> int:
    """Replay the invocation recorded in ``<dir>/session.json``,
    reusing every per-task result already on disk."""
    session = _read_session(args.checkpoint_dir)
    if session.get("command") != "run":
        raise SystemExit(
            f"cannot resume: unknown session command {session.get('command')!r}"
        )
    recorded = argparse.Namespace(
        **{key: session.get(key) for key in SESSION_KEYS},
        checkpoint_dir=args.checkpoint_dir,
        resume=True,
        serve_metrics=None,
    )
    recorded.names = list(recorded.names or [])
    recorded.no_compiled = bool(recorded.no_compiled)
    if args.jobs is not None:
        recorded.jobs = args.jobs
    return cmd_run(recorded)


def cmd_all(args: argparse.Namespace) -> int:
    from repro.durability import Interrupted, graceful_signals
    from repro.experiments import accuracy

    _apply_jobs(args.jobs)
    try:
        with graceful_signals():
            for label, entry in EXPERIMENTS:
                if args.skip_accuracy and entry is accuracy.main:
                    continue
                print(f"\n=== {label} ===")
                entry()
    except Interrupted as exc:
        print(f"\ninterrupted ({exc})")
        return exc.exit_code
    return 0


def cmd_info(args: Optional[argparse.Namespace] = None) -> int:
    from repro.experiments import table2_devices

    table2_devices.main()
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all

    for name, count in export_all(args.directory).items():
        print(f"  {name}.csv: {count} rows")
    print(f"wrote CSVs to {args.directory}/")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import FaultCampaign, FaultPlan, WORKLOADS, render

    [params] = _technologies([args.tech])
    plan = FaultPlan.from_variation(
        params,
        sigma=args.sigma,
        trials=args.derive_trials,
        scale=args.gate_scale,
        array_flip_rate=args.array_rate,
        nv_corruption_rate=args.nv_rate,
        outage_rate=args.outage_rate,
        verify_retry=not args.no_retry,
        retry_budget=args.retry_budget,
    )
    n_jobs = _apply_jobs(args.jobs)

    def work():
        campaign = FaultCampaign(
            workload=WORKLOADS[args.workload](tech=params),
            plan=plan,
            trials=args.trials,
            seed=args.seed,
        )
        return campaign.run(jobs=n_jobs, checkpoint_dir=args.checkpoint_dir)

    def report(result) -> int:
        print(render(result))
        if args.out is not None:
            _write_out(args.out, result.to_json())
        else:
            sys.stdout.write(result.to_json())
        return 1 if result.sdc else 0

    return _instrumented(
        args,
        work,
        report,
        span="fault-campaign",
        command=("faults",),
        config={
            "workload": args.workload,
            "technology": params.name,
            "trials": args.trials,
            "plan": plan.to_json_obj(),
            "out": args.out,
            "jobs": n_jobs,
            "checkpoint_dir": args.checkpoint_dir,
        },
    )


def cmd_harden(args: argparse.Namespace) -> int:
    from repro.harden import frontier

    selected = _technologies(args.tech, allow_all=True)
    n_jobs = _apply_jobs(args.jobs)

    def work() -> dict:
        return frontier.run_frontier(
            workloads=args.workloads,
            technologies=selected,
            levels=args.levels,
            trials=args.trials,
            seed=args.seed,
            target_flips=args.target_flips,
            tmr_share=args.tmr_share,
            jobs=n_jobs,
            checkpoint_dir=args.checkpoint_dir,
        )

    def report(result: dict) -> int:
        print(frontier.format_table(result))
        if args.out is not None:
            _write_out(args.out, frontier.report_json(result))
        return 0 if result["checks"]["ok"] else 1

    return _instrumented(
        args,
        work,
        report,
        span="harden-frontier",
        command=("harden",),
        config={
            "workloads": list(args.workloads),
            "technologies": [p.name for p in selected],
            "levels": list(args.levels),
            "trials": args.trials,
            "target_flips": args.target_flips,
            "tmr_share": args.tmr_share,
            "out": args.out,
            "jobs": n_jobs,
            "checkpoint_dir": args.checkpoint_dir,
        },
    )


def _print_catalog(
    args, tool: str, adjective: str, targets: dict, rule_prefixes=("",)
) -> bool:
    """Print the rule catalog (``--rules``) or the target list
    (``--list``) of ``lint``/``verify``; False when neither was asked."""
    from repro.lint import RULES

    if args.rules:
        for rule in RULES.values():
            if rule.id.startswith(rule_prefixes):
                print(f"{rule.id}  [{rule.severity}]  {rule.title}")
                print(f"    {rule.why}")
    elif args.list:
        print(f"{adjective} program targets (python -m repro {tool} <name>):")
        for name, target in sorted(targets.items()):
            print(f"  {name:12s} {target.description}")
    return args.rules or args.list


def _target_names(args, tool: str, targets: dict) -> list[str]:
    """The positional target names (default: all), each one known."""
    names = args.targets or ["all"]
    if names == ["all"]:
        return sorted(targets)
    for name in names:
        if name not in targets:
            raise CommandError(
                f"unknown {tool} target {name!r}; "
                f"try 'python -m repro {tool} --list'"
            )
    return names


def _print_reports(reports: list, as_json: bool, tool: str) -> int:
    """Render lint/verify reports (or one JSON document); 1 if any failed."""
    import json

    from repro.lint import render

    if as_json:
        payload = [r.to_json_obj() for r in reports]
        print(
            json.dumps(
                payload[0] if len(payload) == 1 else payload,
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for report in reports:
            print(render(report, tool=tool))
    return 0 if all(r.ok for r in reports) else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintConfig, Linter, TARGETS

    if _print_catalog(args, "lint", "lintable", TARGETS):
        return 0
    if args.asm is not None:
        program = _read_program(args.asm)
        config = LintConfig(
            n_data_tiles=args.tiles, rows=args.rows, cols=args.cols
        )
        jobs = [(args.asm, program, config)]
    else:
        jobs = [
            (name, *TARGETS[name].build())
            for name in _target_names(args, "lint", TARGETS)
        ]
    reports = [
        Linter(config).run(program, name=name)
        for name, program, config in jobs
    ]
    return _print_reports(reports, args.json, "lint")


def cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.lint import LintConfig
    from repro.verify import (
        ReExecutionPass,
        SemanticSpec,
        SemanticsPass,
        VERIFY_TARGETS,
        build_verify_target,
        hardened_job,
        run_mutation_corpus,
        verify_program,
    )

    if _print_catalog(
        args, "verify", "verifiable", VERIFY_TARGETS, ("SEM", "REEX")
    ):
        return 0
    if args.mutants:
        rows = run_mutation_corpus(strict=False)
        escaped = [
            r for r in rows if not r["structural_ok"] or not r["refuted"]
        ]
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            for r in rows:
                verdict = (
                    f"refuted by {','.join(r['rules'])}"
                    if r["refuted"]
                    else "NOT refuted"
                )
                green = "green" if r["structural_ok"] else "NOT green"
                print(f"{r['name']}: lint {green}, {verdict}")
            print(
                f"mutants: {len(rows)} total, "
                f"{len(rows) - len(escaped)} structurally-green + refuted"
            )
        return 1 if escaped else 0

    reports = []
    if args.asm is not None:
        program = _read_program(args.asm)
        config = LintConfig(
            n_data_tiles=args.tiles, rows=args.rows, cols=args.cols
        )
        spec = None
        if args.spec is not None:
            try:
                with open(args.spec, "r", encoding="utf-8") as f:
                    spec = SemanticSpec.from_json_obj(json.load(f))
            except (OSError, ValueError, KeyError) as exc:
                raise CommandError(f"cannot load spec {args.spec}: {exc}")
        focus = spec.focus_column if spec is not None else args.focus_column
        constants = (
            {cell: bit for cell, bit in spec.constants}
            if spec is not None
            else None
        )
        passes = []
        if spec is not None:
            passes.append(SemanticsPass(spec))
        if args.against is not None:
            from repro.verify import EquivalencePass

            passes.append(
                EquivalencePass(
                    _read_program(args.against),
                    constants=constants,
                    focus_column=focus,
                )
            )
        passes.append(
            ReExecutionPass(
                period=args.period, constants=constants, focus_column=focus
            )
        )
        reports.append(verify_program(program, config, passes, name=args.asm))
    else:
        for name in _target_names(args, "verify", VERIFY_TARGETS):
            reports.append(build_verify_target(name).run())
            if args.hardened:
                from repro.harden import HardenPolicy

                policy = HardenPolicy(
                    level=args.level, tmr_share=args.tmr_share
                )
                reports.append(hardened_job(name, policy).run())
    return _print_reports(reports, args.json, "verify")


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench

    if args.compare:
        if len(args.compare) > 2:
            raise CommandError(
                "--compare takes OLD.json and at most one NEW.json"
            )
        try:
            old = bench.load_report(args.compare[0])
            new = (
                bench.load_report(args.compare[1])
                if len(args.compare) == 2
                else None
            )
        except (OSError, ValueError) as exc:
            raise CommandError(f"cannot compare: {exc}")
        if new is None:
            # No NEW report: measure the current tree against OLD.
            new = bench.run_bench(quick=args.quick)
        if old.get("quick") != new.get("quick"):
            print(
                "warning: comparing a quick report against a full one; "
                "repetition counts differ"
            )
        comparison = bench.compare_reports(old, new, threshold=args.threshold)
        print(bench.render_compare(comparison))
        return 1 if comparison["regressions"] else 0

    def report(result: dict) -> int:
        print(bench.render(result))
        bench.write_report(result, args.out)
        print(f"report: {args.out}")
        return 0

    return _instrumented(
        args,
        lambda: bench.run_bench(quick=args.quick),
        report,
        interrupted_note="no benchmark report written",
    )


def cmd_profile(args: argparse.Namespace) -> int:
    """Per-scope energy/latency attribution for one workload.

    Small campaign workloads (``adder``/``svm``/``bnn``) run on the
    cycle-accurate machine, attributing every committed instruction to
    its compile-time scope stack (classifier > macro > primitive);
    Table IV names (``svm-adult``, ``bnn-finn``, ...) run the harvested
    closed-form engine at ``--power``, attributing per profile segment.
    Either way the profiler's root breakdown must equal the run's
    bit-for-bit — the command exits non-zero if it does not.
    """
    from repro.obs.prof import EnergyProfiler

    [params] = _technologies([args.tech])

    from repro.faults.campaign import WORKLOADS

    profiler = EnergyProfiler()
    name = args.workload.lower()
    if name in WORKLOADS:
        workload = WORKLOADS[name](tech=params)
        mouse = workload.build()
        mouse.attach_profiler(profiler)
        breakdown = mouse.run().breakdown
        header = (
            f"{workload.name} on {params.name} (cycle-accurate, "
            f"{breakdown.instructions} instructions)"
        )
    else:
        from repro.energy.model import InstructionCostModel
        from repro.harvest import HarvestingConfig, ProfileRun
        from repro.ml.benchmarks import ALL_WORKLOADS

        wanted = _slug(args.workload)
        workload = next(
            (w for w in ALL_WORKLOADS if _slug(w.name) == wanted), None
        )
        if workload is None:
            known = sorted(WORKLOADS) + [_slug(w.name) for w in ALL_WORKLOADS]
            raise CommandError(
                f"unknown workload {args.workload!r}; one of: "
                + ", ".join(known)
            )
        cost = InstructionCostModel(params)
        profile = workload.profile(cost)
        config = HarvestingConfig.paper(params, args.power * 1e-6)
        breakdown = ProfileRun(
            profile, cost, config, profiler=profiler
        ).run()
        header = (
            f"{workload.name} at {args.power:g} uW on {params.name} "
            f"(harvested, {breakdown.instructions} instructions)"
        )

    exact = profiler.root == breakdown
    if args.json:
        import json

        from repro.obs.export import profile_json

        payload = profile_json(profiler, top=args.top)
        payload["exact"] = exact
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"energy attribution: {header}")
        print(profiler.render(top=args.top))
        print(
            "\nattribution sums "
            + ("bit-exact" if exact else "MISMATCHED")
            + " vs the run breakdown"
        )
    if args.flame_energy:
        n = profiler.write_collapsed(args.flame_energy, metric="energy")
        print(f"energy flamegraph: {args.flame_energy} ({n} stacks; "
              "open in https://speedscope.app)")
    if args.flame_time:
        n = profiler.write_collapsed(args.flame_time, metric="time")
        print(f"time flamegraph: {args.flame_time} ({n} stacks)")
    if args.serve_metrics is not None:
        from repro import obs
        from repro.obs.export import MetricsServer

        server = MetricsServer(
            obs.current(), profiler=profiler, port=args.serve_metrics
        ).start()
        print(
            f"serving {server.url}/metrics and {server.url}/profile "
            "(Ctrl-C to stop)"
        )
        try:
            import threading

            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
    return 0 if exact else 1


def _build_trace(spec: str, seed: int, watts: float):
    """Resolve a trace argument: a JSONL file path, or a generator
    family name (``constant`` takes ``--watts``; the rest ``--seed``)."""
    import os

    from repro.env import FAMILIES, HarvestTrace, constant

    if os.path.exists(spec):
        try:
            return HarvestTrace.load(spec)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read trace {spec!r}: {exc}") from None
    family = spec.lower().replace("-", "_")
    if family == "solar_diurnal":
        family = "solar"
    if family not in FAMILIES:
        raise SystemExit(
            f"unknown trace {spec!r}: not a file, and not one of "
            + ", ".join(sorted(FAMILIES))
        )
    if family == "constant":
        return constant(watts)
    return FAMILIES[family](seed=seed)


def _table_iv_workload(name: str):
    from repro.ml.benchmarks import ALL_WORKLOADS

    wanted = _slug(name)
    workload = next(
        (w for w in ALL_WORKLOADS if _slug(w.name) == wanted), None
    )
    if workload is None:
        raise SystemExit(
            f"unknown workload {name!r}; one of: "
            + ", ".join(_slug(w.name) for w in ALL_WORKLOADS)
        )
    return workload


def cmd_env(args: argparse.Namespace) -> int:
    """Harvest-environment tooling: trace catalog, stats, replay, sweep."""
    import json

    from repro.env import FAMILIES

    if args.env_command == "list":
        print("harvest trace families (python -m repro env describe <name>):")
        for name, generator in sorted(FAMILIES.items()):
            doc = (generator.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:10s} {doc}")
        return 0

    if args.env_command == "describe":
        trace = _build_trace(args.trace, args.seed, args.watts)
        info = trace.describe()
        if args.save is not None:
            trace.save(args.save)
            info["saved"] = args.save
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            for key in sorted(info):
                print(f"  {key:12s} {info[key]}")
        return 0

    if args.env_command == "replay":
        from repro.env import AdaptivePolicy, replay

        [params] = _technologies([args.tech])
        workload = _table_iv_workload(args.workload)
        trace = _build_trace(args.trace, args.seed, args.watts)
        policy = AdaptivePolicy() if args.adaptive else None
        result = replay(
            workload,
            params,
            trace,
            adaptive=policy,
            time_budget=args.budget,
            max_inferences=args.max_inferences,
            checkpoint_period=args.checkpoint_period,
            leakage_amps=args.leakage,
            esr_ohms=args.esr,
        )
        if args.json:
            print(json.dumps(result.to_json_obj(), indent=2, sort_keys=True))
        else:
            obj = result.to_json_obj()
            for key in sorted(obj):
                print(f"  {key:12s} {obj[key]}")
        return 0

    from repro.experiments import env_sweep

    rows = env_sweep.run()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(env_sweep.render(rows))
    return 0 if all(r["adaptive_at_least_fixed"] for r in rows) else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.replay import render, replay

    try:
        stats = replay(args.path, top=args.top)
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot read {args.path}: {exc}")
    print(render(stats, top=args.top))
    return 0


def _bounded(convert: Callable[[str], Any], accept, bound: str):
    """An argparse ``type``: ``convert`` the text, then reject values
    outside ``bound``, so argparse exits 2 naming the flag."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value: 'x'" as before
    return parse


def _at_least(low: int):
    return _bounded(int, lambda n: n >= low, f">= {low}")


_PROBABILITY = _bounded(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_POSITIVE = _bounded(float, lambda x: x > 0.0, "> 0")
_NON_NEGATIVE = _bounded(float, lambda x: x >= 0.0, ">= 0")


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: options declared once, shared by subcommands."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _build_parser() -> argparse.ArgumentParser:
    events_flag = _flags()
    events_flag.add_argument(
        "--events", metavar="PATH", help="write a JSONL telemetry event log"
    )
    jobs_flag = _flags()
    jobs_flag.add_argument(
        "--jobs",
        type=_at_least(0),
        default=None,
        metavar="N",
        help="worker processes (0 = all cores); results are "
        "byte-identical at any count",
    )
    instrumented = _flags(events_flag, jobs_flag)
    instrumented.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome-trace JSON loadable in Perfetto",
    )
    instrumented.add_argument(
        "--manifest",
        nargs="?",
        const="runs",
        metavar="DIR",
        help="write a run manifest (default directory: runs/)",
    )
    instrumented.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist per-task results so a killed run resumes "
        "byte-identically",
    )
    tech_flag = _flags()
    tech_flag.add_argument(
        "--tech",
        default="modern-stt",
        help="device technology (modern-stt, projected-stt, projected-she)",
    )
    trace_flags = _flags()
    trace_flags.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    trace_flags.add_argument(
        "--watts",
        type=_POSITIVE,
        default=100e-6,
        help="power level for the constant family (default 100e-6)",
    )
    program_flags = _flags()
    program_flags.add_argument(
        "targets",
        nargs="*",
        help="registered target names (default: all; see --list)",
    )
    program_flags.add_argument(
        "--asm", metavar="PATH", help="check an assembly file instead"
    )
    program_flags.add_argument(
        "--tiles",
        type=_at_least(1),
        default=1,
        help="data tiles in the bank (--asm)",
    )
    program_flags.add_argument(
        "--rows", type=_at_least(2), default=1024, help="rows per tile (--asm)"
    )
    program_flags.add_argument(
        "--cols",
        type=_at_least(1),
        default=1024,
        help="columns per tile (--asm)",
    )
    program_flags.add_argument(
        "--json", action="store_true", help="emit JSON diagnostics"
    )
    program_flags.add_argument(
        "--list", action="store_true", help="list the registered targets"
    )
    program_flags.add_argument(
        "--rules", action="store_true", help="print the rule catalog"
    )

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=list(parents))
        p.set_defaults(func=func)
        return p

    command("list", cmd_list, "list experiment slugs")
    run_p = command("run", cmd_run, "run selected experiments", instrumented)
    run_p.add_argument("names", nargs="+")
    run_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed the stdlib/numpy RNGs and record it in the manifest",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="require an existing session in --checkpoint-dir and mark "
        "the manifest as resumed",
    )
    run_p.add_argument(
        "--serve-metrics",
        type=int,
        nargs="?",
        const=9464,
        default=None,
        metavar="PORT",
        help="serve /metrics (Prometheus text) over HTTP while the run "
        "executes (default port 9464; 0 = ephemeral)",
    )
    run_p.add_argument(
        "--no-compiled",
        action="store_true",
        help="force the scalar microstep interpreter everywhere "
        "(disables the repro.compilejit plan executor; results are "
        "byte-identical either way)",
    )
    resume_p = command(
        "resume",
        cmd_resume,
        "replay the invocation recorded in a checkpoint directory",
        jobs_flag,
    )
    resume_p.add_argument("checkpoint_dir", metavar="DIR")
    faults_p = command(
        "faults",
        cmd_faults,
        "run a seeded fault-injection campaign",
        instrumented,
        tech_flag,
    )
    faults_p.add_argument(
        "--workload", choices=("svm", "adder", "bnn"), default="svm"
    )
    faults_p.add_argument("--trials", type=_at_least(1), default=16)
    faults_p.add_argument("--seed", type=int, default=0)
    faults_p.add_argument(
        "--sigma",
        type=_NON_NEGATIVE,
        default=0.05,
        help="relative device-parameter spread for gate flip rates",
    )
    faults_p.add_argument(
        "--derive-trials",
        type=_at_least(1),
        default=20_000,
        help="Monte-Carlo samples per gate when deriving flip rates",
    )
    faults_p.add_argument(
        "--gate-scale",
        type=_NON_NEGATIVE,
        default=1.0,
        help="multiplier on derived gate flip rates (0 disables gate faults)",
    )
    faults_p.add_argument("--array-rate", type=_PROBABILITY, default=0.0)
    faults_p.add_argument("--nv-rate", type=_PROBABILITY, default=0.0)
    faults_p.add_argument("--outage-rate", type=_PROBABILITY, default=0.0)
    faults_p.add_argument(
        "--no-retry",
        action="store_true",
        help="disable the verify-and-retry recovery layer",
    )
    faults_p.add_argument("--retry-budget", type=_at_least(0), default=8)
    faults_p.add_argument(
        "--out", metavar="PATH", help="write the JSON report here"
    )
    harden_p = command(
        "harden",
        cmd_harden,
        "sweep the selective-protection frontier (yield vs energy)",
        instrumented,
    )
    harden_p.add_argument(
        "--workloads",
        nargs="+",
        choices=("svm", "bnn", "adder"),
        default=["svm", "bnn"],
        help="campaign workloads to harden (default: svm bnn)",
    )
    harden_p.add_argument(
        "--tech",
        nargs="+",
        default=["all"],
        help="device technologies (modern-stt, projected-stt, "
        "projected-she, or 'all')",
    )
    harden_p.add_argument(
        "--levels",
        nargs="+",
        type=_PROBABILITY,
        default=[0.0, 0.25, 0.5, 0.75, 1.0],
        help="protection levels to sweep (fraction of critical gates)",
    )
    harden_p.add_argument("--trials", type=_at_least(1), default=32)
    harden_p.add_argument("--seed", type=int, default=11)
    harden_p.add_argument(
        "--target-flips",
        type=_NON_NEGATIVE,
        default=1.0,
        help="expected injected flips per unhardened trial (rates are "
        "rescaled from the device Monte Carlo to hit this)",
    )
    harden_p.add_argument(
        "--tmr-share",
        type=_PROBABILITY,
        default=0.25,
        help="share of protected gates that get TMR (rest verify-retry)",
    )
    harden_p.add_argument(
        "--out", metavar="PATH", help="write the frontier report JSON here"
    )
    all_p = command("all", cmd_all, "run every experiment", jobs_flag)
    all_p.add_argument("--skip-accuracy", action="store_true")
    bench_p = command(
        "bench",
        cmd_bench,
        "run hot-path microbenchmarks, write BENCH_PR9.json",
        events_flag,
    )
    bench_p.add_argument(
        "--out", default="BENCH_PR9.json", metavar="PATH",
        help="where to write the benchmark report (default: BENCH_PR9.json)",
    )
    bench_p.add_argument(
        "--quick",
        action="store_true",
        help="smaller repetition counts (what make test gates on)",
    )
    bench_p.add_argument(
        "--compare",
        nargs="+",
        metavar="REPORT",
        help="diff two repro.bench/v1 reports (OLD.json [NEW.json]); "
        "with one path, benchmark the current tree as NEW; exits 1 "
        "past the regression threshold",
    )
    bench_p.add_argument(
        "--threshold",
        type=_NON_NEGATIVE,
        default=0.30,
        metavar="FRAC",
        help="fractional ns/op growth counted as a regression "
        "(default 0.30)",
    )
    profile_p = command(
        "profile",
        cmd_profile,
        "per-scope energy/latency attribution (tables + flamegraphs)",
        tech_flag,
    )
    profile_p.add_argument(
        "workload",
        help="campaign workload (adder, svm, bnn; cycle-accurate) or "
        "Table IV name (svm-adult, bnn-finn, ...; harvested)",
    )
    profile_p.add_argument(
        "--power",
        type=_POSITIVE,
        default=100.0,
        metavar="UW",
        help="harvested power in uW for Table IV workloads (default 100)",
    )
    profile_p.add_argument(
        "--top", type=int, default=20, help="rows to print (default 20)"
    )
    profile_p.add_argument(
        "--flame-energy",
        metavar="PATH",
        help="write a collapsed-stack energy flamegraph (attojoules)",
    )
    profile_p.add_argument(
        "--flame-time",
        metavar="PATH",
        help="write a collapsed-stack time flamegraph (picoseconds)",
    )
    profile_p.add_argument(
        "--json", action="store_true", help="emit the table as JSON"
    )
    profile_p.add_argument(
        "--serve-metrics",
        type=int,
        nargs="?",
        const=9464,
        default=None,
        metavar="PORT",
        help="after profiling, serve /metrics and /profile until Ctrl-C",
    )
    env_p = command(
        "env",
        cmd_env,
        "harvest environments: trace catalog, stats, replay, sweep",
    )
    env_sub = env_p.add_subparsers(dest="env_command", required=True)
    env_sub.add_parser("list", help="list the synthetic trace families")
    describe_p = env_sub.add_parser(
        "describe",
        help="summary statistics for a trace (family or file)",
        parents=[trace_flags],
    )
    describe_p.add_argument(
        "trace",
        help="trace family (constant, solar, rf_burst, kinetic) or a "
        "repro.env.trace/v1 JSONL file",
    )
    describe_p.add_argument(
        "--save", metavar="PATH", help="also write the trace as JSONL"
    )
    describe_p.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    replay_p = env_sub.add_parser(
        "replay",
        help="replay a Table IV workload under a harvest trace",
        parents=[tech_flag, trace_flags],
    )
    replay_p.add_argument(
        "workload", help="Table IV workload name (svm-adult, bnn-finn, ...)"
    )
    replay_p.add_argument(
        "trace", help="trace family name or a JSONL trace file"
    )
    replay_p.add_argument(
        "--adaptive",
        action="store_true",
        help="use the adaptive checkpoint policy (default: fixed cadence)",
    )
    replay_p.add_argument(
        "--budget",
        type=_POSITIVE,
        default=None,
        metavar="S",
        help="time budget in simulated seconds (default: four trace spans)",
    )
    replay_p.add_argument(
        "--max-inferences", type=_at_least(1), default=64, metavar="N"
    )
    replay_p.add_argument(
        "--checkpoint-period", type=_at_least(1), default=1, metavar="N"
    )
    replay_p.add_argument(
        "--leakage",
        type=_NON_NEGATIVE,
        default=0.0,
        metavar="A",
        help="capacitor leakage current in amps (default 0: ideal)",
    )
    replay_p.add_argument(
        "--esr",
        type=_NON_NEGATIVE,
        default=0.0,
        metavar="OHMS",
        help="capacitor equivalent series resistance (default 0: ideal)",
    )
    replay_p.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    sweep_p = env_sub.add_parser(
        "sweep",
        help="adaptive vs fixed checkpointing across the trace families",
    )
    sweep_p.add_argument(
        "--json", action="store_true", help="emit the rows as JSON"
    )
    command("info", cmd_info, "device technologies and gate designs")
    export_p = command("export", cmd_export, "write every artifact as CSV")
    export_p.add_argument("directory", nargs="?", default="results")
    stats_p = command(
        "stats", cmd_stats, "replay a JSONL event log into aggregate views"
    )
    stats_p.add_argument("path")
    stats_p.add_argument("--top", type=int, default=10)
    command(
        "lint",
        cmd_lint,
        "statically verify compiled CRAM programs",
        program_flags,
    )
    verify_p = command(
        "verify",
        cmd_verify,
        "prove compiled CRAM programs equivalent to golden semantics",
        program_flags,
    )
    verify_p.add_argument(
        "--spec",
        metavar="PATH",
        help="semantic spec JSON for --asm (inputs/constants/outputs)",
    )
    verify_p.add_argument(
        "--against",
        metavar="PATH",
        help="source assembly --asm must stay equivalent to (SEM003)",
    )
    verify_p.add_argument(
        "--period",
        type=_at_least(1),
        default=1,
        help="commit-window period for the re-execution pass (--asm)",
    )
    verify_p.add_argument(
        "--focus-column",
        type=int,
        default=0,
        help="column to track symbolically without a spec (--asm)",
    )
    verify_p.add_argument(
        "--mutants",
        action="store_true",
        help="run the seeded-miscompilation corpus",
    )
    verify_p.add_argument(
        "--hardened",
        action="store_true",
        help="also prove each target's hardened rewrite equivalent",
    )
    verify_p.add_argument(
        "--level",
        type=_PROBABILITY,
        default=1.0,
        help="hardening protection level for --hardened",
    )
    verify_p.add_argument(
        "--tmr-share",
        type=_PROBABILITY,
        default=0.5,
        help="TMR share of the protection budget for --hardened",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
