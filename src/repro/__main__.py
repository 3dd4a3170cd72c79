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
from typing import Optional

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


def cmd_list() -> int:
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


SESSION_SCHEMA = "repro.durability.session/v1"


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


def cmd_run(
    names: list[str],
    events: Optional[str] = None,
    trace: Optional[str] = None,
    manifest: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resumed: bool = False,
    serve_metrics: Optional[int] = None,
    no_compiled: bool = False,
) -> int:
    from repro import compilejit, obs
    from repro.durability import Interrupted, graceful_signals
    from repro.experiments.runner import RESUMABLE

    if resumed and checkpoint_dir is None:
        print("--resume requires --checkpoint-dir")
        return 2
    _seed_everything(seed)
    compilejit.set_enabled(not no_compiled)
    n_jobs = _apply_jobs(jobs)
    table = _experiment_map()
    if checkpoint_dir is not None:
        if resumed:
            _read_session(checkpoint_dir)  # must exist and carry the schema
        _write_session(
            checkpoint_dir,
            {
                "command": "run",
                "names": names,
                "events": events,
                "trace": trace,
                "manifest": manifest,
                "seed": seed,
                "jobs": jobs,
                "no_compiled": no_compiled,
            },
        )
    try:
        telemetry = obs.from_paths(events=events, trace=trace)
    except OSError as exc:
        print(f"cannot open telemetry output: {exc}")
        return 2
    server = None
    if serve_metrics is not None:
        from repro.obs.export import MetricsServer

        try:
            server = MetricsServer(telemetry, port=serve_metrics).start()
        except OSError as exc:
            print(f"cannot serve metrics: {exc}")
            telemetry.close()
            return 2
        print(f"metrics: {server.url}/metrics")
    status = 0
    interrupted: Optional[Interrupted] = None
    started = time.perf_counter()
    ran: list[str] = []
    try:
        with graceful_signals(), obs.use(telemetry):
            for name in names:
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
                with telemetry.span(name.lower()):
                    if checkpoint_dir is not None and entry in RESUMABLE:
                        entry(
                            checkpoint_dir=f"{checkpoint_dir}/{name.lower()}"
                        )
                    else:
                        entry()
                ran.append(name.lower())
    except Interrupted as exc:
        interrupted = exc
        print(f"\ninterrupted ({exc}); flushing telemetry and manifest")
    wall = time.perf_counter() - started
    if server is not None:
        server.close()
    telemetry.close()

    if telemetry.enabled and interrupted is None:
        _print_telemetry_summary(telemetry, events, trace)
    if manifest is not None:
        from repro.obs.manifest import write_manifest
        from repro.perf.parallel import last_fanout

        path = write_manifest(
            manifest,
            command=["python", "-m", "repro", "run"] + names,
            config={
                "experiments": ran,
                "events": events,
                "trace": trace,
                "jobs": n_jobs,
                "checkpoint_dir": checkpoint_dir,
                "compiled": compilejit.enabled(),
            },
            seed=seed,
            wall_time_s=wall,
            metrics=telemetry.snapshot() if telemetry.enabled else None,
            extra={
                "interrupted": interrupted is not None,
                "resumed": resumed,
                "fanout": last_fanout(),
                "compilejit": compilejit.stats_snapshot(),
            },
        )
        print(f"manifest: {path}")
    if interrupted is not None:
        if checkpoint_dir is not None:
            print(f"resume with: python -m repro resume {checkpoint_dir}")
        return interrupted.exit_code
    return status


def cmd_resume(checkpoint_dir: str, jobs: Optional[int] = None) -> int:
    """Replay the invocation recorded in ``<dir>/session.json``,
    reusing every per-task result already on disk."""
    session = _read_session(checkpoint_dir)
    if session.get("command") != "run":
        raise SystemExit(
            f"cannot resume: unknown session command {session.get('command')!r}"
        )
    return cmd_run(
        list(session.get("names") or []),
        events=session.get("events"),
        trace=session.get("trace"),
        manifest=session.get("manifest"),
        seed=session.get("seed"),
        jobs=jobs if jobs is not None else session.get("jobs"),
        checkpoint_dir=checkpoint_dir,
        resumed=True,
        no_compiled=bool(session.get("no_compiled")),
    )


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


def cmd_all(skip_accuracy: bool, jobs: Optional[int] = None) -> int:
    from repro.durability import Interrupted, graceful_signals
    from repro.experiments import accuracy

    _apply_jobs(jobs)
    try:
        with graceful_signals():
            for label, entry in EXPERIMENTS:
                if skip_accuracy and entry is accuracy.main:
                    continue
                print(f"\n=== {label} ===")
                entry()
    except Interrupted as exc:
        print(f"\ninterrupted ({exc})")
        return exc.exit_code
    return 0


def cmd_info() -> int:
    from repro.experiments import table2_devices

    table2_devices.main()
    return 0


def cmd_export(directory: str) -> int:
    from repro.experiments.export import export_all

    for name, count in export_all(directory).items():
        print(f"  {name}.csv: {count} rows")
    print(f"wrote CSVs to {directory}/")
    return 0


def cmd_faults(args) -> int:
    from repro import obs
    from repro.devices.parameters import ALL_TECHNOLOGIES
    from repro.faults import FaultCampaign, FaultPlan, WORKLOADS, render

    techs = {p.name.lower().replace(" ", "-"): p for p in ALL_TECHNOLOGIES}
    params = techs.get(args.tech.lower())
    if params is None:
        print(f"unknown technology {args.tech!r}; one of: {', '.join(sorted(techs))}")
        return 2
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
    try:
        telemetry = obs.from_paths(events=args.events, trace=args.trace)
    except OSError as exc:
        print(f"cannot open telemetry output: {exc}")
        return 2
    from repro.durability import Interrupted, graceful_signals

    n_jobs = _apply_jobs(args.jobs)
    started = time.perf_counter()
    interrupted: Optional[Interrupted] = None
    report = None
    try:
        with graceful_signals(), obs.use(telemetry):
            with telemetry.span("fault-campaign"):
                campaign = FaultCampaign(
                    workload=WORKLOADS[args.workload](tech=params),
                    plan=plan,
                    trials=args.trials,
                    seed=args.seed,
                )
                report = campaign.run(
                    jobs=n_jobs, checkpoint_dir=args.checkpoint_dir
                )
    except Interrupted as exc:
        interrupted = exc
        print(f"\ninterrupted ({exc}); flushing telemetry and manifest")
    wall = time.perf_counter() - started
    telemetry.close()

    if interrupted is None:
        print(render(report))
    if interrupted is None:
        if args.out is not None:
            from repro.durability.atomic import atomic_write_text

            atomic_write_text(args.out, report.to_json())
            print(f"report: {args.out}")
        else:
            sys.stdout.write(report.to_json())
        if telemetry.enabled:
            _print_telemetry_summary(telemetry, args.events, args.trace)
    if args.manifest is not None:
        from repro.obs.manifest import write_manifest
        from repro.perf.parallel import last_fanout

        path = write_manifest(
            args.manifest,
            command=["python", "-m", "repro", "faults"],
            config={
                "workload": args.workload,
                "technology": params.name,
                "trials": args.trials,
                "plan": plan.to_json_obj(),
                "out": args.out,
                "jobs": n_jobs,
                "checkpoint_dir": args.checkpoint_dir,
            },
            seed=args.seed,
            wall_time_s=wall,
            metrics=telemetry.snapshot() if telemetry.enabled else None,
            extra={
                "interrupted": interrupted is not None,
                "fanout": last_fanout(),
            },
        )
        print(f"manifest: {path}")
    if interrupted is not None:
        return interrupted.exit_code
    return 1 if report.sdc else 0


def cmd_harden(args) -> int:
    from repro import obs
    from repro.devices.parameters import ALL_TECHNOLOGIES
    from repro.harden.frontier import format_table, report_json, run_frontier

    techs = {p.name.lower().replace(" ", "-"): p for p in ALL_TECHNOLOGIES}
    if args.tech == ["all"]:
        selected = list(ALL_TECHNOLOGIES)
    else:
        selected = []
        for name in args.tech:
            params = techs.get(name.lower())
            if params is None:
                print(
                    f"unknown technology {name!r}; "
                    f"one of: all, {', '.join(sorted(techs))}"
                )
                return 2
            selected.append(params)
    try:
        telemetry = obs.from_paths(events=args.events, trace=args.trace)
    except OSError as exc:
        print(f"cannot open telemetry output: {exc}")
        return 2
    from repro.durability import Interrupted, graceful_signals

    n_jobs = _apply_jobs(args.jobs)
    started = time.perf_counter()
    interrupted: Optional[Interrupted] = None
    report = None
    try:
        with graceful_signals(), obs.use(telemetry):
            with telemetry.span("harden-frontier"):
                report = run_frontier(
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
    except Interrupted as exc:
        interrupted = exc
        print(f"\ninterrupted ({exc}); flushing telemetry and manifest")
    wall = time.perf_counter() - started
    telemetry.close()

    if interrupted is None:
        print(format_table(report))
        if args.out is not None:
            from repro.durability.atomic import atomic_write_text

            atomic_write_text(args.out, report_json(report))
            print(f"report: {args.out}")
        if telemetry.enabled:
            _print_telemetry_summary(telemetry, args.events, args.trace)
    if args.manifest is not None:
        from repro.obs.manifest import write_manifest
        from repro.perf.parallel import last_fanout

        path = write_manifest(
            args.manifest,
            command=["python", "-m", "repro", "harden"],
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
            seed=args.seed,
            wall_time_s=wall,
            metrics=telemetry.snapshot() if telemetry.enabled else None,
            extra={
                "interrupted": interrupted is not None,
                "fanout": last_fanout(),
            },
        )
        print(f"manifest: {path}")
    if interrupted is not None:
        return interrupted.exit_code
    return 0 if report["checks"]["ok"] else 1


def cmd_lint(args) -> int:
    import json

    from repro.core.program import Program
    from repro.lint import (
        RULES,
        LintConfig,
        Linter,
        TARGETS,
        render,
    )

    if args.rules:
        for rule in RULES.values():
            print(f"{rule.id}  [{rule.severity}]  {rule.title}")
            print(f"    {rule.why}")
        return 0
    if args.list:
        print("lintable program targets (python -m repro lint <name>):")
        for name, target in sorted(TARGETS.items()):
            print(f"  {name:12s} {target.description}")
        return 0

    jobs: list[tuple[str, Program, LintConfig]] = []
    if args.asm is not None:
        from repro.isa.assembler import AssemblerError, assemble

        try:
            with open(args.asm, "r", encoding="utf-8") as f:
                instructions = assemble(f.read())
        except OSError as exc:
            print(f"cannot read {args.asm}: {exc}")
            return 2
        except (AssemblerError, ValueError) as exc:
            print(f"cannot assemble {args.asm}: {exc}")
            return 2
        config = LintConfig(
            n_data_tiles=args.tiles, rows=args.rows, cols=args.cols
        )
        jobs.append((args.asm, Program(instructions, name=args.asm), config))
    else:
        names = args.targets or ["all"]
        if names == ["all"]:
            names = sorted(TARGETS)
        for name in names:
            target = TARGETS.get(name)
            if target is None:
                print(
                    f"unknown lint target {name!r}; "
                    "try 'python -m repro lint --list'"
                )
                return 2
            program, config = target.build()
            jobs.append((name, program, config))

    status = 0
    reports = []
    for name, program, config in jobs:
        report = Linter(config).run(program, name=name)
        reports.append(report)
        if not report.ok:
            status = 1
        if not args.json:
            print(render(report))
    if args.json:
        payload = [r.to_json_obj() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    return status


def cmd_verify(args) -> int:
    import json

    from repro.core.program import Program
    from repro.lint import RULES, LintConfig, render
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

    if args.rules:
        for rule in RULES.values():
            if not rule.id.startswith(("SEM", "REEX")):
                continue
            print(f"{rule.id}  [{rule.severity}]  {rule.title}")
            print(f"    {rule.why}")
        return 0
    if args.list:
        print("verifiable program targets (python -m repro verify <name>):")
        for name, target in sorted(VERIFY_TARGETS.items()):
            print(f"  {name:12s} {target.description}")
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

    status = 0
    reports = []
    if args.asm is not None:
        from repro.isa.assembler import AssemblerError, assemble

        try:
            with open(args.asm, "r", encoding="utf-8") as f:
                instructions = assemble(f.read())
        except OSError as exc:
            print(f"cannot read {args.asm}: {exc}")
            return 2
        except (AssemblerError, ValueError) as exc:
            print(f"cannot assemble {args.asm}: {exc}")
            return 2
        config = LintConfig(
            n_data_tiles=args.tiles, rows=args.rows, cols=args.cols
        )
        spec = None
        if args.spec is not None:
            try:
                with open(args.spec, "r", encoding="utf-8") as f:
                    spec = SemanticSpec.from_json_obj(json.load(f))
            except (OSError, ValueError, KeyError) as exc:
                print(f"cannot load spec {args.spec}: {exc}")
                return 2
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

            try:
                with open(args.against, "r", encoding="utf-8") as f:
                    source = Program(
                        assemble(f.read()), name=args.against
                    )
            except OSError as exc:
                print(f"cannot read {args.against}: {exc}")
                return 2
            except (AssemblerError, ValueError) as exc:
                print(f"cannot assemble {args.against}: {exc}")
                return 2
            passes.append(
                EquivalencePass(
                    source, constants=constants, focus_column=focus
                )
            )
        passes.append(
            ReExecutionPass(
                period=args.period, constants=constants, focus_column=focus
            )
        )
        program = Program(instructions, name=args.asm)
        reports.append(verify_program(program, config, passes, name=args.asm))
    else:
        names = args.targets or ["all"]
        if names == ["all"]:
            names = sorted(VERIFY_TARGETS)
        for name in names:
            if name not in VERIFY_TARGETS:
                print(
                    f"unknown verify target {name!r}; "
                    "try 'python -m repro verify --list'"
                )
                return 2
            reports.append(build_verify_target(name).run())
            if args.hardened:
                from repro.harden import HardenPolicy

                policy = HardenPolicy(
                    level=args.level, tmr_share=args.tmr_share
                )
                reports.append(hardened_job(name, policy).run())

    for report in reports:
        if not report.ok:
            status = 1
        if not args.json:
            print(render(report, tool="verify"))
    if args.json:
        payload = [r.to_json_obj() for r in reports]
        print(
            json.dumps(
                payload[0] if len(payload) == 1 else payload,
                indent=2,
                sort_keys=True,
            )
        )
    return status


def cmd_bench(args) -> int:
    from repro import obs
    from repro.durability import Interrupted, graceful_signals
    from repro.perf.bench import (
        compare_reports,
        load_report,
        render,
        render_compare,
        run_bench,
        write_report,
    )

    if args.compare:
        if len(args.compare) > 2:
            print("--compare takes OLD.json and at most one NEW.json")
            return 2
        try:
            old = load_report(args.compare[0])
            new = (
                load_report(args.compare[1])
                if len(args.compare) == 2
                else None
            )
        except (OSError, ValueError) as exc:
            print(f"cannot compare: {exc}")
            return 2
        if new is None:
            # No NEW report: measure the current tree against OLD.
            new = run_bench(quick=args.quick)
        if old.get("quick") != new.get("quick"):
            print(
                "warning: comparing a quick report against a full one; "
                "repetition counts differ"
            )
        comparison = compare_reports(old, new, threshold=args.threshold)
        print(render_compare(comparison))
        return 1 if comparison["regressions"] else 0

    try:
        telemetry = obs.from_paths(events=args.events)
    except OSError as exc:
        print(f"cannot open telemetry output: {exc}")
        return 2
    try:
        with graceful_signals(), obs.use(telemetry):
            report = run_bench(quick=args.quick)
    except Interrupted as exc:
        telemetry.close()
        print(f"\ninterrupted ({exc}); no benchmark report written")
        return exc.exit_code
    telemetry.close()
    print(render(report))
    write_report(report, args.out)
    print(f"report: {args.out}")
    if telemetry.enabled:
        _print_telemetry_summary(telemetry, args.events, None)
    return 0


def cmd_profile(args) -> int:
    """Per-scope energy/latency attribution for one workload.

    Small campaign workloads (``adder``/``svm``/``bnn``) run on the
    cycle-accurate machine, attributing every committed instruction to
    its compile-time scope stack (classifier > macro > primitive);
    Table IV names (``svm-adult``, ``bnn-finn``, ...) run the harvested
    closed-form engine at ``--power``, attributing per profile segment.
    Either way the profiler's root breakdown must equal the run's
    bit-for-bit — the command exits non-zero if it does not.
    """
    from repro.devices.parameters import ALL_TECHNOLOGIES
    from repro.obs.prof import EnergyProfiler

    techs = {p.name.lower().replace(" ", "-"): p for p in ALL_TECHNOLOGIES}
    params = techs.get(args.tech.lower())
    if params is None:
        print(
            f"unknown technology {args.tech!r}; one of: "
            + ", ".join(sorted(techs))
        )
        return 2

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
            print(
                f"unknown workload {args.workload!r}; one of: "
                + ", ".join(known)
            )
            return 2
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
        return HarvestTrace.load(spec)
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


def cmd_env(args) -> int:
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
        from repro.devices.parameters import ALL_TECHNOLOGIES
        from repro.env import AdaptivePolicy, replay

        techs = {p.name.lower().replace(" ", "-"): p for p in ALL_TECHNOLOGIES}
        params = techs.get(args.tech.lower())
        if params is None:
            print(
                f"unknown technology {args.tech!r}; one of: "
                + ", ".join(sorted(techs))
            )
            return 2
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

    if args.env_command == "sweep":
        from repro.experiments import env_sweep

        rows = env_sweep.run()
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            print(env_sweep.render(rows))
        return 0 if all(r["adaptive_at_least_fixed"] for r in rows) else 1

    return 2  # pragma: no cover


def cmd_stats(path: str, top: int) -> int:
    from repro.obs.replay import render, replay

    try:
        stats = replay(path, top=top)
    except (OSError, ValueError) as exc:
        print(f"cannot read {path}: {exc}")
        return 2
    print(render(stats, top=top))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment slugs")
    run_p = sub.add_parser("run", help="run selected experiments")
    run_p.add_argument("names", nargs="+")
    run_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed the stdlib/numpy RNGs and record it in the manifest",
    )
    run_p.add_argument(
        "--events", metavar="PATH", help="write a JSONL telemetry event log"
    )
    run_p.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome-trace JSON loadable in Perfetto",
    )
    run_p.add_argument(
        "--manifest",
        nargs="?",
        const="runs",
        metavar="DIR",
        help="write a run manifest (default directory: runs/)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for parallel sweeps (0 = all cores); "
        "results are byte-identical at any count",
    )
    run_p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist per-task results (and a session.json) so a killed "
        "run resumes from where it stopped, byte-identically",
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
    resume_p = sub.add_parser(
        "resume",
        help="replay the invocation recorded in a checkpoint directory",
    )
    resume_p.add_argument("checkpoint_dir", metavar="DIR")
    resume_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="override the recorded worker count (0 = all cores)",
    )
    faults_p = sub.add_parser(
        "faults", help="run a seeded fault-injection campaign"
    )
    faults_p.add_argument(
        "--workload", choices=("svm", "adder", "bnn"), default="svm"
    )
    faults_p.add_argument(
        "--tech",
        default="modern-stt",
        help="device technology (modern-stt, projected-stt, projected-she)",
    )
    faults_p.add_argument("--trials", type=int, default=16)
    faults_p.add_argument("--seed", type=int, default=0)
    faults_p.add_argument(
        "--sigma",
        type=float,
        default=0.05,
        help="relative device-parameter spread for gate flip rates",
    )
    faults_p.add_argument(
        "--derive-trials",
        type=int,
        default=20_000,
        help="Monte-Carlo samples per gate when deriving flip rates",
    )
    faults_p.add_argument(
        "--gate-scale",
        type=float,
        default=1.0,
        help="multiplier on derived gate flip rates (0 disables gate faults)",
    )
    faults_p.add_argument("--array-rate", type=float, default=0.0)
    faults_p.add_argument("--nv-rate", type=float, default=0.0)
    faults_p.add_argument("--outage-rate", type=float, default=0.0)
    faults_p.add_argument(
        "--no-retry",
        action="store_true",
        help="disable the verify-and-retry recovery layer",
    )
    faults_p.add_argument("--retry-budget", type=int, default=8)
    faults_p.add_argument(
        "--out", metavar="PATH", help="write the JSON report here"
    )
    faults_p.add_argument(
        "--events", metavar="PATH", help="write a JSONL telemetry event log"
    )
    faults_p.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome-trace JSON loadable in Perfetto",
    )
    faults_p.add_argument(
        "--manifest",
        nargs="?",
        const="runs",
        metavar="DIR",
        help="write a run manifest (default directory: runs/)",
    )
    faults_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for campaign trials (0 = all cores); "
        "the report JSON is byte-identical at any count",
    )
    faults_p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist per-trial results so a killed campaign resumes "
        "with a byte-identical report",
    )
    harden_p = sub.add_parser(
        "harden",
        help="sweep the selective-protection frontier (yield vs energy)",
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
        type=float,
        default=[0.0, 0.25, 0.5, 0.75, 1.0],
        help="protection levels to sweep (fraction of critical gates)",
    )
    harden_p.add_argument("--trials", type=int, default=32)
    harden_p.add_argument("--seed", type=int, default=11)
    harden_p.add_argument(
        "--target-flips",
        type=float,
        default=1.0,
        help="expected injected flips per unhardened trial (rates are "
        "rescaled from the device Monte Carlo to hit this)",
    )
    harden_p.add_argument(
        "--tmr-share",
        type=float,
        default=0.25,
        help="share of protected gates that get TMR (rest verify-retry)",
    )
    harden_p.add_argument(
        "--out", metavar="PATH", help="write the frontier report JSON here"
    )
    harden_p.add_argument(
        "--events", metavar="PATH", help="write a JSONL telemetry event log"
    )
    harden_p.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome-trace JSON loadable in Perfetto",
    )
    harden_p.add_argument(
        "--manifest",
        nargs="?",
        const="runs",
        metavar="DIR",
        help="write a run manifest (default directory: runs/)",
    )
    harden_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for frontier points (0 = all cores); "
        "the report JSON is byte-identical at any count",
    )
    harden_p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist per-point results so a killed sweep resumes "
        "with a byte-identical report",
    )
    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--skip-accuracy", action="store_true")
    all_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for parallel sweeps (0 = all cores)",
    )
    bench_p = sub.add_parser(
        "bench", help="run hot-path microbenchmarks, write BENCH_PR9.json"
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
        "--events", metavar="PATH", help="write a JSONL telemetry event log"
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
        type=float,
        default=0.30,
        metavar="FRAC",
        help="fractional ns/op growth counted as a regression "
        "(default 0.30)",
    )
    profile_p = sub.add_parser(
        "profile",
        help="per-scope energy/latency attribution (tables + flamegraphs)",
    )
    profile_p.add_argument(
        "workload",
        help="campaign workload (adder, svm, bnn; cycle-accurate) or "
        "Table IV name (svm-adult, bnn-finn, ...; harvested)",
    )
    profile_p.add_argument(
        "--tech",
        default="modern-stt",
        help="device technology (modern-stt, projected-stt, projected-she)",
    )
    profile_p.add_argument(
        "--power",
        type=float,
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
    env_p = sub.add_parser(
        "env",
        help="harvest environments: trace catalog, stats, replay, sweep",
    )
    env_sub = env_p.add_subparsers(dest="env_command", required=True)
    env_sub.add_parser("list", help="list the synthetic trace families")
    describe_p = env_sub.add_parser(
        "describe", help="summary statistics for a trace (family or file)"
    )
    describe_p.add_argument(
        "trace",
        help="trace family (constant, solar, rf_burst, kinetic) or a "
        "repro.env.trace/v1 JSONL file",
    )
    describe_p.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    describe_p.add_argument(
        "--watts",
        type=float,
        default=100e-6,
        help="power level for the constant family (default 100e-6)",
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
    )
    replay_p.add_argument(
        "workload", help="Table IV workload name (svm-adult, bnn-finn, ...)"
    )
    replay_p.add_argument(
        "trace", help="trace family name or a JSONL trace file"
    )
    replay_p.add_argument(
        "--tech",
        default="modern-stt",
        help="device technology (modern-stt, projected-stt, projected-she)",
    )
    replay_p.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    replay_p.add_argument(
        "--watts",
        type=float,
        default=100e-6,
        help="power level for the constant family (default 100e-6)",
    )
    replay_p.add_argument(
        "--adaptive",
        action="store_true",
        help="use the adaptive checkpoint policy (default: fixed cadence)",
    )
    replay_p.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="S",
        help="time budget in simulated seconds (default: four trace spans)",
    )
    replay_p.add_argument(
        "--max-inferences", type=int, default=64, metavar="N"
    )
    replay_p.add_argument(
        "--checkpoint-period", type=int, default=1, metavar="N"
    )
    replay_p.add_argument(
        "--leakage",
        type=float,
        default=0.0,
        metavar="A",
        help="capacitor leakage current in amps (default 0: ideal)",
    )
    replay_p.add_argument(
        "--esr",
        type=float,
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
    sub.add_parser("info", help="device technologies and gate designs")
    export_p = sub.add_parser("export", help="write every artifact as CSV")
    export_p.add_argument("directory", nargs="?", default="results")
    stats_p = sub.add_parser(
        "stats", help="replay a JSONL event log into aggregate views"
    )
    stats_p.add_argument("path")
    stats_p.add_argument("--top", type=int, default=10)
    lint_p = sub.add_parser(
        "lint", help="statically verify compiled CRAM programs"
    )
    lint_p.add_argument(
        "targets",
        nargs="*",
        help="registered target names (default: all; see --list)",
    )
    lint_p.add_argument(
        "--asm", metavar="PATH", help="lint an assembly file instead"
    )
    lint_p.add_argument(
        "--tiles", type=int, default=1, help="data tiles in the bank (--asm)"
    )
    lint_p.add_argument(
        "--rows", type=int, default=1024, help="rows per tile (--asm)"
    )
    lint_p.add_argument(
        "--cols", type=int, default=1024, help="columns per tile (--asm)"
    )
    lint_p.add_argument(
        "--json", action="store_true", help="emit JSON diagnostics"
    )
    lint_p.add_argument(
        "--list", action="store_true", help="list lintable targets"
    )
    lint_p.add_argument(
        "--rules", action="store_true", help="print the rule catalog"
    )

    verify_p = sub.add_parser(
        "verify",
        help="prove compiled CRAM programs equivalent to golden semantics",
    )
    verify_p.add_argument(
        "targets",
        nargs="*",
        help="registered verify targets (default: all; see --list)",
    )
    verify_p.add_argument(
        "--asm", metavar="PATH", help="verify an assembly file instead"
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
        "--tiles", type=int, default=1, help="data tiles in the bank (--asm)"
    )
    verify_p.add_argument(
        "--rows", type=int, default=1024, help="rows per tile (--asm)"
    )
    verify_p.add_argument(
        "--cols", type=int, default=1024, help="columns per tile (--asm)"
    )
    verify_p.add_argument(
        "--period",
        type=int,
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
        "--json", action="store_true", help="emit JSON diagnostics"
    )
    verify_p.add_argument(
        "--list", action="store_true", help="list verifiable targets"
    )
    verify_p.add_argument(
        "--rules",
        action="store_true",
        help="print the SEM/REEX rule catalog",
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
        type=float,
        default=1.0,
        help="hardening protection level for --hardened",
    )
    verify_p.add_argument(
        "--tmr-share",
        type=float,
        default=0.5,
        help="TMR share of the protection budget for --hardened",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(
            args.names,
            events=args.events,
            trace=args.trace,
            manifest=args.manifest,
            seed=args.seed,
            jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir,
            resumed=args.resume,
            serve_metrics=args.serve_metrics,
            no_compiled=args.no_compiled,
        )
    if args.command == "resume":
        return cmd_resume(args.checkpoint_dir, jobs=args.jobs)
    if args.command == "faults":
        return cmd_faults(args)
    if args.command == "harden":
        return cmd_harden(args)
    if args.command == "all":
        return cmd_all(args.skip_accuracy, jobs=args.jobs)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "env":
        return cmd_env(args)
    if args.command == "info":
        return cmd_info()
    if args.command == "export":
        return cmd_export(args.directory)
    if args.command == "stats":
        return cmd_stats(args.path, args.top)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "verify":
        return cmd_verify(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
