"""Command-line interface.

Usage (installed as ``repro`` or via ``python -m repro``)::

    repro generate --users 40000 --jobs 4 --out corpus.csv
    repro stats corpus.csv
    repro experiment all --users 40000
    repro experiment table2 --corpus corpus.csv
    repro pipeline run --users 40000 --jobs 4
    repro pipeline run --trace --profile
    repro trace show latest
    repro trace export latest --out pipeline.trace.json
    repro pipeline status
    repro pipeline clean
    repro serve --port 8000
    repro summary backfill --users 40000
    repro summary status
    repro epidemic --users 20000 --seed-city Sydney --model gravity2
    repro check --format json
    repro check --baseline

``experiment`` accepts either ``--corpus FILE`` (a CSV written by
``generate``) or ``--users N`` to synthesise a corpus on the fly.
``experiment all`` delegates to the cached DAG pipeline (see
``repro pipeline``); pass ``--no-cache`` for the direct in-process path.
All pipeline-backed commands honour ``--cache-dir`` (default
``~/.cache/repro`` or ``$REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import argparse
import sys
import time

import repro
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Scale
from repro.data.io import DataFormatError, read_tweets_csv, write_tweets_csv
from repro.geo.gazetteer import GazetteerSpecError
from repro.epidemic import arrival_times
from repro.experiments import (
    ExperimentContext,
    run_all_experiments,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
    run_table2,
)
from repro.models import GravityModel, RadiationModel
from repro.synth import SynthConfig, generate_corpus

EXPERIMENTS = ("table1", "fig1", "fig2", "fig3", "fig4", "table2", "all")


class CLIError(Exception):
    """A user-facing CLI failure: one message line, no traceback."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _read_corpus(path: str) -> TweetCorpus:
    """Load a corpus CSV, mapping I/O failures to clean CLI errors."""
    try:
        return TweetCorpus.from_tweets(read_tweets_csv(path))
    except FileNotFoundError:
        raise CLIError(f"corpus file not found: {path}") from None
    except IsADirectoryError:
        raise CLIError(f"corpus path is a directory, not a file: {path}") from None
    except PermissionError:
        raise CLIError(f"corpus file is not readable: {path}") from None
    except DataFormatError as exc:
        raise CLIError(f"malformed corpus file: {exc}") from None
    except OSError as exc:
        raise CLIError(f"cannot read corpus file {path}: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Multi-scale Population and Mobility Estimation "
            "with Geo-tagged Tweets' (Liu et al., ICDE 2015)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a geo-tagged tweet corpus")
    gen.add_argument("--users", type=int, default=40_000, help="number of users")
    gen.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sharded generation (output is "
        "bit-identical to --jobs 1)",
    )
    gen.add_argument(
        "--gazetteer", default="legacy",
        help="area system: 'legacy' or 'synth:<areas>[@<seed>]'",
    )

    stats = sub.add_parser("stats", help="print Table I statistics for a corpus CSV")
    stats.add_argument("corpus", help="corpus CSV path")

    exp = sub.add_parser("experiment", help="run a paper artefact reproduction")
    exp.add_argument("which", choices=EXPERIMENTS, help="which artefact")
    exp.add_argument("--corpus", help="corpus CSV (else synthesise)")
    exp.add_argument("--users", type=int, default=40_000, help="users to synthesise")
    exp.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    exp.add_argument("--jobs", type=int, default=1, help="worker processes ('all' only)")
    exp.add_argument("--cache-dir", help="artifact cache directory ('all' only)")
    exp.add_argument(
        "--no-cache", action="store_true",
        help="bypass the pipeline cache and run 'all' directly in-process",
    )
    exp.add_argument(
        "--gazetteer", default="legacy",
        help="area system: 'legacy' or 'synth:<areas>[@<seed>]'",
    )

    pipe = sub.add_parser(
        "pipeline", help="cached DAG runner for the experiment suite"
    )
    pipe_sub = pipe.add_subparsers(dest="pipeline_command", required=True)
    prun = pipe_sub.add_parser("run", help="run (or cache-resolve) the suite DAG")
    prun.add_argument("--corpus", help="corpus CSV (else synthesise)")
    prun.add_argument("--users", type=int, default=40_000, help="users to synthesise")
    prun.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    prun.add_argument("--jobs", type=int, default=1, help="parallel task/shard workers")
    prun.add_argument("--cache-dir", help="artifact cache directory")
    prun.add_argument(
        "--force", action="store_true", help="re-run every task, ignoring the cache"
    )
    prun.add_argument(
        "--targets", nargs="*", default=None, metavar="TASK",
        help="run only these tasks (plus their dependencies)",
    )
    prun.add_argument(
        "--trace", action="store_true",
        help="record a span trace into the run manifest "
        "(view with 'repro trace show <run-id>')",
    )
    prun.add_argument(
        "--profile", action="store_true",
        help="profile each executed task (cProfile); reports land next "
        "to the run manifest",
    )
    prun.add_argument(
        "--gazetteer", default="legacy",
        help="area system: 'legacy' or 'synth:<areas>[@<seed>]'",
    )
    pstatus = pipe_sub.add_parser(
        "status", help="per-task cache state for a configuration"
    )
    pstatus.add_argument("--corpus", help="corpus CSV (else synthesise)")
    pstatus.add_argument("--users", type=int, default=40_000, help="users to synthesise")
    pstatus.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    pstatus.add_argument("--cache-dir", help="artifact cache directory")
    pstatus.add_argument(
        "--gazetteer", default="legacy",
        help="area system: 'legacy' or 'synth:<areas>[@<seed>]'",
    )
    pclean = pipe_sub.add_parser("clean", help="delete every cached artifact and run")
    pclean.add_argument("--cache-dir", help="artifact cache directory")

    trace = sub.add_parser(
        "trace", help="inspect span traces recorded by 'pipeline run --trace'"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tshow = trace_sub.add_parser("show", help="render a run's span tree")
    tshow.add_argument("run_id", help="run id, or 'latest' for the newest run")
    tshow.add_argument("--cache-dir", help="artifact cache directory")
    texport = trace_sub.add_parser(
        "export", help="write a run's Chrome trace-event JSON"
    )
    texport.add_argument("run_id", help="run id, or 'latest' for the newest run")
    texport.add_argument(
        "--out", help="output path (default: <run-id>.trace.json)"
    )
    texport.add_argument("--cache-dir", help="artifact cache directory")

    serve = sub.add_parser(
        "serve", help="HTTP estimation service over the artifact cache"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8000, help="bind port (0 = ephemeral)"
    )
    serve.add_argument("--cache-dir", help="artifact cache directory")
    serve.add_argument(
        "--monitor-scale",
        choices=[s.value for s in Scale],
        default=Scale.NATIONAL.value,
        help="area system for the live ingest monitor",
    )
    serve.add_argument(
        "--window-seconds", type=float, default=3600.0,
        help="flow window of the anomaly monitor (rounded up to whole minutes)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=2.0,
        help="minimum seconds between hot-reload checks",
    )
    serve.add_argument(
        "--max-body-kb", type=int, default=1024,
        help="largest accepted request body (KiB)",
    )
    serve.add_argument(
        "--no-summary", action="store_true",
        help="keep the summary store in memory and answer windowed reads 503",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="pre-fork worker processes with consistent-hash sharded "
        "ingest (1 = classic single-process serving)",
    )
    serve.add_argument(
        "--gazetteer", default="legacy",
        help="area system: 'legacy' or 'synth:<areas>[@<seed>]'",
    )

    summary = sub.add_parser(
        "summary", help="multi-resolution time-tiered summary store"
    )
    summary_sub = summary.add_subparsers(dest="summary_command", required=True)
    sback = summary_sub.add_parser(
        "backfill", help="build summary tiles from a corpus (cached)"
    )
    sback.add_argument("--corpus", help="corpus CSV (else synthesise)")
    sback.add_argument("--users", type=int, default=40_000, help="users to synthesise")
    sback.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    sback.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=Scale.NATIONAL.value,
        help="area system to summarise at",
    )
    sback.add_argument("--cache-dir", help="artifact cache directory")
    sback.add_argument("--jobs", type=int, default=1, help="parallel task workers")
    sback.add_argument(
        "--force", action="store_true", help="rebuild tiles, ignoring the cache"
    )
    sback.add_argument(
        "--gazetteer", default="legacy",
        help="area system: 'legacy' or 'synth:<areas>[@<seed>]'",
    )
    sstatus = summary_sub.add_parser(
        "status", help="tile inventory of a persisted summary namespace"
    )
    sstatus.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=Scale.NATIONAL.value,
        help="summary namespace to inspect",
    )
    sstatus.add_argument("--cache-dir", help="artifact cache directory")
    sstatus.add_argument(
        "--gazetteer", default="legacy",
        help="area system: 'legacy' or 'synth:<areas>[@<seed>]'",
    )

    epi = sub.add_parser("epidemic", help="disease-spread forecast on fitted mobility")
    epi.add_argument("--users", type=int, default=20_000, help="users to synthesise")
    epi.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    epi.add_argument("--seed-city", default="Sydney", help="outbreak origin city")
    epi.add_argument(
        "--model",
        choices=("gravity2", "gravity4", "radiation"),
        default="gravity2",
        help="mobility model coupling the patches",
    )
    epi.add_argument("--runs", type=int, default=20, help="stochastic runs")
    epi.add_argument("--r0", type=float, default=2.5, help="basic reproduction number")

    scen = sub.add_parser(
        "scenario", help="declarative counterfactual scenarios on the pipeline DAG"
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)

    def _scenario_run_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--config", action="append", default=[],
                            help="scenario config JSON file (repeatable)")
        parser.add_argument("--users", type=int, help="override corpus users")
        parser.add_argument("--seed", type=int, help="override corpus RNG seed")
        parser.add_argument(
            "--gazetteer",
            help="override area system: 'legacy' or 'synth:<areas>[@<seed>]'",
        )
        parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
        parser.add_argument("--cache-dir", help="artifact cache directory")
        parser.add_argument(
            "--force", action="store_true", help="re-execute even on cache hits"
        )
        parser.add_argument(
            "--json", dest="json_out", metavar="PATH",
            help="also write the result as JSON ('-' for stdout)",
        )

    srun = scen_sub.add_parser(
        "run", help="run one scenario, cached on the artifact store"
    )
    srun.add_argument(
        "name", nargs="?", help="named scenario (see 'repro scenario list')"
    )
    _scenario_run_options(srun)
    scomp = scen_sub.add_parser(
        "compare", help="run scenarios as one DAG and diff them against the first"
    )
    scomp.add_argument("names", nargs="*", help="named scenarios (baseline first)")
    _scenario_run_options(scomp)
    scen_sub.add_parser("list", help="the named scenario library")

    gt = sub.add_parser(
        "groundtruth",
        help="validate the paper's census-prediction proposal against ground truth",
    )
    gt.add_argument("--users", type=int, default=20_000, help="users to synthesise")
    gt.add_argument("--seed", type=int, default=20150413, help="RNG seed")

    val = sub.add_parser("validate", help="cross-validated model comparison")
    val.add_argument("--corpus", help="corpus CSV (else synthesise)")
    val.add_argument("--users", type=int, default=20_000, help="users to synthesise")
    val.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    val.add_argument("--folds", type=int, default=5, help="CV folds")

    dist = sub.add_parser("distance", help="multi-scale distance analysis")
    dist.add_argument("--corpus", help="corpus CSV (else synthesise)")
    dist.add_argument("--users", type=int, default=20_000, help="users to synthesise")
    dist.add_argument("--seed", type=int, default=20150413, help="RNG seed")

    temporal = sub.add_parser("temporal", help="hourly/weekly activity profiles")
    temporal.add_argument("--corpus", help="corpus CSV (else synthesise)")
    temporal.add_argument("--users", type=int, default=20_000, help="users to synthesise")
    temporal.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    temporal.add_argument(
        "--diurnal", type=float, default=0.0,
        help="diurnal amplitude for synthesised corpora (0 = flat)",
    )

    report = sub.add_parser("report", help="full reproduction report (markdown)")
    report.add_argument("--corpus", help="corpus CSV (else synthesise)")
    report.add_argument("--users", type=int, default=40_000, help="users to synthesise")
    report.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    report.add_argument("--out", help="write the report to this file (else stdout)")

    health = sub.add_parser("health", help="corpus hygiene: health report + bot scan")
    health.add_argument("corpus", help="corpus CSV path")
    health.add_argument(
        "--max-rate", type=float, default=30.0, help="bot rate threshold (tweets/day)"
    )

    anon = sub.add_parser("anonymize", help="pseudonymise + spatially coarsen a corpus")
    anon.add_argument("corpus", help="input corpus CSV path")
    anon.add_argument("--out", required=True, help="output corpus CSV path")
    anon.add_argument("--key", required=True, help="pseudonymisation key")
    anon.add_argument(
        "--coarsen-km", type=float, default=1.0,
        help="spatial rounding resolution in km (0 disables)",
    )

    check = sub.add_parser(
        "check",
        help="project-aware static analysis (layering, determinism, "
        "hygiene, interprocedural concurrency + lock ordering, fork "
        "safety) with a ratcheting baseline",
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI artifact)",
    )
    check.add_argument(
        "--baseline", action="store_true",
        help="re-record every current violation as accepted debt",
    )
    check.add_argument(
        "--baseline-file",
        help="baseline path (default: <root>/check-baseline.json)",
    )
    check.add_argument(
        "--root",
        help="project root containing src/repro (default: auto-detect)",
    )
    check.add_argument(
        "--rules", nargs="*", metavar="FAMILY",
        help="rule families to run (default: all)",
    )
    check.add_argument(
        "--show-baselined", action="store_true",
        help="also list baselined (accepted) violations in text output",
    )

    density = sub.add_parser("densitymap", help="render the Fig 1 density map as a PPM image")
    density.add_argument("--corpus", help="corpus CSV (else synthesise)")
    density.add_argument("--users", type=int, default=40_000, help="users to synthesise")
    density.add_argument("--seed", type=int, default=20150413, help="RNG seed")
    density.add_argument("--out", required=True, help="output .ppm path")
    density.add_argument("--cell-km", type=float, default=25.0, help="grid cell size")
    return parser


def _load_or_generate(args: argparse.Namespace) -> TweetCorpus:
    if getattr(args, "corpus", None):
        print(f"loading corpus from {args.corpus} ...", file=sys.stderr)
        return _read_corpus(args.corpus)
    print(f"synthesising corpus ({args.users} users) ...", file=sys.stderr)
    config = SynthConfig(
        n_users=args.users,
        seed=args.seed,
        gazetteer=getattr(args, "gazetteer", "legacy"),
    )
    return generate_corpus(config).corpus


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"repro generate: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    start = time.time()  # repro: allow[determinism] CLI progress timing
    result = generate_corpus(
        SynthConfig(n_users=args.users, seed=args.seed, gazetteer=args.gazetteer),
        jobs=args.jobs,
    )
    count = write_tweets_csv(result.corpus.iter_tweets(), args.out)
    print(
        f"wrote {count} tweets by {result.corpus.n_users} users to {args.out} "
        f"({time.time() - start:.1f}s)"  # repro: allow[determinism] CLI progress timing
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus)
    print(run_table1(corpus).render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.which == "all" and not args.no_cache:
        from repro.pipeline import TaskFailure, run_all_experiments_cached

        if args.jobs < 1:
            print(
                f"repro experiment: --jobs must be >= 1, got {args.jobs}",
                file=sys.stderr,
            )
            return 2
        try:
            suite, run = run_all_experiments_cached(
                config=None if args.corpus else SynthConfig(
                    n_users=args.users, seed=args.seed, gazetteer=args.gazetteer
                ),
                corpus_path=args.corpus,
                cache_dir=args.cache_dir,
                jobs=args.jobs,
                gazetteer=args.gazetteer,
            )
        except TaskFailure as failure:
            print(
                f"experiment suite failed at task '{failure.task_name}': "
                f"{failure.cause!r}",
                file=sys.stderr,
            )
            return 1
        print(suite.render())
        print(run.manifest.summary(), file=sys.stderr)
        return 0
    corpus = _load_or_generate(args)
    if args.which == "all":
        print(run_all_experiments(corpus, gazetteer=args.gazetteer).render())
        return 0
    context = ExperimentContext(corpus, gazetteer=args.gazetteer)
    runners = {
        "table1": lambda: run_table1(corpus),
        "fig1": lambda: run_fig1(corpus),
        "fig2": lambda: run_fig2(corpus),
        "fig3": lambda: run_fig3(context),
        "fig4": lambda: run_fig4(context),
        "table2": lambda: run_table2(context),
    }
    print(runners[args.which]().render())
    return 0


def _pipeline_status_text(pipeline, store) -> str:
    """Per-task cache state, resolving keys as far as the cache allows."""
    digests: dict[str, str] = {}
    lines = [
        f"cache dir: {store.root}",
        f"  {'task':<12s} {'state':<8s} {'cache key':<14s} {'artifact':<14s}",
    ]
    for task in pipeline.topological_order():
        if all(dep in digests for dep in task.deps):
            key = task.cache_key(digests)
            digest = store.lookup(key)
            if digest is not None:
                digests[task.name] = digest
                state, key_text, digest_text = "cached", key[:12], digest[:12]
            else:
                state, key_text, digest_text = "missing", key[:12], "-"
        else:
            # An upstream miss means this task's inputs (hence its key)
            # are unknown until the upstream body runs.
            state, key_text, digest_text = "stale", "-", "-"
        lines.append(f"  {task.name:<12s} {state:<8s} {key_text:<14s} {digest_text:<14s}")
    cached = len(digests)
    lines.append(f"  {cached}/{len(pipeline)} tasks cached for this configuration")
    return "\n".join(lines)


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.pipeline import (
        ARTEFACT_TASKS,
        ArtifactStore,
        PipelineError,
        TaskFailure,
        run_suite,
        suite_pipeline,
    )

    if getattr(args, "jobs", 1) < 1:
        print(f"repro pipeline: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    store = ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
    if args.pipeline_command == "clean":
        removed = store.clear()
        print(f"removed {removed} cache files from {store.root}")
        return 0

    config = None
    if not args.corpus:
        config = SynthConfig(
            n_users=args.users, seed=args.seed, gazetteer=args.gazetteer
        )
    if args.pipeline_command == "status":
        pipeline = suite_pipeline(
            config=config, corpus_path=args.corpus, gazetteer=args.gazetteer
        )
        print(_pipeline_status_text(pipeline, store))
        return 0

    targets = tuple(args.targets) if args.targets else None
    try:
        suite, run = run_suite(
            config=config,
            corpus_path=args.corpus,
            store=store,
            jobs=args.jobs,
            force=args.force,
            targets=targets,
            trace=args.trace,
            profile=args.profile,
            gazetteer=args.gazetteer,
        )
    except TaskFailure as failure:
        print(
            f"pipeline failed at task '{failure.task_name}': {failure.cause!r}",
            file=sys.stderr,
        )
        return 1
    except PipelineError as error:
        print(f"repro pipeline: {error}", file=sys.stderr)
        return 2
    if suite is not None:
        print(suite.render())
    else:
        requested = set(targets or ARTEFACT_TASKS)
        rendered = [
            run.artifact(name).render()
            for name in ARTEFACT_TASKS
            if name in requested and name in run.digests
        ]
        if rendered:
            rule = "\n" + "=" * 78 + "\n"
            print(rule.join(rendered))
    print(run.manifest.summary(), file=sys.stderr)
    manifest_path = store.runs_dir / run.manifest.run_id / "manifest.json"
    print(f"manifest: {manifest_path}", file=sys.stderr)
    if args.trace:
        print(
            f"trace: repro trace show {run.manifest.run_id}", file=sys.stderr
        )
    return 0


def _resolve_trace_run(store, run_id: str):
    """A run's manifest by id (or 'latest'), failing with clean CLI errors."""
    if run_id == "latest":
        run_ids = store.run_ids()
        if not run_ids:
            raise CLIError(f"no recorded runs under {store.runs_dir}")
        run_id = run_ids[-1]
    manifest = store.load_run(run_id)
    if manifest is None:
        raise CLIError(f"no run {run_id!r} under {store.runs_dir}")
    if not manifest.trace:
        raise CLIError(
            f"run {manifest.run_id} has no recorded trace; "
            "re-run with 'repro pipeline run --trace'"
        )
    return manifest


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.pipeline import ArtifactStore

    store = ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
    manifest = _resolve_trace_run(store, args.run_id)
    if args.trace_command == "show":
        print(f"run {manifest.run_id} — {len(manifest.trace)} spans")
        print(obs.render_span_tree(manifest.trace))
        return 0
    out = args.out or f"{manifest.run_id}.trace.json"
    path = obs.write_chrome_trace(manifest.trace, out, run_id=manifest.run_id)
    print(f"wrote {len(manifest.trace)} spans to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.pipeline import ArtifactStore
    from repro.serve import (
        RegistryError,
        create_app,
        create_server,
        install_signal_handlers,
    )

    if args.workers > 1:
        return _cmd_serve_cluster(args)
    store = ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
    try:
        app = create_app(
            store,
            monitor_scale=Scale(args.monitor_scale),
            window_seconds=args.window_seconds,
            poll_interval=args.poll_interval,
            max_body_bytes=args.max_body_kb * 1024,
            with_summary=not args.no_summary,
            gazetteer=args.gazetteer,
        )
    except RegistryError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    server = create_server(args.host, args.port, app)
    install_signal_handlers(server)
    snapshot = app.registry.snapshot
    print(
        f"serving run {snapshot.run_id} "
        f"({snapshot.n_tweets} tweets, {snapshot.n_users} users) "
        f"on http://{args.host}:{server.port} — SIGINT/SIGTERM to stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("shutdown complete: in-flight requests drained", file=sys.stderr)
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterConfig, ClusterSupervisor

    config = ClusterConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        monitor_scale=Scale(args.monitor_scale),
        gazetteer=args.gazetteer,
        window_seconds=args.window_seconds,
        poll_interval=args.poll_interval,
        max_body_bytes=args.max_body_kb * 1024,
        with_summary=not args.no_summary,
    )
    supervisor = ClusterSupervisor(config)
    supervisor.start()
    if not supervisor.wait_ready(timeout=60.0):
        print("repro serve: workers failed to warm up", file=sys.stderr)
        supervisor.stop()
        return 2
    print(
        f"serving with {args.workers} workers on "
        f"http://{args.host}:{supervisor.port} "
        f"(shards: {', '.join(supervisor.shard_addresses.values())}) "
        "— SIGINT/SIGTERM to stop",
        file=sys.stderr,
    )
    supervisor.run()
    print("shutdown complete: workers drained", file=sys.stderr)
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.core.world import World
    from repro.data.gazetteer import gazetteer_from_spec
    from repro.pipeline import ArtifactStore, TaskFailure
    from repro.summary import SummaryStore, backfill_summary

    store = ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()
    scale = Scale(args.scale)
    resolved = gazetteer_from_spec(args.gazetteer)
    if resolved.is_legacy:
        namespace = scale.value
    else:
        namespace = f"{resolved.namespace_slug}-{scale.value}"
    summary = SummaryStore(
        World.from_scale(scale, gazetteer=resolved),
        artifacts=store,
        namespace=namespace,
    )

    if args.summary_command == "status":
        recovered = summary.recover()
        stats = summary.stats()
        print(f"cache dir: {store.root}")
        print(f"namespace: {namespace} ({recovered} persisted tiles)")
        for tier, count in stats["tiles"].items():
            print(f"  {tier:<8s} {count} tiles")
        watermark = stats["watermark"]
        print(f"  watermark: {watermark if watermark is not None else 'none'}")
        print(
            f"  journal: {stats['journal_bytes']} bytes"
            f" ({stats['torn_bytes_dropped']} torn bytes dropped)"
        )
        print(f"  stale_frames: {stats['stale_frames']}")
        return 0

    if args.jobs < 1:
        raise CLIError(f"--jobs must be >= 1, got {args.jobs}")
    config = None
    if not args.corpus:
        config = SynthConfig(
            n_users=args.users, seed=args.seed, gazetteer=args.gazetteer
        )
        print(f"synthesising corpus ({args.users} users) ...", file=sys.stderr)
    summary.recover()
    try:
        tiles, installed, run = backfill_summary(
            store,
            summary,
            config=config,
            corpus_path=args.corpus,
            scale=scale,
            jobs=args.jobs,
            force=args.force,
            gazetteer=args.gazetteer,
        )
    except TaskFailure as failure:
        print(
            f"backfill failed at task '{failure.task_name}': {failure.cause!r}",
            file=sys.stderr,
        )
        return 1
    # The open tail minute would die with this process: persist it, as
    # a draining server does.
    summary.flush()
    span = tiles.span
    span_text = f"[{span[0]}, {span[1]})" if span else "empty"
    print(
        f"backfilled {installed} minute tiles ({tiles.n_tweets} tweets, "
        f"{tiles.n_transitions} transitions) spanning {span_text}"
    )
    print(run.manifest.summary(), file=sys.stderr)
    return 0


def _cmd_epidemic(args: argparse.Namespace) -> int:
    import numpy as np

    corpus = _load_or_generate(args)
    context = ExperimentContext(corpus)
    network = context.network(Scale.NATIONAL, args.model)
    gamma = 0.2
    beta = args.r0 * gamma
    print(
        f"Seeding outbreak in {args.seed_city} (R0={args.r0}, model={args.model}) ...",
        file=sys.stderr,
    )
    summary = arrival_times(
        network,
        beta=beta,
        gamma=gamma,
        seed_patch=args.seed_city,
        n_runs=args.runs,
        rng=np.random.default_rng(args.seed),
    )
    print(summary.render())
    return 0


def _scenario_configs(args: argparse.Namespace, names: list[str]):
    """Resolve named + file-based scenario configs with CLI overrides."""
    import json

    from repro.scenario import ScenarioConfig, ScenarioConfigError, named_scenario

    configs = []
    try:
        for name in names:
            configs.append(named_scenario(name))
        for path in args.config:
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
            except FileNotFoundError:
                raise CLIError(f"scenario config not found: {path}") from None
            except json.JSONDecodeError as error:
                raise CLIError(f"invalid JSON in {path}: {error}") from None
            configs.append(ScenarioConfig.from_dict(payload))
    except ScenarioConfigError as error:
        raise CLIError(str(error)) from error
    return [
        config.with_overrides(
            users=args.users, seed=args.seed, gazetteer=args.gazetteer
        )
        for config in configs
    ]


def _emit_scenario_json(args: argparse.Namespace, payload: dict) -> None:
    import json

    if not args.json_out:
        return
    text = json.dumps(payload, indent=2, allow_nan=False)
    if args.json_out == "-":
        print(text)
    else:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.pipeline import ArtifactStore, TaskFailure
    from repro.scenario import (
        ScenarioConfigError,
        run_comparison,
        run_scenario,
        scenario_descriptions,
    )

    if args.scenario_command == "list":
        descriptions = scenario_descriptions()
        width = max(len(name) for name in descriptions)
        for name, description in descriptions.items():
            print(f"{name:<{width + 2}s}{description}")
        return 0

    if getattr(args, "jobs", 1) < 1:
        raise CLIError(f"--jobs must be >= 1, got {args.jobs}")
    store = ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()

    if args.scenario_command == "run":
        names = [args.name] if args.name else []
        configs = _scenario_configs(args, names)
        if len(configs) != 1:
            raise CLIError("scenario run takes exactly one scenario (name or --config)")
        try:
            result, run = run_scenario(
                configs[0], store=store, jobs=args.jobs, force=args.force
            )
        except TaskFailure as error:
            raise CLIError(f"scenario failed: {error}", code=1) from error
        print(result.render())
        print(run.manifest.summary(), file=sys.stderr)
        _emit_scenario_json(args, result.to_json_dict())
        return 0

    configs = _scenario_configs(args, list(args.names))
    try:
        comparison, run = run_comparison(
            tuple(configs), store=store, jobs=args.jobs, force=args.force
        )
    except ScenarioConfigError as error:
        raise CLIError(str(error)) from error
    except TaskFailure as error:
        raise CLIError(f"scenario comparison failed: {error}", code=1) from error
    print(comparison.render())
    print(run.manifest.summary(), file=sys.stderr)
    _emit_scenario_json(args, comparison.to_json_dict())
    return 0


def _cmd_groundtruth(args: argparse.Namespace) -> int:
    from repro.experiments.ground_truth import run_ground_truth_validation

    print(f"synthesising corpus ({args.users} users) ...", file=sys.stderr)
    result = generate_corpus(SynthConfig(n_users=args.users, seed=args.seed))
    print(run_ground_truth_validation(result).render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.models import k_fold_cross_validate

    corpus = _load_or_generate(args)
    context = ExperimentContext(corpus)
    print(f"{args.folds}-fold cross-validated Pearson r (held-out pairs):")
    header = f"{'':14s}{'Gravity 4Param':>18s}{'Gravity 2Param':>18s}{'Radiation':>18s}"
    print(header)
    for scale in Scale:
        flows = context.flows(scale)
        pairs = flows.pairs()
        row = f"{scale.value.capitalize():14s}"
        for model in (GravityModel(4), GravityModel(2), RadiationModel.from_flows(flows)):
            result = k_fold_cross_validate(
                model, pairs, k=args.folds, rng=np.random.default_rng(0)
            )
            row += f"{result.mean_pearson:>18.3f}"
        print(row)
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    from repro.experiments.distance import run_distance_analysis

    corpus = _load_or_generate(args)
    print(run_distance_analysis(corpus).render())
    return 0


def _cmd_temporal(args: argparse.Namespace) -> int:
    from repro.extraction.temporal import day_night_ratio, hourly_profile, weekly_profile

    if getattr(args, "corpus", None):
        corpus = _load_or_generate(args)
    else:
        print(f"synthesising corpus ({args.users} users) ...", file=sys.stderr)
        corpus = generate_corpus(
            SynthConfig(n_users=args.users, seed=args.seed, diurnal_amplitude=args.diurnal)
        ).corpus
    print("Hourly activity profile:")
    print(hourly_profile(corpus).render())
    print("\nWeekly activity profile:")
    print(weekly_profile(corpus).render())
    ratio = day_night_ratio(corpus)
    print(f"\nday/night activity ratio: {ratio:.2f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    corpus = _load_or_generate(args)
    note = (
        f"Corpus: {len(corpus):,} tweets by {corpus.n_users:,} users "
        f"(seed {getattr(args, 'seed', 'n/a')})."
    )
    report = generate_report(run_all_experiments(corpus), title_note=note)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
            handle.write("\n")
        print(f"wrote report to {args.out}", file=sys.stderr)
    else:
        print(report)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.data.validation import corpus_health_report, detect_bots

    corpus = _read_corpus(args.corpus)
    print(corpus_health_report(corpus).render())
    bots = detect_bots(corpus, max_rate_per_day=args.max_rate)
    if bots.size:
        print(f"\nflagged {bots.size} likely bot accounts: {bots[:10].tolist()}"
              + (" ..." if bots.size > 10 else ""))
    else:
        print("\nno likely bot accounts flagged")
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.data.anonymize import coarsen_coordinates, pseudonymize_users

    corpus = _read_corpus(args.corpus)
    anonymous = pseudonymize_users(corpus, key=args.key)
    if args.coarsen_km > 0:
        anonymous = coarsen_coordinates(anonymous, args.coarsen_km)
    count = write_tweets_csv(anonymous.iter_tweets(), args.out)
    print(
        f"wrote {count} anonymised tweets to {args.out} "
        f"(coarsened to {args.coarsen_km} km)"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import CheckConfigError, render_json, render_text, run_check

    try:
        result = run_check(
            root=Path(args.root) if args.root else None,
            rules=tuple(args.rules) if args.rules is not None else None,
            baseline_path=Path(args.baseline_file) if args.baseline_file else None,
            record=args.baseline,
        )
    except CheckConfigError as error:
        raise CLIError(str(error)) from None
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose_baselined=args.show_baselined))
        if result.recorded is not None:
            print(
                f"recorded {result.recorded} entr"
                f"{'y' if result.recorded == 1 else 'ies'} to the baseline",
                file=sys.stderr,
            )
    return 0 if result.ok else 1


def _cmd_densitymap(args: argparse.Namespace) -> int:
    from repro.experiments.fig1 import run_fig1
    from repro.viz.image import save_density_ppm

    corpus = _load_or_generate(args)
    result = run_fig1(corpus, cell_km=args.cell_km)
    save_density_ppm(result.grid, args.out)
    print(f"wrote density map to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "experiment": _cmd_experiment,
        "pipeline": _cmd_pipeline,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "summary": _cmd_summary,
        "epidemic": _cmd_epidemic,
        "scenario": _cmd_scenario,
        "groundtruth": _cmd_groundtruth,
        "validate": _cmd_validate,
        "distance": _cmd_distance,
        "temporal": _cmd_temporal,
        "report": _cmd_report,
        "health": _cmd_health,
        "anonymize": _cmd_anonymize,
        "check": _cmd_check,
        "densitymap": _cmd_densitymap,
    }
    try:
        return handlers[args.command](args)
    except GazetteerSpecError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 1
    except CLIError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return error.code


if __name__ == "__main__":
    raise SystemExit(main())
