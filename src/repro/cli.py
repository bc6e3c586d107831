"""Command-line interface.

Subcommands::

    python -m repro.cli stats   --city mini-chengdu --trips 500
    python -m repro.cli datagen --city mega-chengdu --storage disk \\
                                --out data/mega --chunk 4096 --verify
    python -m repro.cli embed   --city mini-chengdu --graph line \\
                                --out ws.npz
    python -m repro.cli train   --city mini-chengdu --trips 2000 \\
                                --epochs 8 --save model/
    python -m repro.cli serve   --artifact model/ --port 8321
    python -m repro.cli serve   --artifact deploy/current --workers 4
    python -m repro.cli loadtest --artifact model/ --workers 4 \\
                                 --rps 100 --out loadtest.json
    python -m repro.cli stream  --city mini-chengdu --trips 300 \\
                                --deploy deploy/ --shift-factor 1.8
    python -m repro.cli compare --city mini-xian --trips 2000 \\
                                --methods TEMP LR GBM DeepOD
    python -m repro.cli lint    src tests benchmarks
    python -m repro.cli exp run     --runs-dir runs/ --checkpoint-every 50
    python -m repro.cli exp sweep   --runs-dir runs/ --jobs 4 \\
                                    --grid aux_weight=0.1,0.5,0.9 --seeds 0 1
    python -m repro.cli exp sweep   --grid aux_weight=0.1,0.3,0.5,0.7,0.9 \\
                                    --out sweep_w.json      # Fig 9
    python -m repro.cli exp list    --runs-dir runs/
    python -m repro.cli exp promote --runs-dir runs/ --deploy deploy/

``train --save`` writes a self-contained serving artifact (directory:
weights + config + calibration + dataset fingerprint) that ``serve``
reloads with no retraining; a path ending in ``.npz`` falls back to a
bare weights file.  ``serve --workers N`` (N > 1) swaps the
single-process service for the sharded multi-process
:class:`~repro.serving.ServingCluster` — point ``--artifact`` at a
promotion gate's ``current`` symlink and workers hot-swap newly
promoted models without dropping traffic.  ``loadtest`` measures
saturation throughput, one process against a cluster, then replays a
seeded synthetic query stream against the cluster at controlled RPS
and reports p50/p95/p99 latency and shed/failed counts.  The ``exp`` group
drives the experiment pipeline
(``repro.experiments``): checkpointed registry runs, parallel sweep
grids, and gated promotion of the best artifact into a deployment
directory that ``serve --artifact <deploy>/current`` picks up.
Everything runs on synthetic city presets (see ``repro.datagen.cities``);
results print as plain text tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from .atomic import write_json
from .baselines import (
    DeepODEstimator, GBMEstimator, LinearRegressionEstimator,
    MURATEstimator, STNNEstimator, TEMPEstimator,
)
from .core import (
    DeepODConfig, DeepODTrainer, TravelTimePredictor, build_deepod,
)
from .datagen import DatasetSpec, PRESETS, build, strip_trajectories
from .eval import format_table, mape, run_comparison
from .nn import save_arrays, save_state


def _make_tracer(args):
    """An enabled tracer iff ``--trace`` was given, else the shared
    no-op singleton."""
    from .obs import NULL_TRACER, Tracer
    return Tracer() if getattr(args, "trace", "") else NULL_TRACER


def _export_obs(args, tracer, snapshot=None) -> None:
    """Write the ``--trace`` / ``--metrics-out`` artefacts, if requested.

    ``snapshot`` overrides the default global-registry snapshot (the
    serving command passes its per-service registry).  Notices go to
    stderr so JSON-emitting modes keep a clean stdout.
    """
    if getattr(args, "trace", ""):
        tracer.export(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if getattr(args, "metrics_out", ""):
        if snapshot is None:
            from .obs import global_registry
            snapshot = global_registry().snapshot()
        write_json(args.metrics_out, snapshot)
        print(f"metrics snapshot written to {args.metrics_out}",
              file=sys.stderr)


def _default_config(args) -> DeepODConfig:
    return DeepODConfig(
        d_s=32, d_t=16, d1_m=32, d2_m=16, d3_m=32, d4_m=16,
        d5_m=32, d6_m=16, d7_m=32, d9_m=32, d_h=32, d_traf=16,
        epochs=args.epochs, batch_size=64, aux_weight=args.aux_weight,
        lr_decay_epochs=4, use_external_features=args.external,
        seed=args.seed)


def _make_estimator(name: str, args):
    name = name.upper() if name.lower() != "deepod" else "DeepOD"
    factories = {
        "TEMP": lambda: TEMPEstimator(),
        "LR": lambda: LinearRegressionEstimator(),
        "GBM": lambda: GBMEstimator(num_trees=40, seed=args.seed),
        "STNN": lambda: STNNEstimator(epochs=args.epochs, seed=args.seed),
        "MURAT": lambda: MURATEstimator(epochs=args.epochs,
                                        seed=args.seed),
        "DeepOD": lambda: DeepODEstimator(_default_config(args),
                                          eval_every=0),
    }
    if name not in factories:
        raise SystemExit(f"unknown method {name!r}; choose from "
                         f"{sorted(factories)}")
    return factories[name]()


def cmd_stats(args) -> int:
    dataset = build(DatasetSpec(args.city, num_trips=args.trips,
                                num_days=args.days))
    print(f"dataset: {dataset.name}")
    for key, value in dataset.statistics().items():
        print(f"  {key:20s} {value:12.2f}")
    return 0


def cmd_datagen(args) -> int:
    """Build a dataset through the chunked pipeline — the out-of-core
    path for mega-* presets — and report throughput + fingerprint."""
    import time

    from .datagen import TaxiDataset, dataset_fingerprint
    from .datagen.storage import read_meta

    tracer = _make_tracer(args)
    spec = DatasetSpec(
        args.city, num_trips=args.trips or None,
        num_days=args.days or None, chunk_size=args.chunk,
        matcher_jobs=args.jobs, storage=args.storage,
        out_dir=args.out or None, rematch=args.rematch)
    start = time.perf_counter()
    try:
        dataset = build(spec, tracer=tracer)
    except FileExistsError as exc:
        raise SystemExit(f"cannot build dataset: {exc}")
    elapsed = time.perf_counter() - start
    trips_n = len(dataset.trips)
    print(f"built {dataset.name}: {trips_n} trips "
          f"({trips_n / max(elapsed, 1e-9):.0f} trips/s, "
          f"{elapsed:.1f}s, storage={args.storage})")
    fingerprint = dataset_fingerprint(dataset)
    print(f"fingerprint: {fingerprint}")
    if args.storage == "disk":
        print(f"dataset dir: {args.out}")
    if args.verify:
        if args.storage == "disk":
            with TaxiDataset.open(args.out) as reopened:
                check = dataset_fingerprint(reopened)
            stamped = read_meta(args.out).get("fingerprint")
        else:
            # RAM builds verify against a second, independent build of
            # the same spec (determinism check).
            check = dataset_fingerprint(build(spec))
            stamped = check
        if check == fingerprint and stamped == fingerprint:
            print("verify: OK (reopen and stamp match)")
        else:
            print(f"verify: FAIL (build {fingerprint}, reopen {check}, "
                  f"stamp {stamped})", file=sys.stderr)
            return 1
    _export_obs(args, tracer)
    return 0


def cmd_embed(args) -> int:
    """Pre-train Ws/Wt standalone (Algorithm 1 lines 1-4) and report
    timings on a real graph."""
    import time

    from .embedding import EmbeddingConfig, embed_graph
    from .roadnet.linegraph import build_line_graph
    from .temporal import embed_temporal_graph

    tracer = _make_tracer(args)
    config = EmbeddingConfig(
        method=args.method, dim=args.dim, seed=args.seed,
        num_walks=args.num_walks, walk_length=args.walk_length)
    if args.graph == "line":
        dataset = build(DatasetSpec(args.city, num_trips=args.trips,
                                    num_days=args.days), tracer=tracer)
        trajs = [t.trajectory.edge_ids for t in dataset.split.train
                 if t.trajectory is not None]
        graph = build_line_graph(dataset.net, trajs)
        print(f"line graph: {graph.num_nodes} nodes, "
              f"{graph.to_csr().num_edges} edges")
        start = time.perf_counter()
        matrix = embed_graph(graph, config, tracer=tracer)
    else:
        from .temporal.timeslot import TimeSlotConfig
        slot_config = TimeSlotConfig()
        start = time.perf_counter()
        matrix = embed_temporal_graph(slot_config, args.graph,
                                      embedding=config, tracer=tracer)
    elapsed = time.perf_counter() - start
    print(f"embedded {matrix.shape[0]} nodes -> dim {matrix.shape[1]} "
          f"with {args.method} in {elapsed:.2f}s")
    if args.out:
        written = save_arrays(args.out, {"embedding": matrix})
        print(f"embedding written to {written}")
    _export_obs(args, tracer)
    return 0


def cmd_train(args) -> int:
    tracer = _make_tracer(args)
    dataset = build(DatasetSpec(args.city, num_trips=args.trips,
                                num_days=args.days), tracer=tracer)
    config = _default_config(args)
    model = build_deepod(dataset, config, tracer=tracer)
    trainer = DeepODTrainer(model, dataset, eval_every=args.eval_every,
                            tracer=tracer)
    history = trainer.fit()
    print(f"trained {history.steps[-1] if history.steps else 0} steps "
          f"in {history.wall_seconds:.1f}s")
    test = strip_trajectories(dataset.split.test)
    preds = trainer.predict(test)
    actual = np.array([t.travel_time for t in test])
    print(f"test MAPE {100 * mape(actual, preds):.2f}%")
    if args.save:
        if args.save.endswith(".npz"):
            # Bare weights only — not reloadable into a predictor; kept
            # for size measurements and low-level tooling.
            written = save_state(model, args.save)
            print(f"model weights saved to {written}")
        else:
            from .serving import ArtifactError, save_artifact
            predictor = TravelTimePredictor(trainer, coverage=args.coverage)
            try:
                artifact_dir = save_artifact(args.save, predictor)
            except ArtifactError as exc:
                raise SystemExit(f"cannot save artifact: {exc}")
            print(f"serving artifact saved to {artifact_dir}")
    _export_obs(args, tracer)
    return 0


def cmd_serve(args) -> int:
    from .serving import (
        ArtifactError, ServiceConfig, TravelTimeService, load_artifact,
        run_jsonl_loop, serve_http,
    )
    tracer = _make_tracer(args)
    is_cluster = args.workers > 1
    if is_cluster:
        from .serving import ClusterConfig, ServingCluster
        try:
            service = ServingCluster(
                args.artifact, tracer=tracer,
                config=ClusterConfig(
                    num_workers=args.workers, routing=args.routing,
                    max_batch=args.max_batch))
        except ArtifactError as exc:
            raise SystemExit(f"invalid artifact: {exc}")
    else:
        service_config = ServiceConfig(max_batch=args.max_batch)
        try:
            predictor = load_artifact(args.artifact)
            service = TravelTimeService(predictor, config=service_config,
                                        tracer=tracer)
        except ArtifactError as exc:
            if not args.fallback_city:
                raise SystemExit(f"invalid artifact: {exc}")
            # Degraded mode: no model, historical-average answers only.
            print(f"artifact rejected ({exc}); serving degraded from "
                  f"{args.fallback_city}", file=sys.stderr)
            dataset = build(DatasetSpec(args.fallback_city,
                                        num_trips=args.trips,
                                        num_days=args.days))
            service = TravelTimeService(dataset=dataset,
                                        config=service_config,
                                        tracer=tracer)

    def finish() -> None:
        if is_cluster:
            service.stop()
        _export_obs(args, tracer, snapshot=service.metrics_snapshot())

    if args.query:
        try:
            payload = json.loads(args.query)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--query is not valid JSON: {exc}")
        from .serving import parse_query
        if is_cluster:
            service.start()
        response = service.query(parse_query(payload))
        print(json.dumps(response.to_dict()))
        finish()
        return 0
    if args.stdin:
        if is_cluster:
            service.start()
        run_jsonl_loop(service, sys.stdin, sys.stdout)
        finish()
        return 0
    serve_http(service, host=args.host, port=args.port,
               verbose=args.verbose)
    finish()
    return 0


def cmd_artifact_upgrade(args) -> int:
    """Write the serving-state bundle of a schema-1 artifact in place."""
    from .serving import ArtifactError, upgrade_artifact
    try:
        upgraded = upgrade_artifact(args.directory)
    except ArtifactError as exc:
        raise SystemExit(f"cannot upgrade artifact: {exc}")
    if upgraded:
        print(f"artifact {args.directory} upgraded: serving-state bundle "
              f"written")
    else:
        print(f"artifact {args.directory} is already current; "
              f"nothing written")
    return 0


def cmd_loadtest(args) -> int:
    """Run the serving load harness and write its report."""
    from .serving import ArtifactError
    from .serving.cluster import run_load_test
    from .obs import MetricsRegistry
    registry = MetricsRegistry()
    try:
        payload = run_load_test(
            args.artifact, workers=args.workers, queries=args.queries,
            rps=args.rps, seed=args.seed, max_batch=args.max_batch,
            routing=args.routing, metrics=registry)
    except ArtifactError as exc:
        raise SystemExit(f"invalid artifact: {exc}")
    model = payload["model"]
    latency = payload["open_loop"]["latency_ms"]
    print(f"model saturation: {model['single_qps']:.1f} qps single, "
          f"{model['cluster_qps']:.1f} qps cluster "
          f"({model['speedup']:.2f}x on {payload['cpus']} cpu(s))")
    print(f"open loop @ {args.rps:.0f} rps: "
          f"p50 {latency['p50']:.1f}ms  p95 {latency['p95']:.1f}ms  "
          f"p99 {latency['p99']:.1f}ms  "
          f"shed {payload['open_loop']['shed']} "
          f"failed {payload['open_loop']['failed']}")
    if args.out:
        write_json(args.out, payload)
        print(f"report written to {args.out}")
    _export_obs(args, None, snapshot=registry.snapshot())
    return 0


def cmd_stream(args) -> int:
    """Replay a live trip stream against a deployment: live speed
    slices, drift detection and gated continuous learning end to end."""
    from .experiments.promote import deployed_artifact_path, promote
    from .obs import MetricsRegistry
    from .serving import load_artifact, save_artifact
    from .streaming import (
        StreamingConfig, StreamingController, shift_travel_times,
    )
    tracer = _make_tracer(args)
    registry = MetricsRegistry()
    dataset = build(DatasetSpec(args.city, num_trips=args.trips,
                                num_days=args.days), tracer=tracer)

    # Bootstrap: with no deployed incumbent, train one and promote it —
    # the continuous loop always fine-tunes *from* the deployed model.
    if deployed_artifact_path(args.deploy) is None:
        print("no deployed incumbent; bootstrapping one", file=sys.stderr)
        config = _default_config(args)
        model = build_deepod(dataset, config, tracer=tracer)
        trainer = DeepODTrainer(model, dataset, eval_every=0,
                                tracer=tracer)
        trainer.fit()
        predictor = TravelTimePredictor(trainer, coverage=args.coverage)
        bootstrap_dir = save_artifact(
            f"{args.workdir}/bootstrap", predictor)
        decision = promote(bootstrap_dir, args.deploy, dataset=dataset)
        if not decision.promoted:
            raise SystemExit("bootstrap promotion refused: "
                             + "; ".join(decision.reasons))

    # The replayed "future": the chronological validation + test tail,
    # optionally slowed down mid-stream to inject a regime shift.
    trips = list(dataset.split.validation) + list(dataset.split.test)
    shift_time = None
    if args.shift_factor != 1.0:
        departs = np.array([t.od.depart_time for t in trips])
        shift_time = float(np.quantile(departs, args.shift_at))
        trips = shift_travel_times(trips, shift_time, args.shift_factor,
                                   seed=args.seed)
        print(f"regime shift x{args.shift_factor:.2f} from event time "
              f"{shift_time:.0f}s", file=sys.stderr)

    deployed = deployed_artifact_path(args.deploy)
    is_cluster = args.workers > 1
    if is_cluster:
        from .serving import ClusterConfig, ServingCluster
        target = ServingCluster(
            f"{args.deploy}/current", dataset=dataset,
            metrics=registry, tracer=tracer,
            config=ClusterConfig(num_workers=args.workers))
        target.start()
    else:
        from .serving import TravelTimeService
        target = TravelTimeService(
            load_artifact(deployed, dataset=dataset),
            metrics=registry, tracer=tracer)

    controller = StreamingController(
        dataset, trips, target,
        deploy_root=args.deploy, workdir=args.workdir,
        config=StreamingConfig(
            batch_seconds=args.batch_seconds,
            drift_window=args.drift_window,
            drift_ratio=args.drift_ratio,
            cooldown_batches=args.cooldown,
            fine_tune_epochs=args.fine_tune_epochs),
        seed=args.seed, metrics=registry, tracer=tracer)
    try:
        report = controller.run(max_batches=args.max_batches or None)
    finally:
        if is_cluster:
            target.stop()
    if shift_time is not None:
        report["shift"] = {"factor": args.shift_factor,
                           "event_time": shift_time}

    print(f"stream: {report['served']}/{report['stream_total']} trips "
          f"served over {report['batches']} batches "
          f"({report['dropped']} dropped)")
    print(f"  speed slices published: {report['published_slices']}")
    print(f"  drift events: {len(report['drift_batches'])} "
          f"at batches {report['drift_batches']}")
    for promo in report["promotions"]:
        print(f"  promoted {promo['version']} at batch {promo['batch']} "
              f"(candidate MAE {promo['candidate_mae']:.2f}s vs "
              f"incumbent {promo['incumbent_mae']:.2f}s)")
    if report["baseline_mae"] is not None:
        print(f"  rolling MAE: baseline {report['baseline_mae']:.2f}s "
              f"-> final {report['final_rolling_mae']:.2f}s")
    if args.report:
        write_json(args.report, report)
        print(f"report written to {args.report}")
    _export_obs(args, tracer, snapshot=registry.snapshot())
    return 0


def cmd_compare(args) -> int:
    dataset = build(DatasetSpec(args.city, num_trips=args.trips,
                                num_days=args.days))
    estimators = [_make_estimator(m, args) for m in args.methods]
    results = run_comparison(estimators, dataset, verbose=True)
    print()
    print(format_table(results))
    if args.out:
        from .eval import save_report
        save_report(results, args.out,
                    metadata={"city": args.city, "trips": args.trips,
                              "days": args.days, "seed": args.seed})
        print(f"\nreport written to {args.out}")
    return 0


def cmd_lint(args) -> int:
    """reprolint over the given paths (exit 0 clean, 1 findings, 2 usage)."""
    from .analysis import (
        ALL_ARCH_FILE_RULES, ALL_PROJECT_RULES, ALL_RULES, LintConfig,
        apply_fixes, layer_drift, lint_project, rule_by_id, to_sarif,
    )
    if args.list_rules:
        for rule in ALL_RULES + ALL_ARCH_FILE_RULES + ALL_PROJECT_RULES:
            fixable = " (autofixable)" if rule.autofixable else ""
            print(f"{rule.id}  {rule.title}{fixable}")
        return 0
    rules = None
    if args.rules:
        try:
            rules = [rule_by_id(rule_id.strip())
                     for entry in args.rules
                     for rule_id in entry.split(",") if rule_id.strip()]
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2
    config = LintConfig()
    try:
        result = lint_project(args.paths, config=config, rules=rules,
                              cache_path=args.cache)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    findings = result.findings
    if args.fix and findings:
        fixed = apply_fixes(findings)
        if fixed:
            print(f"fixed {len(fixed)} finding(s)", file=sys.stderr)
            result = lint_project(args.paths, config=config, rules=rules,
                                  cache_path=args.cache)
            findings = result.findings
    if args.graph:
        if args.graph == "dot":
            print(result.index.to_dot(config.layers), end="")
        else:
            print(json.dumps(result.index.to_json(config.layers),
                             indent=2))
        return 0
    if args.check_layers:
        undeclared, stale = layer_drift(
            config.layers, os.path.dirname(os.path.abspath(__file__)))
        if undeclared or stale:
            print("layering DAG drift: "
                  f"undeclared packages {undeclared or '[]'} / "
                  f"stale declarations {stale or '[]'} — update "
                  "LintConfig.layers", file=sys.stderr)
            return 2
    if args.format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2))
    elif args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# ``exp`` group: the experiment-orchestration pipeline.
def _exp_config(args) -> "DeepODConfig":
    config = _default_config(args)
    if args.paper_scale:
        from .core.config import paper_scale
        config = paper_scale().with_overrides(
            epochs=args.epochs, aux_weight=args.aux_weight,
            use_external_features=args.external, seed=args.seed)
    return config


def _parse_grid_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_grid(entries) -> dict:
    grid = {}
    for entry in entries or []:
        if "=" not in entry:
            raise SystemExit(
                f"--grid expects field=v1,v2,... (got {entry!r})")
        name, _, values = entry.partition("=")
        grid[name.strip()] = [_parse_grid_value(v)
                              for v in values.split(",") if v]
        if not grid[name.strip()]:
            raise SystemExit(f"--grid {entry!r} has no values")
    return grid


def cmd_exp_run(args) -> int:
    from .experiments import RunRegistry, RunSpec, execute_run
    registry = RunRegistry(args.runs_dir)
    spec = RunSpec(
        city=args.city, config=_exp_config(args), seed=args.seed,
        trips=args.trips, days=args.days, eval_every=args.eval_every,
        checkpoint_every=args.checkpoint_every, coverage=args.coverage,
        save_artifact=not args.no_artifact)
    tracer = _make_tracer(args)
    result = execute_run(spec, registry=registry,
                         resume=not args.fresh,
                         tracer=tracer if tracer.enabled else None)
    _export_obs(args, tracer)
    metrics = result.metrics
    print(f"run {result.run_id}: {result.status}")
    print(f"  test MAE  {metrics['test_mae']:8.2f}s")
    print(f"  test MAPE {100 * metrics['test_mape']:8.2f}%")
    print(f"  steps     {metrics['steps']:8d}")
    if result.artifact_dir:
        print(f"  artifact  {result.artifact_dir}")
    return 0


def cmd_exp_sweep(args) -> int:
    from .experiments import SweepSpec, run_sweep
    grid = _parse_grid(args.grid)
    spec = SweepSpec(
        base_config=_exp_config(args), grid=grid,
        seeds=tuple(args.seeds), cities=tuple(args.cities or [args.city]),
        trips=args.trips, days=args.days, eval_every=args.eval_every,
        checkpoint_every=args.checkpoint_every,
        coverage=args.coverage, save_artifacts=args.artifacts)
    tracer = _make_tracer(args)
    # Point-level spans live in each registered run's trace.json (the
    # points execute in worker processes); the parent trace covers the
    # sweep itself.
    with tracer.span("exp.sweep", jobs=args.jobs):
        sweep = run_sweep(spec, jobs=args.jobs,
                          registry_root=args.runs_dir or None)
        tracer.annotate(points=len(sweep.results),
                        failed=len(sweep.failed))
    _export_obs(args, tracer)
    print(f"{'#':>4} {'city':<14}{'seed':>5} {'overrides':<32}"
          f"{'MAE(s)':>9}{'MAPE(%)':>9}  status")
    for result in sweep.results:
        overrides = ",".join(f"{k}={v}"
                             for k, v in sorted(result["overrides"].items()))
        metrics = result.get("metrics") or {}
        mae_s = (f"{metrics['test_mae']:9.2f}"
                 if "test_mae" in metrics else f"{'-':>9}")
        mape_pc = (f"{100 * metrics['test_mape']:9.2f}"
                   if "test_mape" in metrics else f"{'-':>9}")
        print(f"{result['index']:>4} {result['city']:<14}"
              f"{result['seed']:>5} {overrides:<32}"
              f"{mae_s}{mape_pc}  {result['status']}")
    best = sweep.best()
    if best is not None:
        print(f"\nbest: point {best['index']} "
              f"(run {best.get('run_id') or '<unregistered>'}) "
              f"test MAE {best['metrics']['test_mae']:.2f}s")
    if sweep.failed:
        print(f"{len(sweep.failed)} point(s) failed after retry",
              file=sys.stderr)
    if args.out:
        sweep.to_json(args.out)
        print(f"results written to {args.out}")
    return 0 if not sweep.failed else 1


def cmd_exp_list(args) -> int:
    from .experiments import RunRegistry
    registry = RunRegistry(args.runs_dir)
    runs = registry.list_runs(status=args.status or None)
    if not runs:
        print("no runs recorded")
        return 0
    print(f"{'run':<42} {'status':<10}{'MAE(s)':>9}{'MAPE(%)':>9}"
          f"{'steps':>7}")
    for run in runs:
        record = run.record
        metrics = record.metrics or {}
        mae_s = (f"{metrics['test_mae']:9.2f}"
                 if "test_mae" in metrics else f"{'-':>9}")
        mape_pc = (f"{100 * metrics['test_mape']:9.2f}"
                   if "test_mape" in metrics else f"{'-':>9}")
        steps = (f"{metrics['steps']:7d}"
                 if "steps" in metrics else f"{'-':>7}")
        print(f"{record.run_id:<42} {record.status:<10}"
              f"{mae_s}{mape_pc}{steps}")
    best = registry.best_run()
    if best is not None:
        print(f"\nbest completed run: {best.run_id} "
              f"(test MAE {best.record.metrics['test_mae']:.2f}s)")
    return 0


def cmd_exp_promote(args) -> int:
    from .experiments import RunRegistry, promote
    candidate = args.candidate
    if not candidate:
        registry = RunRegistry(args.runs_dir)
        if args.run:
            run = registry.get(args.run)
        else:
            run = registry.best_run()
            if run is None:
                raise SystemExit("no completed runs to promote; pass "
                                 "--run or --candidate")
        candidate = run.artifact_dir
        print(f"candidate: run {run.run_id}")
    decision = promote(candidate, args.deploy,
                       min_improvement=args.min_improvement)
    for reason in decision.reasons:
        print(f"  {reason}")
    if decision.promoted:
        print(f"promoted -> {decision.deployed_path}")
        print(f"serve it with: python -m repro.cli serve --artifact "
              f"{args.deploy}/current")
        return 0
    print("promotion refused")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeepOD reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--city", default="mini-chengdu",
                       choices=sorted(PRESETS))
        p.add_argument("--trips", type=int, default=1000)
        p.add_argument("--days", type=int, default=14)
        p.add_argument("--epochs", type=int, default=8)
        p.add_argument("--aux-weight", type=float, default=0.3,
                       dest="aux_weight")
        p.add_argument("--external", action="store_true")
        p.add_argument("--seed", type=int, default=0)

    def obs(p):
        p.add_argument("--trace", default="", metavar="OUT",
                       help="write a span-tree trace JSON "
                            "(repro.obs schema) to this path")
        p.add_argument("--metrics-out", default="", dest="metrics_out",
                       metavar="OUT",
                       help="write a metrics-registry snapshot JSON "
                            "to this path")

    p_stats = sub.add_parser("stats", help="dataset statistics (Table 2)")
    common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_datagen = sub.add_parser(
        "datagen", help="chunked dataset build (mega-* presets, "
                        "out-of-core storage)")
    p_datagen.add_argument("--city", default="mini-chengdu",
                           choices=sorted(PRESETS))
    p_datagen.add_argument("--trips", type=int, default=0,
                           help="trip count (0: the preset's default)")
    p_datagen.add_argument("--days", type=int, default=0,
                           help="simulated days (0: the preset's default)")
    p_datagen.add_argument("--chunk", type=int, default=0,
                           help="trips per generation chunk (0: automatic)")
    p_datagen.add_argument("--jobs", type=int, default=1,
                           help="map-matching worker processes "
                                "(with --rematch)")
    p_datagen.add_argument("--storage", default="ram",
                           choices=["ram", "disk"],
                           help="materialise in memory or stream to an "
                                "on-disk dataset directory")
    p_datagen.add_argument("--out", default="",
                           help="dataset directory (required for "
                                "--storage disk)")
    p_datagen.add_argument("--rematch", action="store_true",
                           help="re-run HMM map matching over generated "
                                "GPS traces instead of trusting the "
                                "simulator's paths")
    p_datagen.add_argument("--verify", action="store_true",
                           help="rebuild/reopen and assert the "
                                "fingerprint round-trips")
    obs(p_datagen)
    p_datagen.set_defaults(func=cmd_datagen)

    p_embed = sub.add_parser(
        "embed", help="pre-train embeddings standalone with timings")
    p_embed.add_argument("--city", default="mini-chengdu",
                         choices=sorted(PRESETS))
    p_embed.add_argument("--trips", type=int, default=1000)
    p_embed.add_argument("--days", type=int, default=14)
    p_embed.add_argument("--graph", default="line",
                         choices=["line", "weekly", "daily"],
                         help="line graph of the road network, or a "
                              "temporal slot graph")
    p_embed.add_argument("--method", default="node2vec",
                         choices=["node2vec", "deepwalk", "line"])
    p_embed.add_argument("--dim", type=int, default=32)
    p_embed.add_argument("--num-walks", type=int, default=4,
                         dest="num_walks")
    p_embed.add_argument("--walk-length", type=int, default=20,
                         dest="walk_length")
    p_embed.add_argument("--seed", type=int, default=0)
    p_embed.add_argument("--out", default="",
                         help="write the embedding matrix to this .npz")
    obs(p_embed)
    p_embed.set_defaults(func=cmd_embed)

    p_train = sub.add_parser("train", help="train DeepOD")
    common(p_train)
    p_train.add_argument("--save", default="",
                         help="serving-artifact directory (or a bare "
                              "weights file if the path ends in .npz)")
    p_train.add_argument("--coverage", type=float, default=0.8,
                         help="confidence-band coverage baked into the "
                              "saved artifact")
    p_train.add_argument("--eval-every", type=int, default=50,
                         dest="eval_every")
    obs(p_train)
    p_train.set_defaults(func=cmd_train)

    p_serve = sub.add_parser(
        "serve", help="serve a trained artifact (HTTP or JSON lines)")
    p_serve.add_argument("--artifact", required=True,
                         help="artifact directory from train --save")
    p_serve.add_argument("--query", default="",
                         help="answer this one JSON query and exit")
    p_serve.add_argument("--stdin", action="store_true",
                         help="answer JSON-lines queries from stdin")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321)
    p_serve.add_argument("--max-batch", type=int, default=128,
                         dest="max_batch")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker processes; >1 serves from the "
                              "sharded ServingCluster (hot model swap, "
                              "per-shard micro-batching)")
    p_serve.add_argument("--routing", default="region",
                         choices=["region", "round_robin"],
                         help="cluster query -> shard policy")
    p_serve.add_argument("--fallback-city", default="",
                         dest="fallback_city",
                         help="serve degraded from this city preset if "
                              "the artifact fails validation")
    p_serve.add_argument("--trips", type=int, default=1000,
                         help="fallback dataset size")
    p_serve.add_argument("--days", type=int, default=14,
                         help="fallback dataset days")
    p_serve.add_argument("--verbose", action="store_true")
    obs(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_artifact = sub.add_parser(
        "artifact", help="maintain serving artifacts")
    artifact_sub = p_artifact.add_subparsers(dest="artifact_command",
                                             required=True)
    p_upgrade = artifact_sub.add_parser(
        "upgrade", help="regenerate a schema-1 artifact's dataset once and "
                        "write its serving-state bundle")
    p_upgrade.add_argument("directory", help="artifact directory")
    p_upgrade.set_defaults(func=cmd_artifact_upgrade)

    p_loadtest = sub.add_parser(
        "loadtest", help="serving load harness: saturation + open loop")
    p_loadtest.add_argument("--artifact", required=True,
                            help="artifact directory (or deploy/current)")
    p_loadtest.add_argument("--workers", type=int, default=4,
                            help="cluster shard count under test")
    p_loadtest.add_argument("--queries", type=int, default=256,
                            help="synthetic queries per measurement")
    p_loadtest.add_argument("--rps", type=float, default=100.0,
                            help="open-loop arrival rate")
    p_loadtest.add_argument("--seed", type=int, default=0)
    p_loadtest.add_argument("--max-batch", type=int, default=16,
                            dest="max_batch")
    p_loadtest.add_argument("--routing", default="region",
                            choices=["region", "round_robin"])
    p_loadtest.add_argument("--out", default="",
                            help="write the JSON report here")
    p_loadtest.add_argument("--metrics-out", default="",
                            dest="metrics_out", metavar="OUT",
                            help="write the harness metrics snapshot "
                                 "JSON to this path")
    p_loadtest.set_defaults(func=cmd_loadtest)

    p_stream = sub.add_parser(
        "stream", help="replay a live trip stream: speed feed, drift "
                       "detection, continuous learning")
    common(p_stream)
    p_stream.add_argument("--deploy", required=True,
                          help="deployment root (bootstrapped with a "
                               "trained incumbent when empty)")
    p_stream.add_argument("--workdir", default="stream-work",
                          help="scratch dir for fine-tune candidates")
    p_stream.add_argument("--workers", type=int, default=1,
                          help=">1 serves the stream from a "
                               "ServingCluster with hot swap")
    p_stream.add_argument("--batch-seconds", type=float, default=60.0,
                          dest="batch_seconds",
                          help="event-time seconds per controller tick")
    p_stream.add_argument("--max-batches", type=int, default=0,
                          dest="max_batches",
                          help="stop after this many ticks (0: drain "
                               "the stream)")
    p_stream.add_argument("--drift-window", type=int, default=50,
                          dest="drift_window")
    p_stream.add_argument("--drift-ratio", type=float, default=1.5,
                          dest="drift_ratio")
    p_stream.add_argument("--cooldown", type=int, default=10,
                          help="ticks between fine-tune attempts")
    p_stream.add_argument("--fine-tune-epochs", type=int, default=1,
                          dest="fine_tune_epochs")
    p_stream.add_argument("--shift-factor", type=float, default=1.0,
                          dest="shift_factor",
                          help="inject a regime shift: trips after "
                               "--shift-at slow down by this factor")
    p_stream.add_argument("--shift-at", type=float, default=0.5,
                          dest="shift_at",
                          help="depart-time quantile where the shift "
                               "starts")
    p_stream.add_argument("--coverage", type=float, default=0.8,
                          help="confidence-band coverage for the "
                               "bootstrap artifact")
    p_stream.add_argument("--report", default="",
                          help="write the run report JSON here")
    obs(p_stream)
    p_stream.set_defaults(func=cmd_stream)

    p_cmp = sub.add_parser("compare", help="compare methods (Table 4)")
    common(p_cmp)
    p_cmp.add_argument("--methods", nargs="+",
                       default=["TEMP", "LR", "GBM", "DeepOD"])
    p_cmp.add_argument("--out", default="",
                       help="write a JSON report to this path")
    p_cmp.set_defaults(func=cmd_compare)

    p_lint = sub.add_parser(
        "lint", help="reprolint: project-invariant static analysis")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    p_lint.add_argument("--format", default="text",
                        choices=["text", "json", "sarif"])
    p_lint.add_argument("--rules", action="append", default=[],
                        metavar="ID[,ID...]",
                        help="run only these rule ids (repeatable)")
    p_lint.add_argument("--fix", action="store_true",
                        help="apply autofixes (H002), then re-lint")
    p_lint.add_argument("--list-rules", action="store_true",
                        dest="list_rules", help="print the rule catalogue")
    p_lint.add_argument("--graph", choices=["dot", "json"], default=None,
                        help="dump the subsystem import graph instead "
                             "of findings")
    p_lint.add_argument("--cache", default=None, metavar="PATH",
                        help="incremental lint cache file "
                             "(e.g. .reprolint-cache.json)")
    p_lint.add_argument("--check-layers", action="store_true",
                        dest="check_layers",
                        help="also fail (exit 2) when the declared "
                             "layering DAG drifts from the packages "
                             "actually under src/repro")
    p_lint.set_defaults(func=cmd_lint)

    p_exp = sub.add_parser(
        "exp", help="experiment pipeline: run / sweep / list / promote")
    exp_sub = p_exp.add_subparsers(dest="exp_command", required=True)

    def exp_common(p):
        common(p)
        p.add_argument("--runs-dir", default="runs", dest="runs_dir",
                       help="run-registry root directory")
        p.add_argument("--eval-every", type=int, default=20,
                       dest="eval_every")
        p.add_argument("--checkpoint-every", type=int, default=0,
                       dest="checkpoint_every",
                       help="checkpoint every N steps (0 disables)")
        p.add_argument("--coverage", type=float, default=0.8)
        p.add_argument("--paper-scale", action="store_true",
                       dest="paper_scale",
                       help="use the paper's Section 6.2 model sizes")
        obs(p)

    p_exp_run = exp_sub.add_parser(
        "run", help="one registered, checkpointed training run")
    exp_common(p_exp_run)
    p_exp_run.add_argument("--fresh", action="store_true",
                           help="ignore existing checkpoints")
    p_exp_run.add_argument("--no-artifact", action="store_true",
                           dest="no_artifact",
                           help="skip writing the serving artifact")
    p_exp_run.set_defaults(func=cmd_exp_run)

    p_exp_sweep = exp_sub.add_parser(
        "sweep", help="parallel sweep over a declarative grid")
    exp_common(p_exp_sweep)
    p_exp_sweep.add_argument("--grid", action="append", default=[],
                             metavar="FIELD=V1,V2,...",
                             help="config axis to sweep (repeatable)")
    p_exp_sweep.add_argument("--seeds", nargs="+", type=int, default=[0])
    p_exp_sweep.add_argument("--cities", nargs="+", default=[],
                             choices=sorted(PRESETS),
                             help="cities to sweep (default: --city)")
    p_exp_sweep.add_argument("--jobs", type=int, default=1)
    p_exp_sweep.add_argument("--artifacts", action="store_true",
                             help="save a serving artifact per run")
    p_exp_sweep.add_argument("--out", default="",
                             help="write results JSON here")
    p_exp_sweep.set_defaults(func=cmd_exp_sweep)

    p_exp_list = exp_sub.add_parser("list", help="list registry runs")
    p_exp_list.add_argument("--runs-dir", default="runs", dest="runs_dir")
    p_exp_list.add_argument("--status", default="",
                            choices=["", "running", "completed", "failed"])
    p_exp_list.set_defaults(func=cmd_exp_list)

    p_exp_promote = exp_sub.add_parser(
        "promote", help="gate the best run against the deployed artifact")
    p_exp_promote.add_argument("--runs-dir", default="runs",
                               dest="runs_dir")
    p_exp_promote.add_argument("--run", default="",
                               help="promote this run id (default: best "
                                    "completed run by test MAE)")
    p_exp_promote.add_argument("--candidate", default="",
                               help="promote this artifact directory "
                                    "(bypasses the registry)")
    p_exp_promote.add_argument("--deploy", required=True,
                               help="deployment root (current -> versions/)")
    p_exp_promote.add_argument("--min-improvement", type=float,
                               default=0.0, dest="min_improvement",
                               help="required fractional MAE improvement "
                                    "over the incumbent")
    p_exp_promote.set_defaults(func=cmd_exp_promote)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
