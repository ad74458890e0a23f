"""Command-line interface.

Subcommands:

* ``repro generate`` -- synthesize a graph (Erdős–Rényi, RMAT or a named
  paper dataset stand-in) and write it as Matrix Market or packed binary.
* ``repro run``      -- run Two-Step SpMV on a matrix file through a
  design point, verify against the dense reference, print the traffic
  ledger and cycle statistics.
* ``repro spgemm``   -- sparse-sparse product ``C = A @ B`` through the
  engine's multi-way merge path, with optional dense verification.
* ``repro estimate`` -- paper-scale analytic performance for a named
  dataset across design points.
* ``repro solve``    -- run an iterative solver (PageRank, BFS, k-core)
  through the engine, exercising plan reuse and multi-RHS batching.
* ``repro serve``    -- long-lived SpMV-as-a-service HTTP server with
  dynamic micro-batching (see :mod:`repro.serving`).
* ``repro datasets`` -- list the paper's evaluation graphs.

Every subcommand that executes the functional engine builds it through
:func:`repro.api.create_engine` from one
:class:`~repro.core.config.TwoStepConfig` translation point
(:func:`engine_config_from_args`).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.reporting import format_table
from repro.api import create_engine
from repro.backends import available_backends
from repro.core.accelerator import Accelerator
from repro.core.config import TwoStepConfig
from repro.core.design_points import ALL_DESIGN_POINTS, get_design_point
from repro.faults.errors import ConfigurationError
from repro.formats.io import read_binary, read_matrix_market, write_binary, write_matrix_market
from repro.generators.datasets import CPU_GRAPHS, CUSTOM_HW_GRAPHS, GPU_GRAPHS, get_dataset, instantiate
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph


def add_backend_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared execution options to a subcommand.

    Every subcommand that executes the functional engine takes the same
    ``--backend`` / ``--strict-validate`` / ``--no-telemetry`` set;
    centralizing them here keeps choices and help text in sync with
    the backend registry.
    """
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="execution backend for the functional engine "
        "(default: $REPRO_BACKEND, then vectorized)",
    )
    parser.add_argument(
        "--strict-validate",
        action="store_true",
        default=None,
        help="full-scan input hardening (NaN/Inf, index range, duplicate "
        "coordinates) before execution "
        "(default: $REPRO_STRICT_VALIDATE, then off)",
    )
    parser.add_argument(
        "--no-telemetry",
        dest="telemetry",
        action="store_false",
        default=None,
        help="disable tracing spans and metrics collection "
        "(default: $REPRO_TELEMETRY, then on; never changes results)",
    )


def add_telemetry_outputs(parser: argparse.ArgumentParser) -> None:
    """Attach ``--trace-out`` / ``--metrics-out`` to a subcommand.

    Only subcommands that call :func:`_emit_telemetry` take them
    (``run``, ``spgemm``, ``solve``); ``serve`` exposes its metrics on
    ``/metrics`` instead.
    """
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's spans as a Chrome trace_event JSON file "
        "(load in chrome://tracing or Perfetto; of solve's apps, pagerank only)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics in Prometheus text format",
    )


def engine_config_from_args(args: argparse.Namespace) -> TwoStepConfig:
    """Build a :class:`~repro.core.config.TwoStepConfig` from CLI flags.

    One translation point from ``--segment-width`` and the
    ``add_backend_options`` flag set to the engine settings; unset flags
    stay ``None`` so the standard precedence (explicit > ``REPRO_*`` env
    > default) applies when the engine is built.
    """
    return TwoStepConfig(segment_width=args.segment_width, **_exec_fields(args))


def _exec_fields(args: argparse.Namespace) -> dict:
    """The execution-side flag values that were actually set."""
    fields = {
        "backend": args.backend,
        "strict_validate": args.strict_validate,
        "telemetry": args.telemetry,
    }
    return {name: value for name, value in fields.items() if value is not None}


def _emit_telemetry(args: argparse.Namespace, report=None, metrics=None) -> None:
    """Write the ``--trace-out`` / ``--metrics-out`` artifacts if requested.

    Args:
        args: Parsed CLI options (``trace_out`` / ``metrics_out``).
        report: A :class:`~repro.telemetry.TelemetryReport` (or None).
        metrics: Metrics registry overriding ``report.metrics`` (used by
            solvers that aggregate on the engine instead of per run).
    """
    from repro.telemetry import write_chrome_trace

    if args.trace_out:
        if report is not None and report.spans:
            write_chrome_trace(report.spans, args.trace_out)
            print(f"wrote trace to {args.trace_out}")
        else:
            print("telemetry disabled or no spans; --trace-out skipped", file=sys.stderr)
    if args.metrics_out:
        registry = metrics if metrics is not None else (
            report.metrics if report is not None else None
        )
        if registry is not None:
            with open(args.metrics_out, "w") as fh:
                fh.write(registry.to_prometheus())
            print(f"wrote metrics to {args.metrics_out}")
        else:
            print("telemetry disabled; --metrics-out skipped", file=sys.stderr)


def _load_matrix(path: str):
    if path.endswith(".mtx"):
        return read_matrix_market(path)
    return read_binary(path)


def _save_matrix(matrix, path: str) -> None:
    if path.endswith(".mtx"):
        write_matrix_market(matrix, path)
    else:
        write_binary(matrix, path)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "er":
        matrix = erdos_renyi_graph(args.nodes, args.degree, seed=args.seed)
    elif args.family == "rmat":
        scale = max(1, int(np.ceil(np.log2(max(args.nodes, 2)))))
        matrix = rmat_graph(scale, args.degree, seed=args.seed)
    else:
        spec = get_dataset(args.family)
        matrix = instantiate(spec, max_nodes=args.nodes, seed=args.seed)
    _save_matrix(matrix, args.output)
    print(f"wrote {matrix.n_rows:,} x {matrix.n_cols:,} matrix with {matrix.nnz:,} nonzeros to {args.output}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    point = get_design_point(args.design_point)
    rng = np.random.default_rng(args.seed)
    if args.autotune:
        from repro.core.autotune import autotune

        tuned = autotune(matrix, point, segment_width=args.segment_width)
        print(
            f"autotune: vldi_block={tuned.config.vldi_vector_block_bits}, "
            f"hdn={'on (threshold %d)' % tuned.config.hdn.degree_threshold if tuned.hdn_enabled else 'off'}, "
            f"stripe={tuned.config.segment_width}"
        )
        engine = create_engine(tuned.config, **_exec_fields(args))
    else:
        engine = create_engine(engine_config_from_args(args), design_point=point)
    if args.batch > 1:
        X = rng.uniform(size=(matrix.n_cols, args.batch))
        result = engine.run_many(matrix, X, verify=True)
    else:
        x = rng.uniform(size=matrix.n_cols)
        result = engine.run(matrix, x, verify=True)
    report = result.report
    print(f"design point: {point.name}")
    print(f"matrix: {matrix.n_rows:,} x {matrix.n_cols:,}, nnz {matrix.nnz:,}")
    print(
        f"backend: {report.backend}, batch: {report.batch_size}, "
        f"wall time: {result.wall_time_s * 1e3:.1f} ms"
    )
    print(f"verified against dense reference: {'OK' if result.verified else 'MISMATCH'}")
    print(f"stripes: {report.n_stripes}, intermediate records: {report.intermediate_records:,}")
    print(f"step-1 cycles: {report.step1.cycles:,.0f}, step-2 cycles: {report.step2.cycles:,.0f}")
    print(f"plan build: {report.plan_build_s * 1e3:.1f} ms")
    print(report.traffic)
    _emit_telemetry(args, result.telemetry)
    return 0 if result.verified else 1


def cmd_spgemm(args: argparse.Namespace) -> int:
    a = _load_matrix(args.matrix)
    b = _load_matrix(args.rhs) if args.rhs else a
    engine = create_engine(engine_config_from_args(args))
    try:
        result = engine.spgemm(a, b, verify=args.verify)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    c = result.c
    report = result.report
    print(f"A: {a.n_rows:,} x {a.n_cols:,}, nnz {a.nnz:,}")
    print(f"B: {b.n_rows:,} x {b.n_cols:,}, nnz {b.nnz:,}")
    print(f"C: {c.n_rows:,} x {c.n_cols:,}, nnz {c.nnz:,}")
    print(
        f"backend: {report.backend}, blocks: {report.n_blocks}, "
        f"wall time: {result.wall_time_s * 1e3:.1f} ms"
    )
    print(
        f"partial records: {report.partial_records:,}, "
        f"output records: {report.output_records:,}, "
        f"compression: {report.compression:.2f}x"
    )
    if args.verify:
        print(f"verified against dense product: {'OK' if result.verified else 'MISMATCH'}")
    if args.output:
        _save_matrix(c, args.output)
        print(f"wrote product to {args.output}")
    _emit_telemetry(args, result.telemetry)
    return 0 if (not args.verify or result.verified) else 1


def cmd_solve(args: argparse.Namespace) -> int:
    if args.trace_out and args.app != "pagerank":
        # bfs and kcore aggregate metrics on the engine and keep no
        # per-call spans, so there is no trace to write.
        print(
            f"error: --trace-out is not supported for solve {args.app}; "
            "only solve pagerank writes a trace (--metrics-out works for all)",
            file=sys.stderr,
        )
        return 2
    matrix = _load_matrix(args.matrix)
    config = engine_config_from_args(args)
    engine = create_engine(config)
    if args.app == "pagerank":
        from repro.apps.pagerank import pagerank

        result = pagerank(matrix, config, max_iterations=args.iterations)
        top = np.argsort(result.ranks)[::-1][:5]
        print(
            f"pagerank: {result.iterations} iterations, "
            f"{'converged' if result.converged else 'not converged'} "
            f"(residual {result.residuals[-1]:.2e})"
        )
        print("top nodes: " + ", ".join(f"{n} ({result.ranks[n]:.4f})" for n in top))
        _emit_telemetry(args, result.telemetry())
    elif args.app == "bfs":
        from repro.apps.bfs import bfs_levels_multi

        sources = list(range(min(args.sources, matrix.n_rows)))
        levels = bfs_levels_multi(matrix, sources, engine=engine)
        for s, src in enumerate(sources):
            reached = int((levels[:, s] >= 0).sum())
            depth = int(levels[:, s].max())
            print(f"bfs from {src}: reached {reached:,}/{matrix.n_rows:,}, depth {depth}")
        stats = engine.plan_cache_stats
        print(f"plan cache: {stats['hits']} hits / {stats['misses']} misses")
        _emit_telemetry(args, None, engine.metrics())
    else:
        from repro.apps.kcore import kcore_decomposition

        coreness = kcore_decomposition(matrix, engine=engine)
        stats = engine.plan_cache_stats
        print(f"k-core: max coreness {int(coreness.max())}, "
              f"mean {float(coreness.mean()):.2f}")
        print(f"plan cache: {stats['hits']} hits / {stats['misses']} misses")
        _emit_telemetry(args, None, engine.metrics())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving import BatchPolicy, ResiliencePolicy, SpMVServer
    from repro.serving.http import HTTPServingFrontend

    if args.snapshot_interval_s is not None and args.state_dir is None:
        print("error: --snapshot-interval-s requires --state-dir", file=sys.stderr)
        return 2
    for flag, value, bound in (
        ("--max-batch", args.max_batch, "positive"),
        ("--max-delay-ms", args.max_delay_ms, "non-negative"),
        ("--max-queue", args.max_queue, "positive"),
        ("--default-deadline-ms", args.default_deadline_ms, "positive"),
        ("--snapshot-interval-s", args.snapshot_interval_s, "positive"),
    ):
        if value is None:
            continue
        if not (value >= 0 if bound == "non-negative" else value > 0):
            print(f"error: {flag} must be {bound}", file=sys.stderr)
            return 2
    config = engine_config_from_args(args)
    policy = BatchPolicy(
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        max_queue=args.max_queue,
    )
    resilience = ResiliencePolicy(
        default_deadline_s=(
            None if args.default_deadline_ms is None
            else args.default_deadline_ms / 1e3
        ),
        snapshot_interval_s=args.snapshot_interval_s,
    )

    async def _main() -> None:
        server = SpMVServer(
            config=config,
            policy=policy,
            resilience=resilience,
            state_dir=args.state_dir,
        )
        if server.last_restore is not None:
            restored = server.last_restore["restored"]
            quarantined = server.last_restore["quarantined"]
            print(
                f"snapshot restore from {args.state_dir}: "
                f"{len(restored)} restored, {len(quarantined)} quarantined"
            )
        for path in args.matrix:
            matrix = _load_matrix(path)
            fingerprint = server.register(matrix)
            print(
                f"registered {path}: fingerprint {fingerprint} "
                f"({matrix.n_rows:,} x {matrix.n_cols:,}, nnz {matrix.nnz:,})"
            )
        frontend = HTTPServingFrontend(server, host=args.host, port=args.port)
        await frontend.start()
        print(
            f"serving on http://{args.host}:{frontend.port} "
            "(GET /health /stats /metrics, POST /v1/matrices /v1/spmv)"
        )
        snapshot_task = asyncio.ensure_future(server.run_snapshot_loop())
        try:
            await frontend.serve_forever()
        finally:
            snapshot_task.cancel()
            await frontend.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    spec = get_dataset(args.dataset)
    rows = []
    for point in ALL_DESIGN_POINTS:
        if args.design_point and point.name != args.design_point:
            continue
        if spec.n_nodes > point.max_nodes:
            rows.append([point.name, "n/a", "n/a", "exceeds max dimension"])
            continue
        est = Accelerator(point).estimate_dataset(spec)
        rows.append([point.name, est.gteps, est.nj_per_edge, est.bound])
    print(
        format_table(
            ["design point", "GTEPS", "nJ/edge", "bound"],
            rows,
            title=f"{spec.name}: {spec.n_nodes / 1e6:.2f}M nodes, "
            f"{spec.n_edges / 1e6:.1f}M edges (paper-scale model)",
        )
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.matrix_stats import compute_stats

    matrix = _load_matrix(args.matrix)
    stats = compute_stats(matrix, stripe_width=args.stripe_width)
    rows = [
        ["dimension", f"{stats.n_rows:,} x {stats.n_cols:,}"],
        ["nonzeros", f"{stats.nnz:,}"],
        ["avg degree", stats.avg_degree],
        ["max degree", stats.max_degree],
        ["99th-pct degree", stats.degree_p99],
        ["degree skew (max/mean)", stats.degree_skew],
        ["power-law alpha (MLE)", stats.power_law_alpha],
        ["power-law heuristic", stats.is_power_law],
        ["hypersparse stripes", f"{stats.hypersparse_stripe_fraction:.1%}"],
        ["empty rows", f"{stats.empty_row_fraction:.1%}"],
        ["median |row-col|", stats.bandwidth_p50],
        ["suggested HDN threshold", stats.suggested_hdn_threshold()],
    ]
    print(format_table(["statistic", "value"], rows, title=f"Structure of {args.matrix}"))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import validate_traffic_model

    report = validate_traffic_model()
    rows = [
        [c.n_nodes, c.avg_degree, c.segment_width, f"{c.total_error:.1%}",
         f"{c.intermediate_error:.1%}", f"{c.matrix_error:.1%}"]
        for c in report.cases
    ]
    print(
        format_table(
            ["N", "degree", "stripe", "total err", "intermediate err", "matrix err"],
            rows,
            title="Analytic traffic model vs functional engine",
        )
    )
    print(
        f"\nworst total error {report.worst_total_error:.1%}, "
        f"mean {report.mean_total_error:.1%}"
    )
    return 0 if report.worst_total_error < 0.15 else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulator import Step1SimConfig, Step2SimConfig, SystemSim

    matrix = _load_matrix(args.matrix)
    sim = SystemSim(
        segment_width=args.segment_width,
        step1=Step1SimConfig(pipelines=args.pipelines),
        step2=Step2SimConfig(q=args.q),
        overlapped=args.its,
    )
    x = np.random.default_rng(args.seed).uniform(size=matrix.n_cols)
    y, report = sim.run(matrix, x)
    ok = np.allclose(y, matrix.spmv(x))
    rows = [
        ["schedule", "ITS (overlapped)" if args.its else "TS (sequential)"],
        ["step-1 cycles", f"{report.step1_cycles:,}"],
        ["step-2 cycles", f"{report.step2_cycles:,}"],
        ["total cycles", f"{report.total_cycles:,}"],
        ["step-1 utilization", f"{report.step1_utilization:.2f}"],
        ["bank-conflict stalls", f"{report.bank_conflict_stalls:,}"],
        ["hazard stalls", f"{report.hazard_stalls:,}"],
        ["GTEPS @1.4 GHz", f"{report.gteps(matrix.nnz, 1.4e9):.2f}"],
        ["verified", "OK" if ok else "MISMATCH"],
    ]
    print(format_table(["quantity", "value"], rows, title=f"Clocked simulation of {args.matrix}"))
    return 0 if ok else 1


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_experiment

    if args.all:
        import pathlib

        out_dir = pathlib.Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for exp_id in EXPERIMENTS:
            text = run_experiment(exp_id)
            (out_dir / f"{exp_id}.txt").write_text(text + "\n")
            print(f"wrote {out_dir / (exp_id + '.txt')}")
        return 0
    if args.list or args.experiment is None:
        rows = [[exp_id, desc] for exp_id, (desc, _) in EXPERIMENTS.items()]
        print(format_table(["id", "regenerates"], rows, title="Available experiments"))
        return 0
    print(run_experiment(args.experiment))
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = [
        [spec.name, spec.table, spec.n_nodes / 1e6, spec.avg_degree, spec.n_edges / 1e6, spec.family]
        for spec in CUSTOM_HW_GRAPHS + GPU_GRAPHS + CPU_GRAPHS
    ]
    print(
        format_table(
            ["name", "table", "nodes (M)", "avg degree", "edges (M)", "family"],
            rows,
            title="Evaluation datasets (paper Tables 4, 5, 6)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-Step SpMV accelerator model (MICRO 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a graph and write it to disk")
    gen.add_argument("--family", default="er", help="er, rmat, or a dataset name (see 'datasets')")
    gen.add_argument("--nodes", type=int, default=100_000)
    gen.add_argument("--degree", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True, help=".mtx or packed binary path")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run Two-Step SpMV on a matrix file")
    run.add_argument("matrix", help=".mtx or packed binary path")
    run.add_argument("--design-point", default="TS_ASIC")
    run.add_argument(
        "--segment-width",
        type=int,
        default=None,
        metavar="W",
        help="stripe width of the simulated design point (default: 8192; "
        "with --autotune, the design point's capacity clamped to the "
        "matrix, and widths beyond the column count are rejected)",
    )
    run.add_argument("--seed", type=int, default=0)
    add_backend_options(run)
    add_telemetry_outputs(run)
    run.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="K",
        help="execute K random right-hand sides in one batched pass",
    )
    run.add_argument(
        "--autotune",
        action="store_true",
        help="choose VLDI block / HDN threshold from the input structure",
    )
    run.set_defaults(func=cmd_run)

    spgemm = sub.add_parser(
        "spgemm", help="sparse-sparse product C = A @ B through the engine"
    )
    spgemm.add_argument("matrix", help="left operand A (.mtx or packed binary)")
    spgemm.add_argument(
        "--rhs",
        default=None,
        metavar="PATH",
        help="right operand B (default: reuse A, computing A @ A)",
    )
    spgemm.add_argument(
        "--segment-width",
        type=int,
        default=None,
        metavar="W",
        help="stripe width (default: one stripe spanning every column)",
    )
    spgemm.add_argument(
        "--output", default=None, metavar="PATH", help="write C to .mtx or packed binary"
    )
    spgemm.add_argument(
        "--verify",
        action="store_true",
        help="cross-check C against the dense product (small inputs only)",
    )
    add_backend_options(spgemm)
    add_telemetry_outputs(spgemm)
    spgemm.set_defaults(func=cmd_spgemm)

    solve = sub.add_parser(
        "solve", help="run an iterative solver through the Two-Step engine"
    )
    solve.add_argument("app", choices=["pagerank", "bfs", "kcore"])
    solve.add_argument("matrix", help=".mtx or packed binary path")
    solve.add_argument(
        "--segment-width",
        type=int,
        default=None,
        metavar="W",
        help="stripe width (default: one stripe spanning every column)",
    )
    solve.add_argument("--iterations", type=int, default=50, help="pagerank iteration cap")
    solve.add_argument(
        "--sources", type=int, default=4, help="BFS sources expanded in one batch"
    )
    add_backend_options(solve)
    add_telemetry_outputs(solve)
    solve.set_defaults(func=cmd_solve)

    serve = sub.add_parser(
        "serve", help="serve SpMV over HTTP with dynamic micro-batching"
    )
    serve.add_argument(
        "matrix", nargs="*", help=".mtx or packed binary path(s) to pre-register"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--segment-width",
        type=int,
        default=None,
        metavar="W",
        help="stripe width (default: one stripe spanning every column)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        metavar="K",
        help="micro-batch size cap: pending requests per matrix coalesced "
        "into one run_many call",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="how long a partial batch waits behind a busy matrix lane "
        "(one with a batch executing) before it flushes; a request on an "
        "idle lane is dispatched at once",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        metavar="N",
        help="admission-control bound on pending requests; beyond it the "
        "server sheds load with 429/OverloadedError",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="registry snapshot directory: restored at startup (corrupted "
        "entries quarantined), written atomically at shutdown and every "
        "--snapshot-interval-s",
    )
    serve.add_argument(
        "--snapshot-interval-s",
        type=float,
        default=None,
        metavar="S",
        help="periodic registry-snapshot cadence (requires --state-dir); "
        "default snapshots only at shutdown",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="deadline budget applied to requests without an X-Deadline-Ms "
        "header; past it requests are shed/dropped with 504",
    )
    add_backend_options(serve)
    serve.set_defaults(func=cmd_serve)

    est = sub.add_parser("estimate", help="paper-scale performance for a dataset")
    est.add_argument("dataset", help="dataset name from 'repro datasets'")
    est.add_argument("--design-point", default=None)
    est.set_defaults(func=cmd_estimate)

    ds = sub.add_parser("datasets", help="list the paper's evaluation graphs")
    ds.set_defaults(func=cmd_datasets)

    fig = sub.add_parser("figure", help="regenerate a paper table/figure as text")
    fig.add_argument("experiment", nargs="?", help="experiment id (e.g. fig17); omit to list")
    fig.add_argument("--list", action="store_true", help="list available experiments")
    fig.add_argument("--all", action="store_true", help="render every experiment to files")
    fig.add_argument("--output-dir", default="figures", help="directory for --all output")
    fig.set_defaults(func=cmd_figure)

    stats = sub.add_parser("stats", help="structural statistics of a matrix file")
    stats.add_argument("matrix", help=".mtx or packed binary path")
    stats.add_argument("--stripe-width", type=int, default=None)
    stats.set_defaults(func=cmd_stats)

    val = sub.add_parser("validate", help="cross-check the analytic model vs the engine")
    val.set_defaults(func=cmd_validate)

    simulate = sub.add_parser("simulate", help="clocked microarchitecture simulation")
    simulate.add_argument("matrix", help=".mtx or packed binary path")
    simulate.add_argument("--segment-width", type=int, default=8192)
    simulate.add_argument("--pipelines", type=int, default=16)
    simulate.add_argument("--q", type=int, default=4)
    simulate.add_argument("--its", action="store_true", help="overlap the phases")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
