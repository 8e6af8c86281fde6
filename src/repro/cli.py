"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      benchmarks and clusters available
``run``       one benchmark run with full observables
``trace``     traced run -> Chrome trace JSON (Perfetto-loadable), SVG
              timeline, markdown waiting-time report (see
              ``docs/observability.md``)
``sweep``     scaling sweep (core-level or node-level; ``--executor``
              picks serial/local-pool/fabric backends, ``--listen``
              accepts fabric workers)
``worker``    join a fabric sweep manager as a TCP worker
``compare``   ClusterB-over-ClusterA acceleration factor
``report``    suite-wide summary (acceleration + efficiency + class)
``predict``   tiered prediction (analytic / surrogate / auto / des) of
              the paper's scaling grid with predicted-vs-simulated
              error bars (see ``docs/prediction.md``)
``serve``     simulation-as-a-service: asyncio HTTP front end with a
              content-addressed result cache, band-negotiated
              prediction answers, and single-flight DES escalation
              (see ``docs/serving.md``)
``scenarios`` list / show / validate the scenario library and the
              cluster zoo (see ``docs/scenarios.md``); ``sweep``,
              ``trace``, and ``predict`` accept any of them via
              ``--scenario``
``validate``  golden fingerprints + schedule-perturbation sanitizer +
              cross-mode differential conformance + prediction-tier
              differential + scenario/zoo differential
              (``--scenarios``; ``--regen`` rewrites the golden
              corpus and refuses on a dirty git tree)
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import classify_scaling, domain_efficiency
from repro.harness import ascii_table, run, scaling_sweep
from repro.machine import calibrated, get_cluster
from repro.spechpc import SUITE_ORDER, all_benchmarks, get_benchmark
from repro.units import GB, fmt_energy, fmt_power, fmt_time


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        (
            b.name,
            b.info.language,
            b.info.collective,
            "memory-bound" if b.info.memory_bound else "non-memory-bound",
            ", ".join(sorted(b.workloads)),
        )
        for b in all_benchmarks()
    ]
    print(ascii_table(
        ["benchmark", "language", "collective", "class", "workloads"], rows,
        title="SPEChpc 2021 suite",
    ))
    print("\nclusters: A = ClusterA (Ice Lake 8360Y), B = ClusterB (Sapphire Rapids 8470)")
    return 0


def _load_faults(path: str | None):
    if path is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(path)


def _resolve(args: argparse.Namespace, benchmark=None, default_suite="tiny"):
    """``--scenario`` resolved against the explicit flags by
    :func:`repro.scenarios.resolve` (docs/scenarios.md, "Precedence")."""
    from repro.scenarios import resolve

    return resolve(
        args.scenario,
        cluster=args.cluster,
        suite=args.suite,
        faults=_load_faults(args.faults),
        benchmarks=None if benchmark is None else (benchmark,),
        default_suite=default_suite,
    )


def _require_fault_free(res, ref: str) -> None:
    """The analytic and surrogate tiers price only fault-free points."""
    if res.faults is not None:
        from repro.scenarios import ScenarioError

        raise ScenarioError(
            f"scenario {ref!r} carries a fault plan, which no prediction "
            f"tier prices; simulate it with `repro sweep --scenario {ref}`"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    cluster = get_cluster(args.cluster)
    bench = get_benchmark(args.benchmark)
    nprocs = args.nprocs or cluster.node.cores
    result = run(bench, cluster, nprocs, suite=args.suite, trace=args.trace,
                 faults=_load_faults(args.faults))
    print(f"{bench.name} ({args.suite}) on {cluster.name}, {nprocs} ranks, "
          f"{result.nnodes} node(s)")
    print(f"  time      : {fmt_time(result.elapsed)}")
    print(f"  DP perf   : {result.gflops:.1f} Gflop/s "
          f"({100 * result.vectorization_ratio:.0f} % SIMD)")
    print(f"  memory BW : {result.mem_bandwidth / GB:.1f} GB/s "
          f"({result.per_node_bandwidth / GB:.1f} per node)")
    print(f"  MPI share : {100 * result.mpi_fraction:.1f} %")
    print(f"  energy    : {fmt_energy(result.total_energy)} at "
          f"{fmt_power(result.avg_power)}")
    if args.trace and result.trace is not None:
        print("\ntimeline (first/last ranks):")
        ranks = sorted({0, nprocs // 2, nprocs - 1})
        print(result.trace.ascii_timeline(ranks=ranks, width=80))
    if args.likwid:
        from repro.perfmon.likwid_report import full_report

        print()
        print(full_report(result, cluster))
    if args.diagnose:
        from repro.analysis.bottleneck import diagnose

        print(f"\ndiagnosis: {diagnose(result, cluster).summary()}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    res = _resolve(args, benchmark=args.benchmark_opt or args.benchmark)
    cluster = res.cluster
    bench = get_benchmark(res.benchmark)
    if args.nprocs is not None:
        nprocs = args.nprocs
    elif args.nodes is not None:
        nprocs = args.nodes * cluster.node.cores
    else:
        nprocs = cluster.node.cores
    result = run(bench, cluster, nprocs, suite=res.suite, trace=True,
                 faults=res.faults)
    obs = result.observability()
    os.makedirs(args.out, exist_ok=True)
    prefix = os.path.join(
        args.out, f"{bench.name}_{cluster.name}_{nprocs}r"
    )
    paths = obs.write(prefix)
    print(obs.report())
    print("artifacts:")
    for kind, path in sorted(paths.items()):
        print(f"  {kind:8s} {path}")
    print("\nload the Chrome trace at https://ui.perfetto.dev (drag & drop).")
    return 0


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return (host or "0.0.0.0", int(port))


def _cmd_sweep(args: argparse.Namespace) -> int:
    res = _resolve(args, benchmark=args.benchmark,
                   default_suite="small" if args.nodes else "tiny")
    cluster, suite, faults = res.cluster, res.suite, res.faults
    bench = get_benchmark(res.benchmark)
    if args.nodes:
        cores = cluster.node.cores
        counts = [n * cores for n in (1, 2, 4, 8, 16) if n <= cluster.max_nodes]
    elif args.counts:
        counts = [int(c) for c in args.counts.split(",")]
    else:
        counts = res.rank_counts()
        if counts is None:
            dom = cluster.node.cores_per_domain
            counts = sorted({1, 2, 4, dom // 2, dom, 2 * dom, cluster.node.cores})
    tolerant = bool(
        args.timeout is not None or args.retries or args.resume
        or (faults is not None and not faults.empty)
    )
    executor = args.executor
    if executor == "fabric":
        from repro.harness.fabric import FabricExecutor

        if args.listen is None:
            print("sweep: --executor fabric requires --listen HOST:PORT",
                  file=sys.stderr)
            return 2
        executor = FabricExecutor(args.listen, echo=print)
        host, port = executor.address
        print(f"fabric manager listening on {host}:{port} — join workers "
              f"with: python -m repro worker --connect {host}:{port}")
    elif args.listen is not None:
        print("sweep: --listen only applies to --executor fabric",
              file=sys.stderr)
        return 2
    try:
        series = scaling_sweep(bench, cluster, counts, suite=suite,
                               repeats=args.repeats,
                               noise_sigma=0.015 if args.repeats > 1 else 0.0,
                               workers=args.workers,
                               faults=faults,
                               timeout=args.timeout,
                               retries=args.retries,
                               tolerate_failures=tolerant,
                               checkpoint=args.resume,
                               executor=executor)
    finally:
        if not isinstance(executor, (str, type(None))):
            executor.shutdown()
    sp = series.speedups()
    rows = [
        (
            p.nprocs,
            f"{sp[p.nprocs]:.2f}",
            f"{p.best.gflops:.1f}",
            f"{p.best.per_node_bandwidth / GB:.1f}",
            f"{100 * p.best.mpi_fraction:.1f}%",
            f"{p.best.total_energy / 1e3:.1f}",
            f"{p.best.edp / 1e3:.3g}",
        )
        for p in series.points
    ]
    print(ascii_table(
        ["ranks", "speedup", "Gflop/s", "GB/s/node", "MPI", "energy kJ",
         "EDP kJ*s"],
        rows,
        title=f"{bench.name} ({suite}) on {cluster.name}",
    ))
    if args.nodes:
        ev = classify_scaling(series)
        print(f"\nscaling case: {ev.case.value}")
    if args.metrics:
        from repro.obs import aggregate_metrics

        agg = aggregate_metrics(series)
        mrows = [
            (source, metric, f"{value:g}")
            for source in sorted(agg)
            for metric, value in sorted(agg[source].items())
        ]
        print()
        print(ascii_table(
            ["source", "metric", "value"], mrows,
            title="engine metrics (aggregated over all sweep runs)",
        ))
    if series.failures:
        print(f"\n{len(series.failures)} point(s) failed:")
        for f in series.failures:
            print(f"  {f.summary()}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.harness.fabric import worker_loop

    host, port = args.connect
    return worker_loop(
        host,
        port,
        name=args.name,
        reconnect=args.reconnect,
        heartbeat_interval=args.heartbeat,
        echo=print,
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness import RunSpec, run_many

    bench = get_benchmark(args.benchmark)
    a, b = get_cluster("A"), get_cluster("B")
    ra, rb = run_many(
        [
            RunSpec(bench, a, a.node.cores, suite=args.suite),
            RunSpec(bench, b, b.node.cores, suite=args.suite),
        ],
        workers=args.workers,
    )
    print(f"{bench.name} ({args.suite}): ClusterA {fmt_time(ra.elapsed)} vs "
          f"ClusterB {fmt_time(rb.elapsed)}")
    print(f"acceleration factor B over A: {ra.elapsed / rb.elapsed:.2f}")
    print(f"(hardware band: 1.20 compute-bound .. 1.56 memory-bound)")
    return 0


def _cmd_report(_args: argparse.Namespace) -> int:
    a, b = get_cluster("A"), get_cluster("B")
    rows = []
    for name in SUITE_ORDER:
        bench = get_benchmark(name)
        ra = run(bench, a, a.node.cores)
        rb = run(bench, b, b.node.cores)
        eff_a = 100 * domain_efficiency(
            run(bench, a, a.node.cores_per_domain), ra, a.node.numa_domains
        )
        eff_b = 100 * domain_efficiency(
            run(bench, b, b.node.cores_per_domain), rb, b.node.numa_domains
        )
        rows.append(
            (
                name,
                f"{ra.elapsed / rb.elapsed:.2f}",
                f"{eff_a:.0f}%",
                f"{eff_b:.0f}%",
                f"{ra.mem_bandwidth / GB:.0f}",
                f"{100 * ra.vectorization_ratio:.0f}%",
            )
        )
    print(ascii_table(
        ["benchmark", "accel B/A", "eff A", "eff B", "BW(A) GB/s", "SIMD"],
        rows,
        title="SPEChpc 2021 tiny-suite node-level summary",
    ))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import time

    from repro.predict import (
        PredictionCorpus,
        PredictionSpec,
        corpus_from_golden,
        predict,
    )
    from repro.scenarios import resolve
    from repro.validate.golden import GOLDEN_DIR

    both = args.cluster == "both" or (
        args.cluster is None and args.scenario is None
    )
    res = resolve(
        args.scenario,
        cluster=None if both else args.cluster,
        suite=args.suite,
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
    )
    _require_fault_free(res, args.scenario)
    benchmarks = res.benchmarks or SUITE_ORDER
    if both:
        clusters = [(n, get_cluster(n)) for n in ("A", "B")]
    else:
        # label rows with the reference when there is one, else the name
        label = args.cluster or res.scenario.cluster or res.scenario.name
        clusters = [(label, res.cluster)]
    if args.nodes is not None:
        node_counts = [int(n) for n in args.nodes.split(",")]
    else:
        node_counts = res.node_counts() or [1, 2, 4, 8, 16, 32, 64]
    suite = res.suite

    # reference corpus: DES ground truth for the error-bar column (and
    # the surrogate's training data)
    if args.corpus is not None:
        corpus = PredictionCorpus(args.corpus)
    else:
        corpus = corpus_from_golden(args.golden_dir or GOLDEN_DIR)
    truth = {(s.benchmark, s.cluster, s.suite, s.nprocs): s for s in corpus}

    rows = []
    violations = 0
    t0 = time.perf_counter()
    for bname in benchmarks:
        for cname, cluster in clusters:
            # golden truth describes the calibrated machines only
            registry_name = calibrated(cluster)
            for nnodes in node_counts:
                spec = PredictionSpec(
                    benchmark=bname, cluster=cluster.name, nnodes=nnodes,
                    suite=suite, cluster_obj=cluster,
                )
                pred = predict(
                    spec, tier=args.tier, corpus=corpus,
                    allow_des=not args.no_des,
                )
                ref = truth.get((
                    bname, registry_name, suite,
                    nnodes * cluster.cores_per_node,
                ))
                if ref is not None and pred.tier != "des":
                    err = pred.runtime / ref.elapsed - 1.0
                    ok = abs(err) <= pred.band
                    violations += not ok
                    vs_des = f"{100 * err:+.1f}% {'ok' if ok else 'VIOLATED'}"
                else:
                    vs_des = "-"
                rows.append((
                    bname,
                    cname,
                    nnodes,
                    pred.details.get("fallback") or pred.tier,
                    fmt_time(pred.runtime),
                    f"±{100 * pred.band:.0f}%",
                    fmt_energy(pred.energy.total_energy),
                    vs_des,
                ))
    elapsed = time.perf_counter() - t0

    print(ascii_table(
        ["benchmark", "cl", "nodes", "tier", "runtime", "band", "energy",
         "vs DES"],
        rows,
        title=f"tiered prediction ({suite}, tier={args.tier})",
    ))
    compared = sum(1 for r in rows if r[-1] != "-")
    print(f"\n{len(rows)} predictions in {elapsed:.3f} s "
          f"({compared} with DES ground truth; corpus: {len(corpus)} samples)")
    if violations:
        print(f"{violations} prediction(s) exceeded their stated error band")
        return 1
    if compared:
        print("every compared prediction is within its stated error band")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp

    sweep_executor = args.executor
    if sweep_executor == "fabric":
        from repro.harness.fabric import FabricExecutor

        if args.listen is None:
            print("serve: --executor fabric requires --listen HOST:PORT",
                  file=sys.stderr)
            return 2
        sweep_executor = FabricExecutor(args.listen, echo=print)
        fhost, fport = sweep_executor.address
        print(f"fabric manager listening on {fhost}:{fport} — join workers "
              f"with: python -m repro worker --connect {fhost}:{fport} "
              f"--reconnect 0")
    elif args.listen is not None:
        print("serve: --listen only applies to --executor fabric",
              file=sys.stderr)
        return 2

    golden_dir = args.golden_dir
    if golden_dir is None and not args.no_golden_seed:
        from repro.validate.golden import GOLDEN_DIR

        golden_dir = GOLDEN_DIR
    app = ServeApp(
        host=args.host,
        port=args.port,
        store_path=args.store,
        corpus_path=args.corpus,
        golden_dir=golden_dir,
        workers=args.workers,
        sweep_executor=sweep_executor,
    )

    async def _serve() -> None:
        host, port = await app.start()
        print(f"repro serve listening on http://{host}:{port}")
        print(f"  store : {app.store.path or '(memory)'} "
              f"({len(app.store)} cached result(s))")
        print(f"  corpus: {app.corpus.path or '(memory)'} "
              f"({len(app.corpus)} sample(s))")
        print("  POST /run /sweep /predict — GET /status/<job> /metrics")
        try:
            await asyncio.Event().wait()
        finally:
            await app.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserve: shut down")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        Scenario,
        ScenarioError,
        load_scenario,
        load_zoo_cluster,
        resolve,
        scenario_names,
        zoo_provenance,
    )

    names = scenario_names()

    if args.action == "list":
        zrows = []
        for name in names["zoo"]:
            c = load_zoo_cluster(name)
            zrows.append((
                f"zoo/{name}",
                c.name,
                f"{c.node.cpu.base_clock_hz / 1e9:g} GHz",
                f"{c.node.cores} x {c.max_nodes}",
                Scenario(name=name, cluster=f"zoo/{name}").short_digest,
            ))
        print(ascii_table(
            ["reference", "cluster", "clock", "cores x nodes", "digest"],
            zrows, title="cluster zoo (parameter files; see docs/scenarios.md)",
        ))
        lrows = []
        for name in names["library"]:
            s = load_scenario(name)
            freq = "-"
            if s.frequency is not None:
                freq = "/".join(
                    f"{seg.frequency_hz / 1e9:g}"
                    for seg in s.frequency.active_segments
                ) + " GHz"
            lrows.append((
                name,
                s.cluster or "(inline)",
                ",".join(s.benchmarks) or "-",
                freq,
                "yes" if s.faults else "-",
                s.short_digest,
            ))
        print()
        print(ascii_table(
            ["scenario", "cluster", "benchmarks", "frequency", "faults",
             "digest"],
            lrows, title="scenario library",
        ))
        return 0

    if args.action in ("show", "frequencies") and args.name is None:
        print(f"scenarios {args.action}: a scenario name is required",
              file=sys.stderr)
        return 2

    if args.action == "show":
        s = load_scenario(args.name)
        cluster = s.base_cluster()
        print(s.to_json())
        print(f"\ndigest : {s.digest}")
        print(f"cluster: {cluster.name} — {cluster.node.cores} cores/node "
              f"({cluster.node.cpu.base_clock_hz / 1e9:g} GHz), "
              f"up to {cluster.max_nodes} nodes")
        if s.cluster and s.cluster.startswith("zoo/"):
            print(f"source : {zoo_provenance(s.cluster)}")
        return 0

    if args.action == "validate":
        refs = (
            [args.name]
            if args.name
            else [f"zoo/{n}" for n in names["zoo"]] + names["library"]
        )
        failures = []
        for ref in refs:
            try:
                s = load_scenario(ref)
                status = s.short_digest
            except ScenarioError as exc:
                failures.append(f"{ref}: {exc}")
                status = "FAIL"
            print(f"  {ref:28s} {status}")
        if failures:
            print(f"\n{len(failures)} invalid scenario(s):")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"\nall {len(refs)} scenario(s) valid")
        return 0

    # action == "frequencies": DVFS grid sweep via Tier A
    from repro.analysis.energy import (
        dvfs_policy,
        edp_optimal_frequency,
        energy_optimal_frequency,
        frequency_sweep,
    )
    from repro.model.dvfs import frequency_grid

    res = resolve(
        args.name,
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
    )
    _require_fault_free(res, args.name)
    # the grid replaces the scenario's own frequency plan
    cluster, suite = res.machine, res.suite
    grid = frequency_grid(cluster, steps=args.steps)
    rows = []
    for bname in res.benchmarks or SUITE_ORDER:
        pts = frequency_sweep(
            get_benchmark(bname), cluster, frequencies=grid,
            nnodes=args.nodes, suite=suite,
        )
        e, d = energy_optimal_frequency(pts), edp_optimal_frequency(pts)
        rows.append((
            bname,
            f"{e.frequency_ghz:.2f}",
            f"{e.total_energy / 1e3:.1f}",
            f"{d.frequency_ghz:.2f}",
            f"{d.edp / 1e3:.3g}",
            dvfs_policy(pts),
        ))
    print(ascii_table(
        ["benchmark", "E-opt GHz", "E kJ", "EDP-opt GHz", "EDP kJ*s",
         "policy"],
        rows,
        title=(f"DVFS grid {grid[0] / 1e9:.2f}-{grid[-1] / 1e9:.2f} GHz on "
               f"{cluster.name}, {args.nodes} node(s), {suite} "
               f"(Tier A analytic)"),
    ))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.golden import (
        GOLDEN_DIR,
        DirtyTreeError,
        check_case,
        compute_fingerprint,
        golden_cases,
        regenerate,
    )

    golden_dir = args.golden_dir or GOLDEN_DIR

    if args.regen:
        try:
            paths = regenerate(
                golden_dir, scales=tuple(args.scales), force=args.force
            )
        except DirtyTreeError as exc:
            print(f"refusing to regenerate: {exc}", file=sys.stderr)
            return 1
        print(f"regenerated {len(paths)} golden fingerprint(s) in {golden_dir}")
        return 0

    benchmarks = (
        list(SUITE_ORDER)
        if args.benchmarks is None
        else [get_benchmark(b).name for b in args.benchmarks.split(",")]
    )
    clusters = ["A", "B"] if args.cluster == "both" else [args.cluster]
    failures: list[str] = []
    rows = []

    if not args.skip_prediction:
        # one pass over the whole golden corpus (the tiers answer every
        # benchmark from a single profile, so this is not per-benchmark)
        from repro.validate.prediction import prediction_differential

        failures.extend(prediction_differential(
            golden_dir,
            benchmarks=tuple(benchmarks),
            clusters=tuple(clusters),
        ))

    if args.serving:
        # loopback server vs direct run(): cache, predict, and cold
        # paths must all honor the fingerprint/band contracts
        from repro.validate.serving import serving_differential

        failures.extend(serving_differential(
            golden_dir,
            benchmarks=tuple(benchmarks),
            clusters=tuple(clusters),
        ))

    if args.scenarios:
        # named scenario runs must be fingerprint-identical to their
        # inline-flag equivalents, and every zoo file must load,
        # round-trip, and price
        from repro.validate.scenario import (
            scenario_differential,
            zoo_validation,
        )

        lines = zoo_validation() + scenario_differential()
        failures.extend(lines)
        print(
            "scenario lane (zoo + named-vs-inline differential): "
            + ("ok" if not lines else f"{len(lines)} failure(s)")
        )

    def lane(skip: bool, check) -> str:
        """Run one check unless skipped; its status for the table."""
        if skip:
            return "skipped"
        lines = check()
        failures.extend(lines)
        return "FAIL" if lines else "ok"

    from repro.validate.differential import differential_run
    from repro.validate.perturb import sanitize

    for bname in benchmarks:
        for cname in clusters:
            nprocs = args.nprocs or get_cluster(cname).node.cores
            rows.append((
                bname, cname, nprocs,
                lane(args.skip_golden, lambda: [
                    line
                    for case in golden_cases(scales=(1,))
                    if case.benchmark == bname and case.cluster == cname
                    for line in check_case(
                        golden_dir, case, compute_fingerprint(case)
                    )
                ]),
                lane(args.skip_perturb, lambda: sanitize(
                    bname, cname, nprocs, suite=args.suite,
                    shuffles=args.shuffles,
                )),
                lane(args.skip_differential, lambda: differential_run(
                    bname, cname, nprocs, suite=args.suite
                )),
            ))

    print(ascii_table(
        ["benchmark", "cluster", "ranks", "golden", "perturb", "differential"],
        rows,
        title=(f"validation ({args.shuffles} shuffles, "
               "matcher x replay-tier matrix)"),
    ))
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nall validations passed")
    return 0


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Simulated SPEChpc 2021 performance & energy study",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and clusters").set_defaults(
        fn=_cmd_list
    )

    pr = sub.add_parser("run", help="run one benchmark")
    pr.add_argument("benchmark")
    pr.add_argument("--cluster", "-c", default="A")
    pr.add_argument("--nprocs", "-n", type=int, default=None)
    pr.add_argument("--suite", "-s", default="tiny")
    pr.add_argument("--trace", action="store_true")
    pr.add_argument("--likwid", action="store_true",
                    help="print likwid-perfctr-style group reports")
    pr.add_argument("--diagnose", action="store_true",
                    help="print the bottleneck diagnosis")
    pr.add_argument("--faults", metavar="PLAN.json",
                    help="inject faults from a FaultPlan JSON file")
    pr.set_defaults(fn=_cmd_run)

    pt = sub.add_parser(
        "trace",
        help="traced run -> Chrome trace JSON + SVG timeline + markdown "
             "waiting-time report",
    )
    pt.add_argument("benchmark", nargs="?", default=None)
    pt.add_argument("--benchmark", "-b", dest="benchmark_opt", default=None,
                    help="benchmark name (alternative to the positional)")
    pt.add_argument("--cluster", "-c", default=None,
                    help="registry or zoo cluster (default: A, or the "
                         "scenario's machine)")
    pt.add_argument("--nodes", type=_positive_int, default=None,
                    help="full nodes to use (nprocs = nodes x cores/node)")
    pt.add_argument("--nprocs", "-n", type=_positive_int, default=None,
                    help="explicit rank count (overrides --nodes)")
    pt.add_argument("--suite", "-s", default=None,
                    help="workload class (default: tiny, or the "
                         "scenario's suite)")
    pt.add_argument("--scenario", metavar="REF", default=None,
                    help="trace under a scenario (file, library name, or "
                         "zoo/<cluster>); explicit flags override "
                         "scenario values")
    pt.add_argument("--faults", metavar="PLAN.json",
                    help="inject faults from a FaultPlan JSON file")
    pt.add_argument("--out", "-o", default="trace_out",
                    help="artifact directory (default: trace_out)")
    pt.set_defaults(fn=_cmd_trace)

    ps = sub.add_parser("sweep", help="scaling sweep")
    ps.add_argument("benchmark", nargs="?", default=None,
                    help="benchmark name (optional when the scenario "
                         "lists one)")
    ps.add_argument("--cluster", "-c", default=None,
                    help="registry or zoo cluster (default: A, or the "
                         "scenario's machine)")
    ps.add_argument("--suite", "-s", default=None,
                    help="workload class (default: tiny, or the "
                         "scenario's suite)")
    ps.add_argument("--scenario", metavar="REF", default=None,
                    help="run under a scenario: a JSON file, a library "
                         "name, or zoo/<cluster> (explicit flags "
                         "override scenario values; see "
                         "docs/scenarios.md)")
    ps.add_argument("--counts", help="comma-separated rank counts")
    ps.add_argument("--nodes", action="store_true",
                    help="node-level sweep of the small workload")
    ps.add_argument("--repeats", type=int, default=1)
    ps.add_argument("--workers", "-j", type=_positive_int, default=1,
                    help="run sweep points over N worker processes")
    ps.add_argument("--faults", metavar="PLAN.json",
                    help="inject faults from a FaultPlan JSON file "
                         "(enables failure-tolerant mode)")
    ps.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="per-point wall-clock budget; a point that "
                         "produces no result in time is recorded as failed")
    ps.add_argument("--retries", type=int, default=0, metavar="N",
                    help="retry each failed point up to N times with "
                         "exponential backoff")
    ps.add_argument("--resume", metavar="CKPT.jsonl",
                    help="JSONL checkpoint: completed points are restored "
                         "from (and new ones appended to) this file; "
                         "compacted atomically on load, and doubles as the "
                         "fabric lease journal")
    ps.add_argument("--executor", choices=["serial", "local", "fabric"],
                    default=None,
                    help="where points run (default: auto — a local pool "
                         "when -j/--timeout ask for one, else serial); "
                         "'fabric' fans out over TCP workers (--listen)")
    ps.add_argument("--listen", type=_parse_hostport, default=None,
                    metavar="HOST:PORT",
                    help="with --executor fabric: address to accept "
                         "workers on (port 0 picks a free port)")
    ps.add_argument("--metrics", action="store_true",
                    help="print engine metrics aggregated over all runs "
                         "(includes the replay-decision counters)")
    ps.set_defaults(fn=_cmd_sweep)

    pw = sub.add_parser(
        "worker",
        help="join a fabric sweep as a worker (see `repro sweep "
             "--executor fabric`)",
    )
    pw.add_argument("--connect", type=_parse_hostport, required=True,
                    metavar="HOST:PORT",
                    help="manager address printed by `repro sweep --listen`")
    pw.add_argument("--name", default=None,
                    help="worker name (default: hostname-pid)")
    pw.add_argument("--reconnect", type=float, default=30.0, metavar="SEC",
                    help="window to keep retrying a refused or dropped "
                         "connection — covers workers started before the "
                         "manager and managers restarted with --resume "
                         "(default: 30)")
    pw.add_argument("--heartbeat", type=float, default=0.5, metavar="SEC",
                    help="heartbeat interval offered at handshake "
                         "(the manager's interval wins; default: 0.5)")
    pw.set_defaults(fn=_cmd_worker)

    pc = sub.add_parser("compare", help="ClusterB over ClusterA")
    pc.add_argument("benchmark")
    pc.add_argument("--suite", "-s", default="tiny")
    pc.add_argument("--workers", "-j", type=_positive_int, default=1,
                    help="run the two cluster runs concurrently (use 2)")
    pc.set_defaults(fn=_cmd_compare)

    sub.add_parser("report", help="suite-wide summary").set_defaults(
        fn=_cmd_report
    )

    pp = sub.add_parser(
        "predict",
        help="tiered prediction of the scaling grid with "
             "predicted-vs-simulated error bars",
    )
    pp.add_argument("--benchmarks", "-b", default=None,
                    help="comma-separated subset (default: all nine, or "
                         "the scenario's list)")
    pp.add_argument("--cluster", "-c", default=None,
                    help="'A', 'B', 'both', or any registry/zoo name "
                         "(default: both, or the scenario's machine)")
    pp.add_argument("--suite", "-s", default=None,
                    help="workload class (default: tiny, or the "
                         "scenario's suite)")
    pp.add_argument("--scenario", metavar="REF", default=None,
                    help="price a scenario: zoo/<cluster> answers the "
                         "whole grid from the parameter file alone "
                         "(Tier A); explicit flags override scenario "
                         "values")
    pp.add_argument("--nodes", default=None,
                    help="comma-separated node counts (default: the "
                         "paper grid 1..64 powers of two, or the "
                         "scenario's sweep axis)")
    pp.add_argument("--tier", default="analytic",
                    choices=["auto", "analytic", "surrogate", "des"],
                    help="prediction fidelity (default: analytic — the "
                         "whole grid in well under a second)")
    pp.add_argument("--corpus", metavar="CORPUS.jsonl", default=None,
                    help="surrogate corpus file (default: seeded "
                         "in-memory from the golden fingerprints)")
    pp.add_argument("--no-des", action="store_true",
                    help="with --tier auto: never escalate to the "
                         "simulator; degrade to the analytic answer")
    pp.add_argument("--golden-dir", default=None,
                    help="golden corpus directory (default: tests/golden)")
    pp.set_defaults(fn=_cmd_predict)

    pserve = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP front end with a "
             "content-addressed result cache (see docs/serving.md)",
    )
    pserve.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1; use "
                             "0.0.0.0 to accept remote clients)")
    pserve.add_argument("--port", type=int, default=8753,
                        help="bind port (default: 8753; 0 picks a free one)")
    pserve.add_argument("--store", metavar="STORE.jsonl", default=None,
                        help="content-addressed result store file "
                             "(default: in-memory; results are lost on "
                             "shutdown)")
    pserve.add_argument("--corpus", metavar="CORPUS.jsonl", default=None,
                        help="prediction-corpus file fed by every DES "
                             "answer (default: in-memory)")
    pserve.add_argument("--golden-dir", default=None,
                        help="seed the corpus from this golden directory "
                             "(default: tests/golden)")
    pserve.add_argument("--no-golden-seed", action="store_true",
                        help="start with an empty prediction corpus")
    pserve.add_argument("--workers", "-j", type=_positive_int, default=2,
                        help="thread-pool width, and the run_many worker "
                             "count and batch size of every cold "
                             "execution (default: 2)")
    pserve.add_argument("--executor", choices=["serial", "local", "fabric"],
                        default=None,
                        help="run_many backend for every cold execution "
                             "(/run, /sweep, /predict's DES tier; "
                             "default: auto — one-point batches run "
                             "in-process; 'local' runs each batch in a "
                             "process pool; 'fabric' fans batches out "
                             "over TCP workers, one batch at a time, and "
                             "keeps them joined across requests)")
    pserve.add_argument("--listen", type=_parse_hostport, default=None,
                        metavar="HOST:PORT",
                        help="with --executor fabric: address to accept "
                             "fabric workers on (port 0 picks a free port)")
    pserve.set_defaults(fn=_cmd_serve)

    psc = sub.add_parser(
        "scenarios",
        help="list / show / validate scenarios and the cluster zoo; "
             "'frequencies' sweeps the DVFS grid via Tier A "
             "(see docs/scenarios.md)",
    )
    psc.add_argument("action", nargs="?", default="list",
                     choices=["list", "show", "validate", "frequencies"],
                     help="list (default): zoo + library tables; "
                          "show REF: full JSON + digest; "
                          "validate [REF]: resolve every reference; "
                          "frequencies REF: per-benchmark E/EDP-optimal "
                          "frequency table")
    psc.add_argument("name", nargs="?", default=None,
                     help="scenario reference (file, library name, or "
                          "zoo/<cluster>)")
    psc.add_argument("--benchmarks", "-b", default=None,
                     help="with frequencies: comma-separated subset "
                          "(default: the scenario's list, else all nine)")
    psc.add_argument("--nodes", type=_positive_int, default=1,
                     help="with frequencies: node count per point "
                          "(default: 1)")
    psc.add_argument("--steps", type=_positive_int, default=9,
                     help="with frequencies: grid points over "
                          "0.5x-1.33x nominal (default: 9)")
    psc.set_defaults(fn=_cmd_scenarios)

    pv = sub.add_parser(
        "validate",
        help="golden fingerprints, perturbation sanitizer, differential "
             "conformance",
    )
    pv.add_argument("--benchmarks", "-b", default=None,
                    help="comma-separated subset (default: all nine)")
    pv.add_argument("--cluster", "-c", default="both",
                    choices=["A", "B", "both"])
    pv.add_argument("--suite", "-s", default="tiny")
    pv.add_argument("--nprocs", "-n", type=_positive_int, default=None,
                    help="ranks per job (default: one full node)")
    pv.add_argument("--shuffles", type=_positive_int, default=20,
                    help="perturbation seeds per job (default: 20)")
    pv.add_argument("--skip-golden", action="store_true")
    pv.add_argument("--skip-perturb", action="store_true")
    pv.add_argument("--skip-differential", action="store_true")
    pv.add_argument("--skip-prediction", action="store_true",
                    help="skip the prediction-tier differential "
                         "(analytic/surrogate vs DES ground truth)")
    pv.add_argument("--scenarios", action="store_true",
                    help="also run the scenario differential (named "
                         "scenario runs vs equivalent inline flags, "
                         "fingerprint-identical) and the zoo validation "
                         "(every parameter file loads, round-trips, and "
                         "prices through Tier A)")
    pv.add_argument("--serving", action="store_true",
                    help="also run the serving differential: every "
                         "selected golden spec through a loopback "
                         "server must be fingerprint-identical to a "
                         "direct run on the cold, cached, and "
                         "band-negotiated paths")
    pv.add_argument("--golden-dir", default=None,
                    help="golden corpus directory (default: tests/golden)")
    pv.add_argument("--regen", action="store_true",
                    help="recompute and rewrite the golden corpus "
                         "(refuses on a dirty git tree)")
    pv.add_argument("--force", action="store_true",
                    help="with --regen: override the dirty-tree refusal")
    pv.add_argument("--scales", type=_positive_int, nargs="+", default=[1, 4],
                    metavar="NODES",
                    help="with --regen: node counts to regenerate "
                         "(default: 1 4)")
    pv.set_defaults(fn=_cmd_validate)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    from repro.scenarios import ScenarioError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
