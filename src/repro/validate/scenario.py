"""Scenario differential: named scenarios vs equivalent inline flags.

The scenario subsystem is pure plumbing — a scenario *names* a
configuration, it must not *change* it.  Two checks enforce that:

* :func:`zoo_validation` — every checked-in zoo parameter file loads,
  survives an exact dict round-trip, and prices through Tier A from the
  parameter file alone; the ``icelake``/``sapphirerapids`` files parse
  to specs *equal* to the calibrated registry objects (the zoo is the
  registry written down, not a copy that can drift).
* :func:`scenario_differential` — running under a named scenario is
  **fingerprint-identical** (:func:`repro.validate.golden.fingerprint`)
  to running with the equivalent inline flags: a ``zoo/`` reference vs
  the registry cluster, an inline ``cluster_spec`` vs its source, a
  fixed-at-nominal frequency plan vs no plan at all, a clocked library
  scenario vs :func:`repro.model.dvfs.apply_frequency` by hand, and
  each segment of a segmented plan vs a standalone fixed run at that
  frequency (which is what makes phase-cost-cache staleness across a
  frequency change structurally impossible).  It also holds the front
  ends to one resolution: for every zoo and library scenario, the CLI's
  flags, a ``repro serve`` request and the library call
  (:func:`repro.scenarios.resolve`, which
  :func:`~repro.scenarios.run_scenario` runs) agree on the machine
  digest, suite, fault digest and benchmark, and refuse a segmented
  plan alike.

Both return failure lines, empty when green — the run comparisons are
:func:`repro.validate.golden.fingerprint_diff` lines — and the CLI
surfaces them via ``repro validate --scenarios``.
"""

from __future__ import annotations

import math


def zoo_validation() -> list[str]:
    """Validate every zoo parameter file (see module docstring)."""
    from repro.machine.registry import CLUSTER_A, CLUSTER_B
    from repro.predict.api import AnalyticPredictionTier, PredictionSpec
    from repro.scenarios.zoo import (
        ZooError,
        cluster_from_dict,
        cluster_to_dict,
        load_zoo_cluster,
        zoo_names,
    )

    failures: list[str] = []
    tier = AnalyticPredictionTier()
    for name in zoo_names():
        try:
            cluster = load_zoo_cluster(name)
        except (ZooError, ValueError) as exc:
            failures.append(f"zoo/{name}: does not load: {exc}")
            continue
        if cluster_from_dict(cluster_to_dict(cluster)) != cluster:
            failures.append(f"zoo/{name}: dict round-trip is not exact")
        # Tier A must price the whole node range from the file alone
        for nnodes in (1, cluster.max_nodes):
            try:
                pred = tier.predict(PredictionSpec(
                    benchmark="lbm", cluster=cluster.name, nnodes=nnodes,
                    cluster_obj=cluster,
                ))
            except Exception as exc:  # noqa: BLE001 — report, don't abort
                failures.append(
                    f"zoo/{name}: Tier A fails at {nnodes} node(s): {exc}"
                )
                continue
            if not (
                math.isfinite(pred.runtime) and pred.runtime > 0
                and math.isfinite(pred.energy.total_energy)
                and pred.energy.total_energy > 0
            ):
                failures.append(
                    f"zoo/{name}: Tier A priced a non-physical result at "
                    f"{nnodes} node(s): runtime={pred.runtime}, "
                    f"energy={pred.energy.total_energy}"
                )
    for name, registry in (("icelake", CLUSTER_A), ("sapphirerapids", CLUSTER_B)):
        if load_zoo_cluster(name) != registry:
            failures.append(
                f"zoo/{name}: drifted from the calibrated registry spec "
                f"{registry.name}"
            )
    return failures


def scenario_differential(nprocs: int = 8) -> list[str]:
    """Named-scenario runs vs inline-flag runs (see module docstring)."""
    from repro.harness.runner import run
    from repro.machine.registry import CLUSTER_A
    from repro.model.dvfs import apply_frequency
    from repro.scenarios import (
        FrequencyPlan,
        FrequencySegment,
        Scenario,
        load_scenario,
        run_frequency_plan,
        run_scenario,
    )
    from repro.scenarios.zoo import cluster_to_dict
    from repro.spechpc.suite import get_benchmark
    from repro.validate.golden import fingerprint, fingerprint_diff

    bench = get_benchmark("lbm")
    baseline = fingerprint(run(bench, CLUSTER_A, nprocs))
    lines = []

    # 1. zoo reference vs registry cluster
    lines.append(fingerprint_diff(
        "scenario zoo/icelake vs the inline ClusterA run", baseline,
        fingerprint(run_scenario(
            load_scenario("zoo/icelake"), nprocs, benchmark="lbm"
        )),
    ))

    # 2. inline cluster_spec vs its source registry object
    inline = Scenario(
        name="inline-icelake", cluster_spec=cluster_to_dict(CLUSTER_A)
    )
    lines.append(fingerprint_diff(
        "scenario inline cluster_spec vs the registry run", baseline,
        fingerprint(run_scenario(inline, nprocs, benchmark="lbm")),
    ))
    if inline.digest != Scenario(name="ref", cluster="zoo/icelake").digest:
        lines.append(
            "scenario digest: inline cluster_spec and zoo/icelake disagree "
            "despite identical parameters"
        )

    # 3. fixed-at-nominal frequency plan vs no plan
    nominal = CLUSTER_A.node.cpu.nominal_clock_hz
    nom = Scenario(
        name="nominal-plan", cluster="A",
        frequency=FrequencyPlan.fixed(nominal),
    )
    lines.append(fingerprint_diff(
        "scenario nominal-frequency plan vs the plan-free run", baseline,
        fingerprint(run_scenario(nom, nprocs, benchmark="lbm")),
    ))

    # 4. clocked library scenario vs apply_frequency by hand
    lib = load_scenario("dvfs_lbm_clockdown")
    want = fingerprint(run(
        bench, apply_frequency(CLUSTER_A, lib.frequency.frequency_hz), nprocs
    ))
    lines.append(fingerprint_diff(
        "scenario dvfs_lbm_clockdown vs the apply_frequency run", want,
        fingerprint(run_scenario(lib, nprocs)),
    ))

    # 5. segmented plan: every segment == a standalone fixed run
    plan = FrequencyPlan((
        FrequencySegment(2.0e9, iterations=2),
        FrequencySegment(nominal),
    ))
    seg = run_frequency_plan(bench, CLUSTER_A, plan, nprocs)
    for result, n, frequency in zip(
        seg.segments, seg.steps,
        (s.frequency_hz for s in plan.active_segments),
    ):
        want = fingerprint(run(
            bench, apply_frequency(CLUSTER_A, frequency), nprocs, sim_steps=n
        ))
        lines.append(fingerprint_diff(
            f"scenario segmented plan, {frequency / 1e9:g} GHz segment ({n} "
            "steps) vs a standalone fixed run", want, fingerprint(result),
        ))
    return [line for line in lines if line] + _front_end_agreement()


def _front_end_agreement() -> list[str]:
    """The front ends resolve every zoo and library scenario alike (see
    the module docstring)."""
    from repro.cli import _resolve, build_parser
    from repro.scenarios import ScenarioError, resolve, scenario_names
    from repro.serve.spec import ServeSpec, SpecError

    def identity(resolved):
        try:
            cluster, suite, faults, benchmark = resolved()
        except (ScenarioError, SpecError) as exc:
            return f"refused: {exc}"
        digest = None if faults is None or faults.empty else faults.digest
        return cluster.machine_digest, suite, digest, benchmark

    names = scenario_names()
    failures: list[str] = []
    for ref in [f"zoo/{n}" for n in names["zoo"]] + names["library"]:
        explicit = None if resolve(ref).benchmarks else "lbm"
        lib = resolve(ref, benchmarks=[explicit] if explicit else None)
        argv = ["trace", "--scenario", ref] + ([explicit] if explicit else [])
        cli = _resolve(build_parser().parse_args(argv), benchmark=explicit)
        request = {"benchmark": lib.benchmark, "scenario": ref}

        def serve():
            rs = ServeSpec.from_request(request).run_spec()
            return rs.cluster, rs.suite, rs.faults, rs.benchmark.name

        views = {}
        for name, res in (("library", lib), ("cli", cli)):
            views[name] = identity(
                lambda: (res.cluster, res.suite, res.faults, res.benchmark)
            )
        views["serve"] = identity(serve)
        if len(set(views.values())) != 1:
            failures.append(
                f"scenario {ref}: front ends resolve it differently: "
                + "; ".join(f"{k}={v}" for k, v in views.items())
            )
    return failures
