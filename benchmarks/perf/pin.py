"""Write ``expected.json``: the pinned digest of every benchmark output
that no ``tests/golden`` case covers.

Every DES answer is computed twice — with the production engine and
with the reference flags that disable indexed matching and both replay
tiers — and pinned only if the two are bit-identical.  Tier A answers
have no reference implementation; they are pinned as computed.

    python3 benchmarks/perf/pin.py          # ~8 minutes, mostly the
                                            # 64-node reference runs
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import run

#: the reference engine (as in bench_engine_microbench.py)
REFERENCE = dict(fast_forward=False, matcher="linear", wavefront=False)


def main() -> int:
    if not run.bootstrap():
        return 2
    import workloads as w
    from repro.analysis import energy
    from repro.harness import runner
    from repro.machine.registry import get_cluster
    from repro.model.dvfs import frequency_grid
    from repro.predict import api
    from repro.spechpc.suite import SUITE_ORDER, get_benchmark
    from repro.validate import golden

    pins: dict[str, str] = {}
    mismatches: list[str] = []

    def pin_run(key, bench, cluster, nprocs, **kw):
        fast = runner.run(bench, cluster, nprocs, **kw)
        ref = runner.run(bench, cluster, nprocs, **kw, **REFERENCE)
        a, b = golden.fingerprint(fast).digest, golden.fingerprint(ref).digest
        if a != b:
            mismatches.append(key)
        pins[key] = a[:16]

    t0 = time.perf_counter()
    a = get_cluster("A")
    paper = replace(a, max_nodes=64)
    jobs = list(w.PAPER_JOBS) + [("minisweep", 64, 40)]
    for bench, nodes, steps in jobs:
        nprocs = nodes * a.cores_per_node
        pin_run(w.run_key(bench, "A", nprocs), get_benchmark(bench), paper,
                nprocs, sim_steps=steps)
        print(f"paper {bench} {nodes} nodes pinned "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)

    for cl in w.CLUSTERS:
        cluster = get_cluster(cl)
        for name in SUITE_ORDER:
            # full nodes are golden cases; every other count is pinned
            for n in range(1, cluster.node.cores):
                pin_run(w.run_key(name, cl, n), get_benchmark(name), cluster, n)
        print(f"sweep {cl} pinned ({time.perf_counter() - t0:.0f} s)",
              flush=True)

    for name in w.DVFS_CODES:
        bench = get_benchmark(name)
        for hz in frequency_grid(a):
            key = w.dvfs_key("dvfs", name, 1, hz)
            (fast,) = energy.frequency_sweep(bench, a, [hz], tier="des")
            (ref,) = energy.frequency_sweep(bench, a, [hz], tier="des",
                                            **REFERENCE)
            if w.point_digest(fast) != w.point_digest(ref):
                mismatches.append(key)
            pins[key] = w.point_digest(fast)

    for name in SUITE_ORDER:
        for cl in w.CLUSTERS:
            for n in w.GRID_NODES:
                pred = api.predict(api.PredictionSpec(name, cl, n),
                                   tier="analytic")
                pins[f"tierA/{name}/{cl}/{n}"] = w.prediction_digest(pred)
    for name, nodes in w.DVFS_GRID:
        bench = get_benchmark(name)
        for hz in frequency_grid(a):
            (point,) = energy.frequency_sweep(bench, a, [hz], nnodes=nodes)
            pins[w.dvfs_key("tierA-dvfs", name, nodes, hz)] = w.point_digest(point)

    if mismatches:
        print(f"production and reference engines differ on "
              f"{len(mismatches)} output(s), first: {mismatches[:5]}",
              file=sys.stderr)
        return 1
    with open(w.EXPECTED_PATH, "w") as fh:
        json.dump({"schema": 1, "digests": pins}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} digests in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
