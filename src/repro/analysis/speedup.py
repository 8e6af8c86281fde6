"""Speedup and efficiency metrics (Sect. 4.1.1).

The paper's node-level efficiency uses one ccNUMA domain as the baseline:
with no other bottleneck, the speedup across domains should equal the
domain count; memory-bound codes saturate *within* a domain but scale
ideally *across* domains.
"""

from __future__ import annotations

from repro.harness.results import RunResult, ScalingSeries


def domain_efficiency(
    run_domain: RunResult, run_full: RunResult, n_domains: int
) -> float:
    """Parallel efficiency (1.0 = ideal) across ccNUMA domains.

    ``run_domain`` is the one-domain baseline, ``run_full`` the full-node
    run, ``n_domains`` the node's domain count.  Values > 1 indicate
    superlinear (cache-driven) scaling.
    """
    if n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    if run_domain.elapsed <= 0 or run_full.elapsed <= 0:
        raise ValueError("runs must have positive elapsed time")
    return (run_domain.elapsed / run_full.elapsed) / n_domains


def saturation_ratio(series: ScalingSeries, domain_cores: int) -> float:
    """How strongly a code saturates within the first ccNUMA domain:
    speedup at the domain boundary divided by the core count.

    ~1 means perfectly scalable inside the domain, << 1 means a shared
    bottleneck (memory bandwidth) was hit early.
    """
    sp = series.speedups()
    counts = [n for n in series.proc_counts if n <= domain_cores]
    if not counts:
        raise ValueError("series has no points inside the domain")
    boundary = max(counts)
    return sp[boundary] / boundary


def speedup_table(
    series: ScalingSeries, baseline: int | None = None
) -> list[tuple[int, float, float, float]]:
    """Rows of (nprocs, min, avg, max) speedup — Fig. 1(a, d) data."""
    stats = series.speedup_stats(baseline)
    return [(n, *stats[n]) for n in series.proc_counts]
