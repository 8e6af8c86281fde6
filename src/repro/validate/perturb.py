"""Schedule-perturbation determinism sanitizer — a race detector for
the DES.

The simulator's heap breaks same-timestamp ties by insertion counter and
the mailboxes deliver same-time arrivals in a fixed order.  Those
tie-breaks are *conveniences*, not semantics: MPI leaves same-time
cross-channel arrival order unspecified, and a well-formed model's
results must not depend on which legal order the engine happens to pick.
Any dependence is the DES analogue of a data race — invisible in normal
runs (the fixed tie-break masks it) and primed to surface as a baffling
result change after an unrelated refactor shifts event insertion order.

:func:`sanitize` makes such races loud: it re-runs a job ``shuffles``
times with seeded shuffles of exactly the two legal freedoms (the
``tie_seed`` hook in :class:`~repro.des.simulator.Simulator` and the
``tie_shuffle`` hook in :class:`~repro.smpi.mailbox.Mailbox`) and
asserts the result fingerprint never moves.  Per-channel FIFO order,
posted-receive order, and cross-time causality are never perturbed —
only orders MPI itself leaves open.

On divergence the offending seed is replayed with full traces, and the
failure line (:func:`repro.validate.golden.fingerprint_diff`) names the
seed, the first differing record field and the first trace record
(rank, time, kind) that differs from the baseline timeline.
"""

from __future__ import annotations

from typing import Optional

from repro.validate.golden import fingerprint, fingerprint_diff, named_job


def sanitize(
    benchmark: str,
    cluster: str,
    nprocs: int,
    suite: str = "tiny",
    shuffles: int = 20,
    base_seed: int = 1,
    sim_steps: Optional[int] = None,
) -> list[str]:
    """Require fingerprint invariance under ``shuffles`` seeded schedule
    perturbations (seeds ``base_seed .. base_seed+shuffles-1``); returns
    one failure line per diverging seed (empty = invariant).

    The baseline is the default-flag run — so this simultaneously checks
    that the perturbed configuration (which forces the pure-heap engine
    and full fidelity) agrees with the production fast paths.
    """
    from repro.harness.runner import run  # lazy: harness imports us

    if shuffles < 1:
        raise ValueError(f"shuffles must be >= 1 (got {shuffles})")
    bench, clus, label = named_job("perturb", benchmark, cluster, nprocs)
    job = dict(suite=suite, sim_steps=sim_steps)
    baseline = fingerprint(run(bench, clus, nprocs, **job))

    def traced(seed: int):
        """Replay the baseline and a diverging seed with full traces."""
        return (
            run(bench, clus, nprocs, **job, trace=True).trace,
            run(bench, clus, nprocs, **job, trace=True,
                perturb_seed=seed).trace,
        )

    lines = [
        fingerprint_diff(
            f"{label} seed {seed}", baseline,
            fingerprint(run(bench, clus, nprocs, **job, perturb_seed=seed)),
            lambda seed=seed: traced(seed),
        )
        for seed in range(base_seed, base_seed + shuffles)
    ]
    return [line for line in lines if line]
