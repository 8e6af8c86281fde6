"""Executor protocol: capability flags, backend parity, seeded backoff,
serial timeout isolation, and checkpoint schema behavior.

Fabric-specific behavior (wire protocol, leases, chaos) lives in
``tests/test_fabric.py``; this file covers the protocol layer shared by
every backend.
"""

import json

import pytest

from repro.harness import (
    FailedRun,
    LocalPoolExecutor,
    RunSpec,
    SerialExecutor,
    compact,
    load_checkpoint,
    load_journal,
    run_many,
    spec_key,
)
from repro.harness.checkpoint import (
    CHECKPOINT_SCHEMA,
    append_checkpoint,
    append_event,
)
from repro.harness.executors import backoff_delay
from repro.harness.fabric import FabricExecutor
from repro.machine import CLUSTER_A
from repro.spechpc import get_benchmark
from repro.validate.golden import fingerprint

from tests.test_robust_harness import QuickBenchmark, SleepyBenchmark


def _spec(bench, nprocs=1, **kw):
    return RunSpec(benchmark=bench, cluster=CLUSTER_A, nprocs=nprocs, **kw)


def _specs(n=3):
    b = get_benchmark("lbm")
    return [
        _spec(b, nprocs=k, sim_steps=1, seed=1000 * k) for k in (1, 2, 4)[:n]
    ]


# --- capability flags -------------------------------------------------------


def test_capability_flags_state_the_contract():
    s = SerialExecutor.capabilities
    assert not s.parallel and not s.distributed and not s.retries_timeouts
    l = LocalPoolExecutor.capabilities
    assert l.parallel and l.isolated and not l.elastic and not l.distributed
    assert not l.retries_timeouts  # timeout stays terminal, as before
    f = FabricExecutor.capabilities
    assert f.parallel and f.isolated and f.elastic and f.distributed
    assert f.retries_timeouts  # there *is* another worker to retry on


# --- backend parity ---------------------------------------------------------


def test_explicit_serial_matches_default():
    specs = _specs()
    ref = [fingerprint(r) for r in run_many(specs)]
    out = [fingerprint(r) for r in run_many(specs, executor="serial")]
    assert out == ref


def test_explicit_local_matches_default_pool():
    specs = _specs()
    ref = [fingerprint(r) for r in run_many(specs, workers=2)]
    out = [fingerprint(r) for r in run_many(specs, workers=2, executor="local")]
    assert out == ref


def test_executor_instance_is_accepted():
    specs = _specs(2)
    ref = [fingerprint(r) for r in run_many(specs)]
    out = [fingerprint(r) for r in run_many(specs, executor=SerialExecutor())]
    assert out == ref


def test_executor_differential_conformant():
    from repro.validate import executor_differential

    # fabric parity is covered (with chaos) in test_fabric.py; keep this
    # one to the process-local backends so it stays fast
    assert executor_differential(executors=("serial", "local")) == []


# --- executor selection errors ----------------------------------------------


def test_fabric_by_name_needs_an_address():
    with pytest.raises(ValueError, match="listen address"):
        run_many(_specs(1), executor="fabric")


def test_unknown_executor_name_rejected():
    with pytest.raises(ValueError, match="unknown executor"):
        run_many(_specs(1), executor="cloud")


def test_trace_rejected_on_parallel_executors():
    b = get_benchmark("lbm")
    spec = _spec(b, sim_steps=1, trace=True)
    with pytest.raises(ValueError, match="serial"):
        run_many([spec], executor="local")


# --- deterministic seeded backoff -------------------------------------------


def test_backoff_delay_is_a_pure_function():
    a = backoff_delay(0.05, 2, key="abc")
    b = backoff_delay(0.05, 2, key="abc")
    assert a == b


def test_backoff_delay_decorrelates_by_key_and_attempt():
    delays = {
        backoff_delay(0.05, att, key=key)
        for att in (1, 2, 3)
        for key in ("k1", "k2", "k3")
    }
    assert len(delays) == 9  # every (key, attempt) pair jitters apart


def test_backoff_delay_bounds_and_growth():
    base = 0.1
    for attempt in (1, 2, 3):
        nominal = base * 2 ** (attempt - 1)
        d = backoff_delay(base, attempt, key=spec_key(_specs(1)[0]))
        assert 0.5 * nominal <= d < 1.5 * nominal
    assert backoff_delay(0.0, 3, key="k") == 0.0
    assert backoff_delay(0.1, 2) == 0.2  # keyless: no jitter


# --- serial timeout isolation (satellite 3) ---------------------------------


def test_serial_executor_enforces_timeout():
    sleepy = SleepyBenchmark(seconds=30.0)
    quick = QuickBenchmark()
    out = run_many(
        [_spec(sleepy), _spec(quick)],
        executor="serial",
        timeout=1.0,
        tolerate_failures=True,
    )
    assert isinstance(out[0], FailedRun)
    assert out[0].error_type == "TimeoutError"
    assert out[1].benchmark == "quick"


# --- checkpoint schema -------------------------------------------------------


def test_checkpoint_writes_current_schema(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    run_many(_specs(1), checkpoint=path)
    doc = json.loads(open(path).readline())
    assert doc["schema"] == CHECKPOINT_SCHEMA
    assert doc["kind"] == "result"


def test_old_checkpoint_schemas_miss_and_rerun(tmp_path):
    """Older schemas keyed the machine by name only; their records are
    rejected, so the point re-runs — never a wrong answer."""
    from repro.harness import engine_run_count

    path = str(tmp_path / "ck.jsonl")
    specs = _specs(1)
    (result,) = run_many(specs)
    key = spec_key(specs[0])
    with open(path, "w") as fh:
        for old in ({"version": 1}, {"schema": 2, "kind": "result"}):
            doc = {**old, "key": key, "result": result.to_checkpoint_dict()}
            fh.write(json.dumps(doc) + "\n")
    assert load_checkpoint(path) == {}
    before = engine_run_count()
    out = run_many(specs, checkpoint=path)
    assert engine_run_count() == before + 1
    assert fingerprint(out[0]) == fingerprint(result)


def test_compact_folds_duplicates_and_drops_events(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    specs = _specs(2)
    results = run_many(specs)
    keys = [spec_key(s) for s in specs]
    # stale first write, events, then the record that should win
    append_checkpoint(path, keys[0], results[1])
    append_event(path, "lease", keys[0], worker="w0")
    append_checkpoint(path, keys[0], results[0])
    append_checkpoint(path, keys[1], results[1])
    append_event(path, "complete", keys[1], worker="w0")
    assert len(load_journal(path)) == 2
    kept = compact(path)
    assert kept == 2
    lines = [json.loads(l) for l in open(path)]
    assert len(lines) == 2  # one line per key, no events
    assert all(d["kind"] == "result" for d in lines)
    saved = load_checkpoint(path)
    assert fingerprint(saved[keys[0]]) == fingerprint(results[0])  # last wins
    assert load_journal(path) == []


def test_compact_tolerates_corrupt_tail(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    specs = _specs(1)
    run_many(specs, checkpoint=path)
    with open(path, "a") as fh:
        fh.write('{"schema": 3, "kind": "result", "key": "tr')  # torn write
    assert compact(path) == 1
    assert spec_key(specs[0]) in load_checkpoint(path)


def test_compact_missing_file_is_noop(tmp_path):
    assert compact(str(tmp_path / "never-written.jsonl")) == 0


def test_resume_compacts_the_file(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    specs = _specs(2)
    results = run_many(specs, checkpoint=path)
    keys = [spec_key(s) for s in specs]
    append_event(path, "lease", keys[0], worker="w0")
    append_checkpoint(path, keys[0], results[0])  # duplicate line
    assert len(open(path).readlines()) == 4
    out = run_many(specs, checkpoint=path)  # resume: nothing re-runs
    assert [fingerprint(r) for r in out] == [fingerprint(r) for r in results]
    assert len(open(path).readlines()) == 2  # compacted on the way in
