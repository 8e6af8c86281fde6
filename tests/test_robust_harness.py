"""Failure-tolerant harness: validation, retries, timeouts, checkpoints,
deadlock/leftover diagnostics, and pool-death fallback.

The benchmark doubles live at module scope so they pickle by reference
into worker processes.
"""

import contextlib
import gc
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.des import DeadlockError, HangError, gc_paused, gcpause
from repro.harness import (
    FailedRun,
    RunFailedError,
    RunSpec,
    run,
    run_many,
    scaling_sweep,
)
from repro.faults import FaultPlan, RankCrash
from repro.harness.export import records_to_jsonl, series_to_json
from repro.machine import CLUSTER_A
from repro.smpi import MpiRuntime
from repro.smpi.diagnostics import RankCrashedError
from repro.spechpc import get_benchmark
from repro.spechpc.base import Benchmark, BenchmarkInfo, Workload
from repro.validate.golden import fingerprint


def _info(name):
    return BenchmarkInfo(
        name=name,
        benchmark_id=99,
        language="py",
        loc=1,
        collective="-",
        numerics="-",
        domain="test double",
        memory_bound=False,
    )


class _DoubleBase(Benchmark):
    workloads = {"tiny": Workload(suite="tiny", steps=1)}

    def local_units(self, ctx, rank):
        return 1.0

    def default_sim_steps(self, suite):
        return 1


class QuickBenchmark(_DoubleBase):
    info = _info("quick")

    def make_body(self, ctx):
        def body(comm):
            yield comm.compute(1.0, flops=1e6)

        return body


class CrashingBenchmark(_DoubleBase):
    """Raises only when launched at ``bad_nprocs`` ranks."""

    info = _info("crashing")

    def __init__(self, bad_nprocs=2):
        self.bad_nprocs = bad_nprocs

    def make_body(self, ctx):
        if ctx.nprocs == self.bad_nprocs:
            raise RuntimeError(f"injected benchmark bug at nprocs={ctx.nprocs}")

        def body(comm):
            yield comm.compute(1.0, flops=1e6)

        return body


class FlakyBenchmark(_DoubleBase):
    """Fails the first ``fail_times`` attempts, counted in a file so the
    count survives process boundaries."""

    info = _info("flaky")

    def __init__(self, counter_path, fail_times):
        self.counter_path = counter_path
        self.fail_times = fail_times

    def make_body(self, ctx):
        n = 0
        if os.path.exists(self.counter_path):
            with open(self.counter_path) as fh:
                n = int(fh.read() or 0)
        with open(self.counter_path, "w") as fh:
            fh.write(str(n + 1))
        if n < self.fail_times:
            raise RuntimeError(f"flaky failure #{n + 1}")

        def body(comm):
            yield comm.compute(1.0, flops=1e6)

        return body


class SleepyBenchmark(_DoubleBase):
    """Burns real wall-clock time inside the worker (a hung point)."""

    info = _info("sleepy")

    def __init__(self, seconds=5.0):
        self.seconds = seconds

    def make_body(self, ctx):
        time.sleep(self.seconds)

        def body(comm):
            yield comm.compute(1.0, flops=1e6)

        return body


class UnpicklableErrorBenchmark(_DoubleBase):
    """Raises an exception object that cannot cross a process boundary."""

    info = _info("unpicklable")

    def make_body(self, ctx):
        exc = RuntimeError("error with an unpicklable payload")
        exc.payload = lambda: None  # lambdas do not pickle
        raise exc


class HangingBenchmark(_DoubleBase):
    """Livelocks: the ranks trade events forever without finishing."""

    info = _info("hanging")

    def make_body(self, ctx):
        def body(comm):
            while True:
                yield comm.compute(1e-3, flops=1.0)

        return body


class DeadlockingBenchmark(_DoubleBase):
    """Each rank waits for a message its peer never sends."""

    info = _info("deadlocking")

    def make_body(self, ctx):
        def body(comm):
            yield comm.recv((comm.rank + 1) % comm.size, tag=5)

        return body


class CollectorProbeBenchmark(_DoubleBase):
    """Records ``gc.isenabled()`` while the world is built and while a
    rank body executes."""

    info = _info("collector-probe")

    def __init__(self):
        self.seen = []

    def make_body(self, ctx):
        self.seen.append(gc.isenabled())

        def body(comm):
            self.seen.append(gc.isenabled())
            yield comm.compute(1.0, flops=1e6)

        return body


def _spec(bench, nprocs=1, **kw):
    return RunSpec(benchmark=bench, cluster=CLUSTER_A, nprocs=nprocs, **kw)


# --- upfront validation (satellite: fail fast on bad parameters) ------------


def test_runner_rejects_negative_noise_sigma():
    with pytest.raises(ValueError, match="noise_sigma"):
        run(get_benchmark("lbm"), CLUSTER_A, 2, noise_sigma=-0.1)


def test_runner_rejects_non_positive_sim_steps():
    with pytest.raises(ValueError, match="sim_steps"):
        run(get_benchmark("lbm"), CLUSTER_A, 2, sim_steps=0)


def test_runner_rejects_bad_watchdogs():
    with pytest.raises(ValueError, match="max_events"):
        run(get_benchmark("lbm"), CLUSTER_A, 2, max_events=0)
    with pytest.raises(ValueError, match="sim_time_limit"):
        run(get_benchmark("lbm"), CLUSTER_A, 2, sim_time_limit=0.0)


def test_run_many_rejects_bad_knobs():
    spec = _spec(QuickBenchmark())
    with pytest.raises(ValueError, match="workers"):
        run_many([spec], workers=0)
    with pytest.raises(ValueError, match="retries"):
        run_many([spec], retries=-1)
    with pytest.raises(ValueError, match="timeout"):
        run_many([spec], timeout=0.0)
    with pytest.raises(ValueError, match="trace"):
        run_many([_spec(QuickBenchmark(), trace=True)], workers=2)


# --- structured failures and retries ----------------------------------------


def test_tolerated_failure_returns_failed_run():
    specs = [_spec(CrashingBenchmark(bad_nprocs=2), n) for n in (1, 2, 4)]
    results = run_many(specs, tolerate_failures=True)
    assert [r.failed for r in results] == [False, True, False]
    failure = results[1]
    assert isinstance(failure, FailedRun)
    assert failure.nprocs == 2
    assert failure.error_type == "RuntimeError"
    assert "injected benchmark bug" in failure.error_message
    assert "injected benchmark bug" in failure.traceback
    jsonl = records_to_jsonl(results)
    docs = [json.loads(line) for line in jsonl.splitlines()]
    assert [d["status"] for d in docs] == ["ok", "failed", "ok"]


def test_untolerated_serial_failure_raises_original_exception():
    specs = [_spec(CrashingBenchmark(bad_nprocs=2), n) for n in (1, 2, 4)]
    with pytest.raises(RuntimeError, match="injected benchmark bug"):
        run_many(specs)


def test_untolerated_pool_failure_raises_with_spec_identity():
    specs = [_spec(CrashingBenchmark(bad_nprocs=2), n) for n in (1, 2, 4)]
    with pytest.raises(RunFailedError, match="nprocs=2") as excinfo:
        run_many(specs, workers=2)
    assert excinfo.value.failure.error_type == "RuntimeError"
    assert "injected benchmark bug" in excinfo.value.failure.traceback


def test_retries_eventually_succeed(tmp_path):
    flaky = FlakyBenchmark(str(tmp_path / "count"), fail_times=2)
    [result] = run_many([_spec(flaky)], retries=2, backoff=0.0)
    assert not result.failed
    assert result.elapsed > 0


def test_exhausted_retries_report_attempts(tmp_path):
    flaky = FlakyBenchmark(str(tmp_path / "count"), fail_times=10)
    [result] = run_many(
        [_spec(flaky)], retries=1, backoff=0.0, tolerate_failures=True
    )
    assert result.failed
    assert result.attempts == 2  # the first try plus one retry


def test_pool_retries_count_across_processes(tmp_path):
    flaky = FlakyBenchmark(str(tmp_path / "count"), fail_times=1)
    results = run_many(
        [_spec(flaky), _spec(QuickBenchmark())],
        workers=2,
        retries=1,
        backoff=0.0,
    )
    assert [r.failed for r in results] == [False, False]


# --- unpicklable worker errors ----------------------------------------------


def test_unpicklable_worker_error_surfaces_structured():
    specs = [_spec(UnpicklableErrorBenchmark()), _spec(QuickBenchmark())]
    results = run_many(specs, workers=2, tolerate_failures=True)
    assert results[0].failed
    assert results[0].error_type == "RuntimeError"
    assert "unpicklable payload" in results[0].error_message
    assert not results[1].failed


# --- per-point timeout ------------------------------------------------------


def test_timeout_records_failure_and_later_points_complete():
    specs = [_spec(SleepyBenchmark(seconds=8.0)), _spec(QuickBenchmark())]
    results = run_many(specs, timeout=1.0, tolerate_failures=True)
    assert results[0].failed
    assert results[0].error_type == "TimeoutError"
    assert "timeout" in results[0].error_message
    assert not results[1].failed


# --- hang watchdogs through the harness -------------------------------------


def test_livelocked_benchmark_fails_with_hang_error():
    [result] = run_many(
        [_spec(HangingBenchmark(), max_events=2_000)], tolerate_failures=True
    )
    assert result.failed
    assert result.error_type == "HangError"


# --- checkpoint / resume ----------------------------------------------------


def test_checkpoint_resume_skips_completed_points(tmp_path, monkeypatch):
    lbm = get_benchmark("lbm")
    specs = [_spec(lbm, n, sim_steps=1) for n in (1, 2)]
    path = str(tmp_path / "sweep.jsonl")
    first = run_many(specs, checkpoint=path)

    import repro.harness.runner as runner_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("a checkpointed point was re-simulated")

    monkeypatch.setattr(runner_mod, "run", forbidden)
    second = run_many(specs, checkpoint=path)
    for a, b in zip(first, second):
        assert b.elapsed == a.elapsed
        assert b.counters == a.counters
        assert b.time_by_kind == a.time_by_kind


def test_checkpoint_reruns_changed_and_corrupt_entries(tmp_path):
    lbm = get_benchmark("lbm")
    path = str(tmp_path / "sweep.jsonl")
    run_many([_spec(lbm, 1, sim_steps=1)], checkpoint=path)
    # a truncated trailing line (killed writer) must not poison the file
    with open(path, "a") as fh:
        fh.write('{"version": 1, "key": "dead')
    results = run_many(
        [_spec(lbm, 1, sim_steps=1), _spec(lbm, 2, sim_steps=1)],
        checkpoint=path,
    )
    assert [r.nprocs for r in results] == [1, 2]
    assert all(not r.failed for r in results)


def test_checkpoint_does_not_answer_a_reclocked_cluster(tmp_path):
    """A DVFS re-clock keeps the cluster's name, so a checkpoint keyed
    by that name would hand the nominal answer to the re-clocked sweep."""
    from repro.harness import engine_run_count
    from repro.model.dvfs import apply_frequency

    lbm = get_benchmark("lbm")
    path = str(tmp_path / "sweep.jsonl")
    (nominal,) = run_many([_spec(lbm, 2, sim_steps=1)], checkpoint=path)
    slow = apply_frequency(CLUSTER_A, 1.6e9)
    before = engine_run_count()
    (reclocked,) = run_many(
        [RunSpec(benchmark=lbm, cluster=slow, nprocs=2, sim_steps=1)],
        checkpoint=path,
    )
    assert engine_run_count() == before + 1
    assert reclocked.elapsed != nominal.elapsed


# --- pool death fallback ----------------------------------------------------


class _BrokenFuture:
    def result(self, timeout=None):
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("a child process terminated abruptly")


class _BrokenPool:
    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args, **kwargs):
        return _BrokenFuture()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_broken_pool_falls_back_to_serial(monkeypatch):
    from repro.harness.executors import LocalPoolExecutor
    from repro.harness.parallel import run_many as rm

    monkeypatch.setattr(LocalPoolExecutor, "pool_factory", _BrokenPool)
    specs = [_spec(QuickBenchmark()), _spec(QuickBenchmark(), 2)]
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        results = rm(specs, workers=2)
    assert [r.failed for r in results] == [False, False]
    assert all(r.elapsed > 0 for r in results)


def test_broken_pool_fallback_still_enforces_timeout(monkeypatch):
    """Satellite: the post-BrokenProcessPool serial fallback must keep
    the per-point timeout semantics of the pool path (it used to drop
    them silently) — slow points still fail, quick points still run."""
    from repro.harness.executors import LocalPoolExecutor
    from repro.harness.parallel import run_many as rm

    monkeypatch.setattr(LocalPoolExecutor, "pool_factory", _BrokenPool)
    specs = [_spec(SleepyBenchmark(seconds=8.0)), _spec(QuickBenchmark(), 2)]
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        results = rm(specs, workers=2, timeout=1.0, tolerate_failures=True)
    assert results[0].failed
    assert results[0].error_type == "TimeoutError"
    assert not results[1].failed


def test_fully_broken_isolation_degrades_to_in_process(monkeypatch):
    """When even one-shot subprocesses cannot be created, the serial
    floor warns that the timeout is unenforceable and still completes
    the work in-process — degraded, never dead."""
    from repro.harness.executors import LocalPoolExecutor, SerialExecutor
    from repro.harness.parallel import run_many as rm

    monkeypatch.setattr(LocalPoolExecutor, "pool_factory", _BrokenPool)
    monkeypatch.setattr(SerialExecutor, "pool_factory", _BrokenPool)
    specs = [_spec(QuickBenchmark()), _spec(QuickBenchmark(), 2)]
    with pytest.warns(RuntimeWarning) as caught:
        results = rm(specs, workers=2, timeout=5.0, tolerate_failures=True)
    messages = [str(w.message) for w in caught]
    assert any("falling back to serial" in m for m in messages)
    assert any("timeout unenforced" in m for m in messages)
    assert [r.failed for r in results] == [False, False]


# --- failure-tolerant sweeps -------------------------------------------------


def test_sweep_with_crashing_point_keeps_survivors():
    series = scaling_sweep(
        CrashingBenchmark(bad_nprocs=2),
        CLUSTER_A,
        [1, 2, 4],
        sim_steps=1,
        tolerate_failures=True,
    )
    assert series.proc_counts == [1, 4]
    assert len(series.failures) == 1
    assert series.failures[0].nprocs == 2
    doc = json.loads(series_to_json(series))
    assert doc["failures"][0]["nprocs"] == 2
    assert doc["failures"][0]["error_type"] == "RuntimeError"


def test_sweep_losing_every_point_raises():
    with pytest.raises(RuntimeError, match="lost\\s+every point"):
        scaling_sweep(
            CrashingBenchmark(bad_nprocs=2),
            CLUSTER_A,
            [2],
            sim_steps=1,
            tolerate_failures=True,
        )


def test_sweep_resume_uses_checkpoint(tmp_path, monkeypatch):
    lbm = get_benchmark("lbm")
    path = str(tmp_path / "sweep.jsonl")
    first = scaling_sweep(lbm, CLUSTER_A, [1, 2], sim_steps=1, checkpoint=path)

    import repro.harness.runner as runner_mod

    monkeypatch.setattr(
        runner_mod,
        "run",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("re-simulated")),
    )
    second = scaling_sweep(lbm, CLUSTER_A, [1, 2], sim_steps=1, checkpoint=path)
    assert second.speedups() == first.speedups()


# --- deadlock & leftover diagnostics (satellite) -----------------------------


def test_mismatched_recvs_deadlock_names_guilty_ranks():
    def body(comm):
        # each rank waits for a message the other never sends
        yield comm.recv((comm.rank + 1) % 2, tag=5)

    rt = MpiRuntime(CLUSTER_A, 2)
    with pytest.raises(DeadlockError) as excinfo:
        rt.launch(body)
    msg = str(excinfo.value)
    assert "rank 0" in msg and "rank 1" in msg
    assert "MPI_Recv" in msg
    assert "tag=5" in msg


def test_leftover_sends_reported_with_peer_tag_and_size():
    def body(comm):
        if comm.rank == 0:
            yield comm.send(1, nbytes=256, tag=9)
        else:
            yield comm.compute(1e-3)

    rt = MpiRuntime(CLUSTER_A, 2)
    with pytest.raises(RuntimeError, match="unmatched") as excinfo:
        rt.launch(body)
    msg = str(excinfo.value)
    assert "rank 1" in msg          # the mailbox holding the leftover
    assert "from rank 0" in msg     # who sent it
    assert "tag=9" in msg
    assert "256 B" in msg


def test_leftover_recv_posts_reported():
    def body(comm):
        if comm.rank == 0:
            req = comm.irecv(1, tag=3)  # never completed, never matched
            yield comm.compute(1e-3)
            del req
        else:
            yield comm.compute(1e-3)

    rt = MpiRuntime(CLUSTER_A, 2)
    with pytest.raises(RuntimeError, match="unmatched") as excinfo:
        rt.launch(body)
    assert "recv posted" in str(excinfo.value)
    assert "tag=3" in str(excinfo.value)


# --- run-scoped collector pause ----------------------------------------------
# A lock-ordering bug in the pause would hang rather than fail, hence these
# live in the watchdogged robustness lane.


@contextlib.contextmanager
def _collector(enabled):
    """Run the block with the cyclic collector on or off, then put back
    the state found."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_restores_collector_state(enabled):
    with _collector(enabled):
        run(QuickBenchmark(), CLUSTER_A, 2)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    ("bench", "kwargs", "error"),
    [
        (HangingBenchmark(), dict(max_events=1000), HangError),
        (DeadlockingBenchmark(), {}, DeadlockError),
        (QuickBenchmark(),
         dict(faults=FaultPlan(crashes=(RankCrash(rank=0, time=1e-9),))),
         RankCrashedError),
        (QuickBenchmark(), dict(noise_sigma=-1.0), ValueError),
    ],
    ids=["hang", "deadlock", "crash", "invalid"],
)
def test_failed_run_restores_collector_state(bench, kwargs, error, enabled):
    with _collector(enabled):
        with pytest.raises(error):
            run(bench, CLUSTER_A, 2, **kwargs)
        assert gc.isenabled() is enabled


def test_collector_paused_while_run_executes():
    probe = CollectorProbeBenchmark()
    with _collector(True):
        run(probe, CLUSTER_A, 2)
        assert gc.isenabled()
    # once while building the world, once per rank body
    assert probe.seen == [False, False, False]


def test_pause_depth_survives_thread_churn():
    """Many threads entering and leaving the pause with a tiny switch
    interval: a lost update to the nesting count would either re-enable
    the collector under a thread still inside or leave it off after."""
    inside_enabled = []

    def churn():
        for _ in range(300):
            with gc_paused():
                if gc.isenabled():
                    inside_enabled.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _collector(True):
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
    assert inside_enabled == []


@contextlib.contextmanager
def _held_elsewhere(cm):
    """Run the block while another thread sits inside ``cm``, as a
    server's cold run sits in its pause while a sweep forks its worker
    pool."""
    inside, release = threading.Event(), threading.Event()

    def hold():
        with cm:
            inside.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert inside.wait(timeout=60)
        yield
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()


def _fork(child):
    """Exit code of ``child()`` run in a forked process."""
    pid = os.fork()
    if pid == 0:
        code = 99
        try:
            code = child()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_process_forked_beside_a_pause_gets_the_collector_back(enabled):
    """The child inherits the disabled collector but not the thread that
    paused it; without a reset it would run its whole life (a pool
    worker's) with the collector off."""
    with _collector(enabled):
        with _held_elsewhere(gc_paused()):
            code = _fork(lambda: int(gc.isenabled()))
        assert gc.isenabled() is enabled
    assert code == int(enabled)


def test_fork_inside_a_pause_keeps_the_forking_threads_share():
    """The forking thread is still inside its pause in the child: the
    collector stays off there until that pause exits, and then comes
    back on, whatever other threads held in the parent."""
    pause = gc_paused()

    def child():
        inside = gc.isenabled()
        pause.__exit__(None, None, None)
        return 2 * inside + gc.isenabled()

    with _collector(True):
        with _held_elsewhere(gc_paused()):
            pause.__enter__()
            try:
                code = _fork(child)
            finally:
                pause.__exit__(None, None, None)
        assert gc.isenabled()
    assert code == 1


def test_fork_while_another_thread_holds_the_pause_lock():
    """A fork can land while another thread holds the pause's lock; the
    child must not wait forever for a thread it does not have."""

    def child():
        signal.alarm(30)  # a deadlocked child dies instead of hanging
        with gc_paused():
            pass
        return 0

    with _held_elsewhere(gcpause._lock):
        code = _fork(child)
    assert code == 0


def _gated(name, gate):
    """Suite benchmark ``name`` that calls ``gate()`` before building
    its rank bodies (same class data, so the same fingerprint)."""

    class Gated(type(get_benchmark(name))):
        def make_body(self, ctx):
            gate()
            return super().make_body(ctx)

    return Gated()


def test_overlapping_threaded_runs_share_the_pause():
    """Two threads inside ``run`` at once, as on the server's pool: the
    first one out must not turn the collector back on under the second,
    the last one out must, and both results match serial runs."""
    nprocs = 2 * CLUSTER_A.cores_per_node
    names = ("lbm", "tealeaf")
    serial = [fingerprint(run(get_benchmark(n), CLUSTER_A, nprocs)).digest
              for n in names]
    both_inside = threading.Barrier(2, timeout=60)
    first_out = threading.Event()
    seen = []

    def first_gate():
        both_inside.wait()

    def second_gate():
        both_inside.wait()
        assert first_out.wait(timeout=60)
        seen.append(gc.isenabled())

    def first():
        try:
            return run(_gated(names[0], first_gate), CLUSTER_A, nprocs)
        finally:
            first_out.set()

    def second():
        return run(_gated(names[1], second_gate), CLUSTER_A, nprocs)

    with _collector(True):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(first), pool.submit(second)]
            results = [f.result(timeout=120) for f in futures]
        assert gc.isenabled()
    assert seen == [False]
    assert [fingerprint(r).digest for r in results] == serial
