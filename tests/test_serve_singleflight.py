"""Single-flight under load: N identical concurrent requests, one engine
execution, one set of bytes.

The server-level tests fire concurrent requests at loopback servers
whose one cold path is artificially slowed (``execute`` patched to
sleep first) so every request demonstrably lands inside the coalescing
window.  The contract:

* exactly one engine execution per *unique* spec, whichever endpoints
  (``/run``, ``/sweep``, ``/predict``'s DES tier) ask for it
  (:func:`repro.harness.runner.engine_run_count` is the ground truth —
  the engine itself is tallied, not the server's bookkeeping);
* every caller for the same spec receives byte-identical payloads;
* ``/metrics`` accounts every coalesced request;
* concurrent sweeps on a shared fabric executor both finish.

Unit tests pin the :class:`repro.serve.flight.SingleFlight` semantics
the server builds on: claim/settle/wait, join accounting, error
propagation and cancellation shielding.
"""

import asyncio
import threading
import time

import pytest

from repro.harness import parallel
from repro.harness.runner import engine_run_count
from repro.serve import (
    ServeApp,
    ServeClient,
    ServeSpec,
    SingleFlight,
    loopback_server,
)

#: worst-case fan-in the battery proves (the ISSUE's contract point)
IDENTICAL = 32


def _slow_execute(monkeypatch, seconds):
    """Make every in-process engine execution take ``seconds`` longer
    (``SerialExecutor.collect`` looks ``execute`` up at call time)."""
    real = parallel.execute

    def execute(spec):
        time.sleep(seconds)
        return real(spec)

    monkeypatch.setattr(parallel, "execute", execute)


def _fire(calls, timeout=120):
    """Run every thunk in ``calls`` on its own thread behind one barrier;
    -> their answers (an error or a hung thread fails the test)."""
    answers = [None] * len(calls)
    errors = []
    barrier = threading.Barrier(len(calls))

    def fire(i, call):
        try:
            barrier.wait(timeout=30)
            answers[i] = call()
        except Exception as exc:
            errors.append((i, exc))

    threads = [
        threading.Thread(target=fire, args=(i, c), daemon=True)
        for i, c in enumerate(calls)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads), "requests still hanging"
    assert not errors, errors
    return answers


def test_32_concurrent_identical_requests_cost_one_execution(monkeypatch):
    _slow_execute(monkeypatch, 0.75)
    app = ServeApp(workers=4)
    with loopback_server(app) as (host, port):
        base = {"benchmark": "soma", "cluster": "A", "nnodes": 1}
        distinct = [{**base, "seed": s} for s in (101, 202, 303)]
        specs = [dict(base) for _ in range(IDENTICAL)] + distinct
        unique = 1 + len(distinct)

        before = engine_run_count()
        answers = _fire([
            (lambda s=s: ServeClient(host, port, timeout=120).run(s))
            for s in specs
        ])
        assert all(a is not None for a in answers)
        # exactly one engine execution per unique spec
        assert engine_run_count() - before == unique

        # every identical caller received the leader's exact bytes
        identical = answers[:IDENTICAL]
        assert len({a.raw for a in identical}) == 1
        fingerprints = {a.fingerprint for a in identical}
        assert len(fingerprints) == 1 and None not in fingerprints

        # the distinct specs each led their own flight: distinct keys,
        # distinct payloads
        keys = {a.doc["key"] for a in answers}
        assert len(keys) == unique

        metrics = ServeClient(host, port).metrics()
        flight = metrics["singleflight"]
        assert flight["open"] == 0
        assert flight["leads"] == unique
        assert flight["joins"] == IDENTICAL - 1
        assert metrics["des_runs"] == unique
        answered = metrics["answers"]
        assert answered.get("des", 0) == unique
        assert answered.get("coalesced", 0) == IDENTICAL - 1

        # the flights are closed: a repeat is a store hit, still the
        # same result document
        warm = ServeClient(host, port).run(base)
        assert warm.source == "store"
        assert warm.doc["result"] == identical[0].doc["result"]
        assert engine_run_count() - before == unique


def test_sweep_coalesces_duplicate_points():
    # serial sweep executor: batches run in-process, so the engine
    # tally observes them (the default local pool forks workers)
    app = ServeApp(workers=2, sweep_executor="serial")
    with loopback_server(app) as (host, port):
        client = ServeClient(host, port)
        a = {"benchmark": "tealeaf", "cluster": "A", "nnodes": 1}
        b = {"benchmark": "tealeaf", "cluster": "B", "nnodes": 1}
        before = engine_run_count()
        events = client.sweep([a, a, b, a])
        assert engine_run_count() - before == 2  # one per unique spec
        points = [e for e in events if e["event"] == "point"]
        by_source = {}
        for p in points:
            by_source.setdefault(p["source"], []).append(p["index"])
        assert sorted(by_source["des"]) == [0, 2]
        assert sorted(by_source["coalesced"]) == [1, 3]
        # coalesced points resolve to the leader's fingerprint
        fps = {p["fingerprint"] for p in points if p["index"] in (0, 1, 3)}
        assert len(fps) == 1


def test_concurrent_sweeps_on_a_shared_fabric_both_finish():
    # two drives on one FabricExecutor would collide on the same item
    # indices; the cold path runs one batch at a time on a shared
    # instance, so both sweeps finish with exact answers
    from repro.harness.fabric import FabricExecutor, worker_loop
    from repro.validate.golden import fingerprint

    fabric = FabricExecutor(("127.0.0.1", 0))
    fhost, fport = fabric.address
    workers = [
        threading.Thread(
            target=worker_loop, args=(fhost, fport),
            kwargs={"name": f"serve-{i}", "reconnect": 5.0}, daemon=True,
        )
        for i in range(2)
    ]
    for t in workers:
        t.start()
    sweeps = [
        [{"benchmark": "lbm", "cluster": "A", "nprocs": n, "sim_steps": 2}
         for n in range(2, 6)],
        [{"benchmark": "soma", "cluster": "B", "nprocs": n, "sim_steps": 2}
         for n in range(6, 10)],
    ]
    app = ServeApp(workers=2, sweep_executor=fabric)
    with loopback_server(app) as (host, port):
        results = _fire([
            (lambda specs=specs: ServeClient(host, port, timeout=60)
             .sweep(specs))
            for specs in sweeps
        ], timeout=90)
    for t in workers:
        t.join(timeout=10)
    for specs, events in zip(sweeps, results):
        assert events[-1]["event"] == "done"
        points = sorted((e for e in events if e["event"] == "point"),
                        key=lambda e: e["index"])
        assert [p["source"] for p in points] == ["des"] * len(specs)
        for doc, p in zip(specs, points):
            direct = parallel.execute(ServeSpec.from_request(doc).run_spec())
            assert p["fingerprint"] == fingerprint(direct).digest, doc


def test_concurrent_des_predictions_cost_one_execution(monkeypatch):
    # /predict's DES tier is the same cold path: single-flighted, and
    # its answer lands in the store for every later request
    _slow_execute(monkeypatch, 0.5)
    app = ServeApp(workers=2)
    spec = {"benchmark": "soma", "cluster": "A", "nnodes": 1, "seed": 404}
    with loopback_server(app) as (host, port):
        before = engine_run_count()
        answers = _fire([
            lambda: ServeClient(host, port).predict(spec, tier="des")
            for _ in range(4)
        ])
        assert engine_run_count() - before == 1
        assert len({a.raw for a in answers}) == 1
        doc = answers[0].doc
        assert doc["tier"] == "des" and doc["band"] == 0.0
        assert doc["runtime_interval_s"] == [doc["runtime_s"]] * 2

        exact = ServeClient(host, port).run(spec)
        assert exact.source == "store"
        assert engine_run_count() - before == 1
        assert exact.result().elapsed == doc["runtime_s"]


def test_sweep_joins_a_run_in_flight(monkeypatch):
    # a /sweep point whose key a /run is executing joins that flight —
    # even with a band a cheap tier could meet, it is not predicted
    _slow_execute(monkeypatch, 1.0)
    app = ServeApp(workers=2, sweep_executor="serial")
    spec = {"benchmark": "tealeaf", "cluster": "A", "nnodes": 1, "seed": 505}
    key = ServeSpec.from_request(spec).key
    with loopback_server(app) as (host, port):
        client = ServeClient(host, port)
        before = engine_run_count()
        running = []
        runner = threading.Thread(
            target=lambda: running.append(client.run(spec)), daemon=True
        )
        runner.start()
        deadline = time.monotonic() + 30
        while not app.flight.flying(key):
            assert time.monotonic() < deadline, "the /run never took off"
            time.sleep(0.01)
        events = client.sweep([spec], max_band=10.0)
        runner.join(timeout=60)
        assert running, "the /run never answered"
        (point,) = [e for e in events if e["event"] == "point"]
        assert point["source"] == "coalesced"
        assert running[0].source == "des"
        assert point["fingerprint"] == running[0].fingerprint
        assert engine_run_count() - before == 1


# ----------------------------------------------------------------------
# SingleFlight unit semantics
# ----------------------------------------------------------------------


def test_flight_joiners_share_leader_value():
    async def main():
        sf = SingleFlight()
        fut = sf.claim("k")
        assert fut is not None and sf.flying("k")
        # every later caller finds the flight open: nobody else leads
        assert [sf.claim("k") for _ in range(5)] == [None] * 5
        joiners = [asyncio.create_task(sf.wait("k")) for _ in range(5)]
        await asyncio.sleep(0)
        sf.settle("k", fut, value=b"payload")
        assert await asyncio.gather(*joiners) == [b"payload"] * 5
        assert sf.leads == 1 and sf.joins == 5
        assert not sf.flying("k")

    asyncio.run(main())


def test_flight_error_reaches_every_joiner_and_closes():
    async def main():
        sf = SingleFlight()
        fut = sf.claim("k")
        joiners = [asyncio.create_task(sf.wait("k")) for _ in range(2)]
        await asyncio.sleep(0)
        sf.settle("k", fut, error=RuntimeError("engine fell over"))
        for task in joiners:
            with pytest.raises(RuntimeError, match="engine fell over"):
                await task
        # the flight is closed: the next caller retries fresh
        assert not sf.flying("k")
        retry = sf.claim("k")
        assert retry is not None
        sf.settle("k", retry, value=42)
        assert retry.result() == 42

    asyncio.run(main())


def test_cancelled_joiner_does_not_cancel_the_flight():
    async def main():
        sf = SingleFlight()
        fut = sf.claim("k")
        joiner = asyncio.create_task(sf.wait("k"))
        other = asyncio.create_task(sf.wait("k"))
        await asyncio.sleep(0)
        joiner.cancel()
        with pytest.raises(asyncio.CancelledError):
            await joiner
        assert not fut.cancelled() and sf.flying("k")
        sf.settle("k", fut, value="done")
        assert await other == "done"  # unharmed by the joiner's cancel

    asyncio.run(main())


def test_claim_and_settle_feed_waiting_joiners():
    async def main():
        sf = SingleFlight()
        fut = sf.claim("k")
        assert fut is not None
        assert sf.claim("k") is None  # already claimed
        waiter = asyncio.create_task(sf.wait("k"))
        await asyncio.sleep(0)
        sf.settle("k", fut, value=b"batch-result")
        assert await waiter == b"batch-result"
        assert not sf.flying("k")
        assert sf.leads == 1 and sf.joins == 1
        # settling with an error propagates to waiters
        fut2 = sf.claim("k")
        waiter2 = asyncio.create_task(sf.wait("k"))
        await asyncio.sleep(0)
        sf.settle("k", fut2, error=RuntimeError("batch died"))
        with pytest.raises(RuntimeError, match="batch died"):
            await waiter2
        # wait() on a closed flight returns None (caller falls back to
        # the store)
        assert await sf.wait("k") is None

    asyncio.run(main())
