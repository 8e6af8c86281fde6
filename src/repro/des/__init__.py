"""Discrete-event simulation core.

A minimal but complete coroutine-based discrete-event engine in the style of
SimPy/SimGrid: simulated processes are Python generators that ``yield``
scheduling primitives (:class:`Delay`, :class:`Wait`) to the
:class:`Simulator`, which advances virtual time through an event heap.

The simulated MPI runtime (:mod:`repro.smpi`) and the benchmark codes run on
top of this engine, so communication/serialization phenomena (rendezvous
ripples, barrier skew) emerge from actual interleaved execution rather than
closed-form formulas.

:func:`gc_paused` keeps Python's cyclic garbage collector off for the
span of one run (a run's world is acyclic and freed by reference
counting; see :mod:`repro.des.gcpause`).
"""

from repro.des.gcpause import gc_paused
from repro.des.simulator import (
    DeadlockError,
    Delay,
    HangError,
    Signal,
    SimProcess,
    SimStats,
    Simulator,
    Wait,
    join_all,
)

__all__ = [
    "Simulator",
    "SimProcess",
    "SimStats",
    "Delay",
    "Wait",
    "Signal",
    "DeadlockError",
    "HangError",
    "join_all",
    "gc_paused",
]
