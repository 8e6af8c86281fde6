"""Single-flight deduplication of identical in-flight requests.

N concurrent requests for the same canonical spec key must cost exactly
one engine execution.  The server's one cold path *claims* a key before
it starts the engine and *settles* the flight with the outcome; every
request that finds the key already claimed *waits* on the open flight
and receives the same value (for the server: the same store entry,
hence the same response bytes).  Settling closes the flight, so a later
repeat hits the result store instead.

asyncio-native: one event loop, futures as rendezvous points.  Waiters
``await`` a shielded view of the flight's future, so a cancelled waiter
cannot cancel the shared work under everyone else.
"""

from __future__ import annotations

import asyncio
from typing import Any


class SingleFlight:
    """Key -> in-flight future map with lead/join accounting."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}
        #: flights settled with a value / waits on an open flight (for
        #: ``/metrics``)
        self.leads = 0
        self.joins = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def flying(self, key: str) -> bool:
        return key in self._inflight

    def claim(self, key: str) -> asyncio.Future | None:
        """Open the flight for ``key``: returns the future to resolve
        via :meth:`settle`, or ``None`` if ``key`` is already in flight
        (then :meth:`wait` on it)."""
        if key in self._inflight:
            return None
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = fut
        return fut

    def settle(self, key: str, fut: asyncio.Future, value: Any = None,
               error: BaseException | None = None) -> None:
        """Publish a claimed flight's outcome to its waiters and close
        it.  An error reaches every waiter; the next claim retries."""
        if error is not None:
            fut.set_exception(error)
            fut.exception()  # consumed here; waiters re-raise their own
        else:
            fut.set_result(value)
            self.leads += 1
        if self._inflight.get(key) is fut:
            del self._inflight[key]

    async def wait(self, key: str) -> Any | None:
        """Join the open flight for ``key``: its value, or its error
        re-raised; ``None`` if no flight is open."""
        fut = self._inflight.get(key)
        if fut is None:
            return None
        self.joins += 1
        return await asyncio.shield(fut)
