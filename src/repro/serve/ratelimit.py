"""Token-bucket rate limiting for the serving front end.

One :class:`TokenBucket` per client connection: tokens refill continuously
at ``rate`` per second up to a ``burst`` cap, and every admitted request
spends one.  An empty bucket answers with the seconds until the next token
— the server turns that into a typed ``rate_limited`` rejection with a
``retry_after`` hint, *immediately*, instead of parking the request in a
queue (a parked request is hidden memory growth and a hidden latency bomb;
the 429-style refusal keeps the degradation visible and client-steerable).

The bucket is lazy — no timers, no background refill task: the token
count is reconstructed from the elapsed monotonic time at each
:meth:`try_acquire`, so ten thousand idle connections cost nothing.
Single-threaded by design (the asyncio event loop is the only caller);
the clock is injectable so tests don't sleep.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional


class TokenBucket:
    """A lazily-refilled token bucket.

    Parameters
    ----------
    rate:
        Steady-state tokens (requests) per second; finite and positive.
    burst:
        Bucket capacity — how many requests may land back-to-back after an
        idle period before the steady rate applies.  Defaults to ``rate``
        (one second of traffic), with a floor of one token on the default
        only.  An explicit ``burst`` must be finite and positive
        (``ValueError`` otherwise — a non-positive capacity is a
        misconfiguration, not a request for a 1-token bucket, and a NaN
        one would reject every request) and is used as given; a fractional
        capacity below 1.0 builds a bucket that can never grant a whole
        token.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError("rate must be finite and > 0 tokens/s, got %r"
                             % (rate,))
        if burst is not None and not (math.isfinite(burst) and burst > 0):
            raise ValueError("burst must be finite and > 0 tokens, got %r"
                             % (burst,))
        self.rate = float(rate)
        self.burst = max(1.0, self.rate) if burst is None else float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._refilled = clock()
        self.granted = 0
        self.rejected = 0

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._refilled
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled = now

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Spend ``tokens`` if available; return the wait otherwise.

        Returns ``0.0`` on grant, else the seconds until the bucket will
        hold ``tokens`` — the ``retry_after`` the rejection carries.
        Never blocks.
        """
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            self.granted += 1
            return 0.0
        self.rejected += 1
        return (tokens - self._tokens) / self.rate
