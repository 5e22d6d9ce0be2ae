"""Remote execution backend: shard kernels behind a socket boundary.

Shard slices are shipped to the workers once, small per-iteration vectors
are exchanged, and every float reduction is performed in the coordinator
in canonical answer order.  The package adds the failure handling a
network needs:

* :mod:`~repro.engine.remote.protocol` — length-prefixed, checksummed
  message framing for numpy arrays.
* :mod:`~repro.engine.remote.worker` — a standalone worker process
  (``python -m repro.engine.remote.worker --port N``) holding shard slices
  and answering per-iteration kernel requests.  Import ``ShardStore`` and
  ``WorkerServer`` from that module: the package never imports it, so
  ``python -m`` finds it unloaded when it runs it.
* :mod:`~repro.engine.remote.supervision` — per-request timeouts,
  retry with exponential backoff and jitter, heartbeats, and a per-worker
  circuit breaker.
* :mod:`~repro.engine.remote.coordinator` — :class:`RemoteEngine`, a
  :class:`~repro.engine.rankers.ShardKernels` implementation that keeps
  all float reductions coordinator-side, so remote scores stay
  bit-identical to the fused kernels, and reassigns a
  dead worker's shards to a survivor (or solves them coordinator-local)
  without changing a single bit of the result.
* :mod:`~repro.engine.remote.chaos` — a fault-injecting TCP proxy used by
  the fault-injection harness and CI chaos job.
"""

from repro.engine.remote.chaos import ChaosProxy
from repro.engine.remote.coordinator import RemoteEngine
from repro.engine.remote.supervision import (
    CircuitBreaker,
    SupervisionConfig,
    WorkerClient,
)

__all__ = [
    "ChaosProxy",
    "CircuitBreaker",
    "RemoteEngine",
    "SupervisionConfig",
    "WorkerClient",
]

