"""Sharded execution engine: user-range shards, out-of-core ingestion, caching.

Built on the triples-native storage of PR 2: the canonical user-major
triples make user-range sharding a pure slice
(:class:`~repro.engine.sharding.ShardedResponse`), the paper's ranking
methods reduce over per-user contributions so their sufficient statistics
merge across shards (:mod:`~repro.engine.rankers` — bit-identical to the
single-process paths), the chunked readers stream datasets bigger than the
raw input buffers (:mod:`~repro.engine.ingest`), and the ``O(nnz)`` content
hash keys an LRU cache over repeated ``rank()`` calls
(:mod:`~repro.engine.cache`).  Shards are dispatched to remote socket
workers with supervised failover by
:class:`~repro.engine.remote.RemoteEngine`; a sharded run is bit-identical
to the fused single-process kernels.  The entry point is
:func:`repro.api.rank` with an ``ExecutionPolicy``.
"""

from repro.engine.sharding import ResponseShard, ShardedResponse
from repro.engine.rankers import (
    ShardKernels,
    rank_dawid_skene,
    rank_hnd_power,
    rank_majority_vote,
)
from repro.engine.remote import (
    ChaosProxy,
    RemoteEngine,
    SupervisionConfig,
)
from repro.engine.ingest import (
    DEFAULT_CHUNK_SIZE,
    build_from_chunks,
    iter_triples_csv,
    iter_triples_npz,
    load_sharded,
    load_streaming,
    read_csv_header,
    read_npz_metadata,
)
from repro.engine.cache import RankCache, ranker_fingerprint

__all__ = [
    "ResponseShard",
    "ShardedResponse",
    "ShardKernels",
    "RemoteEngine",
    "SupervisionConfig",
    "ChaosProxy",
    "rank_majority_vote",
    "rank_dawid_skene",
    "rank_hnd_power",
    "DEFAULT_CHUNK_SIZE",
    "iter_triples_npz",
    "iter_triples_csv",
    "read_csv_header",
    "read_npz_metadata",
    "build_from_chunks",
    "load_streaming",
    "load_sharded",
    "RankCache",
    "ranker_fingerprint",
]
