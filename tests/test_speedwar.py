"""PR 7 speed-war acceptance tests.

Three contracts:

* **Whole-solve dispatch stays bit-identical**: HnD on the remote backend
  at 1/2/8 shards, with ``iteration_batch`` 1/4/32 (above 1 the whole
  Arnoldi solve runs on a worker's replica), produces scores bitwise
  equal to the single-process solve — warm-started too, and including a
  run where a worker is SIGKILLed as the solve is dispatched to it, and a
  run where *every* worker dies and the solve finishes on the
  coordinator-local fallback.
* **HnD takes no acceleration**: the keyword survives for callers but
  accepts ``None`` only.
* **GLAD's M-step is O(nnz)**: ranking the canonical sparse crowd never
  materializes a dense ``(m, n)`` array — gated by a forbidden
  ``_materialize_dense`` monkeypatch plus a ``tracemalloc`` peak-memory
  bound far below the dense table's footprint.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fault_injection import WorkerFleet, fast_supervision, worker_addresses
from repro.api.execution import ExecutionPolicy
from repro.core.hitsndiffs import HNDPower, hnd_power_solve
from repro.core.response import ResponseMatrix
from repro.engine import (
    ChaosProxy,
    RemoteEngine,
    ShardedResponse,
    rank_hnd_power,
)
from repro.truth_discovery.glad import GLADRanker


def planted_crowd(num_users, num_items, num_options, density, seed):
    """Planted-truth crowd: per-item truth, per-user ability in [0.4, 0.95]."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, num_options, size=num_items)
    ability = rng.uniform(0.4, 0.95, size=num_users)
    mask = rng.random((num_users, num_items)) < density
    mask[0, 0] = True
    users, items = np.nonzero(mask)
    correct = rng.random(users.size) < ability[users]
    wrong = (
        truth[items] + rng.integers(1, num_options, size=users.size)
    ) % num_options
    options = np.where(correct, truth[items], wrong)
    return ResponseMatrix.from_triples(
        users, items, options,
        shape=(num_users, num_items), num_options=num_options,
    )


@pytest.fixture(scope="module")
def crowd():
    return planted_crowd(400, 80, 4, 0.25, seed=3)


@pytest.fixture(scope="module")
def reference(crowd):
    """The fused single-process HnD solve every backend must reproduce."""
    return HNDPower(random_state=0).rank(crowd)


def _assert_pinned(ranking, reference, *, backend, batch):
    assert np.array_equal(ranking.scores, reference.scores)
    assert ranking.diagnostics["iterations"] == reference.diagnostics["iterations"]
    assert ranking.diagnostics["backend"] == backend
    assert ranking.diagnostics["iteration_batch"] == batch
    assert (ranking.diagnostics["blas_threads"]
            == reference.diagnostics["blas_threads"])


# ----------------------------------------------------------------------- #
# Bit-identity: batched dispatch
# ----------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", [1, 2, 8])
class TestBatchedBitIdentity:
    @pytest.mark.parametrize("batch", [1, 4, 32])
    def test_remote(self, crowd, reference, servers, num_shards, batch):
        sharded = ShardedResponse.split(crowd, num_shards)
        with RemoteEngine(sharded, worker_addresses(servers),
                          supervision=fast_supervision(),
                          iteration_batch=batch) as engine:
            ranking = rank_hnd_power(engine, random_state=0)
        _assert_pinned(ranking, reference, backend="remote", batch=batch)

    def test_warm_batched_matches_warm_fused(
            self, crowd, reference, servers, num_shards):
        """The warm start vector ships with the solve: same bits."""
        larger = planted_crowd(402, 80, 4, 0.25, seed=3)
        fused = HNDPower(random_state=0).rank(larger, init_state=reference.state)
        sharded = ShardedResponse.split(larger, num_shards)
        with RemoteEngine(sharded, worker_addresses(servers),
                          supervision=fast_supervision(),
                          iteration_batch=4) as engine:
            ranking = rank_hnd_power(engine, random_state=0,
                                     init_state=reference.state)
        assert ranking.diagnostics["warm_start"] == "warm"
        assert np.array_equal(ranking.scores, fused.scores)
        assert (ranking.diagnostics["iterations"]
                == fused.diagnostics["iterations"])


class TestBatchedFaults:
    def test_killed_worker_mid_batched_solve_is_bit_identical(
            self, crowd, reference):
        """SIGKILL one of two workers as the solve reaches it: a solve is a
        pure function of its start vector, so the failover retry keeps the
        bits."""
        # Worker 0 sees 4 load_shard requests, load_replica, then hnd_solve.
        solve_request = 6
        with WorkerFleet(2) as fleet:
            with ChaosProxy("127.0.0.1", fleet.workers[0].port) as proxy:
                proxy.on_request = (
                    lambda count: fleet.kill(0)
                    if count == solve_request else None
                )
                sharded = ShardedResponse.split(crowd, 8)
                with RemoteEngine(
                    sharded, [proxy.address, fleet.addresses[1]],
                    supervision=fast_supervision(),
                    iteration_batch=4,
                ) as engine:
                    hnd = rank_hnd_power(engine, random_state=0)
                    diagnostics = engine.diagnostics()
        assert np.array_equal(hnd.scores, reference.scores)
        assert diagnostics["alive_workers"] == 1
        assert diagnostics["reassignments"] >= 1

    def test_total_worker_loss_finishes_batched_solve_locally(
            self, crowd, reference):
        """Every worker dies mid-solve: the solve falls back to the
        coordinator-local fused step and still reproduces the bits."""
        # The worker sees 2 load_shard requests, load_replica, then hnd_solve.
        solve_request = 4
        with WorkerFleet(1) as fleet:
            with ChaosProxy("127.0.0.1", fleet.workers[0].port) as proxy:
                proxy.on_request = (
                    lambda count: fleet.kill(0)
                    if count == solve_request else None
                )
                sharded = ShardedResponse.split(crowd, 2)
                with RemoteEngine(
                    sharded, [proxy.address],
                    supervision=fast_supervision(),
                    iteration_batch=4,
                ) as engine:
                    hnd = rank_hnd_power(engine, random_state=0)
                    diagnostics = engine.diagnostics()
        assert np.array_equal(hnd.scores, reference.scores)
        assert diagnostics["alive_workers"] == 0


# ----------------------------------------------------------------------- #
# The acceleration keyword: None only
# ----------------------------------------------------------------------- #
class TestAcceleratedHnD:
    def test_unknown_acceleration_rejected(self, crowd):
        with pytest.raises(ValueError, match="acceleration"):
            HNDPower(acceleration="momentum").rank(crowd)
        with pytest.raises(ValueError, match="acceleration"):
            hnd_power_solve(lambda v: v, 4, tolerance=1e-8,
                            max_iterations=10, random_state=0,
                            acceleration="momentum")


# ----------------------------------------------------------------------- #
# GLAD: O(nnz) M-step, no dense (m, n) hot path
# ----------------------------------------------------------------------- #
class TestGLADNoDense:
    def test_rank_never_materializes_dense(self, monkeypatch):
        m, n, answers_per_user = 1500, 1200, 12
        rng = np.random.default_rng(5)
        users = np.repeat(np.arange(m), answers_per_user)
        # Distinct items per user (stride 97 is coprime to n, so the
        # answers_per_user offsets never collide) without dense sampling.
        items = (users * 17 + np.tile(np.arange(answers_per_user), m) * 97) % n
        options = rng.integers(0, 3, size=users.size)
        crowd = ResponseMatrix.from_triples(
            users, items, options, shape=(m, n), num_options=3,
        )
        crowd.compiled  # compile outside the traced window

        def forbidden(self):  # pragma: no cover - failure path
            raise AssertionError("GLAD materialized the dense matrix")

        monkeypatch.setattr(ResponseMatrix, "_materialize_dense", forbidden)
        tracemalloc.start()
        try:
            ranking = GLADRanker(max_iterations=3).rank(crowd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(ranking.scores))
        # A single dense (m, n) float64 table would be ~14.4 MB; the O(nnz)
        # hot path stays an order of magnitude below it.
        assert peak < 4 * 1024 * 1024


# ----------------------------------------------------------------------- #
# ExecutionPolicy plumbing
# ----------------------------------------------------------------------- #
class TestPolicyIterationBatch:
    def test_default_and_validation(self):
        assert ExecutionPolicy().iteration_batch == 1
        with pytest.raises(ValueError, match="iteration_batch"):
            ExecutionPolicy(iteration_batch=0)

    @pytest.mark.parametrize("shards", [1, 2], ids=["fused-1", "threads-2"])
    def test_rejected_for_in_process_backends(self, shards):
        """Without remote_workers there is no round-trip to amortize, for a
        single shard or for a multi-shard request alike."""
        with pytest.raises(ValueError, match="iteration_batch"):
            ExecutionPolicy(shards=shards, iteration_batch=4)

    def test_accepted_for_round_trip_backends(self):
        policy = ExecutionPolicy(shards=2, remote_workers=["127.0.0.1:9101"],
                                 iteration_batch=8)
        assert policy.iteration_batch == 8

    def test_batched_policy_rank_is_bit_identical(self, crowd, reference,
                                                  servers):
        from repro.api import rank

        policy = ExecutionPolicy(shards=2,
                                 remote_workers=worker_addresses(servers),
                                 supervision=fast_supervision(),
                                 iteration_batch=8)
        ranking = rank(crowd, "HnD", execution=policy, random_state=0)
        assert np.array_equal(ranking.scores, reference.scores)
        assert ranking.diagnostics["iteration_batch"] == 8
