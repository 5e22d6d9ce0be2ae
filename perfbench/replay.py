"""The traced run: the served request sequence replayed in-process.

Each request goes through the public function of every layer the server's
path crosses, with a span around each call:

====================  ====================================================
span                  call
====================  ====================================================
``serve.decode``      ``protocol.decode_payload`` + ``ServeRequest.from_frame``
``api.create``        ``CrowdSession`` construction (create requests)
``serve.buffer``      the pending-append buffer (append requests)
``serve.key``         registry ``create`` + ``ranker_fingerprint``
``api.flush``         ``CrowdSession.add_answers`` of the buffered batches
``response.build``    ``CrowdSession.matrix`` (``ResponseBuilder.build``)
``response.hash``     first ``ResponseMatrix.content_hash``
``response.compile``  first ``ResponseMatrix.compiled``
``cache.state``       ``RankCache.latest_state`` (warm ranks)
``cache.lookup``      ``RankCache.rank`` (self time: key, lookup, insert)
``hnd.solve``         the HnD solve: the three spans below, plus setup
``hnd.matvec``        one ``hnd_difference_step`` call
``hnd.power``         ``hnd_power_solve`` (self time: the iteration driver)
``hnd.cumulative``    ``apply_cumulative``
``symmetry.orient``   ``orient_scores``
``mv.solve``          ``MajorityVoteRanker.rank``
``ranking.top_users`` ``AbilityRanking.top_users`` (top_k requests)
``serve.encode``      reply arrays + ``ok_frame`` + ``encode_message``
====================  ====================================================

HnD is recomposed exactly as ``HNDPower.rank`` does it, so replayed scores
can be checked against the served ones.  Spans record name, start, end,
parent and request id; they stay in memory until the run ends.  A span's
self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from repro.api import CrowdSession, REGISTRY
from repro.api.execution import warm_start_fingerprint
from repro.core.avghits import hnd_difference_step
from repro.core.hitsndiffs import HNDPower, hnd_power_solve
from repro.core.ranking import AbilityRanking
from repro.core.symmetry import orient_scores
from repro.engine.cache import ranker_fingerprint
from repro.engine.remote import protocol
from repro.linalg.operators import apply_cumulative
from repro.serve.schema import ServeRequest, ok_frame
from repro.store import SnapshotStore

from served import CROWD, PARAMS, TOP_K

KERNEL_REPEATS = 20
STORE_REPEATS = 3


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "request")

    def __init__(self, tracer: "Tracer", name: str, request) -> None:
        self.tracer = tracer
        self.name = name
        self.request = request
        self.parent: Optional[int] = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.stack:
            self.parent = tracer.stack[-1]
            if self.request is None:
                self.request = tracer.spans[self.parent].request
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []

    def span(self, name: str, request=None) -> Span:
        return Span(self, name, request)

    def self_ms(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [(span.end - span.start - covered[index]) * 1e3
                for index, span in enumerate(self.spans)]

    def to_json(self) -> List[Dict[str, object]]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "request": s.request}
                for s in self.spans]


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


class NullTracer:
    """Span-free replay, to measure what tracing itself costs."""

    _span = _NoSpan()

    def span(self, name: str, request=None) -> _NoSpan:
        return self._span


class _TracedSolver:
    """Hands the cache a ranker whose solve runs through the replay's spans."""

    def __init__(self, replayer: "Replayer", ranker, fingerprint,
                 init_state) -> None:
        self.replayer = replayer
        self.ranker = ranker
        self.fingerprint = fingerprint
        self.init_state = init_state

    def cache_fingerprint(self):
        return self.fingerprint

    def rank(self, matrix) -> AbilityRanking:
        return self.replayer.solve(self.ranker, matrix, self.init_state)


class Replayer:
    def __init__(self, crowd, tracer) -> None:
        self.crowd = crowd
        self.tracer = tracer
        self.session: Optional[CrowdSession] = None
        self.pending: List[tuple] = []
        self.ranked: set = set()
        self.stale = True
        self.compiled_for = None
        #: One dict per HnD solve: warm attempt and matvec count.
        self.solves: List[Dict[str, object]] = []
        #: Per replayed rank op index: (ranking, top users or None).
        self.results: Dict[int, tuple] = {}
        self.request_ms: Dict[int, float] = {}
        self.reply_kb: List[float] = []

    # -- client side (outside the spans) ------------------------------- #
    def _frame(self, op, request_id: int) -> bytes:
        spec = self.crowd.spec
        if op.op == "create":
            request = ServeRequest(op="create", crowd=CROWD,
                                   num_items=spec.num_items,
                                   num_options=spec.num_options,
                                   num_users=spec.num_users)
        elif op.op == "add_answers":
            answers = (self.crowd.base if op.batch < 0
                       else self.crowd.batches[op.batch])
            request = ServeRequest(op="add_answers", crowd=CROWD,
                                   answers=tuple(np.asarray(a, dtype=np.int64)
                                                 for a in answers))
        else:
            request = ServeRequest(op=op.op, crowd=CROWD, method=op.method,
                                   params=PARAMS[op.method], warm_start=op.warm,
                                   count=TOP_K if op.op == "top_k" else None)
        request = dataclasses.replace(request, request_id=request_id)
        return protocol.encode_message(*request.frame())

    # -- server side ---------------------------------------------------- #
    def replay(self, ops) -> float:
        """Replay every setup and timed op in order; returns the wall time."""
        total = 0.0
        for index, op in enumerate(ops):
            if op.phase == "setup-check":
                continue
            data = self._frame(op, index)
            start = time.perf_counter()
            with self.tracer.span("request", request=index):
                self._request(index, data)
            elapsed = time.perf_counter() - start
            self.request_ms[index] = elapsed * 1e3
            total += elapsed
        return total

    def _request(self, index: int, data: bytes) -> None:
        span = self.tracer.span
        with span("serve.decode"):
            checksum, _ = protocol.parse_prefix(data[:protocol.PREFIX_SIZE])
            name, meta, arrays = protocol.decode_payload(
                data[protocol.PREFIX_SIZE:], checksum)
            request = ServeRequest.from_frame(name, meta, arrays)
        ranking = top = None
        if request.op == "create":
            with span("api.create"):
                self.session = CrowdSession(num_items=request.num_items,
                                            num_options=request.num_options,
                                            num_users=request.num_users)
            meta = {"resident": 1}
        elif request.op == "add_answers":
            with span("serve.buffer"):
                self.pending.append(request.answers)
            meta = {"buffered": int(request.answers[0].size)}
        else:
            ranking, top, meta = self._rank(index, request)
        with span("serve.encode"):
            if top is not None:
                arrays = {"users": np.asarray(top, dtype=np.int64),
                          "scores": np.ascontiguousarray(ranking.scores[top])}
            elif ranking is not None:
                arrays = {"scores": np.ascontiguousarray(ranking.scores)}
            else:
                arrays = {}
            reply = protocol.encode_message(*ok_frame(request, meta, arrays))
        if request.op in ("rank", "top_k"):
            self.reply_kb.append(len(reply) / 1024.0)

    def _rank(self, index: int, request: ServeRequest):
        span = self.tracer.span
        session = self.session
        with span("serve.key"):
            if request.warm_start:
                warm_start_fingerprint(request.method, request.params)
            ranker = REGISTRY.get(request.method).create(**request.params)
            fingerprint = ranker_fingerprint(ranker)
        if self.pending:
            with span("api.flush"):
                for users, items, options in self.pending:
                    session.add_answers(users, items, options)
            self.pending = []
            self.stale = True
        if self.stale:
            with span("response.build"):
                matrix = session.matrix
            with span("response.hash"):
                matrix.content_hash()
            self.stale = False
        else:
            matrix = session.matrix
        init_state = None
        if request.warm_start:
            with span("cache.state"):
                init_state = session.cache.latest_state(fingerprint,
                                                        hashes=self.ranked)
        solver = _TracedSolver(self, ranker, fingerprint, init_state)
        with span("cache.lookup"):
            ranking = session.cache.rank(solver, matrix)
        self.ranked.add(matrix.content_hash())
        meta = {"method": ranking.method, "num_users": int(ranking.scores.size),
                "served": "computed"}
        top = None
        if request.op == "top_k":
            with span("ranking.top_users"):
                top = ranking.top_users(request.count)
        self.results[index] = (ranking, top)
        return ranking, top, meta

    def solve(self, ranker, matrix, init_state) -> AbilityRanking:
        span = self.tracer.span
        if self.compiled_for is not matrix:
            with span("response.compile"):
                matrix.compiled
            self.compiled_for = matrix
        if isinstance(ranker, HNDPower):
            return self._hnd(ranker, matrix, init_state)
        if ranker.name != "MajorityVote":
            raise ValueError("the replay recomposes HnD and MajorityVote only")
        with span("mv.solve"):
            return ranker.rank(matrix)

    def _hnd(self, ranker: HNDPower, matrix, init_state) -> AbilityRanking:
        """``HNDPower.rank``, step by step."""
        span = self.tracer.span
        matvecs = [0]
        with span("hnd.solve"):
            if ranker.check_connectivity:
                matrix.require_connected()
            step = hnd_difference_step(matrix)

            def counted_step(vector: np.ndarray) -> np.ndarray:
                matvecs[0] += 1
                with span("hnd.matvec"):
                    return step(vector)

            with span("hnd.power"):
                result, state, warm_mode = hnd_power_solve(
                    counted_step, matrix.num_users,
                    tolerance=ranker.tolerance,
                    max_iterations=ranker.max_iterations,
                    random_state=ranker.random_state,
                    init_state=init_state,
                    acceleration=ranker.acceleration,
                )
            with span("hnd.cumulative"):
                scores = apply_cumulative(result.vector)
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "residual": result.residual,
            "eigenvalue": result.eigenvalue,
            "diff_vector_variance": float(np.var(result.vector)),
            "warm_start": warm_mode,
            "acceleration": result.acceleration,
        }
        if ranker.break_symmetry:
            with span("symmetry.orient"):
                scores, symmetry = orient_scores(matrix, scores)
            diagnostics.update(symmetry)
        self.solves.append({"warm": init_state is not None,
                            "matvecs": matvecs[0]})
        return AbilityRanking(scores=scores, method=ranker.name,
                              diagnostics=diagnostics, state=state)

    # -- probes: every layer measured on every workload ----------------- #
    def probe(self, method: str, workdir) -> Dict[str, float]:
        """Time each layer once more on the final crowd state.

        The workload's own sequence leaves some layers idle (warm-read never
        solves MajorityVote, append-rank never runs HnD); these calls give
        every per-layer metric a measured value on every workload.
        """
        span = self.tracer.span
        matrix = self.session.matrix
        with span("probe", request="probe"):
            hnd = self.solve(REGISTRY.get("HnD").create(**PARAMS["HnD"]),
                             matrix, None)
            self.solve(REGISTRY.get("MajorityVote").create(), matrix, None)
            for _ in range(3):
                with span("ranking.top_users"):
                    hnd.top_users(TOP_K)
        probe = kernel_probe(matrix)
        ranker = REGISTRY.get(method).create(**PARAMS[method])
        ranking = self.session.cache.rank(ranker, matrix)
        probe.update(store_probe(matrix, ranking, ranker_fingerprint(ranker),
                                 workdir))
        return probe


def kernel_probe(matrix) -> Dict[str, float]:
    """One HnD matvec against its fused kernel and a plain CSR roofline."""
    compiled = matrix.compiled
    step = hnd_difference_step(matrix)
    rng = np.random.default_rng(0)
    diffs = rng.standard_normal(matrix.num_users - 1)
    scores = apply_cumulative(diffs)
    matvec, kernel, roofline = [], [], []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        step(diffs)
        stepped = time.perf_counter()
        compiled.avghits_apply(scores)
        fused = time.perf_counter()
        compiled.binary @ (compiled.binary_t @ scores)
        plain = time.perf_counter()
        matvec.append(stepped - start)
        kernel.append(fused - stepped)
        roofline.append(plain - fused)
    m, columns = compiled.num_users, compiled.num_columns
    nnz = compiled.num_nonzero
    index = compiled.binary.indices.itemsize
    # Computed, not measured: the two sparse products read data, indices
    # and indptr once each, the CSR product gathers one input per nonzero
    # and the CSC product read-modify-writes one output per nonzero; the
    # cumsum, the two diagonal scalings and the diff each stream their
    # vectors once.
    matvec_bytes = (2 * nnz * (8 + index) + 2 * (m + 1) * index
                    + nnz * 8 + nnz * 16 + 2 * m * 8
                    + columns * 16 + m * 16 + 2 * m * 16)
    matvec_flops = 4 * nnz + columns + 3 * m
    return {
        "matvec_ms": float(np.median(matvec)) * 1e3,
        "kernel_ms": float(np.median(kernel)) * 1e3,
        "roofline_ms": float(np.median(roofline)) * 1e3,
        "matvec_flops": float(matvec_flops),
        "matvec_bytes": float(matvec_bytes),
    }


def store_probe(matrix, ranking, fingerprint, workdir) -> Dict[str, float]:
    """``save_crowd`` and ``put_snapshot`` timed against a scratch store."""
    root = tempfile.mkdtemp(prefix="probe-store-", dir=str(workdir))
    store = SnapshotStore(root)
    saves, puts = [], []
    try:
        content_hash = matrix.content_hash()
        for _ in range(STORE_REPEATS):
            start = time.perf_counter()
            store.save_crowd("probe", matrix)
            saved = time.perf_counter()
            store.put_snapshot(ranking, content_hash=content_hash,
                               fingerprint=fingerprint)
            puts.append(time.perf_counter() - saved)
            saves.append(saved - start)
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)
    return {"save_crowd_ms": float(np.median(saves)) * 1e3,
            "put_snapshot_ms": float(np.median(puts)) * 1e3}
