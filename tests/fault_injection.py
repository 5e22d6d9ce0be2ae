"""Fault-injection harness for the remote execution backend.

Shared by the test suites that run the remote backend and the CI chaos job (``benchmarks/chaos_smoke.py``): spawn real worker
subprocesses, place a :class:`~repro.engine.remote.chaos.ChaosProxy` in
front of one, and drive deterministic failures (the proxy counts protocol
frames, so "kill the worker after N requests" does not race a clock).

Nothing here is a test; the module just centralizes process management so
every suite kills workers the same way.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

import repro
from repro.engine.remote.supervision import SupervisionConfig

#: The src/ directory the worker subprocesses must import repro from.
SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def worker_addresses(servers, count: Optional[int] = None) -> List[str]:
    """``host:port`` of the first ``count`` (default: all) in-process
    :class:`~repro.engine.remote.worker.WorkerServer` instances."""
    return ["%s:%d" % (server.host, server.port)
            for server in servers[:count]]


def fast_supervision(**overrides) -> SupervisionConfig:
    """Supervision knobs shrunk for tests: failures resolve in well under a
    second instead of the production-ish default minutes."""
    settings = dict(
        request_timeout=2.0,
        connect_timeout=1.0,
        max_attempts=2,
        backoff_base=0.01,
        backoff_max=0.05,
        heartbeat_interval=0.0,  # heartbeats opt-in per test
        heartbeat_timeout=0.5,
        breaker_threshold=2,
        breaker_reset=0.2,
    )
    settings.update(overrides)
    return SupervisionConfig(**settings)


class WorkerProcess:
    """One ``python -m repro.engine.remote.worker`` subprocess."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.engine.remote.worker",
             "--host", host, "--port", str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        # The worker prints READY immediately after binding; a crash during
        # startup closes stdout and readline returns "".
        line = self.proc.stdout.readline().strip()
        if not line.startswith("READY"):
            self.proc.kill()
            raise RuntimeError(
                "worker subprocess failed to start (got %r)" % line
            )
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        self.host = fields["host"]
        self.port = int(fields["port"])

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        """SIGKILL — the worker gets no chance to flush or say goodbye."""
        self.proc.kill()
        self.proc.wait(timeout=10)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class WorkerFleet:
    """Context manager owning ``count`` worker subprocesses."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.workers: List[WorkerProcess] = []

    def __enter__(self) -> "WorkerFleet":
        try:
            for _ in range(self.count):
                self.workers.append(WorkerProcess())
        except Exception:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for worker in self.workers:
            worker.stop()

    @property
    def addresses(self) -> List[str]:
        return [worker.address for worker in self.workers]

    def kill(self, index: int) -> None:
        self.workers[index].kill()


def wait_until(predicate, timeout: float = 10.0,
               interval: float = 0.02) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
