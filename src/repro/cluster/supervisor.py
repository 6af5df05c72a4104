"""The pre-fork supervisor: bind once, fork N, watch, restart, drain.

:class:`ClusterSupervisor` owns every listening socket and every worker
process:

* **Bind once, fork N.**  The public socket and one private socket per
  shard are bound and listening *before* the first fork, so the full
  shard→address map is plain data every child inherits, and a restarted
  worker re-accepts on the very same sockets — no port churn, no
  rebind races.  Listeners are set non-blocking so the thundering-herd
  accept race between workers degrades to a harmless ``EAGAIN``
  (``socketserver`` swallows it and re-polls).
* **Liveness.**  Each worker holds the write end of a dedicated pipe:
  ``R`` once warm (serving starts only after warmup), then ``H`` every
  ``heartbeat_interval``.  The supervisor ``select()``s all read ends;
  a worker silent for ``liveness_timeout`` seconds is killed and
  replaced, and child exits are reaped with ``waitpid(WNOHANG)``.
* **Restart with backoff.**  A crashed worker is re-forked after an
  exponential backoff (``restart_backoff * 2^(restarts-1)``, capped),
  so a worker that dies in warmup cannot spin the host.
* **Drain.**  ``stop()`` (or SIGTERM/SIGINT via :meth:`run`) sends
  every worker SIGTERM, waits up to ``drain_timeout`` for the fleet to
  finish in-flight requests and flush summary tiles, then SIGKILLs
  stragglers and closes the sockets.

The supervisor itself serves nothing and imports no estimation state —
workers build their own apps post-fork (fork-safety: no locks, threads
or loaded models cross the fork boundary).
"""

from __future__ import annotations

import os
import select
import signal
import socket
import time
from dataclasses import dataclass, field

from repro import obs
from repro.cluster.worker import READY, worker_main
from repro.data.gazetteer import Scale
from repro.serve.app import DEFAULT_MAX_BODY_BYTES

#: accept() backlog per listener.
BACKLOG = 128


@dataclass
class ClusterConfig:
    """Everything a supervisor (and its workers) needs, fork-inheritable."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    cache_dir: str | None = None
    monitor_scale: Scale = Scale.NATIONAL
    gazetteer: str | None = None
    window_seconds: float = 3600.0
    poll_interval: float = 2.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    with_summary: bool = True
    heartbeat_interval: float = 1.0
    liveness_timeout: float = 15.0
    drain_timeout: float = 10.0
    restart_backoff: float = 0.5
    restart_backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class _WorkerState:
    """Supervisor-side bookkeeping for one shard's worker process."""

    shard: int
    pid: int = -1
    read_fd: int = -1
    ready: bool = False
    last_beat: float = 0.0
    restarts: int = 0
    restart_at: float = 0.0  # next allowed fork time (backoff)
    exits: list[int] = field(default_factory=list)


class ClusterSupervisor:
    """Own the sockets and the worker fleet for one serving cluster."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.public_sock: socket.socket | None = None
        self.shard_socks: dict[int, socket.socket] = {}
        self.peer_addrs: dict[int, str] = {}
        self._workers: dict[int, _WorkerState] = {}
        self._running = False

    # -- properties ----------------------------------------------------

    @property
    def port(self) -> int:
        """The public port (resolved after :meth:`start` with port 0)."""
        if self.public_sock is None:
            raise RuntimeError("supervisor is not started")
        return self.public_sock.getsockname()[1]

    @property
    def shard_addresses(self) -> dict[int, str]:
        """Shard index → private base URL."""
        return dict(self.peer_addrs)

    def worker_pids(self) -> dict[int, int]:
        """Shard index → live worker pid."""
        return {s: w.pid for s, w in self._workers.items() if w.pid > 0}

    # -- socket plumbing -----------------------------------------------

    def _listen(self, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, port))
        sock.listen(BACKLOG)
        # Non-blocking listener: when several workers wake for one
        # connection, the losers' accept() raises EAGAIN instead of
        # blocking a handler loop.  Accepted sockets are unaffected.
        sock.setblocking(False)
        return sock

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Bind all sockets and fork the initial fleet."""
        if self.public_sock is not None:
            raise RuntimeError("supervisor already started")
        self.public_sock = self._listen(self.config.port)
        for shard in range(self.config.workers):
            sock = self._listen(0)
            self.shard_socks[shard] = sock
            host, port = sock.getsockname()[:2]
            self.peer_addrs[shard] = f"http://{host}:{port}"
        self._running = True
        now = time.monotonic()
        for shard in range(self.config.workers):
            state = _WorkerState(shard=shard)
            self._workers[shard] = state
            self._fork_worker(state, now)
        obs.counter("cluster.starts")

    def _fork_worker(self, state: _WorkerState, now: float) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: shed supervisor-side fds, then never return.
            os.close(read_fd)
            for shard, sock in self.shard_socks.items():
                if shard != state.shard:
                    sock.close()
            for other in self._workers.values():
                if other.read_fd >= 0 and other is not state:
                    try:
                        os.close(other.read_fd)
                    except OSError:  # repro: allow[hygiene] fd already gone
                        pass
            worker_main(
                state.shard,
                self.config,
                self.public_sock,
                self.shard_socks[state.shard],
                dict(self.peer_addrs),
                write_fd,
            )
            raise AssertionError("worker_main returned")  # pragma: no cover
        os.close(write_fd)
        state.pid = pid
        state.read_fd = read_fd
        state.ready = False
        state.last_beat = now

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every worker has signalled warmup-complete."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(w.ready for w in self._workers.values()):
                return True
            self.step(poll=0.1)
        return all(w.ready for w in self._workers.values())

    def step(self, poll: float = 0.5) -> None:
        """One monitoring iteration: drain pipes, reap, kill, restart."""
        now = time.monotonic()
        fds = [w.read_fd for w in self._workers.values() if w.read_fd >= 0]
        readable: list[int] = []
        if fds:
            try:
                readable, _, _ = select.select(fds, [], [], poll)
            except InterruptedError:  # pragma: no cover - signal race
                readable = []
        for state in self._workers.values():
            if state.read_fd in readable:
                try:
                    data = os.read(state.read_fd, 4096)
                except OSError:
                    data = b""
                if data:
                    state.last_beat = now
                    if READY in data:
                        state.ready = True
                # Empty read = EOF = the write end died with the worker;
                # reaping below notices the exit.
        self._reap(now)
        self._enforce_liveness(now)
        self._restart_due(now)

    def _reap(self, now: float) -> None:
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            for state in self._workers.values():
                if state.pid == pid:
                    self._mark_dead(state, status, now)
                    break

    def _mark_dead(self, state: _WorkerState, status: int, now: float) -> None:
        state.exits.append(status)
        state.pid = -1
        state.ready = False
        if state.read_fd >= 0:
            try:
                os.close(state.read_fd)
            except OSError:  # repro: allow[hygiene] fd already gone
                pass
            state.read_fd = -1
        if self._running:
            backoff = min(
                self.config.restart_backoff * (2 ** state.restarts),
                self.config.restart_backoff_max,
            )
            state.restarts += 1
            state.restart_at = now + backoff
            obs.counter("cluster.worker_deaths")

    def _enforce_liveness(self, now: float) -> None:
        if not self._running:
            return
        for state in self._workers.values():
            if state.pid <= 0:
                continue
            if now - state.last_beat > self.config.liveness_timeout:
                # Silent too long: assume wedged, kill; the reaper and
                # backoff machinery take it from there.
                obs.counter("cluster.liveness_kills")
                try:
                    os.kill(state.pid, signal.SIGKILL)
                except ProcessLookupError:  # repro: allow[hygiene] lost the race with exit
                    pass

    def _restart_due(self, now: float) -> None:
        if not self._running:
            return
        for state in self._workers.values():
            if state.pid <= 0 and now >= state.restart_at:
                self._fork_worker(state, now)
                obs.counter("cluster.worker_restarts")

    def run(self) -> None:
        """Monitor until SIGTERM/SIGINT, then drain the fleet."""
        stop = {"flag": False}

        def _handle(signum, frame):
            stop["flag"] = True

        previous_term = signal.signal(signal.SIGTERM, _handle)
        previous_int = signal.signal(signal.SIGINT, _handle)
        try:
            while not stop["flag"]:
                self.step()
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
            self.stop()

    # repro: allow[reachability] test harness: the tests/cluster failure injection kills workers with it
    def kill_worker(self, shard: int, sig: int = signal.SIGKILL) -> int:
        """Kill one worker (failure injection for tests); returns its pid."""
        state = self._workers[shard]
        if state.pid <= 0:
            raise RuntimeError(f"shard {shard} has no live worker")
        pid = state.pid
        os.kill(pid, sig)
        return pid

    def stop(self) -> None:
        """SIGTERM the fleet, wait for drain, SIGKILL stragglers, close."""
        if not self._running and not self._workers:
            return
        self._running = False
        for state in self._workers.values():
            if state.pid > 0:
                try:
                    os.kill(state.pid, signal.SIGTERM)
                except ProcessLookupError:  # repro: allow[hygiene] already exited
                    pass
        deadline = time.monotonic() + self.config.drain_timeout
        while time.monotonic() < deadline:
            self._reap(time.monotonic())
            if all(w.pid <= 0 for w in self._workers.values()):
                break
            time.sleep(0.05)
        for state in self._workers.values():
            if state.pid > 0:
                obs.counter("cluster.drain_kills")
                try:
                    os.kill(state.pid, signal.SIGKILL)
                except ProcessLookupError:  # repro: allow[hygiene] already exited
                    pass
                try:
                    os.waitpid(state.pid, 0)
                except ChildProcessError:  # repro: allow[hygiene] already reaped
                    pass
                state.pid = -1
            if state.read_fd >= 0:
                try:
                    os.close(state.read_fd)
                except OSError:  # repro: allow[hygiene] fd already gone
                    pass
                state.read_fd = -1
        for sock in self.shard_socks.values():
            sock.close()
        self.shard_socks.clear()
        if self.public_sock is not None:
            self.public_sock.close()
            self.public_sock = None
        obs.counter("cluster.stops")

    # -- context manager -----------------------------------------------

    def __enter__(self) -> ClusterSupervisor:
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
