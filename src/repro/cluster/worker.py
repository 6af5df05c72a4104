"""The forked cluster worker: warm up, serve, heartbeat, drain.

``worker_main`` runs in a freshly forked child and never returns — it
exits the process via ``os._exit`` so a worker can never fall back into
the supervisor's code or flush the supervisor's buffered streams twice.

Lifecycle
---------
1. **Warm up before accepting.**  The registry snapshot is built and
   the shard's summary tiles recovered *before* either listener starts,
   so the first request a worker ever sees is served from hot state
   (the pre-fork warmup idiom).  Workers signal readiness by writing
   ``R`` on the heartbeat pipe.
2. **Serve two listeners.**  The shared *public* socket (all workers
   accept on it; the kernel load-balances) and this shard's *private*
   socket (peers address it directly for forwarded slices and gather
   legs).  Both run the same app; the private one in a helper thread.
3. **Heartbeat.**  A daemon thread writes ``H`` on the pipe every
   ``heartbeat_interval`` seconds; a ``BrokenPipeError`` means the
   supervisor died, and the worker shuts itself down rather than run
   orphaned.
4. **Drain.**  SIGTERM stops both listeners; in-flight public requests
   finish, the router closes its idle peer connections (which ends the
   peers' handler threads serving them), in-flight private requests
   finish (non-daemon handler threads are joined), then the app drains
   once — flushing open summary minutes to the artifact store.

Per-shard state is disjoint by construction: the summary namespace is
``"<scale>-s<shard>of<n>"`` and the consistent-hash router only lets a
worker ingest its own users.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading

from repro import obs
from repro.cluster.hashring import HashRing
from repro.cluster.router import ShardRouter
from repro.pipeline.store import ArtifactStore
from repro.serve.app import EstimationServer, create_app

#: Pipe bytes: worker ready (warmup finished) / liveness heartbeat.
READY = b"R"
HEARTBEAT = b"H"


def summary_namespace(
    scale_value: str, shard: int, n_shards: int, gazetteer: str | None = None
) -> str:
    """The per-shard tile namespace (a single path segment).

    Non-legacy gazetteers prefix their slug so shard tile sets from
    different area systems stay disjoint in one artifact store.
    """
    if gazetteer in (None, "", "legacy"):
        return f"{scale_value}-s{shard}of{n_shards}"
    slug = gazetteer.replace(":", "-").replace("@", "-")
    return f"{slug}-{scale_value}-s{shard}of{n_shards}"


def _heartbeat_loop(fd: int, interval: float, stop: threading.Event) -> None:
    """Write liveness bytes until stopped or the supervisor vanishes."""
    while not stop.wait(interval):
        try:
            os.write(fd, HEARTBEAT)
        except (BrokenPipeError, OSError):
            # Supervisor is gone; don't serve as an orphan.
            stop.set()
            os.kill(os.getpid(), signal.SIGTERM)
            return


def worker_main(
    shard: int,
    config,
    public_sock: socket.socket,
    shard_sock: socket.socket,
    peer_addrs: dict[int, str],
    heartbeat_fd: int,
) -> None:
    """Run one worker to completion; exits the process (never returns).

    Parameters mirror what the supervisor owns pre-fork: the two
    already-listening sockets, the full shard address map and the write
    end of this worker's heartbeat pipe.  ``config`` is a
    :class:`~repro.cluster.supervisor.ClusterConfig`.
    """
    exit_code = 0
    try:
        obs.counter("cluster.worker_starts")
        store = ArtifactStore(config.cache_dir)
        app = create_app(
            store,
            monitor_scale=config.monitor_scale,
            window_seconds=config.window_seconds,
            poll_interval=config.poll_interval,
            max_body_bytes=config.max_body_bytes,
            with_summary=config.with_summary,
            summary_namespace=summary_namespace(
                config.monitor_scale.value,
                shard,
                config.workers,
                gazetteer=config.gazetteer,
            ),
            gazetteer=config.gazetteer,
        )
        router = ShardRouter(
            shard, HashRing(config.workers), peer_addrs, app
        )
        app.shard_router = router
        app.cache_shard_key = (shard, config.workers)

        public = EstimationServer(
            public_sock.getsockname()[:2],
            app,
            access_log_file=sys.stderr,
            sock=public_sock,
            flush_on_drain=False,
        )
        private = EstimationServer(
            shard_sock.getsockname()[:2],
            app,
            access_log_file=None,
            sock=shard_sock,
            flush_on_drain=False,
        )

        stop_heartbeat = threading.Event()

        def _shutdown(signum, frame):
            # shutdown() must not run on a serve_forever thread.
            threading.Thread(target=public.shutdown, daemon=True).start()
            threading.Thread(target=private.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # supervisor's TERM drives us

        # Warmup is done (create_app preloads the registry and recovers
        # tiles); tell the supervisor before the first accept.
        os.write(heartbeat_fd, READY)
        threading.Thread(
            target=_heartbeat_loop,
            args=(heartbeat_fd, config.heartbeat_interval, stop_heartbeat),
            name=f"heartbeat-s{shard}",
            daemon=True,
        ).start()

        private_thread = threading.Thread(
            target=private.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"private-s{shard}",
        )
        private_thread.start()
        try:
            public.serve_forever(poll_interval=0.1)
        finally:
            stop_heartbeat.set()
            private_thread.join()
            # Close the idle peer connections before joining the
            # private handlers: a peer's handler thread serves each of
            # them, and two workers joining each other's would wait out
            # the handler timeout.  Then drain exactly once, flushing
            # open summary minutes so a SIGTERM mid-minute loses nothing.
            public.server_close()
            router.close()
            private.server_close()
            app.drain()
    except BaseException:  # repro: allow[hygiene] worker death is accounted via exit code
        exit_code = 1
    finally:
        try:
            os.close(heartbeat_fd)
        except OSError:  # repro: allow[hygiene] already closed
            pass
        os._exit(exit_code)
