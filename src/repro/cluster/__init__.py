"""Pre-fork multi-worker serving with consistent-hash sharded ingest.

``repro.serve`` is a single-process service; this package scales it
horizontally on one host without any new dependency:

``hashring``
    Deterministic consistent-hash ring mapping user ids to shards —
    every process (and every restart) computes the same owner for the
    same user, which is what makes per-shard accumulator state disjoint.
``router``
    The per-worker shard router: splits/forwards misrouted ingest
    batches (307 when a batch is wholly someone else's), scatter-gathers
    windowed reads across shards and merges the per-shard answers.
``merge``
    Payload-level merge of per-shard population/flow answers — exact,
    because shards partition users, so counts simply add.
``worker``
    The forked child: warm up (registry load + summary recover) before
    accepting, serve the shared public socket plus a private shard
    socket, heartbeat to the supervisor, drain and flush on SIGTERM.
``supervisor``
    Binds every listening socket once, forks N workers, monitors
    liveness via heartbeat pipes, restarts crashed workers with
    exponential backoff, drains the fleet on SIGTERM.

Boot a cluster with ``repro serve --workers N`` or programmatically::

    from repro.cluster import ClusterConfig, ClusterSupervisor

    with ClusterSupervisor(ClusterConfig(workers=4)) as sup:
        sup.wait_ready()
        sup.run()          # until SIGTERM/SIGINT
"""

from repro.cluster.hashring import HashRing
from repro.cluster.merge import merge_flows_payloads, merge_population_payloads
from repro.cluster.router import ShardRouter
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor

__all__ = [
    "ClusterConfig",
    "ClusterSupervisor",
    "HashRing",
    "ShardRouter",
    "merge_flows_payloads",
    "merge_population_payloads",
]
