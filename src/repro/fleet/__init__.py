"""repro.fleet — a sharded experiment-service fleet.

The Cluster-Booster thesis applied to the serving layer: instead of
one monolithic service process, N :class:`~repro.serve.ExperimentService`
shards — each with its own store root, write-ahead journal, and
heartbeat — behind a front-end router that consistent-hashes every
submission's content-addressed cache key onto its shard.  Coalescing,
the tiered store, and the poison quarantine keep working *fleet-wide*
with zero cross-shard duplication, because one key always lands on
one shard.

Layers (each importable on its own):

* :class:`HashRing` — consistent hashing with virtual nodes
* :mod:`~repro.fleet.protocol` — length-prefixed JSON socket framing
* :class:`LocalShard` / :class:`ProcessShard` — shard handles
* :class:`FleetRouter` — routing, bounded work stealing, shard
  supervision (restart-on-death with journal recovery, hash-ring
  rebalancing), stolen-result store sync
* :class:`FleetFrontEnd` — the asyncio TCP front end
* :class:`FleetClient` — the synchronous remote client with backoff

CLI verbs: ``repro fleet serve | submit | status``.  In-process:
``Session(fleet=router).submit(...)``.
"""

from .._lazy import lazy_exports

# each name loads its module on first use: an in-process fleet never
# imports the asyncio front end, the client or the wire protocol
lazy_exports(__name__, {
    ".client": ["FleetClient", "FleetClientError", "RemoteJob"],
    ".frontend": ["FleetFrontEnd"],
    ".metrics": [
        "FLEET_METRICS_SCHEMA",
        "invariant_holds",
        "merge_histogram_snapshots",
        "merge_service_snapshots",
    ],
    ".protocol": [
        "FLEET_MSG_SCHEMA",
        "MAX_FRAME_BYTES",
        "FrameError",
        "encode_frame",
        "read_frame",
        "recv_frame",
        "send_frame",
        "write_frame",
    ],
    ".ring": ["HashRing"],
    ".router": ["FleetJob", "FleetRouter"],
    ".shard": ["LocalShard", "ProcessShard", "ShardHandle"],
})

__all__ = [
    "FLEET_METRICS_SCHEMA",
    "FLEET_MSG_SCHEMA",
    "MAX_FRAME_BYTES",
    "FleetClient",
    "FleetClientError",
    "FleetFrontEnd",
    "FleetJob",
    "FleetRouter",
    "FrameError",
    "HashRing",
    "LocalShard",
    "ProcessShard",
    "RemoteJob",
    "ShardHandle",
    "encode_frame",
    "invariant_holds",
    "merge_histogram_snapshots",
    "merge_service_snapshots",
    "read_frame",
    "recv_frame",
    "send_frame",
    "write_frame",
]
