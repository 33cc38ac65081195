"""Simulated ParaStation-like MPI for the Cluster-Booster model.

Provides communicators (intra and inter), blocking and non-blocking
point-to-point, tree/ring collectives, and the ``MPI_Comm_spawn``
offload mechanism the paper uses to partition applications across
Cluster and Booster.
"""

from .._lazy import lazy_exports

# each name loads its module on first use: a run that never builds a
# Cartesian communicator, an MPI-IO file or an RMA window never
# imports them
lazy_exports(__name__, {
    ".cart": ["CartComm", "cart_create", "dims_create"],
    ".communicator": [
        "MAX", "MIN", "PROD", "SUM", "Comm", "PersistentRequest",
    ],
    ".datatypes": ["ANY_SOURCE", "ANY_TAG", "Bytes", "payload_nbytes"],
    ".errors": [
        "CommError",
        "MPIError",
        "PeerFailedError",
        "RankError",
        "RouteDownError",
        "TransportError",
        "TruncationError",
    ],
    ".message": ["Envelope"],
    ".mpiio": [
        "MODE_CREATE", "MODE_RDONLY", "MODE_RDWR", "MODE_WRONLY", "File",
    ],
    ".request": ["Request", "waitall", "waitany"],
    ".rma": ["Window"],
    ".runtime": [
        "FAULT_RUN_POLICY",
        "FaultTolerancePolicy",
        "GroupState",
        "MPIProcess",
        "MPIRuntime",
        "RankContext",
    ],
    ".status": ["Status"],
})

__all__ = [
    "MPIRuntime",
    "RankContext",
    "MPIProcess",
    "GroupState",
    "Comm",
    "PersistentRequest",
    "CartComm",
    "cart_create",
    "dims_create",
    "Request",
    "waitall",
    "waitany",
    "Window",
    "File",
    "MODE_RDONLY",
    "MODE_WRONLY",
    "MODE_RDWR",
    "MODE_CREATE",
    "Status",
    "Envelope",
    "Bytes",
    "payload_nbytes",
    "ANY_SOURCE",
    "ANY_TAG",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "MPIError",
    "RankError",
    "CommError",
    "TruncationError",
    "TransportError",
    "PeerFailedError",
    "RouteDownError",
    "FaultTolerancePolicy",
    "FAULT_RUN_POLICY",
]
