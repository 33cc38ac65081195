"""Simulated ParaStation-like MPI for the Cluster-Booster model.

Provides communicators (intra and inter), blocking and non-blocking
point-to-point, tree/ring collectives, and the ``MPI_Comm_spawn``
offload mechanism the paper uses to partition applications across
Cluster and Booster.
"""

from .cart import CartComm, cart_create, dims_create
from .communicator import MAX, MIN, PROD, SUM, Comm, PersistentRequest
from .datatypes import ANY_SOURCE, ANY_TAG, Bytes, payload_nbytes
from .errors import (
    CommError,
    MPIError,
    PeerFailedError,
    RankError,
    RouteDownError,
    TransportError,
    TruncationError,
)
from .message import Envelope
from .mpiio import MODE_CREATE, MODE_RDONLY, MODE_RDWR, MODE_WRONLY, File
from .request import Request, waitall, waitany
from .rma import Window
from .runtime import (
    FAULT_RUN_POLICY,
    FaultTolerancePolicy,
    GroupState,
    MPIProcess,
    MPIRuntime,
    RankContext,
)
from .status import Status

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
