"""One-sided communication (MPI-3 RMA) over the RDMA-capable fabric.

EXTOLL's remote-DMA engine (the same capability the NAM exploits,
section II-B) maps naturally onto MPI windows: ``Put``/``Get`` move
bytes into an exposed region without software on the target CPU, so
the model charges only the origin-side overhead plus wire time.

Synchronization implements the passive-target model (``lock`` /
``unlock`` per target) and active-target ``fence``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List

from ..sim import Resource
from .communicator import Comm
from .datatypes import payload_nbytes
from .errors import MPIError, RankError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Window"]


class Window:
    """An RMA window: one exposed memory region per rank of a comm.

    Created collectively::

        win = yield from Window.allocate(comm, nbytes)

    Every rank's region is modelled as a NumPy byte array so Put/Get
    round-trips are real data movement, not just timing.
    """

    def __init__(self, comm: Comm, sizes: List[int]):
        self.comm = comm
        self.sizes = sizes
        self._regions: Dict[int, np.ndarray] = {}
        self._locks: Dict[int, Resource] = {}
        self._fence_seq = 0
        group = comm.group
        if not hasattr(group, "_rma_state"):
            group._rma_state = {}

    # -- collective creation ------------------------------------------------
    @staticmethod
    def allocate(comm: Comm, nbytes: int) -> Generator:
        """Collective window allocation (MPI_Win_allocate)."""
        if nbytes < 0:
            raise ValueError("window size cannot be negative")
        sizes = yield from comm.allgather(nbytes)
        key = ("_rma_window", comm._ctx_coll, tuple(sizes), comm._coll_seq)
        shared = comm.group.spawn_results.setdefault("_rma", {})
        if key not in shared:
            import numpy as np

            win = Window(comm, sizes)
            sim = comm.runtime.sim
            for rank, size in enumerate(sizes):
                win._regions[rank] = np.zeros(size, dtype=np.uint8)
                win._locks[rank] = Resource(sim, capacity=1)
            shared[key] = win
        win = shared[key]
        # each rank gets its own view object bound to its rank
        view = Window.__new__(Window)
        view.comm = comm
        view.sizes = win.sizes
        view._regions = win._regions
        view._locks = win._locks
        view._fence_seq = 0
        view._held: Dict[int, Any] = {}
        return view

    # -- synchronization -----------------------------------------------------
    def lock(self, rank: int) -> Generator:
        """Passive-target lock on ``rank``'s region (exclusive)."""
        self._check_rank(rank)
        if rank in getattr(self, "_held", {}):
            raise MPIError(f"lock on rank {rank} already held")
        req = self._locks[rank].request()
        yield req
        self._held[rank] = req

    def unlock(self, rank: int) -> None:
        """Release a passive-target lock taken with :meth:`lock`."""
        if rank not in getattr(self, "_held", {}):
            raise MPIError(f"no lock held on rank {rank}")
        self._locks[rank].release(self._held.pop(rank))

    def fence(self) -> Generator:
        """Active-target synchronization: a barrier over the comm."""
        yield from self.comm.barrier()

    # -- data movement -----------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < len(self.sizes):
            raise RankError(f"target rank {rank} outside the window's comm")

    def _check_range(self, rank: int, offset: int, n: int) -> None:
        if offset < 0 or offset + n > self.sizes[rank]:
            raise MPIError(
                f"access [{offset}, {offset + n}) outside rank {rank}'s "
                f"window of {self.sizes[rank]} B"
            )

    def _rdma(self, target: int, nbytes: int) -> Generator:
        """Charge one one-sided transfer: origin overhead + wire only."""
        fabric = self.comm.runtime.fabric
        src = self.comm.group.proc(self.comm.rank).node.node_id
        dst = self.comm.group.proc(target).node.node_id
        yield from fabric.transfer(src, dst, nbytes, rdma=True)

    def put(self, data: np.ndarray, target: int, offset: int = 0) -> Generator:
        """MPI_Put: write ``data`` into the target's region."""
        import numpy as np

        self._check_rank(target)
        buf = np.frombuffer(np.ascontiguousarray(data).tobytes(), dtype=np.uint8)
        self._check_range(target, offset, buf.size)
        yield from self._rdma(target, buf.size)
        self._regions[target][offset : offset + buf.size] = buf

    def get(
        self, target: int, nbytes: int, offset: int = 0
    ) -> Generator:
        """MPI_Get: read ``nbytes`` from the target's region."""
        self._check_rank(target)
        self._check_range(target, offset, nbytes)
        yield from self._rdma(target, nbytes)
        return self._regions[target][offset : offset + nbytes].copy()

    def accumulate(
        self, data: np.ndarray, target: int, offset: int = 0
    ) -> Generator:
        """MPI_Accumulate with SUM on float64 payloads."""
        import numpy as np

        self._check_rank(target)
        arr = np.ascontiguousarray(data, dtype=np.float64)
        nbytes = arr.nbytes
        self._check_range(target, offset, nbytes)
        if offset % 8 or nbytes % 8:
            raise MPIError("accumulate needs 8-byte aligned float64 ranges")
        yield from self._rdma(target, nbytes)
        view = self._regions[target][offset : offset + nbytes].view(np.float64)
        view += arr.ravel()

    def local_view(self, dtype="uint8") -> np.ndarray:
        """This rank's own exposed region (like MPI_Win_allocate's
        returned buffer)."""
        return self._regions[self.comm.rank].view(dtype)
