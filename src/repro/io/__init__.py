"""The DEEP-ER I/O software stack (section III-C).

BeeGFS-like parallel file system, BeeOND-like NVMe cache domain, and
SIONlib-like task-local I/O aggregation, all running against the
simulated machine and fabric.
"""

from .._lazy import lazy_exports

# each name loads its module on first use: only checkpointing, MPI-IO
# and the I/O claims build a file system model
lazy_exports(__name__, {
    ".beegfs": ["BeeGFS", "DegradedError", "FileNotFound"],
    ".beeond": ["BeeondCache", "CacheMode"],
    ".sionlib": ["SIONFile", "buddy_write", "write_task_local"],
})

__all__ = [
    "BeeGFS",
    "FileNotFound",
    "DegradedError",
    "BeeondCache",
    "CacheMode",
    "SIONFile",
    "write_task_local",
    "buddy_write",
]
