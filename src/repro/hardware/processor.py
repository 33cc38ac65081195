"""Processor models.

A :class:`Processor` captures exactly the architectural parameters the
paper credits for the Cluster/Booster performance asymmetry:

* peak floating-point throughput (cores x frequency x flops/cycle) —
  favours the Booster's KNL (wider vectors, more cores);
* single-thread performance (frequency x scalar IPC) — favours the
  Cluster's Haswell (higher clock, aggressive out-of-order core).

These two axes drive the xPic field-solver (latency/serial-bound) vs
particle-solver (throughput-bound) placement result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Processor", "HASWELL_E5_2680V3", "KNL_7210"]


@dataclass(frozen=True)
class Processor:
    """Static description of a node's processor complex.

    Attributes
    ----------
    model:
        Marketing name, e.g. ``"Intel Xeon E5-2680 v3"``.
    microarchitecture:
        e.g. ``"Haswell"`` or ``"Knights Landing (KNL)"``.
    sockets:
        Sockets per node.
    cores:
        Physical cores per node (all sockets).
    threads:
        Hardware threads per node.
    frequency_hz:
        Nominal core clock.
    flops_per_cycle:
        Peak double-precision flops per cycle per core
        (vector width x FMA x pipes).
    scalar_ipc:
        Sustained scalar instructions-per-cycle relative to a simple
        in-order core (~1.0 for KNL's Silvermont-derived core, ~3.0 for
        Haswell).  Used for serial / latency-bound code sections.
    """

    model: str
    microarchitecture: str
    sockets: int
    cores: int
    threads: int
    frequency_hz: float
    flops_per_cycle: int
    scalar_ipc: float

    def __post_init__(self):
        if self.cores < 1 or self.sockets < 1 or self.threads < self.cores:
            raise ValueError("inconsistent core/socket/thread counts")
        if self.frequency_hz <= 0 or self.flops_per_cycle <= 0 or self.scalar_ipc <= 0:
            raise ValueError("processor rates must be positive")

    @property
    def peak_flops(self) -> float:
        """Peak DP flop/s of the whole node."""
        return self.cores * self.frequency_hz * self.flops_per_cycle

    @property
    def single_thread_perf(self) -> float:
        """Relative single-thread performance (frequency x scalar IPC)."""
        return self.frequency_hz * self.scalar_ipc


#: Cluster node processor (2 sockets, Table I): 24 cores @ 2.5 GHz, AVX2+FMA
#: -> 16 DP flops/cycle/core -> 0.96 TFlop/s per node, 16 nodes ~ 16 TFlop/s.
HASWELL_E5_2680V3 = Processor(
    model="Intel Xeon E5-2680 v3",
    microarchitecture="Haswell",
    sockets=2,
    cores=24,
    threads=48,
    frequency_hz=2.5e9,
    flops_per_cycle=16,
    scalar_ipc=3.0,
)

#: Booster node processor (Table I): 64 cores @ 1.3 GHz, dual AVX-512 VPUs
#: -> 32 DP flops/cycle/core -> 2.66 TFlop/s per node, 8 nodes ~ 20 TFlop/s.
KNL_7210 = Processor(
    model="Intel Xeon Phi 7210",
    microarchitecture="Knights Landing (KNL)",
    sockets=1,
    cores=64,
    threads=256,
    frequency_hz=1.3e9,
    flops_per_cycle=32,
    scalar_ipc=0.95,
)
