"""Supporting study — MPI collective costs on the two modules.

Not a paper figure, but the quantity behind two of its claims: the
field solver's "substantial and frequent global communication" is
latency-bound collectives, and those are more expensive on the Booster
(slow cores processing the MPI stack — footnote 1).  Measures
barrier/allreduce/bcast time against group size on each module.
"""

import pytest

from repro.bench import render_series
from repro.engine import preset_machine
from repro.mpi import MPIRuntime

SIZES = [2, 4, 8, 16]


def timed_collective(module, op, size, payload_bytes=8):
    machine = preset_machine()
    pool = machine.cluster if module == "cluster" else machine.booster
    if size > len(pool):
        return None
    rt = MPIRuntime(machine)

    def app(ctx):
        comm = ctx.world
        import numpy as np

        data = np.zeros(payload_bytes // 8)
        t0 = ctx.sim.now
        for _ in range(10):
            if op == "barrier":
                yield from comm.barrier()
            elif op == "allreduce":
                yield from comm.allreduce(data)
            elif op == "bcast":
                yield from comm.bcast(data if comm.rank == 0 else None, root=0)
        return (ctx.sim.now - t0) / 10

    results = rt.run_app(app, pool[:size])
    return max(results)


def test_collective_scaling(benchmark, report):
    def sweep():
        out = {}
        for module in ("cluster", "booster"):
            for op in ("barrier", "allreduce", "bcast"):
                out[(module, op)] = [
                    timed_collective(module, op, s) for s in SIZES
                ]
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    series = {  # None: the module has too few nodes for that size
        f"{module} {op}": [
            (t * 1e6 if t is not None else None)
            for t in results[(module, op)]
        ]
        for (module, op) in results
    }
    report(
        "collectives_scaling",
        render_series(
            "Ranks",
            SIZES,
            series,
            title="Small-message collective time [us] vs group size",
            fmt="{:.2f}",
        ),
    )

    for op in ("barrier", "allreduce", "bcast"):
        cl = results[("cluster", op)]
        bo = results[("booster", op)]
        # cost grows with group size
        assert cl[0] < cl[1] < cl[2] < cl[3]
        # the Booster pays more per collective (MPI latency 1.8 vs 1.0 us)
        for c, b in zip(cl, bo):
            if b is not None:
                assert b > c
    # recursive doubling (allreduce) and dissemination (barrier) are
    # log p rounds of parallel exchanges: 16 ranks ~ 4 rounds ~ 4x the
    # 2-rank cost on full-duplex links
    for op in ("allreduce", "barrier"):
        cl = results[("cluster", op)]
        assert cl[3] < 5 * cl[0]
    # the binomial bcast's root serializes its log p sends, so its
    # critical path grows faster — but still far below linear (16x)
    cl_bcast = results[("cluster", "bcast")]
    assert cl_bcast[3] < 10 * cl_bcast[0]
