"""Microbenchmark — MPI exchange rounds per host second.

The xPic step is mostly send+receive rounds: the halo ``sendrecv``s and
the recursive-doubling ``allreduce``.  Each round is one
``MPIRuntime.exchange``: on an idle fabric a round message costs its
send's completion callback and one round event.  This bench times 8
ranks on one module running ``N_ROUNDS`` ring ``sendrecv``s, then
``N_ROUNDS`` 8-byte ``allreduce``s (3 rounds each at 8 ranks), and
archives rounds per second (one rank's send plus receive is one round)
so ``benchmarks/check_regression.py`` can gate a lost fast path in the
MPI layer, which the event-core and fabric benches do not exercise.
The bench itself fails when a round message takes more than its two
queue entries: a slip too small for the throughput floor's tolerance.
"""

import json
import pathlib
import time

from repro.bench import render_table
from repro.engine import preset_machine
from repro.mpi import MPIRuntime

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

RANKS = 8
N_ROUNDS = 500
REPEATS = 3


def _sendrecv_ring(ctx):
    comm = ctx.world
    up, down = (comm.rank + 1) % RANKS, (comm.rank - 1) % RANKS
    for _ in range(N_ROUNDS):
        yield from comm.sendrecv(None, dest=up, source=down, nbytes=4096)


def _allreduces(ctx):
    comm = ctx.world
    for _ in range(N_ROUNDS):
        yield from comm.allreduce(0.0)


def _rounds_per_sec(app, rounds_per_rank: int) -> float:
    """Best-of-REPEATS rounds per second of ``app`` on 8 Booster ranks.

    Also checks the round's shape, which timing noise cannot hide: each
    round message is exactly two queue entries (its send's completion
    callback and the round event), besides each rank's start and end.
    """
    best = 0.0
    for _ in range(REPEATS):
        machine = preset_machine("deep-er")
        rt = MPIRuntime(machine)
        rt.launch(app, machine.booster[:RANKS])
        t0 = time.perf_counter()
        machine.sim.run()
        elapsed = time.perf_counter() - t0
        messages = sum(m for m, _ in rt.traffic.values())
        assert messages == RANKS * rounds_per_rank
        assert machine.sim.events_processed == 2 * messages + 2 * RANKS
        best = max(best, messages / elapsed)
    return best


def test_mpi_rounds_per_sec(benchmark, report):
    sendrecv, allreduce = benchmark.pedantic(
        lambda: (
            _rounds_per_sec(_sendrecv_ring, N_ROUNDS),
            _rounds_per_sec(_allreduces, 3 * N_ROUNDS),
        ),
        rounds=1,
        iterations=1,
    )
    report(
        "mpi_rounds_per_sec",
        render_table(
            ["Operation", "rounds/s"],
            [
                ("sendrecv ring (4 KiB)", f"{sendrecv:,.0f}"),
                ("allreduce (8 B, 3 rounds)", f"{allreduce:,.0f}"),
            ],
            title=(
                f"MPI exchange rounds ({RANKS} ranks x {N_ROUNDS} "
                f"operations, best of {REPEATS})"
            ),
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "mpi_rounds_per_sec.json").write_text(
        json.dumps(
            {"mpi_rounds_per_sec": {"sendrecv": sendrecv, "allreduce": allreduce}},
            indent=2,
        )
    )
    assert sendrecv > 0 and allreduce > 0
