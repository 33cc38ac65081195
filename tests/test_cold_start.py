"""Cold start: a process imports only the layers it runs.

Every CLI command, every ``ProcessShard`` start or restart (a
``python -m repro serve`` child) and every journal-replay restart pays
its process's imports, and networkx plus numpy cost about as much as a
short C+B run.  numpy loads only where an array or a numpy RNG stream
is built (the real-physics layers, fault plans, job mixes); networkx
never: it is a test-only dependency, an oracle.  A run under
an explicit fault plan loads neither; an MTBF run loads numpy for its
Poisson stream.

Within ``repro`` itself, packages export their names lazily
(``repro._lazy``) and the app registry imports an app on its first
lookup, so a fault-free run compiles neither the fault stack, the TCP
fleet, the I/O models nor the seismic app.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile

    import repro, repro.cli, repro.engine, repro.fleet, repro.serve
    import repro.store, repro.resiliency, repro.validate
    from repro.engine import Engine, ExperimentSpec
    from repro.fleet import FleetRouter, LocalShard
    from repro.resiliency import FaultEvent, FaultPlan

    def heavy():
        return sorted({"networkx", "numpy"} & set(sys.modules))

    assert heavy() == [], f"imports load {heavy()}"
    clean = Engine().run(ExperimentSpec(mode="C+B", nodes_per_solver=2, steps=5))
    assert clean.result["total_runtime"] > 0
    assert heavy() == [], f"a fault-free run loads {heavy()}"

    with tempfile.TemporaryDirectory() as root:
        shards = [LocalShard(f"s{i}", f"{root}/s{i}") for i in range(2)]
        with FleetRouter(shards, steal_threshold=None) as router:
            specs = [ExperimentSpec(mode="C+B", nodes_per_solver=1, steps=s)
                     for s in (3, 4)]
            for spec in specs + specs:  # cold, then warm from the store
                assert router.submit(spec).result(timeout=60) is not None
    assert heavy() == [], f"a fleet pass loads {heavy()}"

    plan = FaultPlan([FaultEvent(time_s=0.4, kind="node_crash", target="bn01")])
    faulted = Engine().run(ExperimentSpec(
        mode="C+B", nodes_per_solver=2, steps=20,
        fault_plan=plan.to_dict(), ckpt_interval_s=0.2,
    ))
    assert faulted.resiliency["restarts"] == 1, faulted.resiliency
    assert faulted.resiliency["post_fault"]["steps"] == 20
    assert heavy() == [], f"a run under an explicit fault plan loads {heavy()}"

    # a Poisson crash stream draws from numpy's generator
    streamed = Engine().run(ExperimentSpec(
        mode="C+B", nodes_per_solver=1, steps=5, mtbf_s=5.0,
    ))
    assert streamed.result["total_runtime"] > 0
    assert heavy() == ["numpy"], f"an MTBF run loads {heavy()}"
    """
)


LAYERS_SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys
    import tempfile
    import threading

    # the e2e benchmark's imports
    import repro, repro.engine, repro.serve, repro.store, repro.validate
    from repro.engine import Engine, ExperimentSpec
    from repro.fleet import FleetRouter, LocalShard, invariant_holds
    from repro.resiliency import FaultEvent, FaultPlan

    DEFERRED = [
        "asyncio", "ssl", "repro.fleet.frontend", "repro.fleet.client",
        "repro.fleet.protocol", "repro.apps.seismic",
        "repro.apps.xpic.resilient_driver", "repro.resiliency.scr",
        "repro.resiliency.malleable", "repro.resiliency.failure",
        "repro.io", "repro.nam", "repro.mpi.cart", "repro.mpi.mpiio",
        "repro.mpi.rma", "repro.store.query", "repro.bench.pingpong",
        "repro.bench.tables", "repro.autotune",
    ]

    def loaded(names):
        return [name for name in names if name in sys.modules]

    assert loaded(DEFERRED) == [], f"imports load {loaded(DEFERRED)}"
    clean = Engine().run(ExperimentSpec(mode="C+B", nodes_per_solver=2, steps=5))
    assert clean.result["total_runtime"] > 0
    assert loaded(DEFERRED) == [], f"a fault-free run loads {loaded(DEFERRED)}"

    import repro.cli
    cli = ["asyncio", "repro.fleet.frontend", "repro.fleet.client",
           "repro.autotune"]
    assert loaded(cli) == [], f"import repro.cli loads {loaded(cli)}"

    # racing first uses all get the one object
    from repro.apps import get_app

    def race(first_use, n=8):
        barrier = threading.Barrier(n, timeout=30)
        got = []

        def worker():
            barrier.wait()
            got.append(first_use())

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(got) == n and all(g is got[0] for g in got), got
        return got[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert race(lambda: get_app("seismic")) is get_app("seismic")
        for package, name in [("repro.mpi", "Window"), ("repro.io", "BeeGFS"),
                              ("repro.store", "run_query"),
                              ("repro.fleet", "FleetClient")]:
            module = importlib.import_module(package)  # names stay unloaded
            assert race(lambda: getattr(module, name)) is getattr(module, name)
    finally:
        sys.setswitchinterval(interval)

    # the deferred paths still work
    plan = FaultPlan([FaultEvent(time_s=0.4, kind="node_crash", target="bn01")])
    faulted = Engine().run(ExperimentSpec(
        mode="C+B", nodes_per_solver=2, steps=20,
        fault_plan=plan.to_dict(), ckpt_interval_s=0.2,
    ))
    assert faulted.resiliency["restarts"] == 1, faulted.resiliency
    seismic = Engine().run(ExperimentSpec(app="seismic", mode="Booster", steps=5))
    assert seismic.result["app"] == "seismic"
    assert seismic.result["total_runtime"] > 0

    from repro.fleet import FleetClient, FleetFrontEnd
    with tempfile.TemporaryDirectory() as root:
        with FleetRouter([LocalShard("s0", f"{root}/s0")]) as router:
            with FleetFrontEnd(router) as front:
                with FleetClient(front.address, timeout_s=30) as client:
                    assert client.ping()
                    job = client.submit(ExperimentSpec(mode="C+B", steps=3))
                    assert job.result().total_runtime > 0
                    assert invariant_holds(client.status()["fleet"])

    # every exported name of every package resolves, through import *
    # too, and is listed by dir()
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    for package in packages:
        names = getattr(package, "__all__", [])
        star = {}
        exec(f"from {package.__name__} import *", star)
        for name in names:
            assert star[name] is getattr(package, name), (package, name)
            assert name in dir(package), (package, name)
    """
)


def _run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )


def test_fault_free_run_imports_neither_networkx_nor_numpy():
    proc = _run_fresh(SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_fault_free_run_loads_only_the_layers_it_runs():
    """The benchmark's imports and a fault-free C+B run load none of
    the deferred layers, nor does ``import repro.cli`` load the fleet's
    TCP side or the autotuner; afterwards each deferred path works, the
    first uses racing threads make agree, and every package's
    ``__all__`` resolves."""
    proc = _run_fresh(LAYERS_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_no_module_of_the_package_imports_networkx():
    """networkx is installed only with the ``test`` extra, so no module
    under ``src/repro`` may import it, at module level or in a
    function."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
