"""Cold start: a fault-free run never imports networkx or numpy.

Every CLI command, every ``ProcessShard`` start or restart (a
``python -m repro serve`` child) and every journal-replay restart pays
its process's imports, and networkx plus numpy cost about as much as a
short C+B run.  numpy loads only where an array or a numpy RNG stream
is built (the real-physics layers, fault plans, job mixes); networkx
never: it is a test-only dependency, an oracle.  A run under
an explicit fault plan loads neither; an MTBF run loads numpy for its
Poisson stream.
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


def test_fault_free_run_imports_neither_networkx_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
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
