"""Tests for the repro.api Session facade and the spec/cache
hardening that shipped with it."""

import importlib
import json
import tempfile
import warnings

import pytest

import repro
from repro.api import Session
from repro.apps.xpic import Mode, XpicConfig, run_experiment
from repro.apps.xpic.resilient_driver import run_resilient_experiment
from repro.backoff import ExponentialBackoff
from repro.bench import run_fig7
from repro.engine import Engine, ExperimentSpec
from repro.fleet import FleetRouter, LocalShard, ProcessShard
from repro.hardware import Processor, build_deep_er_prototype
from repro.instrument import MetricsHub
from repro.jobs import AcceleratedNodeAllocator, Job
from repro.mpi import FAULT_RUN_POLICY, FaultTolerancePolicy, MPIRuntime
from repro.network import Fabric, Topology
from repro.partition import Partition
from repro.resiliency import FaultPlan, MalleabilityPolicy
from repro.serve import ExperimentService, serve_jobdir
from repro.sim.trace import Tracer
from repro.store import ResultCache


def canon(report):
    """Report JSON minus host wall-clock telemetry (the determinism
    suite's bit-identity comparison)."""
    d = report.to_dict()
    for key in ("wall_time_s", "events_per_sec", "host_wall_s"):
        d["sim"].pop(key, None)
    return json.dumps(d, sort_keys=True)


def test_session_is_the_package_front_door():
    assert repro.Session is Session
    assert "Session" in repro.__all__


def test_session_run_matches_engine_bit_for_bit():
    spec = ExperimentSpec(mode="cb", steps=5)
    assert canon(Session().run(spec)) == canon(Engine().run(spec))


def test_session_run_accepts_spec_fields_directly():
    report = Session().run(mode="cluster", steps=4)
    assert report.result["mode"] == "Cluster"
    with pytest.raises(TypeError, match="not both"):
        Session().run(ExperimentSpec(steps=4), mode="cb")


def test_session_sweep_matches_engine_and_respects_override():
    specs = [ExperimentSpec(mode=m, steps=4) for m in ("cluster", "cb")]
    ours = Session(workers=1).sweep(specs, workers=1)
    theirs = Engine().run_many(specs, workers=1)
    assert [canon(r) for r in ours.reports] == [
        canon(r) for r in theirs.reports
    ]


def test_session_cache_is_shared_across_verbs(tmp_path):
    session = Session(cache=tmp_path / "store")
    assert isinstance(session.cache, ResultCache)
    spec = ExperimentSpec(mode="cb", steps=4)
    first = session.run(spec)
    second = session.run(spec)
    assert session.cache.hits == 1
    assert first.to_json() == second.to_json()
    assert session.cache_stats()["entries"] == 1
    assert Session().cache_stats() == {}


def test_session_specs_cross_product():
    specs = Session().specs(
        steps=4, mode=["cluster", "cb"], nodes_per_solver=[1, 2]
    )
    assert len(specs) == 4
    assert {(s.mode, s.nodes_per_solver) for s in specs} == {
        ("Cluster", 1), ("Cluster", 2), ("C+B", 1), ("C+B", 2),
    }
    (single,) = Session().specs(steps=7)
    assert single.steps == 7


def test_session_tune_runs_through_bound_stack(tmp_path):
    from repro.autotune import TuneSpace

    report = Session(cache=tmp_path / "store").tune(
        space=TuneSpace(node_counts=(1,)),
        steps=6,
        generations=1,
        population=2,
        baseline=False,
    )
    assert report.best_runtime_s > 0
    assert report.cache  # session cache counters rode along


def test_session_machine_builds_preset():
    machine = Session().machine()
    assert machine.cluster and machine.booster


def test_session_rejects_bad_workers():
    with pytest.raises(ValueError, match="workers"):
        Session(workers=0)


def test_engine_run_many_rejects_bad_workers():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        Engine().run_many([ExperimentSpec(steps=3)], workers=0)
    with pytest.raises(ValueError, match="got -1"):
        Engine().run_many([ExperimentSpec(steps=3)], workers=-1)


def test_cache_prune_zero_empties_without_underflow(tmp_path):
    cache = ResultCache(tmp_path / "store")
    for steps in (3, 4):
        Engine().run(ExperimentSpec(steps=steps), cache=cache)
    assert cache.stats()["entries"] == 2
    outcome = cache.prune(max_bytes=0)
    assert outcome["removed"] == 2
    assert outcome["kept"] == 0
    assert cache.stats()["entries"] == 0
    # pruning an already-empty store is a no-op, not an underflow
    assert cache.prune(max_bytes=0)["removed"] == 0


def test_cache_prune_negative_budget_raises(tmp_path):
    with pytest.raises(ValueError, match="negative"):
        ResultCache(tmp_path / "store").prune(max_bytes=-1)


def test_spec_keyword_args_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        spec = ExperimentSpec(preset="deep-er", mode="cb", steps=5)
    assert spec.steps == 5


def _attr(module, name):
    return lambda: getattr(importlib.import_module(module), name)


def _coupled_with_ratio():
    m = build_deep_er_prototype()
    pools = {"cluster": m.cluster, "booster": m.booster}
    return AcceleratedNodeAllocator(pools, boosters_per_host=0.5)


def _driver_with(**kwargs):
    return lambda: run_experiment(
        build_deep_er_prototype(), ExperimentSpec(mode="cb", steps=5), **kwargs
    )


def _resilient_with(**kwargs):
    return lambda: run_resilient_experiment(
        build_deep_er_prototype(), ExperimentSpec(mode="cb", steps=5), **kwargs
    )


#: the run inputs the xPic drivers took as keywords before they read
#: them from their spec, one valid value each
_DRIVER_KEYWORDS = {
    "mode": Mode.CB,
    "config": XpicConfig(),
    "nodes_per_solver": 1,
    "overlap": True,
    "swap_placement": False,
    "load_balanced": False,
    "imbalance_alpha": 0.2,
    "partition": Partition(1, 1),
}
_SUPERVISOR_KEYWORDS = {
    **_DRIVER_KEYWORDS,
    "fault_plan": FaultPlan(),
    "mtbf_s": 3600.0,
    "fault_seed": 1,
    "ckpt_interval_s": 1.0,
    "policy": MalleabilityPolicy(),
}


def _local_shard_heartbeat_interval():
    # the shard sets its service's interval itself and refuses the
    # keyword at construction
    with tempfile.TemporaryDirectory() as root:
        LocalShard("s", root, heartbeat_interval_s=0.25)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ExperimentSpec("deep-er"), TypeError),
        (lambda: Partition.coerce((4, 4)), TypeError),
        (lambda: importlib.import_module("repro.cache"), ModuleNotFoundError),
        (lambda: run_fig7(workers=2), TypeError),
        (lambda: Session().tune(nested=True), TypeError),
        (_attr("repro.network", "build_two_level_topology"), AttributeError),
        (_attr("repro.network", "CLUSTER_SWITCH"), AttributeError),
        (_attr("repro.network", "BOOSTER_SWITCH"), AttributeError),
        (_attr("repro.modular", "ModularMachine"), AttributeError),
        (_attr("repro.modular", "ModularJob"), AttributeError),
        (_attr("repro.modular", "MultiModuleAllocator"), AttributeError),
        (_attr("repro.modular", "ModularScheduler"), AttributeError),
        (_attr("repro.modular", "build_modular_system"), AttributeError),
        (lambda: importlib.import_module("repro.modular.machine"),
         ModuleNotFoundError),
        (lambda: importlib.import_module("repro.modular.scheduler"),
         ModuleNotFoundError),
        (_coupled_with_ratio, TypeError),
        (lambda: Job("j", 4, 2, 100.0), TypeError),
        (lambda: FaultTolerancePolicy(timeout_s=1.0), TypeError),
        (lambda: FaultTolerancePolicy(jitter=0.1), TypeError),
        (lambda: FaultTolerancePolicy(jitter_seed=1), TypeError),
        (lambda: FaultTolerancePolicy(backoff_factor=3.0), TypeError),
        (_attr("repro.mpi", "TransportTimeoutError"), AttributeError),
        (_attr("repro.mpi.errors", "TransportTimeoutError"), AttributeError),
        (_attr("repro.resiliency", "FailureModel"), AttributeError),
        (_attr("repro.resiliency.failure", "FailureModel"), AttributeError),
        (lambda: MPIRuntime(build_deep_er_prototype()).send_count,
         AttributeError),
        (_resilient_with(transport_policy=FAULT_RUN_POLICY), TypeError),
        (lambda: ExponentialBackoff(jitter=0.1), TypeError),
        (lambda: ExperimentService.submit_many, AttributeError),
        (lambda: Fabric.wire_time, AttributeError),
        (lambda: Topology.links_on_path, AttributeError),
        (lambda: Processor.cores_total, AttributeError),
        (_attr("repro.store.index", "fsync_dir"), AttributeError),
        (lambda: Engine().run_many([], chunksize=1), TypeError),
        (lambda: ExperimentService(max_batch=8), TypeError),
        (lambda: ExperimentService(target_batch_s=2.0), TypeError),
        (lambda: ExperimentService(autorecover=False), TypeError),
        (lambda: ExperimentService.recover, AttributeError),
        (lambda: serve_jobdir("jobs", service=None), TypeError),
        (lambda: serve_jobdir("jobs", engine=None), TypeError),
        (_local_shard_heartbeat_interval, TypeError),
        (lambda: ProcessShard("p", "p", startup_grace_s=1.0), TypeError),
        (lambda: ProcessShard("p", "p", extra_args=()), TypeError),
        (lambda: ProcessShard("p", "p", env={}), TypeError),
        (lambda: FleetRouter([], replicas=64), TypeError),
        (lambda: FleetRouter([], collect_interval_s=0.004), TypeError),
        (_attr("repro.fleet.frontend", "_WAIT_POLL_S"), AttributeError),
        (lambda: Tracer.to_chrome_trace, AttributeError),
        (_resilient_with(fault_targets=["bn00"]), TypeError),
        (_resilient_with(max_epochs=5), TypeError),
        (lambda: MetricsHub.attach, AttributeError),
    ]
    + [
        (_driver_with(**{k: v}), TypeError)
        for k, v in _DRIVER_KEYWORDS.items()
    ]
    + [
        (_resilient_with(**{k: v}), TypeError)
        for k, v in _SUPERVISOR_KEYWORDS.items()
    ],
    ids=[
        "positional-spec",
        "tuple-partition",
        "cache-module",
        "run_fig7-workers",
        "tune-nested",
        "two-level-topology",
        "cluster-switch",
        "booster-switch",
        "modular-machine",
        "modular-job",
        "multi-module-allocator",
        "modular-scheduler",
        "modular-builder-path",
        "modular-machine-module",
        "modular-scheduler-module",
        "boosters-per-host",
        "positional-job",
        "transport-timeout",
        "transport-jitter",
        "transport-jitter-seed",
        "transport-backoff-factor",
        "transport-timeout-error",
        "transport-timeout-error-module",
        "failure-model",
        "failure-model-module",
        "runtime-send-count",
        "resilient-transport-policy",
        "backoff-jitter",
        "service-submit-many",
        "fabric-wire-time",
        "topology-links-on-path",
        "processor-cores-total",
        "index-fsync-dir",
        "run_many-chunksize",
        "service-max-batch",
        "service-target-batch",
        "service-autorecover",
        "service-recover",
        "serve_jobdir-service",
        "serve_jobdir-engine",
        "local-shard-heartbeat-interval",
        "process-shard-startup-grace",
        "process-shard-extra-args",
        "process-shard-env",
        "router-replicas",
        "router-collect-interval",
        "frontend-wait-poll",
        "tracer-chrome-trace",
        "resilient-fault-targets",
        "resilient-max-epochs",
        "metrics-hub-attach",
    ]
    + [f"driver-{k.replace('_', '-')}" for k in _DRIVER_KEYWORDS]
    + [f"resilient-{k.replace('_', '-')}" for k in _SUPERVISOR_KEYWORDS],
)
def test_removed_spellings_stay_removed(call, error):
    """Each input has one spelling since 2.0: the old ones fail loudly
    instead of running (a positional spec, a bare tuple, the
    ``repro.cache`` path, the runners' engine/workers/cache keywords,
    ``Session.tune(nested=)``, the second machine builder and job
    scheduler with their names, the host-coupling ratio option, the
    positional ``Job(name, n_cluster, n_booster, duration)``, and the
    fault stack's spares: the transport timeout race with its error,
    retry jitter and its send numbering, the custom backoff factor, the
    second Poisson injector and the supervisor's own transport policy),
    the backoff's proportional jitter, four methods nothing called,
    ``fsync_dir``'s old home (it lives in :mod:`repro.durable`), the
    serving settings nothing set (now constants, or built in by
    ``serve_jobdir``), the service's public ``recover`` (construction
    replays the journal), the tracer's second Chrome-trace exporter,
    the fleet's two resolution timers (fleet jobs resolve when
    their shard jobs do), the supervisor's fault-target and epoch-cap
    settings nothing set (it always targets the current launch nodes;
    the cap is ``MAX_EPOCHS``), the metrics hub's second way to add a
    layer after construction, and the xPic drivers' keyword copies of
    spec fields (both drivers read every run input from their spec)."""
    with pytest.raises(error):
        call()


def test_session_query_and_aggregate(tmp_path):
    s = Session(cache=tmp_path / "store")
    for steps in (3, 4):
        s.run(mode="cb", steps=steps)
    rows = s.query(where=["mode=C+B"])
    assert {r["steps"] for r in rows} == {3, 4}
    agg = s.aggregate("total_runtime", where="steps>=4")
    assert agg["count"] == 1 and agg["mean"] > 0


def test_session_aggregate_group_by(tmp_path):
    s = Session(cache=tmp_path / "store")
    for mode, steps in (("cluster", 3), ("booster", 3), ("cb", 4)):
        s.run(mode=mode, steps=steps)
    agg = s.aggregate("total_runtime", group_by="mode")
    assert agg["group_by"] == "mode"
    groups = {g["group"]: g["count"] for g in agg["groups"]}
    assert groups == {"Booster": 1, "C+B": 1, "Cluster": 1}
    assert sum(groups.values()) == agg["count"] == 3


def test_session_query_without_cache_raises():
    with pytest.raises(ValueError, match="no result cache"):
        Session().query()
    with pytest.raises(ValueError, match="no result cache"):
        Session().aggregate("total_runtime")
