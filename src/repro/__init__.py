"""repro — reproduction of "Application performance on a Cluster-Booster
system" (Kreuzer, Eicker, Amaya, Suarez; IPDPS Workshops 2018).

The package models the DEEP-ER prototype in software and reimplements
the full stack the paper describes:

* :mod:`repro.sim`        — discrete-event simulation engine
* :mod:`repro.hardware`   — Table I node/machine models
* :mod:`repro.network`    — EXTOLL-like fabric (Fig 3)
* :mod:`repro.mpi`        — ParaStation-like global MPI with spawn (Fig 4)
* :mod:`repro.perfmodel`  — roofline/Amdahl kernel cost model
* :mod:`repro.jobs`       — modular resource management
* :mod:`repro.ompss`      — OmpSs-like task offload + resiliency
* :mod:`repro.io`         — BeeGFS / BeeOND / SIONlib models
* :mod:`repro.resiliency` — SCR-like multi-level checkpoint/restart
* :mod:`repro.nam`        — network attached memory
* :mod:`repro.apps.xpic`  — the xPic PIC application (Figs 5-8)
* :mod:`repro.partition`  — the canonical (optionally hierarchical)
  :class:`~repro.partition.Partition` type every layer shares
* :mod:`repro.engine`     — declarative experiment specs + run engine
* :mod:`repro.instrument` — cross-layer metrics hub
* :mod:`repro.store`      — tiered content-addressed result store
* :mod:`repro.autotune`   — model-guided partition autotuner
* :mod:`repro.serve`      — async experiment service (queue/coalesce/batch)
* :mod:`repro.fleet`      — sharded service fleet (cache-key routing,
  work stealing, fleet-wide metrics)
* :mod:`repro.api`        — the :class:`~repro.api.Session` facade
* :mod:`repro.report`     — unified schema-tagged report protocol
* :mod:`repro.bench`      — benchmark harnesses per table/figure

:class:`~repro.api.Session` is the documented entry point::

    from repro import Session

    report = Session().run(mode="cb", steps=100)
"""

__version__ = "2.0.0"

from ._lazy import lazy_exports

# each name loads its layer on first use (PEP 562), so ``import repro``
# costs nothing and a process compiles only the layers it runs
lazy_exports(__name__, {
    ".api": ["Session"],
    ".engine": ["Engine", "ExperimentSpec", "RunReport", "SweepReport"],
    ".hardware": ["Machine", "build_deep_er_prototype"],
    ".instrument": ["MetricsHub"],
    ".partition": ["Partition"],
    ".report": ["load_report", "report_from_dict"],
    ".serve": ["ExperimentService", "QueueFull"],
    ".sim": ["Simulator"],
})

__all__ = [
    "Session",
    "Simulator",
    "Machine",
    "build_deep_er_prototype",
    "Engine",
    "ExperimentSpec",
    "Partition",
    "RunReport",
    "SweepReport",
    "MetricsHub",
    "ExperimentService",
    "QueueFull",
    "load_report",
    "report_from_dict",
    "__version__",
]
