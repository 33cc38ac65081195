"""xPic: the Space Weather particle-in-cell co-design application.

A real 2D implicit-moment PIC implementation (field solver + particle
solver coupled through interface buffers, Fig 5 of the paper) plus the
partitioned drivers that run it across the simulated Cluster-Booster
machine in the paper's three evaluation modes.
"""

import importlib

from .config import SpeciesConfig, XpicConfig, table2_setup
from .driver import Mode, RunResult, normalize_mode, run_experiment
from .workload import (
    StepWorkload,
    build_workload,
    fields_nbytes,
    moments_nbytes,
)

#: the numeric layer, which needs numpy, by exported name -> module;
#: each name loads on first use (PEP 562), so a modelled run never
#: imports numpy
_NUMERIC = {
    "FieldSolver": "fields",
    "conjugate_gradient": "fields",
    "Grid2D": "grid",
    "pack_fields": "interface",
    "unpack_fields": "interface",
    "pack_moments": "interface",
    "unpack_moments": "interface",
    "deposit_moments": "moments",
    "deposit_scalar": "moments",
    "interpolate": "moments",
    "Species": "particles",
    "maxwellian_species": "particles",
    "StepDiagnostics": "simulation",
    "XpicSimulation": "simulation",
}


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_NUMERIC[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    "XpicConfig",
    "SpeciesConfig",
    "table2_setup",
    "Mode",
    "RunResult",
    "normalize_mode",
    "run_experiment",
    "FieldSolver",
    "conjugate_gradient",
    "Grid2D",
    "Species",
    "maxwellian_species",
    "XpicSimulation",
    "StepDiagnostics",
    "StepWorkload",
    "build_workload",
    "deposit_moments",
    "deposit_scalar",
    "interpolate",
    "pack_fields",
    "unpack_fields",
    "pack_moments",
    "unpack_moments",
    "fields_nbytes",
    "moments_nbytes",
]
