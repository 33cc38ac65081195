"""xPic: the Space Weather particle-in-cell co-design application.

A real 2D implicit-moment PIC implementation (field solver + particle
solver coupled through interface buffers, Fig 5 of the paper) plus the
partitioned drivers that run it across the simulated Cluster-Booster
machine in the paper's three evaluation modes.
"""

from ..._lazy import lazy_exports
from .config import SpeciesConfig, XpicConfig, table2_setup
from .driver import Mode, RunResult, normalize_mode, run_experiment
from .workload import (
    StepWorkload,
    build_workload,
    fields_nbytes,
    moments_nbytes,
)

# the numeric layer needs numpy: each of its names loads on first use,
# so a modelled run never imports numpy
lazy_exports(__name__, {
    ".fields": ["FieldSolver", "conjugate_gradient"],
    ".grid": ["Grid2D"],
    ".interface": [
        "pack_fields", "unpack_fields", "pack_moments", "unpack_moments",
    ],
    ".moments": ["deposit_moments", "deposit_scalar", "interpolate"],
    ".particles": ["Species", "maxwellian_species"],
    ".simulation": ["StepDiagnostics", "XpicSimulation"],
})

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
