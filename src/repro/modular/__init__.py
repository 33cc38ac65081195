"""Modular Supercomputing: the DEEP-EST generalization (section VI).

Any number of compute modules — Cluster and Booster are two — behind a
unified fabric and resource manager, so "codes and work-flows [can]
run distributed over the whole machine".  The machine builder
(:func:`repro.hardware.build_modular_system`) and the batch scheduler
(:mod:`repro.jobs`) take any number of modules; this package adds the
Data Analytics Module spec and declarative machine config files.
"""

from .config_io import (
    load_config,
    machine_from_config,
    machine_to_config,
    save_config,
)
from .spec import data_analytics_module

__all__ = [
    "data_analytics_module",
    "machine_to_config",
    "machine_from_config",
    "save_config",
    "load_config",
]
