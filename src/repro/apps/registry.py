"""Decorator-based registry of co-design applications.

The engine used to hard-code its app dispatch (``if spec.app ==
"xpic": ... else: ...``), which meant every new ROADMAP workload had
to edit :mod:`repro.engine`, the CLI's ``--app`` choices, and the spec
validation by hand.  Apps now *register themselves*: each app package
ships an ``app.py`` that wraps its driver in a runner with the uniform
signature

    runner(spec, machine, runtime, tracer)
        -> (result_obj, result_dict, resiliency_dict, malleability_dict)

and decorates it with :func:`register`.  ``ExperimentSpec`` validation,
the engine dispatch, and the CLI's ``--app`` choices all resolve
through :func:`get_app`/:func:`available_apps`, so adding a workload is
one new package plus one decorator.  A shipped app's module is
imported on its first :func:`get_app` (see :data:`_APP_MODULES`), so a
process loads only the apps it runs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict

__all__ = ["App", "available_apps", "get_app", "register"]


@dataclass(frozen=True)
class App:
    """One registered application and its engine-facing capabilities."""

    name: str
    #: ``(spec, machine, runtime, tracer) -> (result_obj, result_dict,
    #: resiliency_dict, malleability_dict)``
    runner: Callable
    #: maps any accepted mode spelling to its canonical string value
    normalize_mode: Callable[[object], str]
    #: whether the app wires up the fault-injected run path
    supports_resiliency: bool = False
    #: whether the app wires up the re-tune (re-partitioning) recovery
    supports_malleability: bool = False


_REGISTRY: Dict[str, App] = {}

#: the module whose :func:`register` call registers each shipped app;
#: :func:`get_app` imports it on the app's first lookup
_APP_MODULES: Dict[str, str] = {
    "seismic": "repro.apps.seismic.app",
    "xpic": "repro.apps.xpic.app",
}


def register(
    name: str,
    *,
    normalize_mode: Callable[[object], str],
    supports_resiliency: bool = False,
    supports_malleability: bool = False,
):
    """Class/function decorator registering an app runner under ``name``."""

    def decorate(runner: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"app {name!r} is already registered")
        _REGISTRY[name] = App(
            name=name,
            runner=runner,
            normalize_mode=normalize_mode,
            supports_resiliency=supports_resiliency,
            supports_malleability=supports_malleability,
        )
        return runner

    return decorate


def get_app(name: str) -> App:
    """Look an app up by name, importing a shipped app's module on its
    first lookup; raises ``ValueError`` for unknown names."""
    app = _REGISTRY.get(name)
    if app is None and name in _APP_MODULES:
        # the import lock runs the module once, so racing first lookups
        # all find the one App it registered
        importlib.import_module(_APP_MODULES[name])
        app = _REGISTRY.get(name)
    if app is None:
        raise ValueError(
            f"unknown app {name!r} (registered: {available_apps()})"
        )
    return app


def available_apps() -> list:
    """Sorted names of every registered or shipped app."""
    return sorted(set(_REGISTRY) | set(_APP_MODULES))
