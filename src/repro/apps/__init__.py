"""Co-design applications (section IV) behind a name-keyed registry.

Two workloads ship today — :mod:`repro.apps.xpic` (the Space Weather
particle-in-cell code, Figs 5-8) and :mod:`repro.apps.seismic` (the
full-waveform-inversion stencil) — and each registers an engine runner
under its name via :mod:`repro.apps.registry`.  ``ExperimentSpec``,
the engine dispatch, and the CLI all resolve apps through
:func:`get_app`/:func:`available_apps`, so future ROADMAP workloads
plug in by registering themselves rather than editing the engine.
An app's module loads on its first :func:`get_app`, so a process that
runs only xPic never imports the seismic app.
"""

from .registry import App, available_apps, get_app, register

__all__ = ["App", "available_apps", "get_app", "register"]
