"""Seismic imaging substrate: a *monolithic* co-design application.

The counterpoint to xPic (section IV): a single tightly-coupled
stencil kernel with no separable phases — it should pick its best
module and stay there.
"""

from .driver import SeismicPlacement, SeismicResult, run_seismic, stencil_kernel

__all__ = [
    "AcousticWave2D",
    "ricker_wavelet",
    "SeismicPlacement",
    "SeismicResult",
    "run_seismic",
    "stencil_kernel",
]


def __getattr__(name):
    # the numeric solver needs numpy: it loads on first use (PEP 562),
    # so a modelled run never imports numpy
    if name not in ("AcousticWave2D", "ricker_wavelet"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import kernel

    value = getattr(kernel, name)
    globals()[name] = value
    return value
