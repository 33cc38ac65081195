"""Seismic imaging substrate: a *monolithic* co-design application.

The counterpoint to xPic (section IV): a single tightly-coupled
stencil kernel with no separable phases — it should pick its best
module and stay there.
"""

from ..._lazy import lazy_exports
from .driver import SeismicPlacement, SeismicResult, run_seismic, stencil_kernel

# the numeric solver needs numpy: it loads on first use, so a modelled
# run never imports numpy
lazy_exports(__name__, {
    ".kernel": ["AcousticWave2D", "ricker_wavelet"],
})

__all__ = [
    "AcousticWave2D",
    "ricker_wavelet",
    "SeismicPlacement",
    "SeismicResult",
    "run_seismic",
    "stencil_kernel",
]
