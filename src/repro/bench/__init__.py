"""Benchmark harness utilities: ping-pong, runners, table rendering."""

from .._lazy import lazy_exports

# each name loads its module on first use: ``repro validate`` runs the
# Fig 8 sweep without the Fig 3 ping-pong harness
lazy_exports(__name__, {
    ".pingpong": [
        "PingPongPoint",
        "fig3_series",
        "fig3_sizes_bandwidth",
        "fig3_sizes_latency",
        "pingpong",
    ],
    ".runners": [
        "FIG78_STEPS", "Fig7Result", "Fig8Result", "run_fig7", "run_fig8",
    ],
    ".tables": ["render_series", "render_table"],
})

__all__ = [
    "pingpong",
    "fig3_series",
    "fig3_sizes_latency",
    "fig3_sizes_bandwidth",
    "PingPongPoint",
    "run_fig7",
    "run_fig8",
    "Fig7Result",
    "Fig8Result",
    "FIG78_STEPS",
    "render_table",
    "render_series",
]
