"""NoC platform model: tiles, topology, routing, and the ACG.

The ACG (paper, Definition 2) exposes, for every ordered PE pair, the
route, the per-bit energy ``e(r_ij)`` (Eq. 2) and the bandwidth
``b(r_ij)``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.arch.acg": ("ACG",),
        "repro.arch.energy": ("BitEnergyModel",),
        "repro.arch.pe": ("PE", "PEType", "STANDARD_PE_TYPES", "pe_type"),
        "repro.arch.presets": ("hetero_mesh", "mesh_2x2", "mesh_3x3", "mesh_4x4"),
        "repro.arch.routing": (
            "ROUTING_ALGORITHMS",
            "RoutingAlgorithm",
            "XYRouting",
            "YXRouting",
            "get_routing",
        ),
        "repro.arch.topology": ("HoneycombTopology", "Link", "Mesh2D", "Topology", "Torus2D"),
    },
)
