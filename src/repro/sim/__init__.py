"""NoC simulation: transaction-level replay and flit-level wormhole."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.replay": ("SimulationReport", "simulate_schedule"),
        "repro.sim.wormhole": (
            "PacketSpec",
            "WormholeConfig",
            "WormholeReport",
            "packets_from_schedule",
            "simulate_wormhole",
            "validate_transaction_abstraction",
        ),
    },
)
