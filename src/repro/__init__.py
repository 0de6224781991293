"""repro — Energy-Aware Communication and Task Scheduling for NoCs.

A full reproduction of Hu & Marculescu, *"Energy-Aware Communication and
Task Scheduling for Network-on-Chip Architectures under Real-Time
Constraints"* (DATE 2004): the EAS algorithm (slack budgeting,
level-based energy-aware scheduling with contention-aware communication
scheduling, and search-and-repair), the EDF baseline, the heterogeneous
tile-based NoC platform model, TGFF-style random benchmarks and the
multimedia system benchmarks, plus the full evaluation harness.

Quickstart::

    from repro import av_encoder_ctg, mesh_2x2, eas_schedule, edf_schedule

    ctg = av_encoder_ctg("foreman")
    acg = mesh_2x2()
    eas = eas_schedule(ctg, acg)
    edf = edf_schedule(ctg, acg)
    print(eas.total_energy(), edf.total_energy())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Each name is imported from its defining module on first use, so
# ``import repro`` (and every ``repro.<subpackage>`` import) stays cheap.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.arch.acg": ("ACG",),
        "repro.arch.energy": ("BitEnergyModel",),
        "repro.arch.presets": ("hetero_mesh", "mesh_2x2", "mesh_3x3", "mesh_4x4"),
        "repro.arch.routing": ("XYRouting", "YXRouting", "get_routing"),
        "repro.arch.topology": ("HoneycombTopology", "Mesh2D", "Torus2D"),
        "repro.baselines.edf": ("edf_schedule",),
        "repro.baselines.greedy": ("greedy_energy_schedule", "random_schedule"),
        "repro.core.eas": ("EASConfig", "eas_base_schedule", "eas_schedule"),
        "repro.core.rebuild": ("rebuild_schedule",),
        "repro.core.repair": ("RepairConfig", "search_and_repair"),
        "repro.core.slack": ("compute_budgets",),
        "repro.ctg.generator": ("GeneratorConfig", "generate_category", "generate_ctg"),
        "repro.ctg.graph": ("CTG",),
        "repro.ctg.multimedia": (
            "CLIP_NAMES",
            "av_decoder_ctg",
            "av_encoder_ctg",
            "av_integrated_ctg",
        ),
        "repro.ctg.serialization": ("ctg_from_json", "ctg_to_json"),
        "repro.ctg.task": ("CommEdge", "Task", "TaskCosts"),
        "repro.schedule.gantt": ("render_gantt",),
        "repro.schedule.schedule": ("Schedule",),
        "repro.sim.replay": ("SimulationReport", "simulate_schedule"),
    },
    submodules=("obs",),
)
__all__.append("__version__")
