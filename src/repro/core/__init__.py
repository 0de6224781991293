"""The paper's contribution: the Energy-Aware Scheduling (EAS) algorithm.

* :mod:`repro.core.slack` — Step 1, budgeted-deadline computation;
* :mod:`repro.core.comm` — the Fig. 3 communication scheduler;
* :mod:`repro.core.eas` — Step 2, level-based scheduling, and the EAS
  driver;
* :mod:`repro.core.rebuild` — deterministic schedule reconstruction from
  a (mapping, per-PE order) pair;
* :mod:`repro.core.repair` — Step 3, search-and-repair (LTS + GTM).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.comm": ("schedule_incoming_transactions",),
        "repro.core.dvs": ("DVSConfig", "DVSReport", "apply_dvs"),
        "repro.core.eas": ("EASConfig", "LevelBasedScheduler", "eas_base_schedule", "eas_schedule"),
        "repro.core.periodic": (
            "ThroughputReport",
            "is_periodic_feasible",
            "resource_bound_period",
            "scan_min_period",
            "throughput_report",
        ),
        "repro.core.rebuild": ("rebuild_schedule",),
        "repro.core.repair": ("RepairConfig", "RepairReport", "search_and_repair"),
        "repro.core.slack": (
            "TaskBudget",
            "WEIGHT_POLICIES",
            "compute_budgets",
            "weight_uniform",
            "weight_var_energy",
            "weight_var_product",
        ),
    },
)
