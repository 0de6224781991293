"""Fault injection and degraded-mode recovery.

The schedulers assume a healthy NoC; this package asks what happens when
it is not.  It provides:

* :mod:`repro.faults.plan` — a seeded, JSON-serializable fault model
  (permanent PE death, permanent link cuts, transient link-fault
  windows) and a Monte Carlo plan generator;
* :mod:`repro.faults.degraded` — a fault-masked view of the platform:
  :class:`DegradedTopology` hides dead routers and cut links,
  :class:`FaultAwareRouting` falls back from the base routing to a
  deterministic shortest path around the damage, and
  :class:`DegradedACG` rebinds the committed platform to both;
* :mod:`repro.faults.recovery` — degraded-mode rescheduling: salvage the
  completed prefix of a committed schedule, re-run EAS plus
  search-and-repair on the surviving tasks over the degraded platform,
  and report exact miss/tardiness/energy deltas;
* :mod:`repro.faults.sweep` — seeded Monte Carlo campaigns over fault
  plans, pooled via the shared-nothing process pool with byte-identical
  output at any job count.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.degraded": ("DegradedACG", "DegradedTopology", "FaultAwareRouting"),
        "repro.faults.plan": (
            "FAULT_PLAN_SCHEMA_VERSION",
            "FaultPlan",
            "LinkFault",
            "PEFault",
            "TransientFault",
            "generate_fault_plans",
        ),
        "repro.faults.recovery": (
            "RecoveryResult",
            "UnsurvivableFaultError",
            "inject_and_recover",
            "validate_recovery",
        ),
        "repro.faults.sweep": ("FaultSweepReport", "run_fault_sweep"),
    },
)
