"""Comparator schedulers.

:func:`edf_schedule` is the paper's baseline — a standard
earliest-deadline-first list scheduler that optimises performance and
ignores energy.  The greedy/random schedulers are additional reference
points used by tests and ablations.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.edf": ("edf_schedule",),
        "repro.baselines.greedy": ("greedy_energy_schedule", "random_schedule"),
        "repro.baselines.optimal": ("OptimalResult", "optimal_schedule"),
    },
)
