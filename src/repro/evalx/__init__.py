"""Evaluation harness: one runner per paper table/figure plus reporting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.evalx.analysis": (
            "ScheduleComparison",
            "compare_schedules",
            "energy_by_task_type",
            "utilization_table",
        ),
        "repro.evalx.experiments": (
            "ExperimentRow",
            "FigureSeries",
            "run_fig5",
            "run_fig6",
            "run_fig7",
            "run_msb_table",
            "run_random_category",
            "run_repair_runtime",
        ),
        "repro.evalx.reporting": ("format_figure", "format_table"),
    },
)
