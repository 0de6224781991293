"""Schedule-table substrate and the Schedule result container."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.schedule.entries": ("CommPlacement", "TaskPlacement"),
        "repro.schedule.gantt": ("render_gantt",),
        "repro.schedule.overlay": ("ResourceTables",),
        "repro.schedule.schedule": ("Schedule",),
        "repro.schedule.serialization": (
            "schedule_from_dict",
            "schedule_from_json",
            "schedule_to_dict",
            "schedule_to_json",
        ),
        "repro.schedule.svg": ("render_platform_svg", "render_schedule_svg"),
        "repro.schedule.table": ("ScheduleTable", "find_gap", "merge_busy"),
    },
)
