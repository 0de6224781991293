"""Communication Task Graph (CTG) substrate.

A CTG (paper, Definition 1) is a DAG whose vertices are computation tasks
annotated with per-PE execution time and energy arrays plus optional
deadlines, and whose arcs carry communication volumes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ctg.analysis": (
            "critical_path_length",
            "effective_deadlines",
            "longest_mean_path_from",
            "longest_mean_path_into",
            "task_levels",
        ),
        "repro.ctg.generator": ("GeneratorConfig", "TaskTypeLibrary", "generate_category", "generate_ctg"),
        "repro.ctg.graph": ("CTG",),
        "repro.ctg.multimedia": ("CLIP_NAMES", "av_decoder_ctg", "av_encoder_ctg", "av_integrated_ctg"),
        "repro.ctg.serialization": ("ctg_from_dict", "ctg_from_json", "ctg_to_dict", "ctg_to_json"),
        "repro.ctg.task": ("CommEdge", "Task", "TaskCosts"),
    },
)
