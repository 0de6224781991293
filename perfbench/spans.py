"""Spans recorded from outside the program, around calls into its layers.

A :class:`Recorder` keeps every span in memory as ``(name, start, end,
parent, job)`` and writes them out once, at exit.  :func:`install`
replaces a layer's public functions with timing wrappers wherever the
program holds a reference to them (module globals, and dict entries such
as preset tables), so no source file changes.  A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer name, module, attribute) of each module-level function wrapped.
#: Every binding of the function in a loaded ``repro`` module is replaced.
FUNCTION_LAYERS = (
    ("slack", "repro.core.slack", "compute_budgets"),
    ("repair", "repro.core.repair", "search_and_repair"),
    ("probe", "repro.core.comm", "schedule_incoming_transactions"),
    ("serialize", "repro.schedule.serialization", "schedule_to_json"),
    ("arch", "repro.arch.presets", "hetero_mesh"),
    ("ctg", "repro.ctg.multimedia", "av_encoder_ctg"),
    ("ctg", "repro.ctg.multimedia", "av_decoder_ctg"),
    ("ctg", "repro.ctg.multimedia", "av_integrated_ctg"),
    ("edf", "repro.baselines.edf", "edf_schedule"),
    ("sim", "repro.sim.wormhole", "validate_transaction_abstraction"),
)

#: (layer name, module, class, method) of each method wrapped.
METHOD_LAYERS = (
    ("level", "repro.core.eas", "LevelBasedScheduler", "run"),
    ("gap", "repro.schedule.overlay", "TentativeOverlay", "find_earliest"),
)

Span = Tuple[str, float, float, int, int]


def _note_repair(recorder: "Recorder", result: Any) -> None:
    _schedule, report = result
    recorder.note("repair.candidates", report.swaps_tried + report.migrations_tried)
    recorder.note("repair.accepted", report.swaps_accepted + report.migrations_accepted)


def _note_ctg(recorder: "Recorder", ctg: Any) -> None:
    recorder.note("ctg.tasks", ctg.n_tasks)
    recorder.note("ctg.edges", ctg.n_edges)


#: per-layer hooks that read counts off a wrapped call's result.
_OBSERVERS = {"repair": _note_repair, "ctg": _note_ctg}


class Recorder:
    """In-memory span store; one open-span stack, one current job id."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.job = -1
        #: counts read off results (repair moves, CTG sizes): job -> name -> sum.
        self.notes: Dict[int, Dict[str, float]] = {}

    def note(self, name: str, amount: float) -> None:
        notes = self.notes.setdefault(self.job, {})
        notes[name] = notes.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        return self.wrap(name, fn)(*args)

    def self_times(self, job: int) -> Tuple[float, Dict[str, float], Dict[str, int]]:
        """``(root wall, {layer: self seconds}, {layer: calls})`` of one job.

        The job's root span is its parentless span; the root's own self
        time is reported under ``other``.
        """
        mine = {i: s for i, s in enumerate(self.spans) if s is not None and s[4] == job}
        covered: Dict[int, float] = defaultdict(float)
        root_wall = 0.0
        for name, start, end, parent, _job in mine.values():
            if parent >= 0:
                covered[parent] += end - start
            else:
                root_wall = end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _job) in mine.items():
            layer = name if parent >= 0 else "other"
            self_s[layer] += (end - start) - covered[i]
            calls[layer] += 1
        return root_wall, dict(self_s), dict(calls)

    def write(self, path: str) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        count = 0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, job = span
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")
                count += 1
        return count


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer in :data:`FUNCTION_LAYERS` / :data:`METHOD_LAYERS`.

    Returns a function that restores the original bindings.
    """
    import importlib

    undo: List[Callable[[], None]] = []
    for layer, module_name, attribute in FUNCTION_LAYERS:
        original = getattr(importlib.import_module(module_name), attribute)
        undo.extend(_rebind(original, recorder.wrap(layer, original)))
    for layer, module_name, class_name, method in METHOD_LAYERS:
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__[method]
        setattr(owner, method, recorder.wrap(layer, original))
        undo.append(lambda owner=owner, method=method, original=original: setattr(
            owner, method, original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def _rebind(original: Callable, wrapped: Callable) -> List[Callable[[], None]]:
    """Point every reference to ``original`` in ``repro`` modules at ``wrapped``."""
    undo: List[Callable[[], None]] = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped
                undo.append(lambda ns=namespace, k=key: ns.__setitem__(k, original))
            elif isinstance(value, dict):
                for entry, item in list(value.items()):
                    if item is original:
                        replacement = wrapped
                    elif isinstance(item, tuple) and any(x is original for x in item):
                        replacement = tuple(wrapped if x is original else x for x in item)
                    else:
                        continue
                    value[entry] = replacement
                    undo.append(lambda d=value, k=entry, v=item: d.__setitem__(k, v))
    return undo
