"""JSON serialisation of CTGs.

A stable on-disk format so generated benchmarks can be archived and
re-loaded bit-identically.  Infinite deadlines serialise as ``null``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

from repro.ctg.graph import CTG
from repro.ctg.task import CommEdge, Task, TaskCosts
from repro.errors import CTGError, SerializationError

FORMAT_VERSION = 1


def ctg_to_dict(ctg: CTG) -> Dict[str, Any]:
    """Plain-dict representation of a CTG."""
    return {
        "format": "repro-ctg",
        "version": FORMAT_VERSION,
        "name": ctg.name,
        "tasks": [
            {
                "name": task.name,
                "deadline": task.deadline if math.isfinite(task.deadline) else None,
                "task_type": task.task_type,
                "costs": {
                    pe_type: {"time": c.time, "energy": c.energy}
                    for pe_type, c in task.costs.items()
                    if c.feasible
                },
            }
            for task in ctg.tasks()
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "volume": e.volume} for e in ctg.edges()
        ],
    }


def ctg_from_dict(data: Dict[str, Any]) -> CTG:
    """Inverse of :func:`ctg_to_dict`."""
    try:
        if data.get("format") != "repro-ctg":
            raise SerializationError(f"not a repro-ctg document: format={data.get('format')!r}")
        if data.get("version") != FORMAT_VERSION:
            raise SerializationError(f"unsupported version {data.get('version')!r}")
        ctg = CTG(name=data["name"])
        for entry in data["tasks"]:
            deadline = entry.get("deadline")
            costs = {}
            for pe_type, c in entry["costs"].items():
                try:
                    costs[pe_type] = TaskCosts(time=c["time"], energy=c["energy"])
                except CTGError as exc:
                    raise CTGError(f"task {entry['name']!r}: costs[{pe_type!r}]: {exc}") from exc
            ctg.add_task(
                Task(
                    name=entry["name"],
                    costs=costs,
                    deadline=math.inf if deadline is None else float(deadline),
                    task_type=entry.get("task_type"),
                )
            )
        for entry in data["edges"]:
            ctg.add_edge(
                CommEdge(src=entry["src"], dst=entry["dst"], volume=float(entry["volume"]))
            )
        return ctg
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed CTG document: {exc}") from exc


def ctg_to_json(ctg: CTG, indent: int = 2) -> str:
    return json.dumps(ctg_to_dict(ctg), indent=indent, sort_keys=True)


def ctg_from_json(text: str) -> CTG:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return ctg_from_dict(data)
