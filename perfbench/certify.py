"""An independent certificate for serialized EAS schedules.

The certificate re-derives every property it checks from the CTG, the
ACG and the schedule document alone.  It never calls the program's own
``Schedule.validate*`` methods, so a bug shared by the scheduler and its
validator cannot hide here.

Checks, for one schedule document:

* every task is placed once, on a PE whose type can run it, for exactly
  the CTG's execution time and energy on that type;
* every CTG edge has one transaction between its endpoints' PEs, with the
  edge's volume, holding exactly the links of ``acg.route(src, dst)``, for
  ``volume / link_bandwidth`` (zero when local or empty);
* a transaction starts after its sender finishes, and its receiver starts
  after it ends;
* no two tasks overlap on a PE and no two transactions overlap on a link;
* the energy, recomputed as the task costs plus ``E_bit(n_hops) * volume``
  per transaction, matches both the per-entry energies and the total the
  caller reports;
* deadline misses are recounted from the CTG's deadlines.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from typing import Any, Dict, List, Tuple

#: absolute slack allowed on time comparisons (times are in microseconds).
TIME_TOL = 1e-6
#: relative slack allowed on recomputed durations and energies.
REL_TOL = 1e-9


class CertificateError(Exception):
    """A schedule broke one of the certificate's rules."""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=TIME_TOL)


def _bit_energy(acg, n_hops: int) -> float:
    """Eq. 2: ``n_hops * E_Sbit + (n_hops - 1) * E_Lbit``; 0 on one tile."""
    if n_hops <= 1:
        return 0.0
    model = acg.energy_model
    return n_hops * model.e_sbit + (n_hops - 1) * model.e_lbit


def _check_no_overlap(kind: str, busy: Dict[Any, List[Tuple[float, float, str]]]) -> None:
    for resource, intervals in busy.items():
        intervals.sort()
        for (_s0, f0, who0), (s1, _f1, who1) in zip(intervals, intervals[1:]):
            if s1 < f0 - TIME_TOL:
                raise CertificateError(f"{kind} {resource}: {who0} overlaps {who1}")


def certify(document: Dict[str, Any], ctg, acg) -> Tuple[float, int, int]:
    """Check one schedule document.

    Returns ``(energy_nJ, deadline_misses, tasks_with_deadlines)``.

    Raises :class:`CertificateError` on the first rule the document breaks.
    """
    pe_types = [pe.type_name for pe in acg.pes]
    tasks = {entry["task"]: entry for entry in document["tasks"]}
    if len(tasks) != len(document["tasks"]) or set(tasks) != set(ctg.task_names()):
        raise CertificateError("the placed tasks are not exactly the CTG's tasks")

    energy = 0.0
    misses = constrained = 0
    pe_busy: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
    for name, entry in tasks.items():
        pe = entry["pe"]
        if not 0 <= pe < len(pe_types):
            raise CertificateError(f"task {name} on unknown PE {pe}")
        cost = ctg.task(name).costs.get(pe_types[pe])
        if cost is None or not math.isfinite(cost.time):
            raise CertificateError(f"task {name} on PE {pe} of infeasible type")
        if not _close(entry["finish"] - entry["start"], cost.time) or entry["start"] < -TIME_TOL:
            raise CertificateError(f"task {name}: duration differs from its cost {cost.time}")
        if not _close(entry["energy"], cost.energy):
            raise CertificateError(f"task {name}: energy differs from its cost {cost.energy}")
        energy += cost.energy
        deadline = ctg.task(name).deadline
        if math.isfinite(deadline):
            constrained += 1
            misses += entry["finish"] > deadline + TIME_TOL
        pe_busy[pe].append((entry["start"], entry["finish"], name))
    _check_no_overlap("PE", pe_busy)

    comms = {(c["src_task"], c["dst_task"]): c for c in document["comms"]}
    edges = {(e.src, e.dst): e for e in ctg.edges()}
    if len(comms) != len(document["comms"]) or set(comms) != set(edges):
        raise CertificateError("the transactions are not exactly the CTG's edges")
    link_busy: Dict[Any, List[Tuple[float, float, str]]] = defaultdict(list)
    for key, comm in comms.items():
        label = f"{key[0]}->{key[1]}"
        sender, receiver = tasks[key[0]], tasks[key[1]]
        src_pe, dst_pe = sender["pe"], receiver["pe"]
        volume = edges[key].volume
        if (comm["src_pe"], comm["dst_pe"]) != (src_pe, dst_pe) or comm["volume"] != volume:
            raise CertificateError(f"transaction {label}: endpoints or volume differ from the CTG")
        route = [[list(link.src), list(link.dst)] for link in acg.route(src_pe, dst_pe).links]
        if comm["links"] != route:
            raise CertificateError(f"transaction {label}: links differ from the route")
        duration = volume / acg.link_bandwidth if route and volume else 0.0
        if not _close(comm["finish"] - comm["start"], duration):
            raise CertificateError(f"transaction {label}: duration differs from volume/bandwidth")
        comm_energy = volume * _bit_energy(acg, len(route) + 1)
        if not _close(comm["energy"], comm_energy):
            raise CertificateError(f"transaction {label}: energy differs from E_bit * volume")
        energy += comm_energy
        if comm["start"] < sender["finish"] - TIME_TOL:
            raise CertificateError(f"transaction {label} starts before its sender finishes")
        if receiver["start"] < comm["finish"] - TIME_TOL:
            raise CertificateError(f"task {key[1]} starts before transaction {label} ends")
        if duration:
            for link in route:
                link_busy[tuple(map(tuple, link))].append((comm["start"], comm["finish"], label))
    _check_no_overlap("link", link_busy)

    reported = sum(t["energy"] for t in document["tasks"]) + sum(
        c["energy"] for c in document["comms"]
    )
    if not _close(reported, energy):
        raise CertificateError(f"entry energies sum to {reported}, recomputed {energy}")
    return energy, misses, constrained


def certify_schedule(schedule, text: str) -> Tuple[float, int, int]:
    """Certify an in-process schedule through its serialized form.

    Also holds the schedule's own ``total_energy()`` and
    ``deadline_misses()`` to the recomputed values.
    """
    energy, misses, constrained = certify(json.loads(text), schedule.ctg, schedule.acg)
    if not _close(schedule.total_energy(), energy):
        raise CertificateError(
            f"total_energy() is {schedule.total_energy()}, recomputed {energy}"
        )
    if len(schedule.deadline_misses()) != misses:
        raise CertificateError(
            f"deadline_misses() names {len(schedule.deadline_misses())} tasks, recounted {misses}"
        )
    return energy, misses, constrained


def digest(text: str) -> str:
    """SHA-256 of a serialized schedule, without its run-time stamp.

    ``runtime_seconds`` is the only field that differs between two runs
    of the same job, so it is dropped before hashing.
    """
    document = json.loads(text)
    document.pop("runtime_seconds", None)
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
