"""Task and communication-edge records for CTGs.

Terminology follows the paper's Definition 1:

* each task ``t_i`` has arrays ``R_i`` (execution time per PE) and ``E_i``
  (energy per PE) plus a deadline ``d(t_i)`` (``math.inf`` when
  unspecified);
* each arc ``c_{i,j}`` has a communication volume ``v(c_{i,j})`` in bits.

In this library the per-PE arrays are expressed per **PE type** — the
architecture maps each tile to a type, and the ACG expands type costs to
tile costs.  This matches how heterogeneous platforms are actually
specified (a DSP tile and another DSP tile run a task identically) and
keeps benchmark descriptions platform-size independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from repro.errors import CTGError, InfeasibleTaskError

#: Marker execution time for "this task cannot run on that PE type".
INFEASIBLE = math.inf


@dataclass(frozen=True)
class TaskCosts:
    """Execution cost of one task on one PE type.

    Attributes:
        time: execution time (abstract time units, e.g. microseconds).
        energy: computation energy (nJ) consumed by a full execution.
    """

    time: float
    energy: float

    def __post_init__(self) -> None:
        # NaN compares false against everything, so without this check
        # it would pass as "infeasible" (not finite) instead of failing.
        if math.isnan(self.time) or self.time < 0:
            raise CTGError(f"invalid execution time {self.time}")
        if self.energy < 0 or not math.isfinite(self.energy):
            raise CTGError(f"invalid execution energy {self.energy}")

    @property
    def feasible(self) -> bool:
        """Whether the task can run at all on this PE type."""
        return math.isfinite(self.time)


@dataclass
class Task:
    """One computational module of the application (a CTG vertex).

    Attributes:
        name: unique task identifier within its CTG.
        costs: mapping from PE-type name to :class:`TaskCosts`.  PE types
            absent from the mapping are treated as infeasible hosts.
        deadline: absolute time by which the task must finish;
            ``math.inf`` when the designer specified none.
        task_type: optional label grouping tasks that share a cost profile
            (TGFF-style "task types"); informational only.
    """

    name: str
    costs: Dict[str, TaskCosts] = field(default_factory=dict)
    deadline: float = math.inf
    task_type: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CTGError("task name must be non-empty")
        if math.isnan(self.deadline) or self.deadline <= 0:
            raise CTGError(f"task {self.name!r}: deadline must be positive, got {self.deadline}")
        if not isinstance(self.costs, dict):
            self.costs = dict(self.costs)

    # -- cost queries -----------------------------------------------------

    def cost_on(self, pe_type: str) -> TaskCosts:
        """Costs of running on ``pe_type``; infeasible types get inf time."""
        try:
            return self.costs[pe_type]
        except KeyError:
            return TaskCosts(time=INFEASIBLE, energy=0.0)

    def time_on(self, pe_type: str) -> float:
        return self.cost_on(pe_type).time

    def energy_on(self, pe_type: str) -> float:
        return self.cost_on(pe_type).energy

    def feasible_types(self) -> Iterable[str]:
        """PE-type names this task can execute on."""
        return [t for t, c in self.costs.items() if c.feasible]

    @property
    def has_deadline(self) -> bool:
        return math.isfinite(self.deadline)

    # -- statistics over a concrete PE set --------------------------------

    def stats_over(self, pe_types: Iterable[str]) -> "TaskStats":
        """Mean/variance of time and energy across the given PE instances.

        ``pe_types`` is one entry per PE *instance* (types repeat), which
        matches the paper's per-PE arrays ``R_i`` / ``E_i``.  Infeasible
        instances are excluded; an empty feasible set is an error.
        """
        times = []
        energies = []
        for pe_type in pe_types:
            cost = self.cost_on(pe_type)
            if cost.feasible:
                times.append(cost.time)
                energies.append(cost.energy)
        if not times:
            raise InfeasibleTaskError(
                f"task {self.name!r} cannot run on any PE of the platform"
            )
        return TaskStats(
            mean_time=_mean(times),
            var_time=_variance(times),
            mean_energy=_mean(energies),
            var_energy=_variance(energies),
            n_feasible=len(times),
        )

    def copy(self) -> "Task":
        return Task(
            name=self.name,
            costs=dict(self.costs),
            deadline=self.deadline,
            task_type=self.task_type,
        )


@dataclass(frozen=True)
class TaskStats:
    """Aggregate execution statistics of one task over a platform."""

    mean_time: float
    var_time: float
    mean_energy: float
    var_energy: float
    n_feasible: int


@dataclass(frozen=True)
class CommEdge:
    """A directed CTG arc ``c_{src,dst}``.

    A zero ``volume`` models a pure control dependency: the destination
    waits for the source to finish but no data crosses the network.
    """

    src: str
    dst: str
    volume: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise CTGError(f"self-dependency on task {self.src!r}")
        if self.volume < 0 or not math.isfinite(self.volume):
            raise CTGError(f"invalid communication volume {self.volume} on {self.src}->{self.dst}")

    @property
    def is_control_only(self) -> bool:
        return self.volume == 0.0


def uniform_costs(pe_types: Iterable[str], time: float, energy: float) -> Dict[str, TaskCosts]:
    """Convenience: identical costs on every listed PE type."""
    return {t: TaskCosts(time=time, energy=energy) for t in pe_types}


def scaled_costs(
    base_time: float,
    base_energy: float,
    type_factors: Mapping[str, tuple],
) -> Dict[str, TaskCosts]:
    """Build per-type costs from a base cost and (speed, power) factors.

    ``type_factors`` maps PE-type name to ``(time_factor, energy_factor)``;
    the resulting cost is ``(base_time * time_factor,
    base_energy * energy_factor)``.
    """
    return {
        name: TaskCosts(time=base_time * tf, energy=base_energy * ef)
        for name, (tf, ef) in type_factors.items()
    }


def _mean(values) -> float:
    return sum(values) / len(values)


def _variance(values) -> float:
    """Population variance (the paper does not distinguish; n divisor)."""
    mu = _mean(values)
    return sum((v - mu) ** 2 for v in values) / len(values)
