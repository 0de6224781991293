"""Fault-masked views of the platform.

Three layers, each a drop-in for its healthy counterpart:

* :class:`DegradedTopology` — the base topology minus dead tiles and cut
  channels.  A dead PE takes its **router** with it (the conservative
  reading: the tile forwards nothing), so every link touching a dead
  tile disappears too.  Permanent cuts remove both directions of the
  channel for the whole recovery horizon, whatever their onset time —
  routing through a channel known to die later would just schedule the
  next failure.
* :class:`FaultAwareRouting` — tries the base routing first (XY on
  meshes); if the dimension-ordered path survives intact in the degraded
  view it is kept, otherwise the router falls back to the deterministic
  lexicographic shortest path *around* the damage.  When a partition
  leaves no path at all it raises :class:`~repro.errors.UnroutableError`.
* :class:`DegradedACG` — the committed platform re-routed over the
  degraded topology.  The PE list keeps its original indices (mappings
  and schedules stay meaningful); dead PEs are simply marked
  unavailable, and any route query touching a dead or partitioned
  endpoint raises :class:`~repro.errors.UnroutableError`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.arch.acg import ACG, Route
from repro.arch.routing import RoutingAlgorithm, ShortestPathRouting
from repro.arch.topology import Coord, Topology
from repro.errors import ArchitectureError, RoutingError, UnroutableError
from repro.faults.plan import FaultPlan


class DegradedTopology(Topology):
    """The base topology with dead tiles and cut channels masked out."""

    name = "degraded"

    def __init__(
        self,
        base: Topology,
        dead_tiles: Iterable[Coord] = (),
        cut_channels: Iterable[Tuple[Coord, Coord]] = (),
    ) -> None:
        super().__init__()
        self.base = base
        self.dead_tiles = frozenset(dead_tiles)
        for tile in self.dead_tiles:
            if not base.has_tile(tile):
                raise ArchitectureError(f"dead tile {tile} not in base topology")
        cut = set()
        for a, b in cut_channels:
            if not base.has_tile(a) or not base.has_tile(b):
                raise ArchitectureError(f"cut channel {a}<->{b} not in base topology")
            cut.add((a, b))
            cut.add((b, a))
        self.cut_channels = frozenset(cut)
        for coord in base.coords():
            if coord not in self.dead_tiles:
                self._add_tile(coord)
        for coord in self._coords:
            for neighbor in base.neighbors(coord):
                if neighbor in self.dead_tiles or (coord, neighbor) in cut:
                    continue
                self._links[coord].append(neighbor)

    def alive_path(self, path: List[Coord]) -> bool:
        """Whether every tile and every step of ``path`` survives."""
        if not all(self.has_tile(coord) for coord in path):
            return False
        for a, b in zip(path, path[1:]):
            if b not in self._links[a]:
                return False
        return True


class FaultAwareRouting(RoutingAlgorithm):
    """Base routing when its path survives, shortest-path detour otherwise.

    The fallback inherits :class:`ShortestPathRouting`'s documented
    lexicographic tie-breaking, so degraded routes are a pure function
    of (base routing, fault set) — the determinism the link tables and
    the jobs-N sweep equivalence rely on.
    """

    name = "fault-aware"

    def __init__(self, base: RoutingAlgorithm) -> None:
        self.base = base
        self._fallback = ShortestPathRouting()

    def route(self, topology: Topology, src: Coord, dst: Coord) -> List[Coord]:
        if not isinstance(topology, DegradedTopology):
            raise RoutingError(
                f"{self.name} routing requires a DegradedTopology, got {topology!r}"
            )
        if not topology.has_tile(src) or not topology.has_tile(dst):
            raise UnroutableError(f"route endpoint {src}->{dst} is on a dead tile")
        try:
            path = self.base.route(topology.base, src, dst)
        except RoutingError:
            path = None
        if path is not None and topology.alive_path(path):
            return path
        try:
            return self._fallback.route(topology, src, dst)
        except UnroutableError:
            raise
        except RoutingError as exc:
            raise UnroutableError(
                f"no surviving route from {src} to {dst}: faults partition the NoC"
            ) from exc


class DegradedACG(ACG):
    """The committed platform, re-routed around a fault plan.

    PE indices, types, the energy model and the bandwidth are those of
    ``base``; only reachability changes.  Routes between live PE pairs
    are recomputed with :class:`FaultAwareRouting` over the
    :class:`DegradedTopology`; pairs the faults disconnect simply have
    no route, and querying them (or any dead endpoint) raises
    :class:`UnroutableError`.
    """

    def __init__(self, base: ACG, plan: FaultPlan) -> None:
        # Deliberately no super().__init__(): the healthy constructor
        # would renumber PEs from the surviving coords and eagerly route
        # every pair (raising on partitions).  Rebind by hand instead.
        self.base_acg = base
        self.plan = plan
        dead_indices = []
        for pe_index in plan.dead_pes():
            base.pe(pe_index)  # range check
            dead_indices.append(pe_index)
        self.dead_pes: FrozenSet[int] = frozenset(dead_indices)
        dead_tiles = {base.pe(i).position for i in self.dead_pes}
        self.topology = DegradedTopology(
            base.topology, dead_tiles=dead_tiles, cut_channels=plan.cut_channels()
        )
        self.routing = FaultAwareRouting(base.routing)
        self.energy_model = base.energy_model
        self.link_bandwidth = base.link_bandwidth
        self.type_catalog = dict(base.type_catalog)
        self.pes = list(base.pes)
        self._coord_to_index: Dict[Coord, int] = {pe.position: pe.index for pe in self.pes}
        # The base numbering: every surviving link keeps its id, so
        # tables mixing healthy and degraded routes agree on every id.
        self._link_ids = base._link_ids
        self.n_resources = base.n_resources
        self._routes: Dict[Tuple[int, int], Route] = {}
        self._unroutable: Dict[Tuple[int, int], str] = {}
        alive = [pe for pe in self.pes if pe.index not in self.dead_pes]
        for src_pe in alive:
            for dst_pe in alive:
                try:
                    path = self.routing.route(
                        self.topology, src_pe.position, dst_pe.position
                    )
                except UnroutableError as exc:
                    # A partition is a per-pair property, not a platform
                    # error: record it and let route() raise on access.
                    self._unroutable[(src_pe.index, dst_pe.index)] = str(exc)
                    continue
                self._add_route(src_pe.index, dst_pe.index, path)

    # -- availability / route queries -----------------------------------------

    def pe_available(self, index: int) -> bool:
        return index not in self.dead_pes

    def route(self, src: int, dst: int) -> Route:
        route = self._routes.get((src, dst))
        if route is not None:
            return route
        for endpoint in (src, dst):
            if endpoint in self.dead_pes:
                raise UnroutableError(f"no route {src}->{dst}: PE {endpoint} is dead")
        reason = self._unroutable.get((src, dst))
        if reason is not None:
            raise UnroutableError(reason)
        raise ArchitectureError(f"no route {src}->{dst}")

    # The healthy ACG reads self._routes directly in these; go through
    # route() so dead/partitioned pairs raise UnroutableError instead of
    # KeyError.

    def energy_per_bit(self, src: int, dst: int) -> float:
        return self.route(src, dst).energy_per_bit

    def bandwidth(self, src: int, dst: int) -> float:
        return self.route(src, dst).bandwidth

    def comm_energy(self, volume_bits: float, src: int, dst: int) -> float:
        return volume_bits * self.route(src, dst).energy_per_bit

    def comm_duration(self, volume_bits: float, src: int, dst: int) -> float:
        route = self.route(src, dst)
        if route.is_local or volume_bits == 0:
            return 0.0
        return volume_bits / route.bandwidth

    def hop_count(self, src: int, dst: int) -> int:
        return self.route(src, dst).n_hops

    def describe(self) -> str:
        lines = [super().describe()]
        if self.dead_pes:
            lines.append(f"  dead PEs: {sorted(self.dead_pes)}")
        if self.topology.cut_channels:
            channels = sorted({tuple(sorted(c)) for c in self.topology.cut_channels})
            lines.append(f"  cut channels: {channels}")
        if self._unroutable:
            lines.append(f"  partitioned PE pairs: {len(self._unroutable)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DegradedACG(tiles={self.n_pes}, dead={sorted(self.dead_pes)}, "
            f"cuts={len(self.topology.cut_channels) // 2})"
        )
