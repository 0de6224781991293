"""The Architecture Characterization Graph (paper, Definition 2).

An :class:`ACG` binds together a topology, a deterministic routing
algorithm, a bit-energy model, a per-link bandwidth and the placed PEs.
For every ordered PE pair it precomputes the route (as directed links),
the per-bit energy ``e(r_ij)`` and the bandwidth ``b(r_ij)``, which is
everything Definitions 2-4 and the schedulers need.

Resource ids
------------
The schedulers keep one schedule table per PE and per directed link.
The ACG numbers those resources once, densely: PE ``k`` is ``k`` and
directed link ``j`` of ``topology.links()`` is ``n_pes + j``, so
``range(n_resources)`` covers them all.  Every :class:`Route` carries
its links both as :class:`~repro.arch.topology.Link` objects (for
placements, serialization and reports) and as ``resources``, the same
links' ids in path order (for the resource tables).  Code that holds a
``Link`` and needs its table goes through :meth:`ACG.link_id`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.energy import BitEnergyModel
from repro.arch.pe import PE, PEType, STANDARD_PE_TYPES
from repro.arch.routing import RoutingAlgorithm, default_routing_for
from repro.arch.topology import Coord, Link, Topology
from repro.errors import ArchitectureError

#: Default link bandwidth, bits per time unit.  With volumes in bits and
#: times in microseconds this is 1 Gbit/s.
DEFAULT_BANDWIDTH = 1000.0


class Route:
    """Precomputed route between two PEs.

    ``resources`` holds the ids of ``links`` (see "Resource ids" above).
    """

    __slots__ = ("src", "dst", "links", "resources", "n_hops", "energy_per_bit", "bandwidth")

    def __init__(
        self,
        src: int,
        dst: int,
        links: Tuple[Link, ...],
        resources: Tuple[int, ...],
        n_hops: int,
        energy_per_bit: float,
        bandwidth: float,
    ) -> None:
        self.src = src
        self.dst = dst
        self.links = links
        self.resources = resources
        self.n_hops = n_hops
        self.energy_per_bit = energy_per_bit
        self.bandwidth = bandwidth

    @property
    def is_local(self) -> bool:
        """True when both endpoints share a tile (no network traversal)."""
        return not self.links

    def __repr__(self) -> str:
        return f"Route({self.src}->{self.dst}, hops={self.n_hops})"


class ACG:
    """Architecture characterization graph over a concrete platform.

    Args:
        topology: tile arrangement (mesh/torus/honeycomb).
        pe_types: one PE-type name per tile, in the order of
            ``topology.coords()``; defines the heterogeneity.
        routing: deterministic routing algorithm; defaults to the natural
            one for the topology (XY on meshes).
        energy_model: bit-energy constants (Eq. 1-2).
        link_bandwidth: bandwidth of every link, in bits per time unit.
        type_catalog: PE-type catalogue; informational (speed/power
            factors live in task cost tables, not here).
    """

    def __init__(
        self,
        topology: Topology,
        pe_types: Sequence[str],
        routing: Optional[RoutingAlgorithm] = None,
        energy_model: Optional[BitEnergyModel] = None,
        link_bandwidth: float = DEFAULT_BANDWIDTH,
        type_catalog: Optional[Dict[str, PEType]] = None,
    ) -> None:
        coords = topology.coords()
        if len(pe_types) != len(coords):
            raise ArchitectureError(
                f"need one PE type per tile: {len(coords)} tiles, {len(pe_types)} types"
            )
        if link_bandwidth <= 0:
            raise ArchitectureError(f"link bandwidth must be positive, got {link_bandwidth}")
        self.topology = topology
        self.routing = routing if routing is not None else default_routing_for(topology)
        self.energy_model = energy_model if energy_model is not None else BitEnergyModel()
        self.link_bandwidth = float(link_bandwidth)
        self.type_catalog = dict(type_catalog) if type_catalog is not None else dict(STANDARD_PE_TYPES)

        self.pes: List[PE] = [
            PE(index=i, position=coord, type_name=type_name)
            for i, (coord, type_name) in enumerate(zip(coords, pe_types))
        ]
        self._coord_to_index: Dict[Coord, int] = {pe.position: pe.index for pe in self.pes}
        #: (src, dst) coordinates of each directed link -> its resource id.
        #: Keyed by plain tuples, which hash in C, not by ``Link``.
        self._link_ids: Dict[Tuple[Coord, Coord], int] = {
            (link.src, link.dst): len(self.pes) + j for j, link in enumerate(topology.links())
        }
        #: PEs plus directed links: every resource id is below this.
        self.n_resources = len(self.pes) + len(self._link_ids)
        self._routes: Dict[Tuple[int, int], Route] = {}
        for src_pe in self.pes:
            for dst_pe in self.pes:
                path = self.routing.route(self.topology, src_pe.position, dst_pe.position)
                self._add_route(src_pe.index, dst_pe.index, path)

    # -- construction ---------------------------------------------------------

    def _add_route(self, src: int, dst: int, path: List[Coord]) -> None:
        """Precompute the route ``src -> dst`` along the tile ``path``."""
        self.topology.validate_path(path)
        steps = list(zip(path, path[1:]))
        n_hops = len(path)
        self._routes[(src, dst)] = Route(
            src=src,
            dst=dst,
            links=tuple(Link(a, b) for a, b in steps),
            resources=tuple(map(self._link_ids.__getitem__, steps)),
            n_hops=n_hops,
            energy_per_bit=self.energy_model.energy_per_bit(n_hops),
            bandwidth=self.link_bandwidth,
        )

    # -- PE queries -----------------------------------------------------------

    @property
    def n_pes(self) -> int:
        return len(self.pes)

    def pe(self, index: int) -> PE:
        try:
            return self.pes[index]
        except IndexError:
            raise ArchitectureError(f"PE index {index} out of range 0..{self.n_pes - 1}") from None

    def pe_at(self, coord: Coord) -> PE:
        try:
            return self.pes[self._coord_to_index[coord]]
        except KeyError:
            raise ArchitectureError(f"no PE at coordinate {coord}") from None

    def pe_type_names(self) -> List[str]:
        """One type name per PE instance — the cost-array axis of the paper."""
        return [pe.type_name for pe in self.pes]

    def pes_of_type(self, type_name: str) -> List[PE]:
        return [pe for pe in self.pes if pe.type_name == type_name]

    def pe_available(self, index: int) -> bool:
        """Whether ``index`` may receive new work.

        Always True on a healthy platform; the fault subsystem's
        :class:`~repro.faults.degraded.DegradedACG` overrides this so the
        schedulers and the repair engine skip dead PEs without knowing
        about faults.
        """
        return True

    # -- route queries ----------------------------------------------------------

    def route(self, src: int, dst: int) -> Route:
        """The precomputed route ``r_{src,dst}``."""
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise ArchitectureError(f"no route {src}->{dst}") from None

    def energy_per_bit(self, src: int, dst: int) -> float:
        """``e(r_ij)`` of Definition 2 (nJ per bit)."""
        return self._routes[(src, dst)].energy_per_bit

    def bandwidth(self, src: int, dst: int) -> float:
        """``b(r_ij)`` of Definition 2 (bits per time unit)."""
        return self._routes[(src, dst)].bandwidth

    def comm_energy(self, volume_bits: float, src: int, dst: int) -> float:
        """Energy of one transaction: ``v(c) * e(r_ij)`` (Eq. 3 term)."""
        return volume_bits * self._routes[(src, dst)].energy_per_bit

    def comm_duration(self, volume_bits: float, src: int, dst: int) -> float:
        """Link occupation time of one transaction.

        Zero for same-tile transfers; otherwise ``volume / b(r_ij)``.
        """
        route = self._routes[(src, dst)]
        if route.is_local or volume_bits == 0:
            return 0.0
        return volume_bits / route.bandwidth

    def hop_count(self, src: int, dst: int) -> int:
        """Routers traversed from ``src`` to ``dst`` (1 for local)."""
        return self._routes[(src, dst)].n_hops

    def all_links(self) -> List[Link]:
        return self.topology.links()

    def link_id(self, link: Link) -> int:
        """The resource id of a directed link (see "Resource ids")."""
        try:
            return self._link_ids[(link.src, link.dst)]
        except KeyError:
            raise ArchitectureError(f"{link!r} is not a link of this platform") from None

    # -- misc -------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable platform summary."""
        lines = [
            f"ACG: {type(self.topology).__name__} with {self.n_pes} tiles, "
            f"routing={self.routing.name}, bw={self.link_bandwidth:g} bits/tu",
            f"  E_sbit={self.energy_model.e_sbit:g} nJ/bit, "
            f"E_lbit={self.energy_model.e_lbit:g} nJ/bit",
        ]
        for pe in self.pes:
            lines.append(f"  PE {pe.index} @ {pe.position}: {pe.type_name}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ACG(tiles={self.n_pes}, topology={type(self.topology).__name__}, "
            f"routing={self.routing.name})"
        )
