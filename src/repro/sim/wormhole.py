"""Flit-level wormhole network simulation.

The paper's platform (Sec. 3.1) uses wormhole routing with router
buffers "implemented using registers (typically in the size of one or
two flits each)".  The schedulers abstract this to transaction-level
link reservations (a transfer holds its whole path for
``volume / bandwidth``).  This module implements the underlying
flit-level mechanics — per-cycle flit advancement, per-link channel
ownership held from head to tail, finite register buffers, deterministic
arbitration — so the abstraction can be checked against the hardware
model it stands for:

* with exclusive paths (what a valid schedule guarantees), a packet's
  flit-level delivery time equals the transaction finish time plus the
  pipeline fill of at most ``hops`` extra flit cycles;
* with deliberately conflicting injections, packets serialise through
  shared links exactly as wormhole channel ownership dictates — the
  contention the paper insists schedulers must model.

The model (standard in NoC literature at this abstraction):

* time advances in **flit cycles**; one flit crosses one link per cycle
  (cycle time = ``flit_size / link_bandwidth``);
* each directed link is a **channel** owned by at most one packet at a
  time; ownership is acquired by the head flit and released when the
  tail flit has crossed;
* each link's receiving side has a register buffer of ``buffer_flits``
  flits; a flit advances only if the downstream buffer has space
  (backpressure);
* arbitration between packets requesting the same free channel in the
  same cycle is deterministic: earliest injection first, then packet
  name.

The replay is event-driven but exact: a packet joins an *active* list
(kept in arbitration order) at its injection cycle and leaves it when
its tail is delivered, each cycle advances only the active packets,
and when none is in flight the clock jumps straight to the next
injection — an idle cycle changes no state, fault windows included.
Channel ownership, busy counts and fault ranges are lists indexed by a
per-run link numbering (links in order of first appearance in the
packets), so the hot loop never hashes a :class:`Link`.  The work done
is proportional to the cycles with a worm in flight (reported as
``steps``), not to the simulated time (``cycles``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.arch.acg import ACG
from repro.arch.topology import Link
from repro.errors import ReproError, SchedulingError
from repro.schedule.schedule import Schedule


class WormholeError(ReproError):
    """The flit-level simulation could not complete (e.g. cycle bound)."""


@dataclass(frozen=True)
class PacketSpec:
    """One packet to inject: a CTG transaction at flit granularity.

    ``links`` optionally pins the packet to a recorded route (the links a
    schedule actually reserved); when ``None`` the simulator asks the
    ACG's routing, which is the healthy-platform behaviour.  Recovery
    schedules mix healthy and degraded routes, so their validation must
    replay the recorded links rather than re-route.
    """

    name: str
    src_pe: int
    dst_pe: int
    volume_bits: float
    inject_time: float
    links: Optional[Tuple[Link, ...]] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.volume_bits) and self.volume_bits > 0):
            raise WormholeError(
                f"packet {self.name!r}: volume_bits must be positive and finite, "
                f"got {self.volume_bits!r}"
            )
        if not (math.isfinite(self.inject_time) and self.inject_time >= 0):
            raise WormholeError(
                f"packet {self.name!r}: inject_time must be non-negative and finite, "
                f"got {self.inject_time!r}"
            )


@dataclass(frozen=True)
class WormholeConfig:
    """Flit-level platform parameters.

    Attributes:
        flit_size_bits: payload bits per flit; the paper's 0.18um-era
            routers move 32-128 bit phits, 64 is a common choice.
        buffer_flits: register buffer depth per link endpoint (the
            paper: "one or two flits each").
        max_cycles: simulation bound; exceeded means livelock/deadlock
            (impossible under XY routing unless packets never drain).
    """

    flit_size_bits: float = 64.0
    buffer_flits: int = 2
    max_cycles: int = 2_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.flit_size_bits) and self.flit_size_bits > 0):
            raise WormholeError(
                f"flit_size_bits must be positive and finite, got {self.flit_size_bits!r}"
            )
        if not (isinstance(self.buffer_flits, int) and self.buffer_flits >= 1):
            raise WormholeError(
                f"buffer_flits must be an integer >= 1, got {self.buffer_flits!r}"
            )
        if not (isinstance(self.max_cycles, int) and self.max_cycles >= 0):
            raise WormholeError(
                f"max_cycles must be an integer >= 0, got {self.max_cycles!r}"
            )


@dataclass
class PacketResult:
    """Flit-level outcome of one packet."""

    name: str
    n_flits: int
    inject_cycle: int
    delivered_cycle: int
    hops: int

    @property
    def latency_cycles(self) -> int:
        """Cycles from injection to the tail flit reaching the sink."""
        return self.delivered_cycle - self.inject_cycle

    @property
    def ideal_latency_cycles(self) -> int:
        """Contention-free pipeline latency: fill + drain."""
        return self.n_flits + self.hops - 1


@dataclass
class WormholeReport:
    """Aggregate results of a flit-level run."""

    cycle_time: float
    cycles_run: int
    packets: Dict[str, PacketResult] = field(default_factory=dict)
    link_busy_cycles: Dict[Link, int] = field(default_factory=dict)

    def delivery_time(self, name: str) -> float:
        """Wall-clock time the packet's tail reaches its destination."""
        return self.packets[name].delivered_cycle * self.cycle_time

    def average_latency_cycles(self) -> float:
        if not self.packets:
            return 0.0
        return sum(p.latency_cycles for p in self.packets.values()) / len(self.packets)

    def total_stall_cycles(self) -> int:
        """Extra cycles beyond the contention-free pipeline latency."""
        return sum(
            p.latency_cycles - p.ideal_latency_cycles for p in self.packets.values()
        )


class _PacketState:
    """Mutable per-packet simulation state."""

    __slots__ = (
        "spec",
        "lids",
        "n_flits",
        "inject_cycle",
        "at_source",
        "buffered",
        "crossed",
        "delivered_cycle",
    )

    def __init__(self, spec: PacketSpec, lids: Tuple[int, ...], n_flits: int, inject_cycle: int):
        self.spec = spec
        #: the route as per-run link ids, in path order.
        self.lids = lids
        self.n_flits = n_flits
        self.inject_cycle = inject_cycle
        #: flits not yet put on the first link.
        self.at_source = n_flits
        #: flits sitting in the register buffer after link i.
        self.buffered = [0] * len(lids)
        #: flits that have fully crossed link i.
        self.crossed = [0] * len(lids)
        self.delivered_cycle: Optional[int] = None


def simulate_wormhole(
    acg: ACG,
    packets: Sequence[PacketSpec],
    config: Optional[WormholeConfig] = None,
    link_faults: Optional[Mapping[Link, Sequence[Tuple[float, float]]]] = None,
) -> WormholeReport:
    """Run the flit-level simulation until every packet is delivered.

    Local packets (``src_pe == dst_pe``) are rejected — they never enter
    the network at the transaction level either.

    ``link_faults`` maps directed links to ``(start, end)`` *time*
    windows (``end`` may be ``math.inf`` for a permanent fault) during
    which no flit crosses the link: worms holding the channel stall in
    place (their buffers back-pressure upstream as usual) and resume
    when the window closes.  A worm stuck behind a permanent fault never
    drains, which surfaces as the :class:`WormholeError` cycle-bound —
    the "flagged" outcome transient validation looks for.
    """
    cfg = config or WormholeConfig()
    cycle_time = cfg.flit_size_bits / acg.link_bandwidth

    # Convert fault windows to half-open cycle ranges once, conservatively
    # widened to whole cycles.
    fault_cycles: Dict[Link, Tuple[Tuple[int, float], ...]] = {}
    for link, windows in (link_faults or {}).items():
        ranges = []
        for win_start, win_end in windows:
            if win_end <= win_start:
                continue
            first = int(math.floor(win_start / cycle_time))
            last = math.inf if math.isinf(win_end) else int(math.ceil(win_end / cycle_time))
            ranges.append((first, last))
        if ranges:
            fault_cycles[link] = tuple(ranges)

    # Number the links the packets use, once per run: the hot loop then
    # indexes lists instead of hashing Links.  Not ACG.link_id, because
    # recorded degraded or detour routes may use links it does not know.
    numbering: Dict[Link, int] = {}
    states: List[_PacketState] = []
    for spec in packets:
        links = spec.links
        if links is None:
            links = acg.route(spec.src_pe, spec.dst_pe).links
        if not links:
            raise WormholeError(f"packet {spec.name!r} is local; nothing to simulate")
        n_flits = max(1, math.ceil(spec.volume_bits / cfg.flit_size_bits))
        inject_cycle = math.ceil(spec.inject_time / cycle_time)
        lids = tuple(numbering.setdefault(link, len(numbering)) for link in links)
        states.append(_PacketState(spec, lids, n_flits, inject_cycle))
    faults = [fault_cycles.get(link, ()) for link in numbering]

    # Deterministic global arbitration order: earlier injection wins,
    # then name.  Fixed for the whole run (FIFO-like fairness).
    states.sort(key=lambda s: (s.inject_cycle, s.spec.name))

    owner: List[Optional[_PacketState]] = [None] * len(numbering)
    busy = [0] * len(numbering)
    #: in-flight packets, in arbitration order; ``states[pending:]`` wait.
    active: List[_PacketState] = []
    pending = 0
    cycle = steps = 0

    ins = obs.get()
    ins.metrics.counter("wormhole.packets").inc(len(states))
    with ins.tracer.span("wormhole.simulate", packets=len(states)) as span:
        while active or pending < len(states):
            if not active:
                # Idle network: nothing changes until the next injection.
                cycle = states[pending].inject_cycle
            if cycle > cfg.max_cycles:
                stuck = [s.spec.name for s in states if s.delivered_cycle is None]
                raise WormholeError(
                    f"simulation exceeded {cfg.max_cycles} cycles; stuck packets: {stuck}"
                )
            while pending < len(states) and states[pending].inject_cycle <= cycle:
                active.append(states[pending])
                pending += 1
            delivered = False
            for state in active:
                delivered |= _advance(state, owner, busy, cfg, cycle, faults)
            if delivered:
                active = [s for s in active if s.delivered_cycle is None]
            cycle += 1
            steps += 1
        span.set_attribute("cycles", cycle)
        span.set_attribute("steps", steps)
    ins.metrics.counter("wormhole.cycles").inc(cycle)
    ins.metrics.counter("wormhole.steps").inc(steps)

    report = WormholeReport(
        cycle_time=cycle_time,
        cycles_run=cycle,
        link_busy_cycles={link: busy[lid] for link, lid in numbering.items()},
    )
    for state in states:
        assert state.delivered_cycle is not None
        report.packets[state.spec.name] = PacketResult(
            name=state.spec.name,
            n_flits=state.n_flits,
            inject_cycle=state.inject_cycle,
            delivered_cycle=state.delivered_cycle,
            hops=len(state.lids),
        )
    return report


def _advance(
    state: _PacketState,
    owner: List[Optional[_PacketState]],
    busy: List[int],
    cfg: WormholeConfig,
    cycle: int,
    faults: List[Tuple[Tuple[int, float], ...]],
) -> bool:
    """Move this packet's flits one link at most, downstream first.

    Iterating links from the last to the first guarantees a flit crosses
    at most one link per cycle, and processing downstream stages first
    frees buffer space for upstream flits within the same cycle — the
    standard synchronous-pipeline update order.  A link inside one of its
    ``faults`` ranges transfers nothing this cycle: the flit stalls
    where it is and channel ownership is neither acquired nor released.
    Returns whether the tail flit was delivered this cycle.
    """
    lids = state.lids
    k = len(lids)
    for i in range(k - 1, -1, -1):
        available = state.at_source if i == 0 else state.buffered[i - 1]
        if available == 0:
            continue
        if state.crossed[i] >= state.n_flits:
            continue
        lid = lids[i]
        ranges = faults[lid]
        if ranges and any(first <= cycle < last for first, last in ranges):
            continue  # link down this cycle: flit stalls in place
        current = owner[lid]
        if current is None:
            # Wormhole acquisition: the head flit grabs the channel.
            owner[lid] = state
        elif current is not state:
            continue  # channel held by another worm: blocked
        # Backpressure: the downstream register must have space (the
        # sink consumes instantly).
        if i < k - 1 and state.buffered[i] >= cfg.buffer_flits:
            continue
        # Move one flit across link i.
        if i == 0:
            state.at_source -= 1
        else:
            state.buffered[i - 1] -= 1
        if i < k - 1:
            state.buffered[i] += 1
        state.crossed[i] += 1
        busy[lid] += 1
        if state.crossed[i] == state.n_flits:
            owner[lid] = None  # tail passed: release the channel
            if i == k - 1:
                # The tail has crossed every upstream link already.
                state.delivered_cycle = cycle + 1
                return True
    return False


def packets_from_schedule(schedule: Schedule, min_start: float = 0.0) -> List[PacketSpec]:
    """Extract the network packets of a schedule (non-local transactions),
    injected at their transaction start times on their *recorded* routes.

    ``min_start`` drops transactions starting earlier — degraded-mode
    validation replays only the post-fault regime this way.  Local and
    zero-volume transactions never enter the network and are skipped.
    """
    packets = []
    for (src, dst), comm in sorted(schedule.comm_placements.items()):
        if comm.is_local or comm.volume <= 0 or comm.start < min_start:
            continue
        packets.append(
            PacketSpec(
                name=f"{src}->{dst}",
                src_pe=comm.src_pe,
                dst_pe=comm.dst_pe,
                volume_bits=comm.volume,
                inject_time=comm.start,
                links=comm.links,
            )
        )
    return packets


def validate_transaction_abstraction(
    schedule: Schedule,
    config: Optional[WormholeConfig] = None,
    slack_hops_factor: float = 4.0,
    link_faults: Optional[Mapping[Link, Sequence[Tuple[float, float]]]] = None,
    min_start: float = 0.0,
) -> WormholeReport:
    """Check the transaction-level model against flit-level execution.

    Replays every network transaction of ``schedule`` through the
    wormhole simulator at its scheduled injection time and verifies each
    packet's tail arrives within the transaction window plus a pipeline
    allowance.  The allowance covers (a) the ``hops - 1`` cycle pipeline
    fill, (b) flit-count rounding and (c) bounded tail-drain interleaving
    with the next reservation on shared links; ``slack_hops_factor``
    scales it.

    ``link_faults`` injects transient link-down windows into the
    simulation (see :func:`simulate_wormhole`); ``min_start`` restricts
    the replay to transactions starting at or after that time.  Both are
    how fault recovery confirms delivery under transients.

    Raises:
        SchedulingError: a packet arrived later than the abstraction
            promised — the schedule is NOT conservative at flit level.
        WormholeError: ``slack_hops_factor`` is negative or not finite
            (a NaN or infinite allowance would pass every schedule).
    """
    if not (math.isfinite(slack_hops_factor) and slack_hops_factor >= 0):
        raise WormholeError(
            f"slack_hops_factor must be non-negative and finite, got {slack_hops_factor!r}"
        )
    cfg = config or WormholeConfig()
    packets = packets_from_schedule(schedule, min_start=min_start)
    if not packets:
        return WormholeReport(
            cycle_time=cfg.flit_size_bits / schedule.acg.link_bandwidth, cycles_run=0
        )
    report = simulate_wormhole(schedule.acg, packets, cfg, link_faults=link_faults)
    for (src, dst), comm in schedule.comm_placements.items():
        if comm.is_local or comm.volume <= 0 or comm.start < min_start:
            continue
        name = f"{src}->{dst}"
        delivered = report.delivery_time(name)
        hops = len(comm.links)
        allowance = report.cycle_time * (slack_hops_factor * hops + 2)
        if delivered > comm.finish + allowance:
            raise SchedulingError(
                f"transaction {name} finished at {delivered:.3f} at flit level "
                f"but the schedule promised {comm.finish:.3f} (+{allowance:.3f} allowed)"
            )
    return report
