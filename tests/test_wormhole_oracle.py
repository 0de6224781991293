"""Differential test: the event-driven wormhole replay against a per-cycle oracle.

``simulate_wormhole`` advances only the cycles that have a worm in
flight and jumps over idle stretches.  The oracle below is the plain
per-cycle loop it replaced: it steps every cycle from 0, scans every
packet each cycle and keys channel ownership, busy counts and fault
ranges by :class:`Link`.  On random packet sets -- long injection gaps,
1-3 flit buffers, recorded detour routes, transient and permanent fault
windows, small cycle bounds -- both must produce the same report, or
the same :class:`WormholeError` message.
"""

import math
from typing import Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.acg import ACG
from repro.arch.routing import XYRouting, YXRouting
from repro.arch.topology import Link, Mesh2D
from repro.sim.wormhole import (
    PacketResult,
    PacketSpec,
    WormholeConfig,
    WormholeError,
    WormholeReport,
    simulate_wormhole,
)

SLOW = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class _OraclePacket:
    def __init__(self, spec, links, n_flits, inject_cycle):
        self.spec = spec
        self.links = links
        self.n_flits = n_flits
        self.inject_cycle = inject_cycle
        self.at_source = n_flits
        self.buffered = [0] * len(links)
        self.crossed = [0] * len(links)
        self.delivered_cycle: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.delivered_cycle is not None


def oracle_simulate(acg, packets, cfg, link_faults=None) -> WormholeReport:
    """Per-cycle reference: every cycle, every packet, Link-keyed dicts."""
    cycle_time = cfg.flit_size_bits / acg.link_bandwidth
    fault_cycles: Dict[Link, tuple] = {}
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

    states: List[_OraclePacket] = []
    for spec in packets:
        links = spec.links
        if links is None:
            links = acg.route(spec.src_pe, spec.dst_pe).links
        n_flits = max(1, math.ceil(spec.volume_bits / cfg.flit_size_bits))
        inject_cycle = math.ceil(spec.inject_time / cycle_time)
        states.append(_OraclePacket(spec, links, n_flits, inject_cycle))
    states.sort(key=lambda s: (s.inject_cycle, s.spec.name))

    owner: Dict[Link, Optional[_OraclePacket]] = {}
    link_busy: Dict[Link, int] = {}
    remaining = len(states)
    cycle = 0
    while remaining > 0:
        if cycle > cfg.max_cycles:
            stuck = [s.spec.name for s in states if not s.done]
            raise WormholeError(
                f"simulation exceeded {cfg.max_cycles} cycles; stuck packets: {stuck}"
            )
        for state in states:
            if state.done or cycle < state.inject_cycle:
                continue
            _oracle_advance(state, owner, link_busy, cfg, cycle, fault_cycles)
            if state.done:
                remaining -= 1
        cycle += 1

    report = WormholeReport(cycle_time=cycle_time, cycles_run=cycle, link_busy_cycles=link_busy)
    for state in states:
        report.packets[state.spec.name] = PacketResult(
            name=state.spec.name,
            n_flits=state.n_flits,
            inject_cycle=state.inject_cycle,
            delivered_cycle=state.delivered_cycle,
            hops=len(state.links),
        )
    return report


def _oracle_advance(state, owner, link_busy, cfg, cycle, fault_cycles):
    links = state.links
    k = len(links)
    for i in range(k - 1, -1, -1):
        available = state.at_source if i == 0 else state.buffered[i - 1]
        if available == 0:
            continue
        if state.crossed[i] >= state.n_flits:
            continue
        link = links[i]
        if fault_cycles:
            ranges = fault_cycles.get(link)
            if ranges and any(first <= cycle < last for first, last in ranges):
                continue
        current = owner.get(link)
        if current is None:
            owner[link] = state
        elif current is not state:
            continue
        if i < k - 1 and state.buffered[i] >= cfg.buffer_flits:
            continue
        if i == 0:
            state.at_source -= 1
        else:
            state.buffered[i - 1] -= 1
        if i < k - 1:
            state.buffered[i] += 1
        state.crossed[i] += 1
        link_busy[link] = link_busy.get(link, 0) + 1
        if state.crossed[i] == state.n_flits:
            owner[link] = None
            if i == k - 1:
                state.delivered_cycle = cycle + 1


def _path_links(path):
    return tuple(Link(a, b) for a, b in zip(path, path[1:]))


@st.composite
def detour(draw, acg, src, dst):
    """``None`` (route through the ACG) or a recorded non-XY route."""
    mesh = acg.topology
    a, b = acg.pe(src).position, acg.pe(dst).position
    kind = draw(st.sampled_from(["acg", "yx", "via"]))
    if kind == "acg":
        return None
    if kind == "yx":
        return _path_links(YXRouting().route(mesh, a, b))
    via = acg.pe(draw(st.integers(0, acg.n_pes - 1))).position
    xy = XYRouting()
    links = _path_links(xy.route(mesh, a, via)) + _path_links(xy.route(mesh, via, b))
    if len(set(links)) != len(links):
        return None  # the detour would reuse a channel; keep the XY route
    return links


@st.composite
def scenarios(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=2, max_value=4))
    acg = ACG(Mesh2D(rows, cols), pe_types=["risc"] * (rows * cols), link_bandwidth=64.0)
    flit_size = draw(st.sampled_from([32.0, 64.0, 100.0]))
    n_packets = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.permutations(range(n_packets)))  # names not in injection order
    gap = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=1e4),
    )
    specs, inject = [], 0.0
    for i in range(n_packets):
        src = draw(st.integers(0, acg.n_pes - 1))
        dst = draw(st.integers(0, acg.n_pes - 1).filter(lambda d, s=src: d != s))
        inject += draw(gap)
        volume = draw(st.floats(min_value=1.0, max_value=64.0 * 40))
        links = draw(detour(acg, src, dst))
        specs.append(PacketSpec(f"p{ids[i]}", src, dst, volume, inject, links=links))

    # Fault windows anywhere on the time line, so some fall inside idle
    # gaps; an infinite one drains only to the cycle bound.
    all_links = acg.topology.links()
    link_faults: Dict[Link, list] = {}
    for _ in range(draw(st.integers(0, 3))):
        link = draw(st.sampled_from(all_links))
        start = draw(st.floats(min_value=0.0, max_value=inject + 100.0))
        length = draw(st.one_of(st.floats(0.0, 200.0), st.just(math.inf)))
        link_faults.setdefault(link, []).append((start, start + length))

    max_cycles = draw(st.one_of(st.just(inject / (flit_size / 64.0) + 5_000), st.integers(0, 3000)))
    cfg = WormholeConfig(
        flit_size_bits=flit_size,
        buffer_flits=draw(st.integers(1, 3)),
        max_cycles=int(max_cycles),
    )
    return acg, specs, cfg, link_faults


def _outcome(simulate, acg, specs, cfg, link_faults):
    try:
        return simulate(acg, specs, cfg, link_faults=link_faults)
    except WormholeError as exc:
        return str(exc)


@SLOW
@given(scenarios())
def test_event_driven_replay_matches_per_cycle_oracle(case):
    acg, specs, cfg, link_faults = case
    expected = _outcome(oracle_simulate, acg, specs, cfg, link_faults)
    actual = _outcome(simulate_wormhole, acg, specs, cfg, link_faults)
    if isinstance(expected, str):
        assert actual == expected  # identical cycle-bound error
        return
    assert isinstance(actual, WormholeReport), actual
    assert actual.cycle_time == expected.cycle_time
    assert actual.cycles_run == expected.cycles_run
    assert actual.packets == expected.packets
    assert actual.link_busy_cycles == expected.link_busy_cycles


def test_lone_packet_injected_beyond_the_bound():
    """An idle jump past ``max_cycles`` raises as per-cycle stepping would.

    One flit over one hop would be delivered by the first step after the
    jump, so only a bound check after the jump raises here.
    """
    acg = ACG(Mesh2D(1, 2), pe_types=["risc"] * 2, link_bandwidth=64.0)
    spec = PacketSpec("late", 0, 1, volume_bits=64.0, inject_time=500.0)
    cfg = WormholeConfig(max_cycles=100)
    with pytest.raises(WormholeError) as expected:
        oracle_simulate(acg, [spec], cfg)
    with pytest.raises(WormholeError) as actual:
        simulate_wormhole(acg, [spec], cfg)
    assert str(actual.value) == str(expected.value)
    assert "stuck packets: ['late']" in str(actual.value)
