"""Tests for the flit-level wormhole simulator."""


import pytest

from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2, mesh_3x3
from repro.arch.topology import Mesh2D
from repro.core.eas import eas_base_schedule
from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.multimedia import av_encoder_ctg
from repro.errors import SchedulingError
from repro.sim.wormhole import (
    PacketSpec,
    WormholeConfig,
    WormholeError,
    packets_from_schedule,
    simulate_wormhole,
    validate_transaction_abstraction,
)


def row_acg(n=4, bandwidth=64.0):
    """1xN mesh with bandwidth = one 64-bit flit per time unit."""
    return ACG(Mesh2D(1, n), pe_types=["risc"] * n, link_bandwidth=bandwidth)


class TestSinglePacket:
    def test_ideal_pipeline_latency(self):
        """One packet, empty network: latency = n_flits + hops - 1 cycles."""
        acg = row_acg()
        spec = PacketSpec("p", src_pe=0, dst_pe=3, volume_bits=640, inject_time=0)
        report = simulate_wormhole(acg, [spec])
        result = report.packets["p"]
        assert result.n_flits == 10
        assert result.hops == 3
        assert result.latency_cycles == result.ideal_latency_cycles == 12

    def test_single_hop(self):
        acg = row_acg()
        report = simulate_wormhole(
            acg, [PacketSpec("p", 0, 1, volume_bits=64, inject_time=0)]
        )
        assert report.packets["p"].latency_cycles == 1

    def test_flit_rounding_up(self):
        acg = row_acg()
        report = simulate_wormhole(
            acg, [PacketSpec("p", 0, 1, volume_bits=65, inject_time=0)]
        )
        assert report.packets["p"].n_flits == 2

    def test_injection_delay_respected(self):
        acg = row_acg()
        report = simulate_wormhole(
            acg, [PacketSpec("p", 0, 1, volume_bits=64, inject_time=10 * 1.0)]
        )
        assert report.packets["p"].inject_cycle == 10
        assert report.packets["p"].delivered_cycle == 11

    def test_cycle_time_scaling(self):
        """Cycle time = flit_size / bandwidth."""
        acg = row_acg(bandwidth=128.0)
        report = simulate_wormhole(
            acg, [PacketSpec("p", 0, 1, volume_bits=64, inject_time=0)]
        )
        assert report.cycle_time == pytest.approx(0.5)
        assert report.delivery_time("p") == pytest.approx(0.5)

    def test_local_packet_rejected(self):
        with pytest.raises(WormholeError):
            simulate_wormhole(row_acg(), [PacketSpec("p", 0, 0, 64, 0)])

    def test_invalid_packets(self):
        with pytest.raises(WormholeError):
            PacketSpec("p", 0, 1, volume_bits=0, inject_time=0)
        with pytest.raises(WormholeError):
            PacketSpec("p", 0, 1, volume_bits=64, inject_time=-1)


class TestContention:
    def test_shared_link_serialises(self):
        """Two same-route packets: the second waits for the first worm."""
        acg = row_acg()
        specs = [
            PacketSpec("a", 0, 2, volume_bits=640, inject_time=0),
            PacketSpec("b", 0, 2, volume_bits=640, inject_time=0),
        ]
        report = simulate_wormhole(acg, specs)
        a, b = report.packets["a"], report.packets["b"]
        # 'a' wins arbitration (name tie-break) and is unimpeded.
        assert a.latency_cycles == a.ideal_latency_cycles
        # 'b' must wait for a's tail to release the first channel.
        assert b.latency_cycles > b.ideal_latency_cycles
        assert b.delivered_cycle >= a.delivered_cycle

    def test_disjoint_routes_no_interference(self):
        acg = ACG(Mesh2D(2, 2), pe_types=["risc"] * 4, link_bandwidth=64.0)
        specs = [
            PacketSpec("a", 0, 1, volume_bits=640, inject_time=0),
            PacketSpec("b", 2, 3, volume_bits=640, inject_time=0),
        ]
        report = simulate_wormhole(acg, specs)
        for result in report.packets.values():
            assert result.latency_cycles == result.ideal_latency_cycles

    def test_earlier_injection_wins_arbitration(self):
        acg = row_acg()
        specs = [
            PacketSpec("later", 0, 2, volume_bits=320, inject_time=1.0),
            PacketSpec("early", 0, 2, volume_bits=320, inject_time=0.0),
        ]
        report = simulate_wormhole(acg, specs)
        assert (
            report.packets["early"].latency_cycles
            == report.packets["early"].ideal_latency_cycles
        )

    def test_backpressure_with_tiny_buffers(self):
        """A blocked worm backs up but still completes (no deadlock on a
        dimension-ordered route)."""
        acg = row_acg(n=5)
        specs = [
            PacketSpec("blocker", 2, 4, volume_bits=64 * 50, inject_time=0),
            PacketSpec("victim", 0, 4, volume_bits=64 * 4, inject_time=0),
        ]
        report = simulate_wormhole(acg, specs, WormholeConfig(buffer_flits=1))
        victim = report.packets["victim"]
        assert victim.latency_cycles > victim.ideal_latency_cycles
        assert report.total_stall_cycles() > 0

    def test_link_busy_cycles_accounting(self):
        acg = row_acg()
        report = simulate_wormhole(
            acg, [PacketSpec("p", 0, 2, volume_bits=640, inject_time=0)]
        )
        # 10 flits over each of 2 links.
        assert sum(report.link_busy_cycles.values()) == 20


class TestScheduleValidation:
    def test_eas_schedule_is_flit_level_conservative(self):
        ctg = av_encoder_ctg("foreman")
        acg = mesh_2x2()
        schedule = eas_base_schedule(ctg, acg)
        report = validate_transaction_abstraction(schedule)
        # Every scheduled network transaction was simulated.
        expected = sum(
            1
            for c in schedule.comm_placements.values()
            if not c.is_local and c.volume > 0
        )
        assert len(report.packets) == expected

    def test_random_graph_schedule_conservative(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=40, seed=9, level_width=4.0))
        acg = mesh_3x3()
        schedule = eas_base_schedule(ctg, acg)
        validate_transaction_abstraction(schedule)

    def test_no_network_traffic_short_circuits(self):
        from repro.ctg.graph import CTG
        from tests.conftest import uniform_task

        ctg = CTG()
        ctg.add_task(uniform_task("only", 10, 1))
        schedule = eas_base_schedule(ctg, mesh_2x2())
        report = validate_transaction_abstraction(schedule)
        assert report.packets == {}

    def test_packets_from_schedule_skips_local(self):
        ctg = av_encoder_ctg("akiyo")
        acg = mesh_2x2()
        schedule = eas_base_schedule(ctg, acg)
        packets = packets_from_schedule(schedule)
        locals_ = [c for c in schedule.comm_placements.values() if c.is_local]
        assert len(packets) == len(schedule.comm_placements) - len(locals_)

    def test_violation_detected_with_zero_allowance_and_fabricated_times(self):
        """A schedule that lies about a transaction window must fail."""
        ctg = generate_ctg(GeneratorConfig(n_tasks=20, seed=4, level_width=3.0))
        acg = mesh_3x3()
        schedule = eas_base_schedule(ctg, acg)
        moving = [c for c in schedule.comm_placements.values() if not c.is_local]
        if not moving:
            pytest.skip("no network traffic in this instance")
        # Shrink one transaction's recorded finish to before it can end.
        victim = moving[0]
        key = (victim.src_task, victim.dst_task)
        from dataclasses import replace

        schedule.comm_placements[key] = replace(victim, finish=victim.start)
        with pytest.raises(SchedulingError):
            validate_transaction_abstraction(schedule, slack_hops_factor=0.0)


class TestConfig:
    def test_invalid_config(self):
        with pytest.raises(WormholeError):
            WormholeConfig(flit_size_bits=0)
        with pytest.raises(WormholeError):
            WormholeConfig(buffer_flits=0)

    def test_cycle_bound_raises(self):
        acg = row_acg()
        spec = PacketSpec("p", 0, 3, volume_bits=64 * 1000, inject_time=0)
        with pytest.raises(WormholeError):
            simulate_wormhole(acg, [spec], WormholeConfig(max_cycles=10))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flit_size_bits", float("nan")),
            ("flit_size_bits", float("inf")),
            ("buffer_flits", 1.5),
            ("max_cycles", -1),
            ("max_cycles", 10.0),
        ],
    )
    def test_rejects_malformed_field(self, field, value):
        with pytest.raises(WormholeError, match=field):
            WormholeConfig(**{field: value})


class TestInputValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("volume_bits", float("nan")),
            ("volume_bits", float("inf")),
            ("inject_time", float("nan")),
            ("inject_time", float("inf")),
        ],
    )
    def test_packet_rejects_non_finite(self, field, value):
        fields = dict(name="bad", src_pe=0, dst_pe=1, volume_bits=64.0, inject_time=0.0)
        fields[field] = value
        with pytest.raises(WormholeError, match=rf"'bad'.*{field}"):
            PacketSpec(**fields)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -1.0])
    def test_slack_hops_factor_must_be_finite_and_non_negative(self, factor):
        # A NaN or infinite allowance would pass any schedule; a negative
        # one would demand delivery before the transaction ends.
        schedule = eas_base_schedule(av_encoder_ctg("akiyo"), mesh_2x2())
        with pytest.raises(WormholeError, match="slack_hops_factor"):
            validate_transaction_abstraction(schedule, slack_hops_factor=factor)


class TestStepCount:
    def test_steps_cover_exactly_the_cycles_in_flight(self):
        """``wormhole.steps`` counts the union of the packets' flight ranges."""
        from repro import obs
        from repro.core.eas import eas_schedule
        from repro.ctg.multimedia import av_integrated_ctg

        schedule = eas_schedule(av_integrated_ctg("foreman"), mesh_3x3())
        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            report = validate_transaction_abstraction(schedule)
        in_flight = set()
        for result in report.packets.values():
            in_flight.update(range(result.inject_cycle, result.delivered_cycle))
        steps = ins.metrics.counter("wormhole.steps").value
        assert steps == len(in_flight)
        assert steps < report.cycles_run / 10
        assert ins.metrics.counter("wormhole.cycles").value == report.cycles_run
        (span,) = [s for s in ins.tracer.spans if s.name == "wormhole.simulate"]
        assert span.attrs["steps"] == steps
        assert span.attrs["cycles"] == report.cycles_run


class TestPacketsFromScheduleEdgeCases:
    def _schedule_with_zero_byte_and_same_pe_edges(self):
        from repro.ctg.graph import CTG
        from repro.ctg.task import CommEdge
        from tests.conftest import uniform_task

        ctg = CTG()
        for name in ("a", "b", "c"):
            ctg.add_task(uniform_task(name, 10, 1))
        # a->b pure control dependency (zero bytes), a->c real data.
        ctg.add_edge(CommEdge("a", "b", volume=0.0))
        ctg.add_edge(CommEdge("a", "c", volume=256.0))
        return eas_base_schedule(ctg, mesh_2x2())

    def test_zero_byte_edges_produce_no_packets(self):
        schedule = self._schedule_with_zero_byte_and_same_pe_edges()
        packets = packets_from_schedule(schedule)
        assert all(p.volume_bits > 0 for p in packets)
        names = {p.name for p in packets}
        assert "a->b" not in names

    def test_same_pe_producer_consumer_skipped(self):
        from repro.ctg.graph import CTG
        from repro.ctg.task import CommEdge
        from tests.conftest import uniform_task

        # One feasible PE forces producer and consumer onto the same
        # tile: the transaction is local, so no packet may be created.
        ctg = CTG()
        ctg.add_task(uniform_task("p", 5, 1, pe_types=("risc",)))
        ctg.add_task(uniform_task("q", 5, 1, pe_types=("risc",)))
        ctg.add_edge(CommEdge("p", "q", volume=512.0))
        acg = ACG(Mesh2D(1, 2), pe_types=["risc", "arm"], link_bandwidth=64.0)
        schedule = eas_base_schedule(ctg, acg)
        assert packets_from_schedule(schedule) == []

    def test_min_start_filters_pre_fault_transactions(self):
        ctg = av_encoder_ctg("foreman")
        schedule = eas_base_schedule(ctg, mesh_2x2())
        moving = sorted(
            c.start
            for c in schedule.comm_placements.values()
            if not c.is_local and c.volume > 0
        )
        assert len(moving) >= 2, "fixture needs network traffic"
        cutoff = moving[len(moving) // 2]
        packets = packets_from_schedule(schedule, min_start=cutoff)
        assert len(packets) == sum(1 for start in moving if start >= cutoff)
        assert all(p.inject_time >= cutoff for p in packets)

    def test_recorded_links_override_routing(self):
        # A spec carrying explicit links must be simulated on them, not
        # on whatever the ACG's routing would pick today.
        from repro.arch.topology import Link

        acg = row_acg()
        detour = (Link((0, 0), (0, 1)), Link((0, 1), (0, 2)), Link((0, 2), (0, 3)))
        spec = PacketSpec("p", 0, 3, volume_bits=64, inject_time=0, links=detour)
        report = simulate_wormhole(acg, [spec])
        assert report.packets["p"].hops == 3


class TestLinkFaultInjection:
    def test_transient_window_stalls_delivery(self):
        from repro.arch.topology import Link

        acg = row_acg()  # cycle_time = 1.0
        spec = PacketSpec("p", 0, 1, volume_bits=64, inject_time=0)
        baseline = simulate_wormhole(acg, [spec]).packets["p"].delivered_cycle
        faulted = simulate_wormhole(
            acg, [spec], link_faults={Link((0, 0), (0, 1)): [(0.0, 5.0)]}
        ).packets["p"].delivered_cycle
        # Blocked for cycles 0..4, first hop happens in cycle 5.
        assert faulted == baseline + 5

    def test_window_on_other_link_is_harmless(self):
        from repro.arch.topology import Link

        acg = row_acg()
        spec = PacketSpec("p", 0, 1, volume_bits=64, inject_time=0)
        clean = simulate_wormhole(acg, [spec]).packets["p"].delivered_cycle
        faulted = simulate_wormhole(
            acg, [spec], link_faults={Link((0, 2), (0, 3)): [(0.0, 100.0)]}
        ).packets["p"].delivered_cycle
        assert faulted == clean

    def test_permanent_fault_hits_cycle_bound(self):
        import math as _math

        from repro.arch.topology import Link

        acg = row_acg()
        spec = PacketSpec("p", 0, 1, volume_bits=64, inject_time=0)
        with pytest.raises(WormholeError):
            simulate_wormhole(
                acg,
                [spec],
                WormholeConfig(max_cycles=200),
                link_faults={Link((0, 0), (0, 1)): [(0.0, _math.inf)]},
            )

    def test_validation_replays_under_faults_and_min_start(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=30, seed=11, level_width=4.0))
        acg = mesh_3x3()
        schedule = eas_base_schedule(ctg, acg)
        cutoff = schedule.makespan() * 0.5
        report = validate_transaction_abstraction(schedule, min_start=cutoff)
        expected = sum(
            1
            for c in schedule.comm_placements.values()
            if not c.is_local and c.volume > 0 and c.start >= cutoff
        )
        assert len(report.packets) == expected
