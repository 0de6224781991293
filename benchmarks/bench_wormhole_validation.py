"""VAL-WH — flit-level validation of the transaction abstraction (ours).

The schedulers reserve whole paths for ``volume / bandwidth`` — the
transaction-level wormhole abstraction of Sec. 3.1.  This bench replays
every scheduled transaction of the multimedia systems and a random
suite through the flit-level wormhole simulator (per-cycle flits,
channel ownership, 2-flit register buffers) and checks each packet's
tail arrives within the promised window plus the pipeline allowance.
It also reports the flit-level statistics (average latency, stall
cycles) that the abstraction hides, and the replay's own cost: ``steps``
(cycles the event-driven simulator actually advanced) next to
``cycles`` (simulated time).  ``steps < cycles`` is asserted on every
case with packets, so a regression to per-cycle stepping fails on an
operation count rather than on wall time.
"""

from benchmarks.conftest import run_once
from repro import obs
from repro.arch.presets import mesh_2x2, mesh_3x3, mesh_4x4
from repro.core.eas import eas_base_schedule
from repro.ctg.generator import generate_category
from repro.ctg.multimedia import av_encoder_ctg, av_integrated_ctg
from repro.sim.wormhole import validate_transaction_abstraction

CASES = (
    ("encoder/foreman", lambda: (av_encoder_ctg("foreman"), mesh_2x2())),
    ("integrated/toybox", lambda: (av_integrated_ctg("toybox"), mesh_3x3())),
    ("cat2-0 (random)", lambda: (generate_category(2, 0, n_tasks=60), mesh_4x4(shuffle_seed=100))),
)


def run_validation():
    rows = []
    for name, build in CASES:
        ctg, acg = build()
        schedule = eas_base_schedule(ctg, acg)
        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            report = validate_transaction_abstraction(schedule)
        rows.append(
            {
                "benchmark": name,
                "packets": len(report.packets),
                "cycles": report.cycles_run,
                "steps": int(ins.metrics.counter("wormhole.steps").value),
                "avg_latency": report.average_latency_cycles(),
                "stalls": report.total_stall_cycles(),
            }
        )
    return rows


def test_wormhole_validation(benchmark, show):
    rows = run_once(benchmark, run_validation)
    lines = ["flit-level replay of transaction-level schedules:"]
    for row in rows:
        lines.append(
            f"  {row['benchmark']:>20}: {row['packets']:3d} packets, "
            f"{row['cycles']:7d} cycles, {row['steps']:6d} steps, "
            f"avg latency {row['avg_latency']:.1f} cy, "
            f"stall cycles {row['stalls']}"
        )
    show("\n".join(lines))

    # validate_transaction_abstraction raises on any violated window, so
    # reaching this point IS the result; assert the runs were non-trivial.
    assert any(row["packets"] > 0 for row in rows)
    for row in rows:
        if row["packets"]:
            assert row["avg_latency"] > 0
            assert row["steps"] < row["cycles"], row
