"""Regression: pooled execution must be byte-identical to serial.

This is the determinism contract of the parallel engine — every pooled
run derives its randomness from the spec's explicit seeds (generator
category/index/base_seed, ACG shuffle seed, repair portfolio seed),
never from global ``random`` state or process identity, so ``jobs=4``
reproduces ``jobs=1`` exactly.
"""

import random

from repro.core.eas import eas_base_schedule
from repro.core.repair import multistart_search_and_repair, search_and_repair
from repro.evalx.experiments import run_fig5, run_msb_table
from repro.evalx.reporting import format_table


def _strip_runtimes(rows):
    """Everything the tables/JSON report except wall-clock runtimes."""
    return [
        (row.benchmark, row.energies, row.misses, row.extras, row.metrics)
        for row in rows
    ]


class TestFig5PoolEquality:
    def test_jobs4_equals_jobs1_exactly(self):
        serial = run_fig5(n_benchmarks=3, n_tasks=30, jobs=1)
        pooled = run_fig5(n_benchmarks=3, n_tasks=30, jobs=4)
        assert _strip_runtimes(serial) == _strip_runtimes(pooled)
        # The rendered table (what the CLI prints) is byte-identical.
        assert format_table(serial, "FIG5") == format_table(pooled, "FIG5")

    def test_global_random_state_is_irrelevant(self):
        random.seed(12345)
        first = run_fig5(n_benchmarks=2, n_tasks=25, jobs=2)
        random.seed(99999)
        second = run_fig5(n_benchmarks=2, n_tasks=25, jobs=2)
        assert _strip_runtimes(first) == _strip_runtimes(second)

    def test_worker_runtimes_are_worker_measured(self):
        rows = run_fig5(n_benchmarks=2, n_tasks=25, jobs=4)
        for row in rows:
            assert set(row.runtimes) == {"eas-base", "eas", "edf"}
            assert all(value > 0 for value in row.runtimes.values())


class TestMsbPoolEquality:
    def test_table_rows_identical(self):
        serial = run_msb_table("decoder", clips=["akiyo", "foreman"], jobs=1)
        pooled = run_msb_table("decoder", clips=["akiyo", "foreman"], jobs=3)
        assert _strip_runtimes(serial) == _strip_runtimes(pooled)
        assert [row.benchmark for row in pooled] == ["akiyo", "foreman"]


class TestMultistartRepair:
    def _missy_base(self):
        from repro.arch.presets import mesh_4x4
        from repro.ctg.generator import generate_category

        ctg = generate_category(2, 0, n_tasks=100)
        acg = mesh_4x4(shuffle_seed=100)
        base = eas_base_schedule(ctg, acg)
        assert base.deadline_misses()
        return base

    def test_portfolio_never_worse_than_plain_repair(self):
        base = self._missy_base()
        plain, _report = search_and_repair(base)
        best, portfolio = multistart_search_and_repair(base, starts=3, jobs=2)
        plain_key = (len(plain.deadline_misses()), plain.total_energy())
        best_key = (len(best.deadline_misses()), best.total_energy())
        assert best_key <= plain_key
        # Start 0 is always the paper-literal ordering.
        assert portfolio.outcomes[0].seed is None
        assert portfolio.outcomes[0].energy == plain.total_energy()
        assert len(portfolio.outcomes) == 3

    def test_portfolio_deterministic_across_worker_counts(self):
        base = self._missy_base()
        serial, port1 = multistart_search_and_repair(base, starts=3, jobs=1)
        pooled, port2 = multistart_search_and_repair(base, starts=3, jobs=2)
        assert port1.winner == port2.winner
        assert serial.task_placements == pooled.task_placements
        assert serial.comm_placements == pooled.comm_placements
        assert [o.energy for o in port1.outcomes] == [o.energy for o in port2.outcomes]

    def test_feasible_schedule_short_circuits(self):
        from repro.arch.presets import mesh_4x4
        from repro.ctg.generator import generate_category

        ctg = generate_category(1, 0, n_tasks=30)
        acg = mesh_4x4(shuffle_seed=100)
        base = eas_base_schedule(ctg, acg)
        assert not base.deadline_misses()
        best, portfolio = multistart_search_and_repair(base, starts=4, jobs=2)
        assert best is base
        assert len(portfolio.outcomes) == 1
        assert portfolio.winner_outcome.feasible

    def test_seeded_config_still_repairs(self):
        from repro.core.repair import RepairConfig

        base = self._missy_base()
        repaired, report = search_and_repair(base, RepairConfig(seed=7))
        assert len(repaired.deadline_misses()) <= len(base.deadline_misses())
        assert report.rounds >= 1
