"""Equivalence harness and unit tests for the incremental rebuild engine.

The load-bearing guarantee of ``core/increbuild.py`` is *exactness*: for
every candidate move the repair loop probes — accepted or rejected — the
incremental path must behave indistinguishably from a full
``rebuild_schedule``.  The randomized corpus below runs whole repair
loops with ``RepairConfig.selfcheck`` on, which cross-checks **every
single evaluation** against a from-scratch rebuild byte-compared through
serialization v2 (and every early abort against the full candidate
metric), then additionally asserts the end-to-end results of the
incremental engine and the paper-literal reference repair
(``reference_repair``) are bit-identical — same schedule bytes, same
accepted-move sequence, same ``RepairReport`` counters.
"""

import random
from dataclasses import replace

import pytest

from repro import obs
from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.core.eas import EASConfig, eas_schedule
from repro.core.increbuild import IncrementalRebuilder, _schedule_metric
from repro.core.rebuild import rebuild_schedule
from repro.core.reference import reference_eas_schedule, reference_repair
from repro.core.repair import RepairConfig, search_and_repair
from repro.errors import InfeasibleOrderError
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.schedule.serialization import schedule_to_json

from tests.conftest import uniform_task


def mesh3x3():
    types = ["cpu", "dsp", "arm", "risc", "cpu", "dsp", "arm", "risc", "cpu"]
    return ACG(Mesh2D(3, 3), pe_types=types)


def tightened(category: int, index: int, n_tasks: int = 24, factor: float = 0.55) -> CTG:
    """A small benchmark graph with deadlines tight enough to need repair."""
    return generate_category(category, index, n_tasks=n_tasks).with_scaled_deadlines(factor)


class TestEquivalenceCorpus:
    """Randomized 20+ graph harness: every probed move is cross-checked."""

    @pytest.mark.parametrize("production_base", [True, False])
    @pytest.mark.parametrize("seed", [None, 20240915])
    def test_full_repair_selfchecked(self, production_base, seed):
        """Every evaluation during repair matches a full rebuild.

        ``selfcheck=True`` makes the engine byte-compare each evaluated
        candidate (and verify each abort) inline, so a single repair run
        checks hundreds of moves.  Parametrized over the Step-2 path
        (production or reference) and the jitter seed so both RNG
        disciplines and both base schedule paths are exercised.
        """
        acg = mesh3x3()
        checked_misses = 0
        level = eas_schedule if production_base else reference_eas_schedule
        for index in range(3):
            ctg = tightened(2, index)
            base = level(ctg, acg, EASConfig(repair=False))
            checked_misses += len(base.deadline_misses())
            cfg = RepairConfig(
                seed=seed,
                selfcheck=True,
                max_rounds=4,
                max_migrations_per_round=64,
            )
            repaired, report = search_and_repair(base, cfg)
            repaired.validate_structure()
        assert checked_misses > 0, "corpus too easy: nothing exercised repair"

    def test_modes_bit_identical_across_corpus(self):
        """Incremental and reference repair agree bit-for-bit.

        Same schedule serialization, same RepairReport (which encodes
        the accepted/tried move sequence counts) on 20 random graphs
        spanning both benchmark categories.
        """
        acg = mesh3x3()
        exercised = 0
        for category in (1, 2):
            for index in range(10):
                ctg = tightened(category, index, factor=0.5)
                base = eas_schedule(ctg, acg, EASConfig(repair=False))
                outcomes = {}
                cfg = RepairConfig(max_rounds=4, max_migrations_per_round=48)
                for mode, repair in ((False, reference_repair), (True, search_and_repair)):
                    repaired, report = repair(base, cfg)
                    outcomes[mode] = (schedule_to_json(repaired), repr(report))
                assert outcomes[False][0] == outcomes[True][0], (
                    f"cat{category}-{index}: schedules diverge between modes"
                )
                assert outcomes[False][1] == outcomes[True][1], (
                    f"cat{category}-{index}: reports diverge between modes"
                )
                if "swaps=0/0, migrations=0/0" not in outcomes[True][1]:
                    exercised += 1
        assert exercised >= 5, "corpus too easy: repair barely ran"

    def test_path_cache_matrix_bit_identical(self):
        """Every (incremental, path cache) combination agrees.

        The path-table cache threads through both repair evaluators
        (incremental replays and full rebuilds, the latter plugged in
        through ``RepairConfig.rebuilder``); a soundness bug in any
        combination shows up as a serialization diff against the
        literal/literal reference.
        """
        acg = mesh3x3()
        exercised = 0
        cfg = RepairConfig(max_rounds=3, max_migrations_per_round=48)
        for category, index in [(1, 2), (1, 7), (2, 1), (2, 6)]:
            ctg = tightened(category, index, factor=0.5)
            base = eas_schedule(ctg, acg, EASConfig(repair=False))

            def full_rebuild(mapping, orders):
                try:
                    return rebuild_schedule(ctg, acg, mapping, orders, algorithm=base.algorithm)
                except InfeasibleOrderError:
                    return None

            runs = {
                (False, False): reference_repair(base, cfg),
                (False, True): search_and_repair(base, replace(cfg, rebuilder=full_rebuild)),
                (True, True): search_and_repair(base, cfg),
            }
            outcomes = {
                combo: (schedule_to_json(repaired), repr(report))
                for combo, (repaired, report) in runs.items()
            }
            reference = outcomes[(False, False)]
            for combo, outcome in outcomes.items():
                assert outcome == reference, (
                    f"cat{category}-{index}: (incremental, pathcache)={combo} "
                    "diverges from the literal/literal reference"
                )
            if "swaps=0/0, migrations=0/0" not in reference[1]:
                exercised += 1
        assert exercised >= 2, "corpus too easy: repair barely ran"

    def test_random_walk_probes_and_promotes(self):
        """Direct engine drive: random swaps/migrations, all selfchecked."""
        acg = mesh3x3()
        rng = random.Random(7)
        evaluations = 0
        for index in range(4):
            ctg = generate_category(2, index, n_tasks=30)
            sched = eas_schedule(ctg, acg, EASConfig(repair=False))
            mapping = dict(sched.mapping())
            orders = {pe: list(names) for pe, names in sched.pe_order().items()}
            base = rebuild_schedule(ctg, acg, mapping, orders)
            engine = IncrementalRebuilder(
                ctg, acg, mapping, orders, selfcheck=True, memoize=False
            )
            metric = _schedule_metric(base)
            for _trial in range(25):
                cand_map = dict(mapping)
                cand_orders = {pe: list(names) for pe, names in orders.items()}
                if rng.random() < 0.5:
                    busy = [pe for pe, names in cand_orders.items() if len(names) >= 2]
                    if not busy:
                        continue
                    pe = rng.choice(busy)
                    i = rng.randrange(len(cand_orders[pe]) - 1)
                    cand_orders[pe][i], cand_orders[pe][i + 1] = (
                        cand_orders[pe][i + 1],
                        cand_orders[pe][i],
                    )
                else:
                    task = rng.choice(ctg.task_names())
                    src = cand_map[task]
                    feasible = [
                        pe.index
                        for pe in acg.pes
                        if pe.index != src and ctg.task(task).cost_on(pe.type_name).feasible
                    ]
                    if not feasible:
                        continue
                    dst = rng.choice(feasible)
                    cand_map[task] = dst
                    cand_orders[src].remove(task)
                    cand_orders.setdefault(dst, []).append(task)
                result = engine.evaluate(cand_map, cand_orders, metric)
                evaluations += 1
                if result is not None and _schedule_metric(result) < metric:
                    engine.promote()
                    mapping, orders = cand_map, cand_orders
                    metric = _schedule_metric(result)
        assert evaluations >= 80


class TestEngineBehaviour:
    def _two_pe_fixture(self):
        """a -> c on PE0/PE1, b independent on PE0."""
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1))
        ctg.add_task(uniform_task("b", 10, 1, deadline=100.0))
        ctg.add_task(uniform_task("c", 10, 1, deadline=15.0))
        ctg.connect("a", "c", volume=100)
        acg = ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])
        mapping = {"a": 0, "b": 0, "c": 1}
        orders = {0: ["a", "b"], 1: ["c"]}
        return ctg, acg, mapping, orders

    def test_infeasible_candidate_rejected_without_corrupting_state(self):
        """A deadlocking candidate is a rejected move, nothing more.

        After the rejection the engine must still evaluate and promote
        later candidates correctly — i.e. the incumbent state (trace,
        tables, memo) was not corrupted by the failed replay.
        """
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1))
        ctg.add_task(uniform_task("b", 10, 1, deadline=5.0))
        ctg.connect("a", "b", volume=100)
        acg = ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])
        mapping = {"a": 0, "b": 0}
        orders = {0: ["a", "b"]}
        base = rebuild_schedule(ctg, acg, mapping, orders)
        engine = IncrementalRebuilder(ctg, acg, mapping, orders, selfcheck=True)
        metric = _schedule_metric(base)
        # b before a deadlocks: b's predecessor a can never run.
        assert engine.evaluate(mapping, {0: ["b", "a"]}, metric) is None
        # The engine still evaluates later candidates exactly (selfcheck
        # cross-checks each against a full rebuild): migrate b off PE0.
        cand_map = {"a": 0, "b": 1}
        cand_orders = {0: ["a"], 1: ["b"]}
        result = engine.evaluate(cand_map, cand_orders, metric)
        if result is not None and _schedule_metric(result) < metric:
            engine.promote()
            # Promotion adopted the candidate; the next evaluation runs
            # against the new incumbent and is still cross-checked.
            engine.evaluate(mapping, orders, _schedule_metric(result))

    def test_memoized_rejection_skips_second_rebuild(self):
        ctg, acg, mapping, orders = self._two_pe_fixture()
        base = rebuild_schedule(ctg, acg, mapping, orders)
        bundle = obs.Instrumentation.disabled()
        with obs.activate(bundle):
            engine = IncrementalRebuilder(ctg, acg, mapping, orders)
            metric = _schedule_metric(base)
            cand_orders = {0: ["b", "a"], 1: ["c"]}
            first = engine.evaluate(mapping, cand_orders, metric)
            assert first is None or not _schedule_metric(first) < metric
            second = engine.evaluate(mapping, cand_orders, metric)
            assert second is None
        assert bundle.metrics.counter("repair.memo_skips").value == 1

    def test_repair_infeasible_move_leaves_orders_consistent(self):
        """search_and_repair survives candidates that deadlock.

        Whatever moves get probed, the final schedule must be structurally
        valid and its per-PE orders must partition exactly the task set —
        i.e. a rejected InfeasibleOrderError never leaks half-applied
        orders into the loop state.  Runs for both the reference and the
        incremental engine.
        """
        acg = mesh3x3()
        ctg = tightened(2, 1, factor=0.5)
        base = eas_schedule(ctg, acg, EASConfig(repair=False))
        for repair in (reference_repair, search_and_repair):
            repaired, _report = repair(base)
            repaired.validate_structure()
            listed = sorted(
                name for names in repaired.pe_order().values() for name in names
            )
            assert listed == sorted(ctg.task_names())


class TestReportParity:
    def test_memo_skips_still_count_as_tried(self):
        """Tried counters are mode-independent even when memo skips fire."""
        acg = mesh3x3()
        ctg = tightened(2, 3, factor=0.5)
        base = eas_schedule(ctg, acg, EASConfig(repair=False))
        reports = {}
        skips = {}
        for mode, repair in ((False, reference_repair), (True, search_and_repair)):
            bundle = obs.Instrumentation.disabled()
            with obs.activate(bundle):
                _repaired, report = repair(
                    base, RepairConfig(max_rounds=3, max_migrations_per_round=48)
                )
            reports[mode] = (
                report.swaps_tried,
                report.migrations_tried,
                report.swaps_accepted,
                report.migrations_accepted,
            )
            skips[mode] = bundle.metrics.counter("repair.memo_skips").value
        assert reports[False] == reports[True]
        assert skips[False] == 0  # the reference never consults the memo
