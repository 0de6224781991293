"""Randomized equivalence harness for the incremental F(i,k) cache.

The incremental evaluation engine must be *observationally invisible*:
for any input, the cached scheduler and the paper-literal reference
(``reference_eas_schedule``) must emit byte-identical schedules — same task
placements, same communication placements, same energy, same deadline
misses, same decision provenance.  The corpus below sweeps a seeded
``ctg/generator`` family across deadline tightness (category I and II),
platform heterogeneity (type cycles of 2–6 entries over the standard PE
catalogue) and mesh sizes, and includes graphs that trigger Rule-3
performance rescues and Step-3 search-and-repair.
"""

from __future__ import annotations

from typing import List, Tuple

from repro import obs
from repro.arch.presets import hetero_mesh
from repro.core.eas import EASConfig, LevelBasedScheduler, eas_base_schedule, eas_schedule
from repro.core.reference import LiteralTables, reference_eas_schedule, reference_level_schedule
from repro.core.slack import compute_budgets
from repro.ctg.generator import generate_category

#: Platform type cycles covering 2–6 PE-type entries (2–4 distinct
#: classes; 5/6-entry cycles repeat classes, shifting the type mix).
TYPE_CYCLES: List[Tuple[str, ...]] = [
    ("cpu", "arm"),
    ("dsp", "risc", "cpu"),
    ("cpu", "dsp", "arm", "risc"),
    ("cpu", "dsp", "arm", "risc", "cpu"),
    ("cpu", "dsp", "arm", "risc", "dsp", "arm"),
]

#: (mesh rows, cols) per corpus slot; small enough to keep the harness
#: fast, large enough that link contention and footprints overlap.
MESHES = [(3, 3), (4, 4)]

N_GRAPHS = 24


def _corpus():
    """Yield ``(ctg, acg)`` pairs for every corpus slot."""
    for i in range(N_GRAPHS):
        category = 1 if i % 2 == 0 else 2
        cycle = TYPE_CYCLES[i % len(TYPE_CYCLES)]
        rows, cols = MESHES[i % len(MESHES)]
        ctg = generate_category(
            category,
            i,
            n_tasks=24 + 4 * (i % 5),
            pe_type_names=tuple(sorted(set(cycle))),
        )
        acg = hetero_mesh(rows, cols, type_cycle=cycle, shuffle_seed=200 + i)
        yield ctg, acg


def _run(ctg, acg, scheduler=eas_schedule):
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        schedule = scheduler(ctg, acg)
    return schedule, ins


def _assert_identical(naive, cached, name: str) -> None:
    assert cached.task_placements == naive.task_placements, name
    assert cached.comm_placements == naive.comm_placements, name
    assert cached.total_energy() == naive.total_energy(), name
    assert cached.deadline_misses() == naive.deadline_misses(), name
    assert cached.provenance == naive.provenance, name


class TestEquivalenceCorpus:
    def test_cached_and_naive_schedules_identical(self):
        rescues = 0
        repairs = 0
        hits = 0.0
        for ctg, acg in _corpus():
            naive, naive_ins = _run(ctg, acg, reference_eas_schedule)
            cached, cached_ins = _run(ctg, acg)
            _assert_identical(naive, cached, ctg.name)
            # The naive path must never touch the cache counters.
            assert naive_ins.metrics.counter("eas.cache_hits").value == 0
            hits += cached_ins.metrics.counter("eas.cache_hits").value
            rescues += cached_ins.metrics.counter("eas.rescues").value
            # Step 3 ran iff the level schedule missed a deadline.
            base = eas_base_schedule(ctg, acg)
            if base.deadline_misses():
                repairs += 1
        # The corpus must exercise the interesting paths, or the
        # equivalence claim is weaker than advertised.
        assert hits > 0, "corpus never hit the evaluation cache"
        assert rescues > 0, "corpus never triggered a Rule-3 rescue"
        assert repairs > 0, "corpus never triggered Step-3 repair"

    def test_cached_validates_structurally(self):
        for i, (ctg, acg) in enumerate(_corpus()):
            if i % 6:
                continue  # spot-check: full validation is O(n^2)-ish
            cached, _ = _run(ctg, acg)
            cached.validate()


class TestCacheEffectiveness:
    def test_cache_cuts_full_evaluations(self):
        ctg = generate_category(1, 5, n_tasks=80)
        acg = hetero_mesh(4, 4, shuffle_seed=105)
        naive, naive_ins = _run(ctg, acg, reference_eas_schedule)
        cached, cached_ins = _run(ctg, acg)
        _assert_identical(naive, cached, ctg.name)
        naive_evals = naive_ins.metrics.counter("eas.evaluations").value
        cached_evals = cached_ins.metrics.counter("eas.evaluations").value
        assert cached_evals < naive_evals / 1.5
        assert cached_ins.metrics.counter("eas.cache_hits").value > 0
        assert cached_ins.metrics.counter("eas.cache_invalidations").value > 0

    def test_fixed_delay_ablation_equivalent_too(self):
        # With contention off the footprint degenerates to the PE alone;
        # invalidation must still be sound.
        ctg = generate_category(2, 7, n_tasks=40)
        acg = hetero_mesh(3, 3, shuffle_seed=207)
        naive = reference_eas_schedule(ctg, acg, EASConfig(contention_aware=False))
        cached = eas_schedule(ctg, acg, EASConfig(contention_aware=False))
        assert cached.task_placements == naive.task_placements
        assert cached.comm_placements == naive.comm_placements


class TestPathCacheEquivalence:
    """The path-table cache must be observationally invisible too.

    Same contract as the F(i,k) cache above: over the whole corpus,
    scheduling with the version-keyed path cache (production) and with
    the literal re-merge-per-probe reference must be bit-identical in
    every output.
    """

    def test_cached_and_literal_schedules_identical(self):
        hits = 0.0
        horizon = 0.0
        for ctg, acg in _corpus():
            literal, literal_ins = _run(ctg, acg, reference_eas_schedule)
            cached, cached_ins = _run(ctg, acg)
            _assert_identical(literal, cached, ctg.name)
            # The literal path must never touch the cache counters.
            assert literal_ins.metrics.counter("comm.path_cache_hits").value == 0
            assert literal_ins.metrics.counter("comm.horizon_fast_path").value == 0
            # The cached path must do strictly less merge work.
            assert (
                cached_ins.metrics.counter("comm.merge_intervals").value
                < literal_ins.metrics.counter("comm.merge_intervals").value
            ), ctg.name
            hits += cached_ins.metrics.counter("comm.path_cache_hits").value
            horizon += cached_ins.metrics.counter("comm.horizon_fast_path").value
        assert hits > 0, "corpus never hit the path-table cache"
        assert horizon > 0, "corpus never took the horizon fast path"

    def test_both_caches_off_still_identical(self):
        # The two caches compose: Step 2 with both on, with only the
        # evaluation cache on, and with both off must agree.
        ctg = generate_category(2, 3, n_tasks=40)
        acg = hetero_mesh(3, 3, shuffle_seed=203)
        budgets = compute_budgets(ctg, acg)
        both_on = LevelBasedScheduler(ctg, acg, budgets).run()
        eval_cache_only = LevelBasedScheduler(ctg, acg, budgets, tables=LiteralTables()).run()
        both_off = reference_level_schedule(ctg, acg, budgets)
        _assert_identical(both_off, both_on, "cache=on pathcache=on")
        _assert_identical(both_off, eval_cache_only, "cache=on pathcache=off")
