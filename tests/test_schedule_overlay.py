"""Tests for committed resource tables and the tentative overlay."""


from repro import obs
from repro.arch.topology import Link
from repro.schedule.overlay import ResourceTables


class TestResourceTables:
    def test_lazy_table_creation(self):
        tables = ResourceTables()
        assert tables.busy("never-seen") == []
        assert tables.find_earliest("never-seen", 5.0, 10.0) == 5.0

    def test_reserve_visible(self):
        tables = ResourceTables()
        tables.reserve(0, 10, 20)
        assert tables.busy(0) == [(10, 20)]
        assert tables.find_earliest(0, 10, 5) == 20

    def test_mixed_key_types(self):
        tables = ResourceTables()
        link = Link((0, 0), (0, 1))
        tables.reserve(0, 0, 10)        # PE index key
        tables.reserve(link, 5, 15)     # link key
        assert tables.busy(0) == [(0, 10)]
        assert tables.busy(link) == [(5, 15)]

    def test_copy_is_deep(self):
        tables = ResourceTables()
        tables.reserve("r", 0, 10)
        clone = tables.copy()
        clone.reserve("r", 10, 20)
        assert tables.busy("r") == [(0, 10)]
        assert clone.busy("r") == [(0, 10), (10, 20)]

    def test_release(self):
        tables = ResourceTables()
        tables.reserve("r", 0, 10)
        tables.release("r", 0, 10)
        assert tables.busy("r") == []


class TestTentativeOverlay:
    def test_overlay_sees_base(self):
        tables = ResourceTables()
        tables.reserve("r", 0, 10)
        overlay = tables.overlay()
        assert overlay.find_earliest("r", 0, 5) == 10

    def test_tentative_reservation_visible_to_overlay_only(self):
        tables = ResourceTables()
        overlay = tables.overlay()
        overlay.reserve("r", 0, 10)
        assert overlay.find_earliest("r", 0, 5) == 10
        # The committed table is untouched.
        assert tables.find_earliest("r", 0, 5) == 0

    def test_drop_restores(self):
        tables = ResourceTables()
        overlay = tables.overlay()
        overlay.reserve("r", 0, 10)
        overlay.drop()
        assert overlay.find_earliest("r", 0, 5) == 0

    def test_commit_applies(self):
        tables = ResourceTables()
        overlay = tables.overlay()
        overlay.reserve("r", 0, 10)
        overlay.commit()
        assert tables.busy("r") == [(0, 10)]
        # Commit clears the overlay; a second commit is a no-op.
        overlay.commit()
        assert tables.busy("r") == [(0, 10)]

    def test_path_query_merges_links(self):
        tables = ResourceTables()
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (0, 2))
        tables.reserve(a, 0, 10)
        tables.reserve(b, 15, 25)
        overlay = tables.overlay()
        # Needs 5 units free on BOTH links simultaneously.
        assert overlay.find_earliest_on_path([a, b], 0, 5) == 10
        assert overlay.find_earliest_on_path([a, b], 0, 6) == 25

    def test_path_reserve_blocks_later_transactions(self):
        tables = ResourceTables()
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (1, 1))
        overlay = tables.overlay()
        start = overlay.find_earliest_on_path([a, b], 0, 10)
        overlay.reserve_on_path([a, b], start, start + 10)
        # A second transaction sharing link `a` must queue behind it.
        assert overlay.find_earliest_on_path([a], 0, 5) == 10
        # A transaction on a disjoint link is unaffected.
        c = Link((1, 0), (1, 1))
        assert overlay.find_earliest_on_path([c], 0, 5) == 0

    def test_empty_path_returns_ready(self):
        tables = ResourceTables()
        overlay = tables.overlay()
        assert overlay.find_earliest_on_path([], 33.0, 100.0) == 33.0

    def test_zero_duration_tentative_reservation_ignored(self):
        tables = ResourceTables()
        overlay = tables.overlay()
        overlay.reserve("r", 5, 5)
        overlay.commit()
        assert tables.busy("r") == []


class TestProbeFootprint:
    def test_queries_record_probes(self):
        tables = ResourceTables()
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (0, 2))
        overlay = tables.overlay()
        assert overlay.probed_resources() == frozenset()
        overlay.find_earliest(3, 0, 5)
        overlay.find_earliest_on_path([a, b], 0, 5)
        assert overlay.probed_resources() == frozenset({3, a, b})

    def test_empty_path_probes_nothing(self):
        overlay = ResourceTables().overlay()
        overlay.find_earliest_on_path([], 0, 5)
        assert overlay.probed_resources() == frozenset()

    def test_reserve_alone_is_not_a_probe(self):
        # Footprints track *reads*; schedule_incoming_transactions always
        # probes a path before reserving it, and reservations are
        # captured separately via reservations().
        overlay = ResourceTables().overlay()
        overlay.reserve("r", 0, 10)
        assert overlay.probed_resources() == frozenset()

    def test_reservations_snapshot_survives_drop(self):
        tables = ResourceTables()
        a = Link((0, 0), (0, 1))
        overlay = tables.overlay()
        overlay.reserve_on_path([a], 0, 10)
        overlay.reserve(a, 20, 30)
        snapshot = overlay.reservations()
        overlay.drop()
        assert snapshot == {a: ((0, 10), (20, 30))}
        assert overlay.reservations() == {}
        # Replaying the snapshot reproduces exactly what commit() would
        # have written.
        for resource, intervals in snapshot.items():
            for start, end in intervals:
                tables.reserve(resource, start, end)
        assert tables.busy(a) == [(0, 10), (20, 30)]

    def test_probes_persist_across_drop(self):
        # drop() restores the tables but the footprint describes the
        # whole evaluation, so it must survive the restore.
        overlay = ResourceTables().overlay()
        overlay.find_earliest("r", 0, 5)
        overlay.drop()
        assert overlay.probed_resources() == frozenset({"r"})


class TestFork:
    def test_fork_shares_until_mutation(self):
        base = ResourceTables()
        base.reserve(0, 0, 10)
        clone = base.fork()
        assert clone.busy(0) == [(0, 10)]
        # Clone mutation must not leak into the parent.
        clone.reserve(0, 20, 30)
        assert base.busy(0) == [(0, 10)]
        assert clone.busy(0) == [(0, 10), (20, 30)]
        # Parent mutation after the fork must not leak into the clone.
        base.reserve(0, 40, 50)
        assert clone.busy(0) == [(0, 10), (20, 30)]

    def test_fork_truncate_is_isolated(self):
        base = ResourceTables()
        base.reserve("link", 0, 5)
        base.reserve("link", 10, 15)
        clone = base.fork()
        assert clone.truncate_from("link", 10) == 1
        assert clone.busy("link") == [(0, 5)]
        assert base.busy("link") == [(0, 5), (10, 15)]

    def test_overlay_commit_respects_fork(self):
        """TentativeOverlay.commit routes through copy-on-write."""
        base = ResourceTables()
        base.reserve(1, 0, 10)
        clone = base.fork()
        overlay = base.overlay()
        overlay.reserve(1, 10, 20)
        overlay.commit()
        assert base.busy(1) == [(0, 10), (10, 20)]
        assert clone.busy(1) == [(0, 10)]

    def test_fork_of_fork(self):
        base = ResourceTables()
        base.reserve(0, 0, 1)
        first = base.fork()
        second = first.fork()
        second.reserve(0, 2, 3)
        assert base.busy(0) == [(0, 1)]
        assert first.busy(0) == [(0, 1)]
        assert second.busy(0) == [(0, 1), (2, 3)]


def _fresh(tables_type=ResourceTables):
    """(bundle, tables) with an isolated counter registry."""
    bundle = obs.Instrumentation.disabled()
    with obs.activate(bundle):
        tables = tables_type()
    return bundle, tables


def _count(bundle, name):
    return bundle.metrics.counter(name).value


class TestPathCache:
    def test_repeated_probe_hits(self):
        bundle, tables = _fresh()
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (0, 2))
        tables.reserve(a, 0, 10)
        tables.reserve(b, 5, 15)
        overlay = tables.overlay()
        first = overlay.find_earliest_on_path([a, b], 0, 5)
        second = overlay.find_earliest_on_path([a, b], 0, 5)
        assert first == second == 15
        assert _count(bundle, "comm.path_cache_misses") == 1
        assert _count(bundle, "comm.path_cache_hits") == 1

    def test_commit_invalidates_by_version(self):
        bundle, tables = _fresh()
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (0, 2))
        tables.reserve(a, 0, 10)
        overlay = tables.overlay()
        assert overlay.find_earliest_on_path([a, b], 0, 5) == 10
        # Committing onto a member link bumps its version: the next
        # probe must re-merge and see the new interval.
        tables.reserve(a, 10, 20)
        overlay = tables.overlay()
        assert overlay.find_earliest_on_path([a, b], 0, 5) == 20
        assert _count(bundle, "comm.path_cache_misses") == 2
        assert _count(bundle, "comm.path_cache_hits") == 0

    def test_release_and_truncate_invalidate(self):
        _bundle, tables = _fresh()
        a = Link((0, 0), (0, 1))
        tables.reserve(a, 0, 10)
        tables.reserve(a, 20, 30)
        overlay = tables.overlay()
        assert overlay.find_earliest_on_path([a], 0, 5) == 10
        tables.release(a, 0, 10)
        assert tables.overlay().find_earliest_on_path([a], 0, 5) == 0
        tables.truncate_from(a, 20)
        assert tables.overlay().find_earliest_on_path([a], 0, 50) == 0

    def test_tentative_extras_merge_on_top_of_cache(self):
        _bundle, tables = _fresh()
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (0, 2))
        tables.reserve(a, 0, 10)
        overlay = tables.overlay()
        overlay.reserve(b, 10, 20)
        # Committed [0,10) on a + tentative [10,20) on b: the probe must
        # see both even though only a's interval is in the cached merge.
        assert overlay.find_earliest_on_path([a, b], 0, 5) == 20

    def test_out_of_order_tentative_reserves_stay_sorted(self):
        _bundle, tables = _fresh()
        overlay = tables.overlay()
        overlay.reserve("r", 30, 40)
        overlay.reserve("r", 0, 10)
        overlay.reserve("r", 15, 20)
        # insort keeps the extras sorted, so find_gap's sorted-input
        # contract holds and the 10-wide gap at 40 is found correctly.
        assert overlay.find_earliest("r", 0, 5) == 10
        assert overlay.find_earliest("r", 0, 11) == 40
        assert overlay.reservations() == {"r": ((0, 10), (15, 20), (30, 40))}

    def test_horizon_fast_path_counted_and_exact(self):
        bundle, tables = _fresh()
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (0, 2))
        tables.reserve(a, 0, 10)
        overlay = tables.overlay()
        overlay.reserve(b, 10, 20)
        # ready beyond every visible horizon: returns ready, no merge.
        assert overlay.find_earliest_on_path([a, b], 20, 5) == 20
        assert overlay.find_earliest("r", 50, 5) == 50
        assert _count(bundle, "comm.horizon_fast_path") == 2
        assert _count(bundle, "comm.path_cache_misses") == 0
        # ready just below the horizon takes the slow path and agrees.
        assert overlay.find_earliest_on_path([a, b], 19, 5) == 20

    def test_fork_lineages_are_independent(self):
        bundle, tables = _fresh()
        a = Link((0, 0), (0, 1))
        tables.reserve(a, 0, 10)
        tables.overlay().find_earliest_on_path([a], 0, 5)
        clone = tables.fork()
        # The clone inherits the warm entry: same versions, same tables.
        assert clone.overlay().find_earliest_on_path([a], 0, 5) == 10
        assert _count(bundle, "comm.path_cache_hits") == 1
        # Divergence: the clone commits, the parent does not.  Each
        # lineage must see exactly its own committed state.
        clone.reserve(a, 10, 20)
        assert clone.overlay().find_earliest_on_path([a], 0, 5) == 20
        assert tables.overlay().find_earliest_on_path([a], 0, 5) == 10

    def test_literal_mode_matches_cached_mode(self):
        from repro.core.reference import LiteralTables

        _b1, cached = _fresh()
        b2, literal = _fresh(LiteralTables)
        a, b = Link((0, 0), (0, 1)), Link((0, 1), (0, 2))
        for tables in (cached, literal):
            tables.reserve(a, 0, 10)
            tables.reserve(b, 12, 20)
        for ready, duration in [(0, 2), (0, 5), (11, 1), (25, 3), (5, 0)]:
            oc, ol = cached.overlay(), literal.overlay()
            oc.reserve(a, 30, 35)
            ol.reserve(a, 30, 35)
            assert oc.find_earliest_on_path([a, b], ready, duration) == (
                ol.find_earliest_on_path([a, b], ready, duration)
            )
        # Literal mode never touches the cache or the fast path.
        assert _count(b2, "comm.path_cache_hits") == 0
        assert _count(b2, "comm.path_cache_misses") == 0
        assert _count(b2, "comm.horizon_fast_path") == 0
        # Forks of literal tables stay literal.
        assert isinstance(literal.fork(), LiteralTables)

    def test_busy_is_defensive_copy(self):
        _bundle, tables = _fresh()
        tables.reserve("r", 0, 10)
        snapshot = tables.busy("r")
        snapshot.append((99, 100))
        assert tables.busy("r") == [(0, 10)]

    def test_busy_view_tracks_storage(self):
        _bundle, tables = _fresh()
        tables.reserve("r", 0, 10)
        view = tables.busy_view("r")
        tables.reserve("r", 20, 30)
        assert list(view) == [(0.0, 10.0), (20.0, 30.0)]
        assert tables.busy_view("missing") == ()
