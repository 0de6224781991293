"""Tests for the CTG container: construction, queries, transforms."""


import pytest

from repro.ctg.graph import CTG
from repro.ctg.task import Task, TaskCosts
from repro.errors import CTGError

from tests.conftest import uniform_task


def small_ctg():
    ctg = CTG(name="small")
    for name in ("a", "b", "c", "d"):
        ctg.add_task(uniform_task(name, 10, 5))
    ctg.connect("a", "b", volume=100)
    ctg.connect("a", "c", volume=200)
    ctg.connect("b", "d", volume=300)
    ctg.connect("c", "d", volume=400)
    return ctg


class TestConstruction:
    def test_add_and_count(self):
        ctg = small_ctg()
        assert ctg.n_tasks == 4
        assert ctg.n_edges == 4
        assert len(ctg) == 4
        assert "a" in ctg

    def test_duplicate_task_rejected(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.add_task(uniform_task("a", 1, 1))

    def test_duplicate_edge_rejected(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.connect("a", "b", volume=5)

    def test_edge_with_unknown_endpoint_rejected(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.connect("a", "nope")

    def test_cycle_rejected_and_graph_unchanged(self):
        ctg = small_ctg()
        with pytest.raises(CTGError, match="would create a cycle"):
            ctg.connect("d", "a")
        assert ctg.n_edges == 4
        assert not ctg.has_edge("d", "a")
        assert ctg.predecessors("a") == []
        assert ctg.successors("d") == []
        assert ctg.successors("a") == ["b", "c"]
        assert ctg.predecessors("d") == ["b", "c"]
        assert ctg.topological_order() == ["a", "b", "c", "d"]

    def test_self_loop_rejected_and_graph_unchanged(self):
        ctg = small_ctg()
        with pytest.raises(CTGError, match="self-dependency"):
            ctg.connect("b", "b")
        assert ctg.n_edges == 4
        assert not ctg.has_edge("b", "b")
        assert ctg.predecessors("b") == ["a"]
        assert ctg.successors("b") == ["d"]


class TestQueries:
    def test_predecessors_successors(self):
        ctg = small_ctg()
        assert sorted(ctg.predecessors("d")) == ["b", "c"]
        assert sorted(ctg.successors("a")) == ["b", "c"]
        assert ctg.in_degree("d") == 2
        assert ctg.out_degree("a") == 2

    def test_in_out_edges(self):
        ctg = small_ctg()
        volumes = sorted(e.volume for e in ctg.in_edges("d"))
        assert volumes == [300, 400]
        assert [e.dst for e in ctg.out_edges("a")] == ["b", "c"] or [
            e.dst for e in ctg.out_edges("a")
        ] == ["c", "b"]

    def test_sources_sinks(self):
        ctg = small_ctg()
        assert ctg.sources() == ["a"]
        assert ctg.sinks() == ["d"]

    def test_topological_order_respects_edges(self):
        ctg = small_ctg()
        order = ctg.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        for edge in ctg.edges():
            assert pos[edge.src] < pos[edge.dst]

    def test_topological_cache_invalidation(self):
        ctg = small_ctg()
        first = ctg.topological_order()
        ctg.add_task(uniform_task("e", 10, 5))
        ctg.connect("d", "e")
        second = ctg.topological_order()
        assert "e" in second and "e" not in first

    def test_ancestors_descendants(self):
        ctg = small_ctg()
        assert ctg.ancestors("d") == {"a", "b", "c"}
        assert ctg.descendants("a") == {"b", "c", "d"}

    def test_deadline_tasks(self):
        ctg = small_ctg()
        assert ctg.deadline_tasks() == []
        ctg.task("d").deadline = 100.0
        assert ctg.deadline_tasks() == ["d"]

    def test_total_volume(self):
        assert small_ctg().total_volume() == 1000

    def test_unknown_lookups_raise(self):
        ctg = small_ctg()
        with pytest.raises(CTGError):
            ctg.task("zz")
        with pytest.raises(CTGError):
            ctg.edge("a", "d")


class TestValidate:
    def test_empty_graph_invalid(self):
        with pytest.raises(CTGError):
            CTG().validate()

    def test_feasibility_check(self):
        ctg = CTG()
        ctg.add_task(Task(name="only-dsp", costs={"dsp": TaskCosts(1, 1)}))
        ctg.validate(pe_types=["dsp", "cpu"])
        with pytest.raises(CTGError):
            ctg.validate(pe_types=["cpu"])

    def test_feasible_on(self):
        ctg = CTG()
        ctg.add_task(Task(name="t", costs={"dsp": TaskCosts(1, 1)}))
        assert ctg.feasible_on(["dsp"])
        assert not ctg.feasible_on(["arm"])


class TestTransforms:
    def test_copy_independent(self):
        ctg = small_ctg()
        clone = ctg.copy()
        clone.task("a").deadline = 1.0
        clone.add_task(uniform_task("x", 1, 1))
        assert not ctg.task("a").has_deadline
        assert "x" not in ctg

    def test_scaled_deadlines(self):
        ctg = small_ctg()
        ctg.task("d").deadline = 1000.0
        tightened = ctg.with_scaled_deadlines(0.5)
        assert tightened.task("d").deadline == 500.0
        assert ctg.task("d").deadline == 1000.0  # original untouched
        # Infinite deadlines stay infinite.
        assert not tightened.task("a").has_deadline

    def test_scaled_deadlines_invalid_factor(self):
        with pytest.raises(CTGError):
            small_ctg().with_scaled_deadlines(0.0)

    def test_merged_with_is_disjoint_union(self):
        left, right = small_ctg(), small_ctg()
        merged = left.merged_with(right, prefix_self="l_", prefix_other="r_")
        assert merged.n_tasks == 8
        assert merged.n_edges == 8
        assert "l_a" in merged and "r_a" in merged
        # No cross edges between the halves.
        assert not any(
            e.src.startswith("l_") != e.dst.startswith("l_") for e in merged.edges()
        )
