"""Differential tests: the CTG container against networkx as an oracle.

networkx is not a dependency of the package; it serves only as the
reference here.  Every order the schedulers consume must match what
networkx reports on a mirrored ``DiGraph`` built in the same insertion
order: the topological order, predecessor and successor lists, and the
ancestor and descendant sets (compared as lists too, so even their
iteration order agrees for a given hash seed).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.ctg.multimedia import av_decoder_ctg, av_encoder_ctg, av_integrated_ctg
from repro.errors import CTGError

from tests.conftest import uniform_task

nx = pytest.importorskip("networkx")


def mirror(ctg):
    graph = nx.DiGraph()
    graph.add_nodes_from(ctg.task_names())
    graph.add_edges_from((edge.src, edge.dst) for edge in ctg.edges())
    return graph


def assert_matches_networkx(ctg):
    graph = mirror(ctg)
    assert ctg.topological_order() == list(nx.topological_sort(graph))
    assert ctg.sources() == [n for n in graph if graph.in_degree(n) == 0]
    assert ctg.sinks() == [n for n in graph if graph.out_degree(n) == 0]
    for name in ctg.task_names():
        assert ctg.predecessors(name) == list(graph.predecessors(name))
        assert ctg.successors(name) == list(graph.successors(name))
        assert [e.src for e in ctg.in_edges(name)] == list(graph.predecessors(name))
        assert [e.dst for e in ctg.out_edges(name)] == list(graph.successors(name))
        assert ctg.in_degree(name) == graph.in_degree(name)
        assert ctg.out_degree(name) == graph.out_degree(name)
        ancestors = nx.ancestors(graph, name)
        descendants = nx.descendants(graph, name)
        assert ctg.ancestors(name) == ancestors
        assert ctg.descendants(name) == descendants
        assert list(ctg.ancestors(name)) == list(ancestors)
        assert list(ctg.descendants(name)) == list(descendants)


@pytest.mark.parametrize("index", range(10))
@pytest.mark.parametrize("category", [1, 2])
def test_generated_categories_match_networkx(category, index):
    assert_matches_networkx(generate_category(category, index, n_tasks=60))


@pytest.mark.parametrize("build", [av_encoder_ctg, av_decoder_ctg, av_integrated_ctg])
def test_multimedia_ctgs_match_networkx(build):
    assert_matches_networkx(build())


@st.composite
def shuffled_dags(draw):
    """A random DAG: tasks and edges both inserted in shuffled order.

    Node labels are a permutation, so task insertion order is not a
    topological order, and the edge list is shuffled, so the cycle check
    searches through already-connected successors.
    """
    n = draw(st.integers(min_value=1, max_value=18))
    rank = draw(st.permutations(range(n)))  # rank[i]: position of task i in the hidden order
    pairs = [(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = draw(st.permutations(edges))
    return n, edges


FAST = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FAST
@given(shuffled_dags(), st.data())
def test_shuffled_random_dags_match_networkx(dag, data):
    n, edges = dag
    ctg = CTG(name="random")
    for i in range(n):
        ctg.add_task(uniform_task(f"t{i}", 1, 1))
    for src, dst in edges:
        ctg.connect(f"t{src}", f"t{dst}")
    assert_matches_networkx(ctg)

    # Any further edge is accepted exactly when networkx finds no path
    # back from its head to its tail; a rejected edge changes nothing.
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    if ctg.has_edge(f"t{src}", f"t{dst}"):
        return
    graph = mirror(ctg)
    closes_cycle = nx.has_path(graph, f"t{dst}", f"t{src}")
    if closes_cycle:
        with pytest.raises(CTGError, match="would create a cycle|self-dependency"):
            ctg.connect(f"t{src}", f"t{dst}")
        assert ctg.n_edges == len(edges)
    else:
        ctg.connect(f"t{src}", f"t{dst}")
    assert_matches_networkx(ctg)
