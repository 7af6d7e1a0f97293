"""Dependency graph construction, ordering rules, and random-DAG properties."""

from __future__ import annotations

import random

import pytest

from socks.errors import CycleError, GraphError, UsageError
from socks.graph import (ALL, DependencyGraph, Invocation, build_graph,
                         compute_active_set, order_for_command,
                         topological_order)


def spec(block_id: str, deps: dict[str, str] | None = None) -> dict[str, str]:
    """The dependencies mapping of block ``block_id``, as ``build_graph``
    takes it."""
    return deps or {}


def chain_specs(ids: list[str]) -> dict[str, dict[str, str]]:
    out = {}
    prev = None
    for block_id in ids:
        deps = {prev: f"temp/{prev}/output/bp_{prev}_*.tar.gz"} if prev else {}
        out[block_id] = spec(block_id, deps)
        prev = block_id
    return out


def test_fixture_topology(project):
    graph = project.graph
    expected = {
        ("vivado", "devicetree"), ("vivado", "fsbl"), ("vivado", "pmu_fw"),
        ("vivado", "image"),
        ("kernel", "rootfs"), ("devicetree", "rootfs"),
        ("atf", "image"), ("devicetree", "image"), ("fsbl", "image"),
        ("kernel", "image"), ("pmu_fw", "image"), ("uboot", "image"),
        ("rootfs", "image"),
    }
    assert graph.all_edges() == expected
    assert len(graph.nodes) == 10


def test_unsatisfiable_dependency_rejected(tmp_path):
    blocks = {"a": spec("a"),
              "b": spec("b", {"ghost": "temp/ghost/output/bp_ghost_*.tar.gz"})}
    with pytest.raises(GraphError, match="ghost"):
        build_graph(blocks, tmp_path)


def test_url_dependency_creates_no_edge(tmp_path):
    blocks = {"a": spec("a", {"ext": "https://ci.example.com/bp_ext.tar.gz"})}
    graph = build_graph(blocks, tmp_path)
    assert graph.all_edges() == set()


def test_existing_local_file_dependency_allowed(tmp_path):
    archive = tmp_path / "bp_ext_20260101T000000Z.tar.gz"
    archive.write_bytes(b"x")
    blocks = {"a": spec("a", {"ext": archive.name})}
    graph = build_graph(blocks, tmp_path)
    assert graph.all_edges() == set()


def test_cycle_rejected_with_chain(tmp_path):
    blocks = {"a": spec("a", {"b": "x"}), "b": spec("b", {"a": "x"})}
    with pytest.raises(CycleError) as exc:
        build_graph(blocks, tmp_path)
    assert set(exc.value.chain) >= {"a", "b"}


def test_active_set_all(project):
    inv = Invocation(target=ALL, command="build")
    assert compute_active_set(project.graph, inv) == set(project.graph.nodes)


def test_active_set_single(project):
    inv = Invocation(target="kernel", command="build")
    assert compute_active_set(project.graph, inv) == {"kernel"}


def test_active_set_group_rootfs(project):
    # The enumerated transitive closure of the root file system block.
    inv = Invocation(target="rootfs", command="build", group=True)
    assert compute_active_set(project.graph, inv) == \
        {"vivado", "devicetree", "kernel", "rootfs"}


def test_active_set_unknown_block(project):
    inv = Invocation(target="nope", command="build")
    with pytest.raises(UsageError, match="unknown block 'nope' \\(valid:"):
        compute_active_set(project.graph, inv)


def test_topological_order_lexicographic_ties(tmp_path):
    blocks = {n: spec(n) for n in ("c", "a", "b")}
    graph = build_graph(blocks, tmp_path)
    assert topological_order(graph, set(graph.nodes)) == ["a", "b", "c"]


def test_cleaning_order_is_reverse(project):
    active = set(project.graph.nodes)
    build = order_for_command(active, "building", project.graph)
    clean = order_for_command(active, "cleaning", project.graph)
    assert clean == list(reversed(build))


def test_order_respects_fixture_edges(project):
    order = order_for_command(set(project.graph.nodes), "building",
                              project.graph)
    pos = {b: i for i, b in enumerate(order)}
    for dep, dependent in project.graph.all_edges():
        assert pos[dep] < pos[dependent]


# --- random DAG properties -------------------------------------------------

def random_dag(rng: random.Random, max_nodes: int = 30) -> DependencyGraph:
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i:02d}" for i in range(n)]
    edges: dict[str, set[str]] = {node: set() for node in nodes}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                edges[nodes[i]].add(nodes[j])  # i -> j keeps it acyclic
    return DependencyGraph(nodes=frozenset(nodes),
                           edges={u: frozenset(vs) for u, vs in edges.items()})


def brute_force_closure(graph: DependencyGraph, target: str) -> set[str]:
    closure = {target}
    changed = True
    while changed:
        changed = False
        for dep, dependents in graph.edges.items():
            if dep not in closure and dependents & closure:
                closure.add(dep)
                changed = True
    return closure


def test_random_dag_properties():
    rng = random.Random(20260824)
    for _ in range(500):
        graph = random_dag(rng)
        active = set(graph.nodes)
        order = order_for_command(active, "building", graph)
        assert sorted(order) == sorted(active)
        pos = {b: i for i, b in enumerate(order)}
        for dep, dependents in graph.edges.items():
            for dependent in dependents:
                assert pos[dep] < pos[dependent]
        clean = order_for_command(active, "cleaning", graph)
        assert clean == list(reversed(order))

        target = rng.choice(sorted(graph.nodes))
        inv = Invocation(target=target, command="build", group=True)
        assert compute_active_set(graph, inv) == \
            brute_force_closure(graph, target)
