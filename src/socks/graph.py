"""Dependency graph over block IDs and the ordering rules derived from it.

Edges run from a dependency to its dependent (``u -> v`` iff ``v`` consumes
``u``'s block package).  Building and configuring walk the graph forward
(dependencies first); cleaning walks it in exact reverse so the most
fundamental blocks are torn down last.
"""

from __future__ import annotations

import glob as globlib
import heapq
from typing import NamedTuple

from .blockpackage import is_url
from .errors import CycleError, GraphError, UsageError

ALL = "all"


class DependencyGraph(NamedTuple):
    nodes: frozenset[str]
    # dep -> set of dependents
    edges: dict[str, frozenset[str]]

    def dependencies_of(self, block_id: str) -> set[str]:
        return {u for u, vs in self.edges.items() if block_id in vs}

    def all_edges(self) -> set[tuple[str, str]]:
        return {(u, v) for u, vs in self.edges.items() for v in vs}


class Invocation(NamedTuple):
    target: str  # block id or ALL
    command: str
    group: bool = False


def check_block(known, block_id: str) -> None:
    """Raise a usage error unless ``block_id`` is one of the ``known``
    block IDs."""
    if block_id not in known:
        valid = ", ".join(sorted(known))
        raise UsageError(f"unknown block '{block_id}' (valid: {valid})")


def build_graph(blocks: dict[str, dict[str, str]],
                project_dir=None) -> DependencyGraph:
    """Derive the graph from each block's dependencies mapping.

    A dependency entry naming a configured block creates an edge.  Entries
    pointing at external sources (URLs, or local files that already exist)
    create no edge; anything else is unsatisfiable and rejected.  Either
    error names the key path of a dependency entry.
    """
    edges: dict[str, set[str]] = {bid: set() for bid in blocks}
    for block_id, dependencies in blocks.items():
        for dep_id, ref in dependencies.items():
            if dep_id in blocks:
                edges[dep_id].add(block_id)
            elif is_url(ref):
                continue
            else:
                pattern = ref if project_dir is None else str(project_dir / ref)
                if not globlib.glob(pattern):
                    raise GraphError(
                        f"block '{block_id}' depends on '{dep_id}', which is "
                        f"neither a configured block nor an importable "
                        f"package ({ref!r} matches nothing)",
                        key_path=f"blocks/{block_id}/project/dependencies/"
                                 f"{dep_id}")
    graph = DependencyGraph(nodes=frozenset(blocks),
                            edges={u: frozenset(vs) for u, vs in edges.items()})
    left = set(blocks).difference(topological_order(graph, set(blocks)))
    if left:
        # Each block the sort leaves over waits on another left-over block,
        # so walking back along dependencies closes a cycle.
        walked: dict[str, int] = {}
        node = min(left)
        while node not in walked:
            walked[node] = len(walked)
            node = min(dep for dep in blocks[node] if dep in left)
        cycle = list(walked)[walked[node]:][::-1]
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start + 1]
        # x -> y means y depends on x: name y's entry for x.
        raise CycleError("dependency cycle: " + " -> ".join(cycle), cycle,
                         key_path=f"blocks/{cycle[1]}/project/dependencies/"
                                  f"{cycle[0]}")
    return graph


def compute_active_set(graph: DependencyGraph, inv: Invocation) -> set[str]:
    """Blocks addressed by the invocation.

    ``all`` selects every node; otherwise the named block, plus its
    transitive dependencies when the group flag is set.
    """
    if inv.target == ALL:
        return set(graph.nodes)
    check_block(graph.nodes, inv.target)
    if not inv.group:
        return {inv.target}
    active = {inv.target}
    frontier = [inv.target]
    while frontier:
        node = frontier.pop()
        for dep in graph.dependencies_of(node):
            if dep not in active:
                active.add(dep)
                frontier.append(dep)
    return active


# Verb categories steering the execution order.  Cleaning runs in reverse
# topological order; everything else dependencies-first.
REVERSED_CATEGORIES = ("cleaning",)


def topological_order(graph: DependencyGraph, active: set[str]) -> list[str]:
    """Dependencies-first linearization of ``active``, a subset of the
    graph's nodes; ties broken by block id."""
    indeg = {n: 0 for n in active}
    succs: dict[str, list[str]] = {n: [] for n in active}
    for u, vs in graph.edges.items():
        if u not in active:
            continue
        for v in vs:
            if v in active:
                indeg[v] += 1
                succs[u].append(v)
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in succs[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                heapq.heappush(ready, succ)
    return order


def order_for_command(active: set[str], category: str,
                      graph: DependencyGraph) -> list[str]:
    order = topological_order(graph, active)
    if category in REVERSED_CATEGORIES:
        return list(reversed(order))
    return order
