"""Small graph kernels used throughout: Tarjan SCCs and condensations.

The SCC routine is iterative (explicit stack) so deep chains do not hit
the recursion limit, and deterministic: components are emitted in
reverse topological order of the condensation, with Tarjan's usual
ordering within each run.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

Node = TypeVar("Node", bound=Hashable)


def tarjan_scc(num_nodes: int, successors: Callable[[int], Iterable[int]]) -> list[list[int]]:
    """Strongly connected components of the graph on 0..num_nodes-1.

    Returns the components in reverse topological order (every edge of
    the condensation goes from a later component to an earlier one).
    """
    index = [-1] * num_nodes
    lowlink = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(num_nodes):
        if index[root] != -1:
            continue
        # frame: (node, iterator over successors)
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if index[u] == -1:
                    index[u] = lowlink[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, iter(successors(u))))
                    advanced = True
                    break
                if on_stack[u]:
                    lowlink[v] = min(lowlink[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def condensation_topo_order(num_nodes: int,
                            successors: Callable[[int], Iterable[int]]) -> tuple[list[list[int]], list[int]]:
    """SCCs in topological order plus the node -> component index map."""
    comps = tarjan_scc(num_nodes, successors)
    comps.reverse()  # topological order
    comp_of = [0] * num_nodes
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    return comps, comp_of


def reachable_from(start: Iterable[Node], successors: Callable[[Node], Iterable[Node]]) -> set[Node]:
    """Forward reachability (including the start nodes) over any hashable nodes."""
    seen = set(start)
    frontier = list(start)
    while frontier:
        v = frontier.pop()
        for u in successors(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen
