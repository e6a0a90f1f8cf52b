"""Directed road networks: nodes, indexed edges, OD pairs, and simple paths."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_PATH_CAP",
    "Network",
    "NetworkError",
    "PathSet",
    "block_slices",
    "build_network",
    "enumerate_paths",
]

DEFAULT_PATH_CAP = 10_000


class NetworkError(ValueError):
    """Malformed or unroutable network description."""


def block_slices(block_sizes) -> list[slice]:
    """Consecutive slices of a concatenated vector, one per block size."""
    out, start = [], 0
    for size in block_sizes:
        out.append(slice(start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class Network:
    """Directed multigraph with stable integer edge indices.

    ``edges[j]`` is the ``(tail, head)`` pair of edge ``j``.  Parallel edges
    are legal and are distinguished by their index; self-loops are not
    allowed.  ``od_pairs[i]`` is the ``(origin, destination)`` pair of
    commodity ``i``.  Instances are immutable and safe to share across
    threads.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    od_pairs: tuple[tuple[str, str], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_od_pairs(self) -> int:
        return len(self.od_pairs)


def build_network(spec: dict) -> Network:
    """Validate a ``{"nodes", "edges", "od_pairs"}`` description.

    Raises :class:`NetworkError` on duplicate node names, edges with
    unknown endpoints, self-loops, or missing, unknown or degenerate OD pairs.
    """
    try:
        nodes = list(spec["nodes"])
        edges = [tuple(e) for e in spec["edges"]]
        od_pairs = [tuple(p) for p in spec["od_pairs"]]
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"network spec is missing or malformed: {exc}") from exc

    if len(set(nodes)) != len(nodes):
        dupes = sorted({v for v in nodes if nodes.count(v) > 1})
        raise NetworkError(f"duplicate node name(s): {', '.join(dupes)}")
    known = set(nodes)
    for j, (tail, head) in enumerate(edges):
        if tail not in known or head not in known:
            raise NetworkError(f"edge {j} ({tail} -> {head}) references an unknown node")
        if tail == head:
            raise NetworkError(f"edge {j} is a self-loop on {tail}")
    if not od_pairs:
        raise NetworkError("at least one OD pair is required")
    for origin, dest in od_pairs:
        if origin not in known or dest not in known:
            raise NetworkError(f"OD pair ({origin}, {dest}) references an unknown node")
        if origin == dest:
            raise NetworkError(f"degenerate OD pair ({origin}, {dest})")

    return Network(tuple(nodes), tuple(edges), tuple(od_pairs))


@dataclass(frozen=True, eq=False)
class PathSet:
    """Enumerated simple paths and their edge-path incidence matrix.

    ``paths[i]`` lists the simple paths of OD pair ``i`` as tuples of edge
    indices, ordered lexicographically so repeated enumeration is
    byte-identical.  ``incidence`` is the read-only ``num_edges x
    total_paths`` 0/1 matrix whose column ``p`` marks the edges of path
    ``p``, with the OD pairs' paths in order along the columns.
    """

    paths: tuple[tuple[tuple[int, ...], ...], ...]
    incidence: np.ndarray

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        """Number of paths per OD pair."""
        return tuple(len(group) for group in self.paths)

    @property
    def total_paths(self) -> int:
        return sum(self.block_sizes)


def enumerate_paths(network: Network) -> PathSet:
    """Enumerate every simple path of every OD pair by depth-first search.

    Paths visit no node twice and are emitted in lexicographic order of
    their edge-index sequences.  Raises :class:`NetworkError` on an OD pair
    with no connecting path and on one with more than ``DEFAULT_PATH_CAP``
    simple paths, instead of truncating.
    """
    out: dict[str, list[tuple[int, str]]] = {v: [] for v in network.nodes}
    into: dict[str, list[str]] = {v: [] for v in network.nodes}
    for j, (tail, head) in enumerate(network.edges):
        out[tail].append((j, head))
        into[head].append(tail)
    all_paths: list[tuple[tuple[int, ...], ...]] = []
    for origin, dest in network.od_pairs:
        found: list[tuple[int, ...]] = []
        prefix: list[int] = []
        visited = {origin}

        def steps(node: str):
            """The edges out of ``node`` in index order, into nodes that can still reach ``dest``.

            A head counts only if it reaches ``dest`` around the nodes on the path,
            so every step ends in at least one path: no dead ends.  A node past the
            origin was entered because it reaches ``dest``, so its one unvisited head does.
            """
            heads = {head for _, head in out[node] if head not in visited}
            if node != origin and len(heads) == 1:
                return iter([(j, head) for j, head in out[node] if head in heads])
            live, stack = {dest}, [dest]
            while stack:
                for tail in into[stack.pop()]:
                    if tail not in live and tail not in visited:
                        live.add(tail)
                        stack.append(tail)
            return iter([(j, head) for j, head in out[node] if head in live])

        # Depth first with an explicit stack, so a path's length is not bounded by
        # Python's recursion limit: one iterator per node on the path.
        frames = [steps(origin)]
        while frames:
            step = next(frames[-1], None)
            if step is None:  # every step from the path's last node is tried: back up one
                frames.pop()
                if prefix:
                    visited.remove(network.edges[prefix.pop()][1])
                continue
            j, head = step
            if head == dest:
                found.append((*prefix, j))
                if len(found) > DEFAULT_PATH_CAP:
                    raise NetworkError(
                        f"OD pair ({origin}, {dest}) has more than "
                        f"{DEFAULT_PATH_CAP} simple paths"
                    )
                continue
            visited.add(head)
            prefix.append(j)
            frames.append(steps(head))

        if not found:
            raise NetworkError(f"unreachable OD pair ({origin}, {dest})")
        all_paths.append(tuple(found))
    columns = [path for group in all_paths for path in group]
    incidence = np.zeros((network.num_edges, len(columns)))
    for p, path in enumerate(columns):
        incidence[list(path), p] = 1.0
    incidence.setflags(write=False)
    return PathSet(tuple(all_paths), incidence)
