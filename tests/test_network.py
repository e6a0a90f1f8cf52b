from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from privroute.network import NetworkError, block_slices, build_network, enumerate_paths


def dfs_oracle(spec: dict) -> dict[tuple[str, str], list[tuple[int, ...]]]:
    """Independent brute-force enumeration over all edge-index sequences."""
    edges = [tuple(e) for e in spec["edges"]]
    results = {}
    for origin, dest in (tuple(p) for p in spec["od_pairs"]):
        found = []
        # Breadth over all path lengths; a simple path uses each node once.
        max_len = len(spec["nodes"])
        for length in range(1, max_len):
            for combo in itertools.permutations(range(len(edges)), length):
                node = origin
                nodes_seen = {origin}
                ok = True
                for j in combo:
                    tail, head = edges[j]
                    if tail != node or head in nodes_seen:
                        ok = False
                        break
                    nodes_seen.add(head)
                    node = head
                if ok and node == dest:
                    found.append(combo)
        results[(origin, dest)] = sorted(found)
    return results


def test_pigou_parallel_links():
    spec = {"nodes": ["s", "t"], "edges": [["s", "t"], ["s", "t"]], "od_pairs": [["s", "t"]]}
    net = build_network(spec)
    assert net.num_edges == 2
    paths = enumerate_paths(net)
    assert paths.paths == (((0,), (1,)),)
    np.testing.assert_array_equal(paths.incidence, np.eye(2))


def test_diamond_and_triangle_match_oracle():
    diamond = {
        "nodes": ["s", "a", "b", "t"],
        "edges": [["s", "a"], ["a", "t"], ["s", "b"], ["b", "t"]],
        "od_pairs": [["s", "t"]],
    }
    net = build_network(diamond)
    paths = enumerate_paths(net)
    assert list(paths.paths[0]) == dfs_oracle(diamond)[("s", "t")]
    assert paths.incidence.sum(axis=0).tolist() == [2.0, 2.0]

    triangle = {
        "nodes": ["s", "a", "t"],
        "edges": [["s", "a"], ["a", "t"], ["s", "t"]],
        "od_pairs": [["s", "t"]],
    }
    net = build_network(triangle)
    paths = enumerate_paths(net)
    assert list(paths.paths[0]) == dfs_oracle(triangle)[("s", "t")]
    cols = [paths.incidence[:, p].tolist() for p in range(2)]
    assert cols == [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    # c and d are dead ends (d leads only back to s); a and b form a cycle.
    dead_ends = {
        "nodes": ["s", "a", "b", "c", "d", "t"],
        "edges": [["s", "a"], ["a", "b"], ["b", "a"], ["b", "t"], ["a", "d"],
                  ["d", "s"], ["s", "c"], ["c", "d"], ["a", "t"]],
        "od_pairs": [["s", "t"], ["c", "t"]],
    }
    paths = enumerate_paths(build_network(dead_ends))
    oracle = dfs_oracle(dead_ends)
    assert list(paths.paths[0]) == oracle[("s", "t")] == [(0, 1, 3), (0, 8)]
    assert list(paths.paths[1]) == oracle[("c", "t")]


def test_seven_node_two_od_network(standin_game):
    net = standin_game.network
    assert len(net.nodes) == 7
    assert net.od_pairs == (("v0", "v6"), ("v1", "v5"))
    assert all(len(group) >= 2 for group in standin_game.paths.paths)


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            {"nodes": ["a", "a"], "edges": [["a", "a"]], "od_pairs": [["a", "a"]]},
            "duplicate node",
        ),
        (
            {"nodes": ["a", "b"], "edges": [["a", "c"]], "od_pairs": [["a", "b"]]},
            "unknown node",
        ),
        (
            {"nodes": ["a", "b"], "edges": [["a", "a"]], "od_pairs": [["a", "b"]]},
            "self-loop",
        ),
        (
            {"nodes": ["a", "b"], "edges": [["a", "b"]], "od_pairs": [["a", "c"]]},
            r"^OD pair \(a, c\) references an unknown node$",
        ),
        (
            {"nodes": ["a", "b"], "edges": [["a", "b"]], "od_pairs": [["b", "b"]]},
            r"^degenerate OD pair \(b, b\)$",
        ),
    ],
)
def test_build_errors(spec, message):
    with pytest.raises(NetworkError, match=message):
        build_network(spec)


def test_unreachable_od_pair_fails_at_enumeration():
    spec = {"nodes": ["s", "t"], "edges": [["s", "t"]], "od_pairs": [["t", "s"]]}
    with pytest.raises(NetworkError, match=r"^unreachable OD pair \(t, s\)$"):
        enumerate_paths(build_network(spec))


@pytest.mark.parametrize(("n", "dest_tail"), [(11, "v0"), (11, None), (12, "v1")])
def test_dense_dead_ends_are_not_walked(n, dest_tail):
    # A complete digraph on n nodes, left only by the edge dest_tail -> t if at all.
    # A walk over every simple path out of v0 would take seconds, and so would one
    # that steps past v1 into nodes that reach t only through v1.
    nodes = [f"v{i}" for i in range(n)]
    edges = [[u, v] for u in nodes for v in nodes if u != v]
    if dest_tail is not None:
        edges.append([dest_tail, "t"])
    net = build_network({"nodes": nodes + ["t"], "edges": edges, "od_pairs": [["v0", "t"]]})
    start = time.perf_counter()
    if dest_tail == "v0":
        assert enumerate_paths(net).paths == (((len(edges) - 1,),),)
    else:
        message = "more than 10000 simple paths" if dest_tail else "unreachable OD pair"
        with pytest.raises(NetworkError, match=message):
            enumerate_paths(net)
    assert time.perf_counter() - start < 1.0


def test_a_long_chain_is_walked_once():
    # Past the origin, a node with one unvisited head steps on without a search for
    # what still reaches t, so a chain costs its length, not its length squared.
    nodes = [f"v{i}" for i in range(3000)]
    edges = [[u, v] for u, v in zip(nodes, nodes[1:])]
    net = build_network({"nodes": nodes, "edges": edges, "od_pairs": [["v0", "v2999"]]})
    start = time.perf_counter()
    assert enumerate_paths(net).paths == ((tuple(range(len(edges))),),)
    assert time.perf_counter() - start < 0.1


def test_random_multigraphs_match_oracle():
    rng = np.random.default_rng(20260810)
    for _ in range(500):
        nodes = [f"n{i}" for i in range(rng.integers(2, 6))]
        edges = [[str(u), str(v)] for u, v in
                 (rng.choice(nodes, 2, replace=False) for _ in range(rng.integers(1, 9)))]
        ods = [[str(u), str(v)] for u, v in
               (rng.choice(nodes, 2, replace=False) for _ in range(rng.integers(1, 3)))]
        spec = {"nodes": nodes, "edges": edges, "od_pairs": ods}
        oracle = dfs_oracle(spec)
        net = build_network(spec)
        if not all(oracle[tuple(od)] for od in ods):
            with pytest.raises(NetworkError, match="unreachable OD pair"):
                enumerate_paths(net)
        else:
            assert [list(group) for group in enumerate_paths(net).paths] == [
                oracle[tuple(od)] for od in ods], spec


def test_column_sums_equal_path_lengths(standin_game):
    paths, net = standin_game.paths, standin_game.network
    assert paths.incidence.shape == (net.num_edges, paths.total_paths)
    for group, s in zip(paths.paths, block_slices(paths.block_sizes)):
        assert paths.incidence[:, s].sum(axis=0).tolist() == [float(len(p)) for p in group]
        # Simplicity: walking the edges never repeats a node.
        for path in group:
            nodes = [net.edges[path[0]][0]]
            for j in path:
                tail, head = net.edges[j]
                assert tail == nodes[-1]
                assert head not in nodes
                nodes.append(head)


def test_enumeration_is_deterministic(standin_config):
    net = build_network(standin_config["network"])
    first = enumerate_paths(net)
    second = enumerate_paths(net)
    assert first.paths == second.paths
    assert first.incidence.tobytes() == second.incidence.tobytes()
