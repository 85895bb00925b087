"""An independent reference for the oracle, built on networkx alone.

It shares no code with hypercut's oracle or analysis: its own cube (bit i of
a label is coordinate i of the networkx node), its own path, cycle and star
pools, its own cut test and its own minimum search, so a bug in enumeration,
in the orbit pruning or in the complement BFS cannot pass unseen on both sides.
"""

import json
from collections import Counter
from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

from hypercut.cli import main
from hypercut.cuts import StructureKind
from hypercut.oracle import SearchBudget, enumerate_copies, min_structure_cut, neighbor_count_maximum, pool_block
from test_cli import _oracle_pin_commands

MAX_K = 8


def _cube(n):
    return nx.relabel_nodes(nx.hypercube_graph(n), lambda node: sum(bit << i for i, bit in enumerate(node)))


def _canonical_path(verts):
    return min(tuple(verts), tuple(reversed(verts)))


def _canonical_cycle(verts):
    """The least of a cycle's rotations in either direction."""
    return min(tuple(r[i:] + r[:i]) for r in (list(verts), list(reversed(verts))) for i in range(len(verts)))


@lru_cache(maxsize=None)
def _reference_paths(n, kmax):
    """{k: the set of paths on k vertices} for k <= kmax, one canonical tuple each; cached, so read only."""
    g = _cube(n)
    pools = {k: set() for k in range(1, kmax + 1)}
    for v in g:
        pools[1].add((v,))
        for p in nx.all_simple_paths(g, v, [w for w in g if w != v], cutoff=kmax - 1):
            pools[len(p)].add(_canonical_path(p))
    return pools


@lru_cache(maxsize=None)
def _reference_cycles(n, kmax):
    """{k: the set of k-cycles} for k <= kmax, one canonical tuple each; cached, so read only."""
    pools = {k: set() for k in range(4, kmax + 1, 2)}
    for c in nx.simple_cycles(_cube(n), length_bound=kmax):
        pools[len(c)].add(_canonical_cycle(c))
    return pools


def _reference_stars(n, r):
    """The set of stars K_{1,r} as (center, leaves in increasing order)."""
    g = _cube(n)
    return {(c,) + leaves for c in g for leaves in combinations(sorted(g[c]), r)}


def _mask(verts):
    return sum(1 << v for v in verts)


def _reference_is_cut(g, removed):
    """True iff removing the vertices leaves at most one vertex or a disconnected rest."""
    rest = g.subgraph(set(g) - removed)
    return len(rest) <= 1 or not nx.is_connected(rest)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_path_and_cycle_blocks_match_the_reference(n):
    kmax = min(MAX_K, 1 << n)
    paths, cycles = _reference_paths(n, kmax), _reference_cycles(n, kmax)
    for shape, pools in (("path", paths), ("cycle", cycles)):
        for k, reference in pools.items():
            # the block holds each vertex set once, and expands into each element once
            assert Counter(pool_block(n, shape, k)[0]) == Counter({_mask(el) for el in reference}), (shape, n, k)
            elements = enumerate_copies(n, StructureKind(shape, k))
            assert Counter(el.verts for el in elements) == Counter(reference), (shape, n, k)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_star_blocks_match_the_reference(n):
    for r in range(2, n + 1):
        reference = _reference_stars(n, r)
        assert Counter(pool_block(n, "star", r)[0]) == Counter({_mask(el) for el in reference}), (n, r)
        elements = enumerate_copies(n, StructureKind("star", r))
        assert Counter(el.verts for el in elements) == Counter(reference), (n, r)


def _reference_pool(n, kind, k, mode):
    """Vertex sets of the elements a (kind, mode) family may hold: copies of H, or its connected subgraphs.

    The connected subgraphs of P_k are P_1..P_k; of C_k, those paths and C_k itself; of K_{1,r},
    a vertex, an edge and the stars K_{1,j} with j <= r; a vertex is a P_1 and an edge a P_2.
    """
    sub = mode == "substructure"
    if kind in ("vertex", "edge"):
        kind, k = "path", 1 if kind == "vertex" else 2
    if kind == "star":
        paths = _reference_paths(n, 2)
        pools = [paths[1], paths[2]] if sub else []
        pools += [_reference_stars(n, j) for j in (range(2, k + 1) if sub else [k])]
    elif kind == "cycle":
        pools = [_reference_cycles(n, k)[k]] + (list(_reference_paths(n, k).values()) if sub else [])
    else:
        paths = _reference_paths(n, k)
        pools = list(paths.values()) if sub else [paths[k]]
    return {frozenset(el) for pool in pools for el in pool}


def _reference_minimum(n, kind, k, mode):
    """The fewest elements whose removal is a cut, by testing every union of 1, 2, ... elements."""
    g = _cube(n)
    pool = _reference_pool(n, kind, k, mode)
    unions = {frozenset()}
    for s in range(1, len(g) + 1):
        # a union that repeats an element is one of fewer elements, already tested at a lower s
        unions = {u | el for u in unions for el in pool}
        if any(_reference_is_cut(g, u) for u in unions):
            return s
    return None


def _minimum_cases():
    for mode in ("structure", "substructure"):
        kinds = [("vertex", None), ("edge", None)] + [("path", k) for k in range(1, MAX_K + 1)]
        kinds += [("cycle", k) for k in (4, 6, 8)] + [("star", r) for r in (2, 3)]
        for kind, k in kinds:
            yield 3, kind, k, mode
        for kind, k in [("vertex", None), ("edge", None), ("path", 3)] + [("star", r) for r in (2, 3, 4)]:
            yield 4, kind, k, mode
        for kind, k in (("path", 7), ("path", 8), ("cycle", 8)):  # answered at level 1, from the seeds
            yield 4, kind, k, mode


def test_oracle_minimum_matches_the_reference_search():
    cases = 0
    for n, kind, k, mode in _minimum_cases():
        size = {"vertex": 1, "edge": 2}.get(kind, k)
        result = min_structure_cut(n, StructureKind(kind, size), mode)
        assert result.status == "exact", (n, kind, k, mode)
        assert result.value == _reference_minimum(n, kind, k, mode), (n, kind, k, mode)
        cases += 1
    assert cases == 48


def test_every_pinned_oracle_witness_is_a_cut_by_the_reference(capsys):
    cubes = {n: _cube(n) for n in (3, 4, 5)}
    witnesses = 0
    for argv in _oracle_pin_commands():
        assert main(["oracle", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        family = payload["witness"]
        if family is None:
            continue
        g = cubes[family["n"]]
        removed = set()
        for element in family["elements"]:
            verts = [int(s[::-1], 2) for s in element["vertices"]]  # x^0 is the first character
            assert element["type"] == "star" or nx.is_path(g, verts), element
            if element["type"] == "cycle":
                assert g.has_edge(verts[-1], verts[0]), element
            if element["type"] == "star":
                center = int(element["center"][::-1], 2)
                assert all(g.has_edge(center, v) for v in verts if v != center), element
            removed.update(verts)
        assert len(family["elements"]) == payload["value"]
        assert _reference_is_cut(g, removed), argv
        witnesses += 1
    assert witnesses > 0


def _reference_element_is_admissible(g, element, shapes):
    """True iff the element is a path, cycle or star of g with a (shape, size) in shapes."""
    verts = list(element.verts)
    if element.shape == "star":
        center = verts[0]
        return ("star", len(verts) - 1) in shapes and all(g.has_edge(center, v) for v in verts[1:])
    if element.shape == "cycle" and not g.has_edge(verts[-1], verts[0]):
        return False
    return (element.shape, len(verts)) in shapes and len(set(verts)) == len(verts) and nx.is_path(g, verts)


def test_every_dimension_5_level_1_witness_is_a_cut_by_the_reference():
    g = _cube(5)
    witnesses = 0
    for mode in ("structure", "substructure"):
        kinds = [("path", k) for k in range(2, 33)] + [("cycle", k) for k in range(4, 33, 2)]
        for kind, k in kinds + [("star", r) for r in range(2, 6)]:
            result = min_structure_cut(5, StructureKind(kind, k), mode, SearchBudget(1, 5))  # level 1 alone: no pool is built
            if result.status != "exact":
                continue
            (element,) = result.witness.elements
            shapes = {(kind, k)}
            if mode == "substructure":  # the connected subgraphs of H, as in _reference_pool
                shapes |= ({("path", 1), ("path", 2)} | {("star", j) for j in range(2, k)} if kind == "star"
                           else {("path", j) for j in range(1, k + 1)})
            assert _reference_element_is_admissible(g, element, shapes), (kind, k, mode)
            assert _reference_is_cut(g, set(element.verts)), (kind, k, mode)
            witnesses += 1
    assert witnesses == 2 * (24 + 12)  # P9..P32 and C10..C32 in both modes


def _reference_neighbor_count_maximum(n, pool):
    """The largest |N({u,v}) & V(H)| over H in the pool and edges uv of Q_n outside H; None if there is none."""
    g = _cube(n)
    around = [({u, v}, set(g[u]) | set(g[v])) for u, v in g.edges]
    counts = [len(nbrs & h) for h in map(set, pool) for pair, nbrs in around if not pair & h]
    return max(counts, default=None)


@pytest.mark.parametrize("n", [3, 4])
def test_neighbor_count_maximum_matches_the_reference(n):
    paths, cycles = _reference_paths(n, MAX_K), _reference_cycles(n, MAX_K)
    got = {(shape, k): neighbor_count_maximum(n, shape, k)
           for shape, pools in (("path", paths), ("cycle", cycles)) for k in pools if k >= 3}
    assert got == {(shape, k): _reference_neighbor_count_maximum(n, pool)
                   for shape, pools in (("path", paths), ("cycle", cycles)) for k, pool in pools.items() if k >= 3}
    if n == 3:  # a P7, a P8 or a C8 of Q3 leaves at most one vertex
        assert [got["path", 7], got["path", 8], got["cycle", 8]] == [None, None, None]
