"""An independent reference for the oracle, built on networkx alone.

It shares no code with hypercut's oracle or analysis: its own cube (bit i of
a label is coordinate i of the networkx node), its own path and cycle pools,
and its own cut test, so a bug in enumeration or in the complement BFS cannot
pass unseen on both sides.
"""

import json
from collections import Counter

import networkx as nx
import pytest

from hypercut.cli import main
from hypercut.oracle import pool_block
from test_cli import _oracle_pin_commands

MAX_K = 8


def _cube(n):
    return nx.relabel_nodes(nx.hypercube_graph(n), lambda node: sum(bit << i for i, bit in enumerate(node)))


def _canonical_path(verts):
    return min(tuple(verts), tuple(reversed(verts)))


def _canonical_cycle(verts):
    """The least of a cycle's rotations in either direction."""
    return min(tuple(r[i:] + r[:i]) for r in (list(verts), list(reversed(verts))) for i in range(len(verts)))


def _reference_paths(n, kmax):
    """{k: the set of paths on k vertices} for k <= kmax, one canonical tuple each."""
    g = _cube(n)
    pools = {k: set() for k in range(1, kmax + 1)}
    for v in g:
        pools[1].add((v,))
        for p in nx.all_simple_paths(g, v, [w for w in g if w != v], cutoff=kmax - 1):
            pools[len(p)].add(_canonical_path(p))
    return pools


def _reference_cycles(n, kmax):
    """{k: the set of k-cycles} for k <= kmax, one canonical tuple each."""
    pools = {k: set() for k in range(4, kmax + 1, 2)}
    for c in nx.simple_cycles(_cube(n), length_bound=kmax):
        pools[len(c)].add(_canonical_cycle(c))
    return pools


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
            elements = pool_block(n, shape, k)[0]
            assert Counter(el.verts for el in elements) == Counter(reference), (shape, n, k)


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
