"""Copy enumeration and cut validation agree on which elements a family admits.

The expectations here are written out from the definitions (structure
mode: copies of H; substructure mode: connected subgraphs of H), not read
from the admissibility table both sides use.
"""

import pytest

from hypercut.analysis import MALFORMED, validate_cut
from hypercut.cuts import SUBSTRUCTURE, CutFamily, StructureKind
from hypercut.embeddings import CubeCycle, CubePath, CubeStar
from hypercut.oracle import enumerate_copies

CASES = [
    (3, StructureKind("path", 1)),
    (3, StructureKind("path", 2)),
    (3, StructureKind("path", 3)),
    (3, StructureKind("path", 4)),
    (3, StructureKind("cycle", 4)),
    (3, StructureKind("cycle", 6)),
    (3, StructureKind("star", 2)),
    (3, StructureKind("star", 3)),
    (3, StructureKind("vertex", 1)),
    (3, StructureKind("edge", 2)),
    (4, StructureKind("path", 5)),
    (4, StructureKind("cycle", 6)),
    (4, StructureKind("star", 3)),
    (4, StructureKind("vertex", 1)),
    (4, StructureKind("edge", 2)),
]
IDS = [f"Q{n}-{kind.label()}" for n, kind in CASES]
MODES = ("structure", "substructure")


def _path(n, m):
    return CubePath(n, tuple(v ^ (v >> 1) for v in range(m)))  # the first m Gray codewords


def _cycle(n, l):
    """The first l/2 Gray codewords of Q_(n-1), out and back across coordinate n - 1."""
    half = [v ^ (v >> 1) for v in range(l // 2)]
    return CubeCycle(n, tuple(half + [g | (1 << (n - 1)) for g in reversed(half)]))


def _star(n, r):
    return CubeStar(n, 0, tuple(1 << i for i in range(r)))


def _malformed(n, kind, mode, el):
    return validate_cut(CutFamily(n, kind, mode, (el,))).status == MALFORMED


def _one_size_too_large(n, kind, mode):
    """For each admissible shape, an element one size past the largest allowed."""
    k = kind.size
    if kind.name == "vertex":
        return [_path(n, 2)]
    if kind.name == "edge":
        return [_path(n, 3)]
    if kind.name == "path":
        return [_path(n, k + 1)]
    sub = mode == SUBSTRUCTURE
    if kind.name == "cycle":
        longer = [_cycle(n, k + 2)] if k + 2 <= 1 << n else []
        return longer + ([_path(n, k + 1)] if sub else [])
    bigger = [_star(n, k + 1)] if k + 1 <= n else []
    return bigger + ([_path(n, 3)] if sub else [])  # path elements of star families stop at K1,1


def _outside_shapes(kind, mode):
    """Shapes no element of a (kind, mode) family may have."""
    if kind.name == "cycle":
        return {"star"} if mode == SUBSTRUCTURE else {"path", "star"}
    if kind.name == "star":
        return {"cycle"} if mode == SUBSTRUCTURE else {"path", "cycle"}
    return {"cycle", "star"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n,kind", CASES, ids=IDS)
def test_every_enumerated_copy_passes_validation(n, kind, mode):
    copies = enumerate_copies(n, kind, mode)
    assert copies
    for el in copies:
        assert not _malformed(n, kind, mode, el), el


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n,kind", CASES, ids=IDS)
def test_one_size_too_large_is_malformed(n, kind, mode):
    for el in _one_size_too_large(n, kind, mode):
        assert el.violation() is None
        assert _malformed(n, kind, mode, el), el


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n,kind", CASES, ids=IDS)
def test_shape_outside_the_family_is_malformed(n, kind, mode):
    samples = {"path": _path(n, 1), "cycle": _cycle(n, 4), "star": _star(n, 2)}
    outside = _outside_shapes(kind, mode)
    assert outside
    for shape in outside:
        assert _malformed(n, kind, mode, samples[shape]), shape
    # and no enumerated copy has one of those shapes
    assert not {el.shape for el in enumerate_copies(n, kind, mode)} & outside
