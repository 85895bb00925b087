"""A cut certificate that shares no code with hypercut's validator or builders.

Every constructed family isolates the all-zeros vertex.  If 0 is outside
the removed union and each neighbour e_i = 1 << i is inside it, the
complement is either disconnected or just {0}: a cut at any n, decided in
O(n * |family|) without a BFS.  The run.py probe uses it on parsed CLI
output too, so it imports nothing from hypercut.
"""

from __future__ import annotations


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def closed_form_size(shape: str, n: int, k: int) -> int:
    """Elements in a minimum path or cycle structure cut of Q_n (paper formulas)."""
    if shape == "path" and k % 2:
        return _ceil_div(2 * n, k + 1)
    return _ceil_div(2 * n, k)


def _walk_violation(n: int, verts: tuple[int, ...], closed: bool) -> str | None:
    size = 1 << n
    if any(not 0 <= v < size for v in verts):
        return "label out of range"
    if len(set(verts)) != len(verts):
        return "repeated vertex"
    steps = list(zip(verts, verts[1:]))
    if closed:
        steps.append((verts[-1], verts[0]))
    if any((a ^ b).bit_count() != 1 for a, b in steps):
        return "consecutive vertices are not adjacent"
    return None


def certify(n: int, shape: str, k: int, elements: list[tuple[bool, tuple[int, ...]]]) -> str | None:
    """None if elements, as (is_cycle, vertices) pairs, form a minimum cut isolating 0; else why not."""
    expected = closed_form_size(shape, n, k)
    if len(elements) != expected:
        return f"{len(elements)} elements, closed form says {expected}"
    union: set[int] = set()
    for is_cycle, verts in elements:
        if is_cycle != (shape == "cycle") or len(verts) != k:
            return f"element is not a {shape} on {k} vertices"
        reason = _walk_violation(n, verts, is_cycle)
        if reason:
            return reason
        union.update(verts)
    if 0 in union:
        return "the isolated vertex 0 is removed"
    missing = [i for i in range(n) if 1 << i not in union]
    if missing:
        return f"neighbours e_i of 0 left in place: i = {missing}"
    return None
