"""Closed-form structure/substructure connectivity values and bounds.

Queries outside a proved range raise NotCoveredError instead of
extrapolating, and the regime where only a bound is known comes back as a
lower-bound value.  Where two formulas overlap they are cross-checked at
call time and a mismatch fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cuts import StructureKind, at_most_power_of_two, check_mode


class NotCoveredError(ValueError):
    """The requested parameters carry no proved value."""


EXACT = "exact"
LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class KappaValue:
    """An exact connectivity value or a lower bound."""

    status: str
    value: int

    def __post_init__(self) -> None:
        if self.status not in (EXACT, LOWER_BOUND):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _path_value(n: int, k: int) -> int:
    return _ceil_div(2 * n, k + 1) if k % 2 else _ceil_div(2 * n, k)


def kappa_path(n: int, k: int, mode: str = "structure") -> KappaValue:
    """Path connectivity: ceil(2n/(k+1)) for odd k, ceil(2n/k) for even k.

    Structure and substructure agree over the whole proved range
    n >= 3, 3 <= k <= 2^(n-1).
    """
    check_mode(mode)
    if n < 3:
        raise NotCoveredError(f"path values need n >= 3, got {n}")
    if not (k >= 3 and at_most_power_of_two(k, n - 1)):
        raise NotCoveredError(f"path values need 3 <= k <= 2^(n-1), got k={k} at n={n}")
    return KappaValue(EXACT, _path_value(n, k))


def kappa_cycle(n: int, k: int, mode: str = "structure") -> KappaValue:
    """Cycle connectivity.

    Substructure: ceil(2n/(k+1)) for odd k (no odd cycles exist, so the
    family degenerates to paths), ceil(2n/k) for even k.  Structure mode
    needs even k: length 4 is n - 2 (2 at n = 3), even 6..2^(n-2) is
    exactly ceil(2n/k), and even lengths past 2^(n-2) only have the lower
    bound ceil(2n/k).
    """
    check_mode(mode)
    if n < 3:
        raise NotCoveredError(f"cycle values need n >= 3, got {n}")
    if mode == "substructure":
        if not (k >= 3 and at_most_power_of_two(k, n - 1)):
            raise NotCoveredError(
                f"substructure cycle values need 3 <= k <= 2^(n-1), got k={k} at n={n}"
            )
        return KappaValue(EXACT, _path_value(n, k))
    if k % 2:
        raise NotCoveredError(f"structure mode needs even k (no odd cycle embeds), got {k}")
    if not (k >= 4 and at_most_power_of_two(k, n - 1)):
        raise NotCoveredError(
            f"structure cycle values need 4 <= k <= 2^(n-1), got k={k} at n={n}"
        )
    if k == 4:
        return KappaValue(EXACT, 2 if n == 3 else n - 2)
    if n >= 5 and at_most_power_of_two(k, n - 2):
        return KappaValue(EXACT, _ceil_div(2 * n, k))
    # even lengths in (2^(n-2), 2^(n-1)]: exactness is open, only the bound holds
    return KappaValue(LOWER_BOUND, _ceil_div(2 * n, k))


def kappa_power_of_two_cycle(n: int, m: int) -> KappaValue:
    """Connectivity for cycle length 2^m: n - m at n in {4, 5} or m = 2,
    else ceil(n / 2^(m-1)) for n >= 6, 3 <= m <= n - 2.

    Cross-checked against the general cycle engine wherever that is exact.
    """
    if n < 4:
        raise NotCoveredError(f"power-of-two cycle values need n >= 4, got {n}")
    if not 2 <= m <= n - 2:
        raise NotCoveredError(f"power-of-two cycle values need 2 <= m <= n-2, got m={m} at n={n}")
    if n in (4, 5) or m == 2:
        value = n - m
    else:
        value = _ceil_div(n, 1 << (m - 1))
    general = kappa_cycle(n, 1 << m, "structure")
    if general.is_exact and general.value != value:
        raise RuntimeError(
            f"formula disagreement at n={n}, m={m}: {value} vs general cycle value {general.value}"
        )
    return KappaValue(EXACT, value)


_BASELINE = {
    ("vertex", 1): lambda n: n,
    ("edge", 2): lambda n: n - 1,
    ("star", 2): lambda n: _ceil_div(n, 2),
    ("star", 3): lambda n: _ceil_div(n, 2),
    ("cycle", 4): lambda n: n - 2,
}


def kappa_baseline(n: int, kind: StructureKind, mode: str = "structure") -> KappaValue:
    """Baseline values for the single vertex, edge, small stars and the 4-cycle (n >= 4)."""
    check_mode(mode)
    if n < 4:
        raise NotCoveredError(f"baseline values need n >= 4, got {n}")
    entry = _BASELINE.get((kind.name, kind.size))
    if entry is None:
        raise NotCoveredError(f"no baseline value for {kind.label()}")
    # the one mode-dependent value: substructure C4 falls to ceil(n/2), the K1,2 = P3 value
    value = _ceil_div(n, 2) if (kind.name, mode) == ("cycle", "substructure") else entry(n)
    if kind.name == "cycle":
        general = kappa_cycle(n, 4, mode)
        if general.is_exact and general.value != value:
            raise RuntimeError(
                f"formula disagreement for C4 at n={n}: {value} vs {general.value}"
            )
    return KappaValue(EXACT, value)


def kappa_g_extra_formula(n: int, g: int) -> int:
    """g-extra connectivity: (g+1)n - 2g - C(g,2) up to g = n - 4, then n(n-1)/2."""
    if n < 4:
        raise NotCoveredError(f"g-extra formula needs n >= 4, got {n}")
    if not 0 <= g <= n:
        raise NotCoveredError(f"g must be in [0, {n}], got {g}")
    if g <= n - 4:
        return (g + 1) * n - 2 * g - math.comb(g, 2)
    return n * (n - 1) // 2


# The smallest n of the Budeng sweep: below it the inequality fails (n = 5, m = 3 gives 2 >= 2).
BUDENGS_MIN_N = 6


def verify_budengs_inequality(n_max: int) -> list[tuple[int, int]]:
    """Sweep ceil(n / 2^(m-1)) < n - m over BUDENGS_MIN_N <= n <= n_max, 3 <= m <= n - 2.

    Returns the violating (n, m) pairs; the inequality holds, so the list
    is expected to be empty.
    """
    if n_max < BUDENGS_MIN_N:
        raise ValueError(f"sweep needs n_max >= {BUDENGS_MIN_N}, got {n_max}")
    violations = []
    for n in range(BUDENGS_MIN_N, n_max + 1):
        for m in range(3, n - 1):
            if _ceil_div(n, 1 << (m - 1)) >= n - m:
                violations.append((n, m))
    return violations
