"""Counter-based seed derivation."""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One output of the splitmix64 generator for the given state."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Counter-based per-run seed.

    Element ``index`` of the splitmix64 sequence seeded at ``master``; O(1),
    so the derived seed does not depend on scheduling order of the runs.
    """
    if index < 0:
        raise ValueError("run index must be nonnegative")
    return splitmix64((int(master) + index * _GOLDEN) & _MASK64)

