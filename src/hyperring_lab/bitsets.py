"""Element sets as integer bitmasks.

Carriers are {0, .., n-1}; a subset is the int whose bit i is set iff i is a
member.  All set algebra used by the engine reduces to int ops, and iteration
is always in ascending element order, which keeps every derived artifact
deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def least(mask: int) -> Optional[int]:
    """Smallest member, or None for the empty mask."""
    return (mask & -mask).bit_length() - 1 if mask else None


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def size(mask: int) -> int:
    return bin(mask).count("1")


def full_mask(n: int) -> int:
    return (1 << n) - 1
