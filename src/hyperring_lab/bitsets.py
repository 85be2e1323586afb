"""Element sets as integer bitmasks.

Carriers are {0, .., n-1}; a subset is the int whose bit i is set iff i is a
member.  All set algebra used by the engine reduces to int ops, and iteration
is always in ascending element order, which keeps every derived artifact
deterministic.

The engine's loops read the same few masks over and over: one default
sweep iterates 1,370 distinct masks some 476,000 times.  So `iter_bits`
keeps the member tuple of each recently iterated mask in one bounded
per-process table of `MEMBER_TABLE_SIZE` entries, least recently used
first out.  A tuple cannot be changed by a caller, so every caller may share
it; `members` hands out a fresh list copied from it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

MEMBER_TABLE_SIZE = 4096


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


@lru_cache(maxsize=MEMBER_TABLE_SIZE)
def iter_bits(mask: int) -> tuple[int, ...]:
    """The members of the mask, ascending, as a shared tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def members(mask: int) -> list[int]:
    """The members of the mask, ascending, as a new list."""
    return list(iter_bits(mask))


def least(mask: int) -> Optional[int]:
    """Smallest member, or None for the empty mask."""
    return (mask & -mask).bit_length() - 1 if mask else None


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def size(mask: int) -> int:
    return bin(mask).count("1")


def full_mask(n: int) -> int:
    return (1 << n) - 1
