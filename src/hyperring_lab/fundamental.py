"""Quotient of a hyperring by the transitive co-occurrence relation.

Two elements are related when they appear together in some finite sum of
finite products of elements; the transitive closure partitions the carrier,
and class-wise addition and multiplication turn the partition into an
ordinary commutative ring (every product of classes is a single class).

The classes are exactly the cosets of the additive subgroup N generated by
differences within single product sets (see the derivation in `ideals`), so
the class ring is `ideals.coset_ring` on N: the same builder, and the same
representative-pair well-definedness check, as the quotient by a hyperideal.
On top of that every product of classes must be a single class, and the
class tables must pass `validate_axioms`; the first law they break raises
with its witness.  With singleton products those laws are the
commutative-ring laws: a*0 = 0 follows from distributivity over the
additive group.  The class ring is that quotient, with its projection.

An ideal's image is taken through the coset projection, and its class-ring
closedness is ordinary closedness in the quotient, whose products are
singletons.  The transfer compares the closed-pair rows of both sides: the
ideal's rows in the hyperring against its image's rows in the quotient, bit
by bit over the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bitsets import members
from .closedness import closed_rows
from .core import (
    AxiomFailure,
    FiniteHyperring,
    HomMap,
    WellDefinednessFailure,
)
from .ideals import (
    coset_partition,
    coset_ring,
    cooccurrence_subgroup,
    is_hyperideal,
    require_proper,
)


def gamma_star_classes(ring: FiniteHyperring) -> list[int]:
    """Co-occurrence classes as element masks, ordered by least member."""
    return coset_partition(ring, cooccurrence_subgroup(ring))[0]


def fundamental_ring(ring: FiniteHyperring) -> tuple[FiniteHyperring, HomMap]:
    """Class ring and projection, as `quotient_by_ideal` returns them: the
    classes are numbered in the order of their least members, and `least`
    reads a product cell as its class.  Fully verified and cached per ring."""

    def build():
        name = "%s/gamma*" % (ring.name or "ring")
        quot, proj = coset_ring(ring, cooccurrence_subgroup(ring), name, "fundamental")
        for i, row in enumerate(quot.mul):
            for j, cell in enumerate(row):
                if cell & (cell - 1):
                    raise WellDefinednessFailure(
                        "product of classes (%d,%d) straddles classes %s"
                        % (i, j, members(cell))
                    )
        failed = next((c for c in quot.validate().axioms if not c.ok), None)
        if failed is not None:
            raise AxiomFailure(
                "class ring breaks %s at classes %s" % (failed.name, failed.witness)
            )
        return quot, proj

    return ring.own_memo("fundamental", build)


@dataclass(frozen=True)
class TransferResult:
    """Closedness comparison between a hyperideal and its class-ring image."""

    image: int
    image_is_ideal: bool
    image_proper: bool
    skipped: bool
    note: str
    pairs: tuple[tuple[int, int, bool, bool], ...]
    first_mismatch: Optional[tuple[int, int]]

    @property
    def equivalent(self) -> bool:
        return self.first_mismatch is None and not self.skipped


def ideal_in_fundamental(
    ring: FiniteHyperring, qmask: int, smax: int = 6, nmax: int = 6
) -> TransferResult:
    """Compare hyper-side and class-ring-side closedness over a window.

    When the image collapses to the whole class ring, ring-side closedness is
    undefined and the comparison is marked skipped rather than failed.
    """
    if smax < 1 or nmax < 1:
        raise ValueError("window smax=%d, nmax=%d is below 1" % (smax, nmax))
    require_proper(ring, qmask)
    quot, proj = fundamental_ring(ring)
    image = proj.image_mask(qmask)
    image_is_ideal = is_hyperideal(quot, image)
    image_proper = image != quot.full
    pairs = ()
    if not image_proper:
        note = "image is the whole class ring"
    elif not image_is_ideal:
        note = "image is not an ideal of the class ring"
    else:
        note = ""
        k = max(smax, nmax)
        hyper, ringside = closed_rows(ring, qmask, k), closed_rows(quot, image, k)
        pairs = tuple(
            (s, n, bool(hyper[s] >> n & 1), bool(ringside[s] >> n & 1))
            for s in range(1, smax + 1)
            for n in range(1, nmax + 1)
        )
    return TransferResult(
        image=image,
        image_is_ideal=image_is_ideal,
        image_proper=image_proper,
        skipped=bool(note),
        note=note,
        pairs=pairs,
        first_mismatch=next(((s, n) for s, n, h, r in pairs if h != r), None),
    )
