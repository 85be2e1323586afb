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
additive group.

An ideal's image is taken through the coset projection, and its class-ring
closedness is ordinary closedness in the quotient, whose products are
singletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bitsets import least, members
from .closedness import open_mask
from .core import (
    AxiomFailure,
    FiniteHyperring,
    HomMap,
    WellDefinednessFailure,
    validate_axioms,
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


@dataclass(frozen=True)
class FundamentalRing:
    """Ordinary commutative ring of co-occurrence classes.

    `projection` maps the source onto the class quotient built by
    `coset_ring`; the tables here are that quotient's, with each singleton
    product cell read as its class index.
    """

    source: FiniteHyperring
    classes: tuple[int, ...]
    class_of: tuple[int, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    projection: HomMap

    @property
    def order(self) -> int:
        return len(self.classes)

    @property
    def zero(self) -> int:
        return self.class_of[self.source.zero]


def fundamental_ring(ring: FiniteHyperring) -> FundamentalRing:
    """Build and fully verify the class ring; cached per hyperring."""
    return ring.memo("fundamental", lambda: _build_fundamental(ring))


def _build_fundamental(ring: FiniteHyperring) -> FundamentalRing:
    name = "%s/gamma*" % (ring.name or "ring")
    quot, proj = coset_ring(ring, cooccurrence_subgroup(ring), name, "fundamental")
    for i, row in enumerate(quot.mul):
        for j, cell in enumerate(row):
            if cell & (cell - 1):
                raise WellDefinednessFailure(
                    "product of classes (%d,%d) straddles classes %s"
                    % (i, j, members(cell))
                )
    failed = next((c for c in validate_axioms(quot).axioms if not c.ok), None)
    if failed is not None:
        raise AxiomFailure(
            "class ring breaks %s at classes %s" % (failed.name, failed.witness)
        )
    return FundamentalRing(
        source=ring,
        classes=tuple(proj.preimage_mask(1 << i) for i in quot.elements),
        class_of=proj.table,
        add=tuple(tuple(row) for row in quot.add),
        mul=tuple(tuple(least(cell) for cell in row) for row in quot.mul),
        projection=proj,
    )


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
    require_proper(ring, qmask)
    proj = fundamental_ring(ring).projection
    quot = proj.target
    image = proj.image_mask(qmask)
    image_is_ideal = is_hyperideal(quot, image)
    image_proper = image != quot.full
    if not image_proper or not image_is_ideal:
        reason = (
            "image is the whole class ring"
            if not image_proper
            else "image is not an ideal of the class ring"
        )
        return TransferResult(
            image=image,
            image_is_ideal=image_is_ideal,
            image_proper=image_proper,
            skipped=True,
            note=reason,
            pairs=(),
            first_mismatch=None,
        )
    pairs = []
    first = None
    for s in range(1, smax + 1):
        for n in range(1, nmax + 1):
            hyper = not open_mask(ring, qmask, s, n)
            ringside = not open_mask(quot, image, s, n)
            pairs.append((s, n, hyper, ringside))
            if hyper != ringside and first is None:
                first = (s, n)
    return TransferResult(
        image=image,
        image_is_ideal=image_is_ideal,
        image_proper=image_proper,
        skipped=False,
        note="",
        pairs=tuple(pairs),
        first_mismatch=first,
    )
