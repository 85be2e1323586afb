"""Hyperideals: membership, generation, enumeration, and classification.

A hyperideal is a nonempty subset closed under subtraction (hence an additive
subgroup) that absorbs products: r*a stays inside for every ring element r.
On top of the basic predicates this module computes the product family C (all
finite products of elements, length >= 1), the classifications built from it
and from its sum closure U (all finite sums of members of C), the special
element sets (nilpotents, units, weak zero divisors, i-sets), the
ideal-level arithmetic (sum, product, raw power) the verification checks use,
and `coset_ring`, the one builder of class rings: the cosets of an additive
subgroup with the induced sum and class-set product.  The quotient G/P by a
hyperideal and the fundamental ring are both built by it.

The strong-C test does not enumerate U.  Writing N for the additive subgroup
generated by all differences u - v with u, v inside a single member of C, two
facts hold for any hyperring built here:

* if u, v lie in one member E of U, then E is a sum of C-members, so u - v
  decomposes as a sum of within-C differences and lands in N;
* conversely x and x + (u - v) co-occur in {x - v} + P (a sum of two
  C-members, hence in U) whenever u, v lie in P in C.

So "meeting E in U forces containing E" is equivalent to being a union of
N-cosets, which is a single Minkowski-sum test.  The fundamental ring is
`coset_ring` on the same subgroup N; see `fundamental`.
"""

from __future__ import annotations

from typing import Optional

from .bitsets import is_subset, iter_bits, least, mask_of, members, size
from .core import (
    EmptyOperand,
    FiniteHyperring,
    HomMap,
    NotAHyperideal,
    OrderTooLarge,
    ProperIdealRequired,
    WellDefinednessFailure,
    canonical_identity,
    check_good_hom,
    weak_identities,
)

I_SET_ORDER_BOUND = 12
ENUMERATION_ORDER_BOUND = 16


def _join_subgroup(ring: FiniteHyperring, base: int, amask: int) -> int:
    """Subgroup generated by the subgroup `base` and the set `amask`.

    A join of cyclic pieces (Holt, Eick and O'Brien 2005): for the least
    generator g outside the current subgroup H, H + <g> is the union of the
    cosets kg + H for k = 0, 1, .. up to the first multiple of g that an
    earlier coset already covers, which in a group is the first one inside
    H.  That costs |H + <g>| additions instead of the |H|^2 of a fixpoint.
    Each step adds a new element, so it ends on any table; the result is the
    generated subgroup when the addition is an abelian group.
    """
    add = ring.add
    cur = base
    rest = amask & ~cur
    while rest:
        g = (rest & -rest).bit_length() - 1
        xs = iter_bits(cur)
        total = cur
        kg = g
        while not total >> kg & 1:
            row = add[kg]
            for x in xs:
                total |= 1 << row[x]
            kg = add[kg][g]
        cur = total
        rest &= ~cur
    return cur


def subgroup_closure(ring: FiniteHyperring, amask: int) -> int:
    """Smallest additive subgroup containing the given set."""
    ring.neg_table()  # a table with a missing inverse raises AxiomFailure
    return _join_subgroup(ring, 1 << ring.zero, amask)


def absorption_table(ring: FiniteHyperring) -> list[int]:
    """Entry a is the union of r*a over every element r (cached per ring).

    A set absorbs products exactly when it contains the entry of each of
    its members; the entry is read off the product table as given, so it is
    exact on tables that break the axioms too.
    """
    return ring.memo(
        "absorb", lambda: [ring.row_product(ring.full, a) for a in ring.elements]
    )


def is_hyperideal(ring: FiniteHyperring, imask: int) -> bool:
    if imask == 0:
        return False
    add = ring.add
    neg = ring.neg_table()
    absorb = absorption_table(ring)
    xs = iter_bits(imask)
    for a in xs:
        row = add[a]
        for b in xs:
            if not imask >> row[neg[b]] & 1:
                return False
    for a in xs:
        if absorb[a] & ~imask:
            return False
    return True


def generate_hyperideal(ring: FiniteHyperring, gens: int) -> int:
    """Least hyperideal containing `gens`: alternate subgroup and absorption closure."""
    if gens == 0:
        raise EmptyOperand("generate_hyperideal needs at least one generator")
    absorb = absorption_table(ring)
    cur = subgroup_closure(ring, gens)
    while True:
        absorbed = cur
        for a in iter_bits(cur):
            absorbed |= absorb[a]
        if absorbed == cur:
            return cur
        cur = _join_subgroup(ring, cur, absorbed)


def enumerate_hyperideals(
    ring: FiniteHyperring, order_bound: int = ENUMERATION_ORDER_BOUND
) -> list[int]:
    """All hyperideals, ascending by size then member list.

    Every hyperideal is the sum of the principal hyperideals of its members,
    so the lattice is the closure of the distinct principal hyperideals under
    sums.  It is built breadth-first from {0}: a principal P is added to a
    found sum I only when P is not inside I, and I + P is formed as the
    subgroup join of I and P.

    Completeness assumes the hyperring axioms: an abelian addition makes
    every sum a subgroup and a union of cosets, and inclusion distributivity
    (r*(i + j) lies in r*i + r*j) makes every sum a hyperideal.  The final
    absorption filter means nothing but hyperideals is ever returned, even
    on tables that fail the axioms.
    """
    if ring.order > order_bound:
        raise OrderTooLarge(
            "hyperideal enumeration capped at order %d" % order_bound
        )
    return list(ring.memo("ideals", lambda: _build_ideals(ring)))


def _build_ideals(ring: FiniteHyperring) -> tuple[int, ...]:
    principals = {generate_hyperideal(ring, 1 << x) for x in ring.elements}
    zero_ideal = 1 << ring.zero
    found = {zero_ideal}
    frontier = [zero_ideal]
    while frontier:
        nxt = []
        for ideal in frontier:
            for p in principals:
                if not p & ~ideal:
                    continue
                total = _join_subgroup(ring, ideal, p)
                if total not in found:
                    found.add(total)
                    nxt.append(total)
        frontier = nxt
    ideals = [m for m in found if is_hyperideal(ring, m)]
    ideals.sort(key=lambda m: (size(m), members(m)))
    return tuple(ideals)


def proper_hyperideals(ring: FiniteHyperring) -> list[int]:
    return [m for m in enumerate_hyperideals(ring) if m != ring.full]


def require_proper(ring: FiniteHyperring, imask: int) -> None:
    """Raise unless the set is a proper hyperideal."""
    if not is_hyperideal(ring, imask):
        raise NotAHyperideal("subset %r is not a hyperideal" % members(imask))
    if imask == ring.full:
        raise ProperIdealRequired("the whole carrier is not a proper hyperideal")


def is_prime(ring: FiniteHyperring, pmask: int) -> bool:
    require_proper(ring, pmask)
    mul = ring.mul
    for a in ring.elements:
        if pmask >> a & 1:
            continue
        for b in range(a, ring.order):
            if pmask >> b & 1:
                continue
            if is_subset(mul[a][b], pmask):
                return False
    return True


def prime_hyperideals(ring: FiniteHyperring) -> list[int]:
    return list(ring.memo("primes", lambda: tuple(
        p for p in proper_hyperideals(ring) if is_prime(ring, p)
    )))


def is_maximal(ring: FiniteHyperring, pmask: int) -> bool:
    require_proper(ring, pmask)
    for j in enumerate_hyperideals(ring):
        if j != pmask and j != ring.full and is_subset(pmask, j):
            return False
    return True


def is_coprime(ring: FiniteHyperring, imask: int, jmask: int) -> bool:
    return ring.minkowski_sum(imask, jmask) == ring.full


def radical(ring: FiniteHyperring, imask: int) -> int:
    """Intersection of primes containing the hyperideal; the carrier if none."""
    out = ring.full
    hit = False
    for p in prime_hyperideals(ring):
        if is_subset(imask, p):
            out &= p
            hit = True
    return out if hit else ring.full


# -- product family C and the classifications ------------------------------------


def product_class_C(ring: FiniteHyperring) -> list[int]:
    """All finite products of elements (length >= 1 -- singletons included)."""
    return list(ring.memo("classC", lambda: _build_class_C(ring)))


def _build_class_C(ring: FiniteHyperring) -> tuple[int, ...]:
    seen = {1 << a for a in ring.elements}
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for r in ring.elements:
                prod = ring.row_product(s, r)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(seen))


def cooccurrence_subgroup(ring: FiniteHyperring) -> int:
    """Subgroup generated by all differences within a single member of C."""
    return ring.memo("cooccN", lambda: _build_cooccurrence(ring))


def _build_cooccurrence(ring: FiniteHyperring) -> int:
    diffs = 1 << ring.zero
    neg = ring.neg_table()
    for s in product_class_C(ring):
        xs = members(s)
        base = xs[0]
        for other in xs[1:]:
            diffs |= 1 << ring.add[other][neg[base]]
    return subgroup_closure(ring, diffs)


def is_C_hyperideal(ring: FiniteHyperring, imask: int) -> bool:
    if not is_hyperideal(ring, imask):
        return False
    for s in product_class_C(ring):
        if s & imask and not is_subset(s, imask):
            return False
    return True


def is_strong_C_hyperideal(ring: FiniteHyperring, imask: int) -> bool:
    if not is_hyperideal(ring, imask):
        return False
    n = cooccurrence_subgroup(ring)
    return ring.minkowski_sum(imask, n) == imask


# -- n-absorbing ----------------------------------------------------------------


def _multiset_products(ring: FiniteHyperring, length: int) -> tuple[list, list]:
    """Level k groups the nondecreasing (k+1)-tuples of elements by product.

    Whether a tuple witnesses that an ideal is not absorbing depends only on
    its class: its product mask and the set of its drop-one subproducts.  The
    class of u + (a,), for a at least the last entry of u, follows from u's:
    the product is prod(u)*a, and the subproducts are prod(u) and m*a for
    each subproduct m of u.  So tuples are never listed.  For each class of
    the top level and each last entry the table keeps the lexicographically
    first tuple, and it extends a class by a from the least of those whose
    last entry is at most a.  A group lists the (first tuple, subproducts)
    pair of each of its classes in lexicographic order.  One table per ring,
    grown on demand.

    Subproduct masks are interned: `masks[i]` is the mask with id i, and a
    class's subproducts are the int whose bit i is set when `masks[i]` is
    one of them.  A class is keyed by (product mask, that int), and
    `lifts[a]` maps an id to the bit of the id of its mask times a, so
    extending a class costs one lookup per subproduct.  Returns the levels
    and `masks`.
    """
    table = ring.memo("msprods", lambda: _start_multiset_products(ring))
    levels, masks, ids = table["levels"], table["masks"], table["ids"]
    lifts = table["lifts"]  # lifts[a][i] is the bit of the id of masks[i]*a

    def intern(mask: int) -> int:
        i = ids.get(mask)
        if i is None:
            i = ids[mask] = len(masks)
            masks.append(mask)
        return i

    def lift(a: int, i: int) -> int:
        bit = lifts[a][i] = 1 << intern(ring.row_product(masks[i], a))
        return bit

    while len(levels) < length:
        classes: dict[tuple, dict] = {}
        for (prod, subs), by_last in table["classes"].items():
            pid = intern(prod)
            sub_ids = iter_bits(subs)
            best = None
            for a in range(min(by_last), ring.order):
                t = by_last.get(a)
                if best is None or t is not None and t < best:
                    best = t
                up = lifts[a]
                top = up.get(pid) or lift(a, pid)
                bits = 1 << pid
                for i in sub_ids:
                    bits |= up.get(i) or lift(a, i)
                key = (masks[top.bit_length() - 1], bits)
                slot = classes.get(key)
                if slot is None:
                    classes[key] = {a: best + (a,)}
                elif a not in slot or best < slot[a]:
                    slot[a] = best + (a,)
        groups: dict[int, list] = {}
        for (prod, subs), by_last in classes.items():
            groups.setdefault(prod, []).append((min(by_last.values()), subs))
        levels.append({p: sorted(g) for p, g in groups.items()})
        table["classes"] = classes
    return levels, masks


def _start_multiset_products(ring: FiniteHyperring) -> dict:
    # A one-factor tuple's only subproduct is the empty product, which
    # times a is {a}; id 0 stands for it and occurs at level 0 only.
    masks = [0]
    ids = {}
    for a in ring.elements:
        ids[1 << a] = len(masks)
        masks.append(1 << a)
    first = {(1 << a, 1): {a: (a,)} for a in ring.elements}
    lifts = [{0: 1 << ids[1 << a]} for a in ring.elements]
    return {
        "classes": first, "levels": [{}], "masks": masks, "ids": ids,
        "lifts": lifts,
    }


def n_absorbing_witness(
    ring: FiniteHyperring, imask: int, n: int
) -> Optional[tuple[int, ...]]:
    """First (n+1)-tuple whose product lands in I with no n-subproduct inside.

    The interned subproduct masks inside I form one id bitset, so a class
    is a witness when its subproduct bits miss it.  Groups whose product
    mask is not inside I are skipped whole; the others are scanned in
    lexicographic order up to their first witness, and the least of those
    is returned.
    """
    require_proper(ring, imask)
    if n < 1:
        raise ValueError("absorbing degree starts at 1")
    levels, masks = _multiset_products(ring, n + 1)
    inside = 0
    for i, m in enumerate(masks):
        if not m & ~imask:
            inside |= 1 << i
    best = None
    for prod, cases in levels[n].items():
        if prod & ~imask:
            continue
        for tup, subs in cases:
            if best is not None and tup >= best:
                break
            if not subs & inside:
                best = tup
                break
    return best


def is_n_absorbing(ring: FiniteHyperring, imask: int, n: int) -> bool:
    return n_absorbing_witness(ring, imask, n) is None


# -- special element sets ---------------------------------------------------------


def nilpotents(ring: FiniteHyperring) -> int:
    """Elements with 0 inside some hyperpower (membership, not containment)."""
    out = 0
    zero = 1 << ring.zero
    for a in ring.elements:
        if any(p & zero for p in ring.power_profile(a).powers):
            out |= 1 << a
    return out


def units(ring: FiniteHyperring) -> Optional[int]:
    """Elements x with e inside some x*y, for the canonical identity e.

    Returns None when the ring has no identity element at all (the notion
    does not apply).
    """
    e = canonical_identity(ring)
    if e is None:
        return None
    out = 0
    mul = ring.mul
    for x in ring.elements:
        if any(mul[x][y] >> e & 1 for y in ring.elements):
            out |= 1 << x
    return out


def weak_zero_divisors(ring: FiniteHyperring) -> int:
    """Elements a with 0 inside a*b for some nonzero b."""
    out = 0
    zero = ring.zero
    mul = ring.mul
    for a in ring.elements:
        for b in ring.elements:
            if b != zero and mul[a][b] >> zero & 1:
                out |= 1 << a
                break
    return out


def _is_i_set(ring: FiniteHyperring, xi: int) -> bool:
    for x in ring.elements:
        total = None
        for e in iter_bits(xi):
            cell = ring.mul[x][e]
            total = cell if total is None else ring.minkowski_sum(total, cell)
        if total is None or not total >> x & 1:
            return False
    return True


def find_i_sets(ring: FiniteHyperring) -> list[int]:
    """All subsets xi (some member nonzero) with x in sum of x*e over e in xi."""
    if ring.order > I_SET_ORDER_BOUND:
        raise OrderTooLarge("i-set search capped at order %d" % I_SET_ORDER_BOUND)
    zero_bit = 1 << ring.zero
    out = []
    for xi in range(1, 1 << ring.order):
        if xi == zero_bit:
            continue
        if _is_i_set(ring, xi):
            out.append(xi)
    out.sort(key=lambda m: (size(m), members(m)))
    return out


def has_i_set(ring: FiniteHyperring) -> bool:
    """Existence decided by shortcuts where sound, else exhaustive search.

    A weak identity e gives the i-set {e} directly.  When every product cell
    is a singleton the structure is an ordinary ring, sums of cells collapse
    to x*(sum of members), and an i-set forces a multiplicative identity --
    so no identity means no i-set.  Only structures fitting neither shortcut
    fall through to the search (bounded by `I_SET_ORDER_BOUND`).
    """
    if weak_identities(ring):
        return True
    if all(
        size(ring.mul[a][b]) == 1 for a in ring.elements for b in ring.elements
    ):
        return False
    return bool(find_i_sets(ring))


# -- ideal arithmetic --------------------------------------------------------------


def ideal_product(ring: FiniteHyperring, imask: int, jmask: int) -> int:
    """Hyperideal generated by all pairwise products (cached per pair)."""
    return ring.memo(
        ("idprod", min(imask, jmask), max(imask, jmask)),
        lambda: generate_hyperideal(ring, ring.hyper_product(imask, jmask)),
    )


def set_power(ring: FiniteHyperring, amask: int, s: int) -> int:
    """Union of all s-fold products of elements drawn from the set: entry s
    of one row per (ring, set), grown on demand by P^j = P^(j-1) * P."""
    if s < 1:
        raise ValueError("set powers start at exponent 1")
    row = ring.memo(("setpow", amask), lambda: [None, amask])
    while len(row) <= s:
        row.append(ring.hyper_product(row[-1], amask))
    return row[s]


# -- quotients -----------------------------------------------------------------------


def coset_partition(ring: FiniteHyperring, subgroup: int) -> tuple[list[int], list[int]]:
    """Cosets x + N of an additive subgroup, ordered by least member, and the
    index of each element's coset.

    Cosets of a subgroup are disjoint; when a coset meets an earlier one (the
    table is no group, or N is no subgroup) it raises
    `WellDefinednessFailure` naming an element they share.
    """
    class_of = [-1] * ring.order
    classes: list[int] = []
    covered = 0
    for a in ring.elements:
        if covered >> a & 1:
            continue
        coset = ring.minkowski_sum(1 << a, subgroup)
        shared = coset & covered
        if shared:
            x = least(shared)
            raise WellDefinednessFailure(
                "coset of %d meets the coset of %d at element %d"
                % (a, least(classes[class_of[x]]), x)
            )
        for x in iter_bits(coset):
            class_of[x] = len(classes)
        classes.append(coset)
        covered |= coset
    return classes, class_of


def coset_ring(
    ring: FiniteHyperring, subgroup: int, name: str, family: str
) -> tuple[FiniteHyperring, HomMap]:
    """Cosets of an additive subgroup with the induced sum and class-set product.

    Class arithmetic is read at least representatives, and the projection
    is then checked with `check_good_hom` against every pair of elements, so
    a failure of well-definedness raises instead of miscomputing and the
    returned projection is a good homomorphism.

    When each element is its own class (the subgroup is {0}), the class
    tables are the ring's own tables, which pass the pair check as they
    stand.  The class ring is then the ring `renamed`: it shares the ring's
    memo of table-derived entries, so its lattice, profiles and closed-pair
    rows are not built twice.
    """
    classes, class_of = coset_partition(ring, subgroup)
    meta = {"family": family}
    if class_of == list(ring.elements):
        quot = ring.renamed(name, meta)
        return quot, HomMap(ring, quot, tuple(class_of))
    reps = [least(c) for c in classes]
    add = [[class_of[ring.add[a][b]] for b in reps] for a in reps]
    mul = [
        [mask_of(class_of[c] for c in iter_bits(ring.mul[a][b])) for b in reps]
        for a in reps
    ]
    quot = FiniteHyperring.from_masks(add, mul, name=name, meta=meta)
    proj = HomMap(ring, quot, tuple(class_of))
    ok, witness = check_good_hom(proj)
    if not ok:
        law, a, b = witness
        raise WellDefinednessFailure(
            "coset %s differs at representatives (%d,%d)"
            % ("addition" if law == "add" else "product", a, b)
        )
    return quot, proj


def quotient_by_ideal(
    ring: FiniteHyperring, pmask: int
) -> tuple[FiniteHyperring, HomMap]:
    """Cosets of a proper hyperideal with the induced class-set product."""
    require_proper(ring, pmask)

    def build():
        name = "%s/%s" % (ring.name or "ring", "".join(str(x) for x in members(pmask)))
        return coset_ring(ring, pmask, name, "quotient")

    return ring.own_memo(("quot", pmask), build)


def classify_ideal(ring: FiniteHyperring, imask: int) -> dict:
    """Classification bits for reports; predicates needing properness gate on it."""
    if not is_hyperideal(ring, imask):
        raise NotAHyperideal("subset %r is not a hyperideal" % members(imask))
    proper = imask != ring.full
    return {
        "proper": proper,
        "prime": is_prime(ring, imask) if proper else False,
        "maximal": is_maximal(ring, imask) if proper else False,
        "c_hyperideal": is_C_hyperideal(ring, imask),
        "strong_c_hyperideal": is_strong_C_hyperideal(ring, imask),
    }
