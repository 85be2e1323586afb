"""Finite commutative multiplicative hyperrings over carriers {0, .., n-1}.

A structure is given by an addition table (single-valued, expected to be an
abelian group), and a hyperproduct table whose cells are nonempty subsets of
the carrier, stored as bitmasks.  Construction only enforces table shape;
`validate_axioms` evaluates the algebraic laws exhaustively and reports the
lexicographically first witness for each failure instead of raising.

Laws checked, in report order:

* ``zero_identity``      -- some e has e + x = x + e = x for all x
* ``add_commutative``    -- x + y = y + x
* ``add_associative``    -- (x + y) + z = x + (y + z)
* ``add_inverse``        -- every x has y with x + y = 0
* ``mul_commutative``    -- x*y = y*x (setwise)
* ``mul_associative``    -- (x*y)*z = x*(y*z) (setwise)
* ``left_distributive_inclusion``  -- a*(b+c) is a subset of a*b + a*c
* ``right_distributive_inclusion`` -- (b+c)*a is a subset of b*a + c*a
* ``sign_rule``          -- a*(-b) = -(a*b) (setwise)

Distributivity is only required as an inclusion; structures where it holds
with equality are flagged by `is_strongly_distributive` but not privileged.
Both run one distributive scan, `_distributive_witness`, with inclusion or
with equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Optional

from .bitsets import full_mask, is_subset, iter_bits, mask_of, members


class HyperringError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTables(HyperringError):
    """Operation tables have the wrong shape or reference unknown elements."""


class AxiomFailure(HyperringError):
    """An operation needed a law the tables break (zero, negation, a class-ring law)."""


class EmptyOperand(HyperringError):
    """A set-level operation was handed an empty set of elements."""


class NotAHyperideal(HyperringError):
    """A subset claimed to be a hyperideal fails the membership test."""


class ProperIdealRequired(HyperringError):
    """An operation requires a proper (not whole-carrier) hyperideal."""


class OrderTooLarge(HyperringError):
    """An exhaustive search was requested beyond its configured size bound."""


class UnknownCheckId(HyperringError):
    """A verification run referenced a check id that is not registered."""


class WellDefinednessFailure(HyperringError):
    """A quotient construction produced a multi-valued operation."""


AXIOM_NAMES = (
    "zero_identity",
    "add_commutative",
    "add_associative",
    "add_inverse",
    "mul_commutative",
    "mul_associative",
    "left_distributive_inclusion",
    "right_distributive_inclusion",
    "sign_rule",
)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of exhaustive law checking; `ok` iff every law holds."""

    axioms: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.axioms)

    def failed(self) -> list[str]:
        return [c.name for c in self.axioms if not c.ok]

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.axioms:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class PowerProfile:
    """Eventually periodic sequence of hyperpowers a^1, a^2, .. of one element.

    `powers[k-1]` is the bitmask of a^k; exponents `tail`, `tail+1`, ..,
    `tail+period-1` form the cycle, so a^k = a^(tail + (k-tail) mod period)
    for every k >= tail and `power(k)` is total.  `tail` and `period` are
    minimal (first-repeat detection on the deterministic map S -> S*{a}).
    """

    element: int
    powers: tuple[int, ...]
    tail: int
    period: int

    def power(self, k: int) -> int:
        if k < 1:
            raise ValueError("hyperpowers start at exponent 1")
        if k <= len(self.powers):
            return self.powers[k - 1]
        idx = self.tail + (k - self.tail) % self.period
        return self.powers[idx - 1]


class FiniteHyperring:
    """A finite carrier with an addition table and a set-valued product table.

    `add[a][b]` is an element, `mul[a][b]` a nonempty bitmask.  Derived data
    (zero, negation, power profiles, the law report, and the tables of the
    other modules) is computed lazily and kept in one memo per ring, read
    and filled through `memo` and emptied by `drop_memo` (`run_suite` drops
    each instance's memo once its checks have run); tables are treated as
    immutable after construction.  `factors` is the pair of factor rings of
    a ring built by `product_ring`, and None for every other ring.
    """

    __slots__ = ("order", "add", "mul", "name", "meta", "factors", "_cache")

    def __init__(
        self,
        add: list[list[int]],
        mul: list[list[Iterable[int]]],
        name: str = "",
        meta: Optional[dict] = None,
    ):
        mul_masks = []
        n = len(add)
        for a in range(n):
            if len(mul) != n or len(mul[a]) != n:
                raise MalformedTables("product table is not %d x %d" % (n, n))
            row = []
            for b in range(n):
                cell = mask_of(mul[a][b])
                row.append(cell)
            mul_masks.append(row)
        self._init_from_masks(add, mul_masks, name, meta)

    @classmethod
    def from_masks(
        cls,
        add: list[list[int]],
        mul_masks: list[list[int]],
        name: str = "",
        meta: Optional[dict] = None,
    ) -> "FiniteHyperring":
        ring = cls.__new__(cls)
        ring._init_from_masks(add, [list(r) for r in mul_masks], name, meta)
        return ring

    def _init_from_masks(self, add, mul_masks, name, meta):
        n = len(add)
        if n == 0:
            raise MalformedTables("carrier must be nonempty")
        limit = full_mask(n)
        for a in range(n):
            if len(add[a]) != n:
                raise MalformedTables("addition table is not %d x %d" % (n, n))
            for b in range(n):
                if not 0 <= add[a][b] < n:
                    raise MalformedTables(
                        "add[%d][%d] = %r is outside the carrier" % (a, b, add[a][b])
                    )
        if len(mul_masks) != n:
            raise MalformedTables("product table is not %d x %d" % (n, n))
        for a in range(n):
            if len(mul_masks[a]) != n:
                raise MalformedTables("product table is not %d x %d" % (n, n))
            for b in range(n):
                cell = mul_masks[a][b]
                if cell == 0:
                    raise MalformedTables("mul[%d][%d] is empty" % (a, b))
                if not is_subset(cell, limit):
                    raise MalformedTables(
                        "mul[%d][%d] references elements outside the carrier" % (a, b)
                    )
        self.order = n
        self.add = [list(row) for row in add]
        self.mul = mul_masks
        self.name = name
        self.meta = dict(meta) if meta else {}
        self.factors = None
        self._cache = {}

    def __repr__(self) -> str:
        label = self.name or "order %d" % self.order
        return "<FiniteHyperring %s>" % label

    def memo(self, key, build):
        """The value memoized under `key`, from `build()` on the first miss.

        Any value counts, None included.  A `build` that raises stores
        nothing, so the next call builds again.  A grow-on-demand row is
        memoized as its starting list and then extended in place, only by
        the function that owns it.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

    def drop_memo(self) -> None:
        """Empty the memo in place; `factors` stays, and every table is
        rebuilt on its next request."""
        self._cache.clear()

    # -- structural elements -------------------------------------------------

    @property
    def zero(self) -> int:
        z = self.memo("zero", lambda: _find_zero(self.add, self.order))
        if z is None:
            raise AxiomFailure("no additive identity in %r" % self)
        return z

    def neg_table(self) -> list[int]:
        """Additive inverse of every element, indexed by element."""
        return self.memo("neg", self._build_negs)

    def _build_negs(self) -> list[int]:
        table = _find_negs(self.add, self.order, self.zero)
        if None in table:
            raise AxiomFailure(
                "element %d has no additive inverse" % table.index(None)
            )
        return table

    @property
    def full(self) -> int:
        return full_mask(self.order)

    @property
    def elements(self) -> range:
        return range(self.order)

    def validate(self) -> AxiomReport:
        return self.memo("report", lambda: validate_axioms(self))

    # -- set-level operations ------------------------------------------------

    def row_product(self, amask: int, b: int) -> int:
        """Union of x*b over x in amask."""
        out = 0
        row = self.mul
        for x in iter_bits(amask):
            out |= row[x][b]
        return out

    def hyper_product(self, amask: int, bmask: int) -> int:
        """Union of x*y over x in amask, y in bmask."""
        if amask == 0 or bmask == 0:
            raise EmptyOperand("hyper_product of an empty set")
        out = 0
        for y in iter_bits(bmask):
            out |= self.row_product(amask, y)
        return out

    def minkowski_sum(self, amask: int, bmask: int) -> int:
        """Elementwise sum set {x + y : x in amask, y in bmask}."""
        if amask == 0 or bmask == 0:
            raise EmptyOperand("minkowski_sum of an empty set")
        out = 0
        add = self.add
        for x in iter_bits(amask):
            row = add[x]
            for y in iter_bits(bmask):
                out |= 1 << row[y]
        return out

    # -- hyperpowers ----------------------------------------------------------

    def power_profile(self, a: int) -> PowerProfile:
        return self.memo(("profile", a), lambda: self._build_profile(a))

    def _build_profile(self, a: int) -> PowerProfile:
        seen: dict[int, int] = {}
        seq: list[int] = []
        cur = 1 << a
        k = 1
        while cur not in seen:
            seen[cur] = k
            seq.append(cur)
            cur = self.row_product(cur, a)
            k += 1
        first = seen[cur]
        return PowerProfile(element=a, powers=tuple(seq), tail=first, period=k - first)

    def power(self, a: int, k: int) -> int:
        return self.power_profile(a).power(k)

    def power_bound(self) -> int:
        """Exponent B with a^k eventually periodic before B for every a.

        For every element the power sequence repeats from some k <= B on, so
        any predicate monotone or periodic in the exponent is decided by
        exponents 1..B.
        """
        return self.memo("bound", self._build_bound)

    def _build_bound(self) -> int:
        bound = 1
        for a in self.elements:
            prof = self.power_profile(a)
            bound = max(bound, prof.tail + prof.period)
        return bound


def _find_zero(add, n):
    for e in range(n):
        row = add[e]
        if all(row[x] == x and add[x][e] == x for x in range(n)):
            return e
    return None


def _find_negs(add, n, zero):
    out = []
    for a in range(n):
        inv = None
        for b in range(n):
            if add[a][b] == zero:
                inv = b
                break
        out.append(inv)
    return out


def validate_axioms(ring: FiniteHyperring) -> AxiomReport:
    """Exhaustively check every law, returning first witnesses for failures.

    The n^3 laws read few distinct cells, so within one call each kernel is
    formed once per distinct cell: the products (a*b)*c and a*(b*c) of
    associativity, the Minkowski sums of distributivity and the negated
    cells of the sign rule.  When `mul` is symmetric the right distributive
    law is the left one at the same (a, b, c), so its scan is not repeated.
    """
    n = ring.order
    add = ring.add
    mul = ring.mul
    checks: list[AxiomCheck] = []

    zero = _find_zero(add, n)
    checks.append(AxiomCheck("zero_identity", zero is not None, None))

    witness = _asymmetry(add)
    checks.append(AxiomCheck("add_commutative", witness is None, witness))

    witness = _associativity_witness(
        add, add.__getitem__, lambda a, row: list(map(add[a].__getitem__, row))
    )
    checks.append(AxiomCheck("add_associative", witness is None, witness))

    negs = None
    if zero is None:
        checks.append(AxiomCheck("add_inverse", False, None))
    else:
        negs = _find_negs(add, n, zero)
        witness = next(((a,) for a in range(n) if negs[a] is None), None)
        checks.append(AxiomCheck("add_inverse", witness is None, witness))
        if witness:
            negs = None

    asymmetric = _asymmetry(mul)
    checks.append(AxiomCheck("mul_commutative", asymmetric is None, asymmetric))

    # Both sides are read per distinct cell: A*c for every c, and a*B for every a.
    cells = {cell for row in mul for cell in row}
    times = {cell: [ring.row_product(cell, c) for c in range(n)] for cell in cells}
    lefts = [{cell: _left_product(mul, a, cell) for cell in cells} for a in range(n)]
    witness = _associativity_witness(
        mul, times.__getitem__, lambda a, row: list(map(lefts[a].__getitem__, row))
    )
    checks.append(AxiomCheck("mul_associative", witness is None, witness))

    sums: dict[int, dict[int, int]] = {}
    witness = _distributive_witness(ring, mul, sums, exact=False)
    checks.append(
        AxiomCheck("left_distributive_inclusion", witness is None, witness)
    )
    if asymmetric is not None:
        witness = _distributive_witness(ring, _transpose(mul), sums, exact=False)
    checks.append(
        AxiomCheck("right_distributive_inclusion", witness is None, witness)
    )

    if negs is None:
        checks.append(AxiomCheck("sign_rule", False, None))
    else:
        negated = {cell: mask_of(negs[t] for t in iter_bits(cell)) for cell in cells}
        witness = next(
            (
                (a, b)
                for a, b in product(range(n), repeat=2)
                if mul[a][negs[b]] != negated[mul[a][b]]
            ),
            None,
        )
        checks.append(AxiomCheck("sign_rule", witness is None, witness))

    return AxiomReport(axioms=tuple(checks))


def _asymmetry(table) -> Optional[tuple[int, int]]:
    """First (a, b) with a < b and table[a][b] != table[b][a], or None."""
    return next(
        ((a, b) for a, b in combinations(range(len(table)), 2) if table[a][b] != table[b][a]),
        None,
    )


def _transpose(table) -> list[list[int]]:
    return [list(col) for col in zip(*table)]


def _associativity_witness(table, outer, inner) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) with (a.b).c != a.(b.c) in `table`, or None.

    `outer(table[a][b])` lists (a.b).c and `inner(a, table[b])` lists
    a.(b.c), over every c.
    """
    n = len(table)
    for a in range(n):
        for b in range(n):
            lhs, rhs = outer(table[a][b]), inner(a, table[b])
            if lhs != rhs:
                return (a, b, _first_difference(lhs, rhs))
    return None


def _distributive_witness(
    ring: FiniteHyperring, rows, sums: dict, exact: bool
) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) with rows[a][b+c] not inside rows[a][b] + rows[a][c]
    (with `exact`, not equal to it), or None.

    Row a of `rows` holds the cells a*x (the left law) or x*a (the right
    law, read off the transposed table).  `sums` memoizes Minkowski sums by
    the ordered pair of cells: when the addition does not commute, A + B
    and B + A differ.
    """
    add = ring.add
    for a, row in enumerate(rows):
        distinct = set(row)
        for b, x in enumerate(row):
            by_y = sums.setdefault(x, {})
            for y in distinct.difference(by_y):
                by_y[y] = ring.minkowski_sum(x, y)
            totals = list(map(by_y.__getitem__, row))
            spread = list(map(row.__getitem__, add[b]))
            if not exact:
                spread = list(map(int.__or__, spread, totals))
            if spread != totals:
                return (a, b, _first_difference(spread, totals))
    return None


def _first_difference(xs: list, ys: list) -> int:
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _left_product(mul, a: int, bmask: int) -> int:
    """Union of a*y over y in bmask, without assuming commutativity."""
    out = 0
    for y in iter_bits(bmask):
        out |= mul[a][y]
    return out


def is_strongly_distributive(ring: FiniteHyperring) -> bool:
    """True when distributivity holds with set equality on both sides.

    The scan is `validate_axioms`'s distributive scan with equality in place
    of inclusion.  When the product table is symmetric the right-hand law is
    the left-hand one with the factors swapped, so only tables with an
    asymmetric `mul` test it.
    """
    return ring.memo("strong", lambda: _build_strong(ring))


def _build_strong(ring: FiniteHyperring) -> bool:
    mul = ring.mul
    sums: dict[int, dict[int, int]] = {}
    if _distributive_witness(ring, mul, sums, exact=True) is not None:
        return False
    return _asymmetry(mul) is None or (
        _distributive_witness(ring, _transpose(mul), sums, exact=True) is None
    )


def scalar_identity(ring: FiniteHyperring) -> Optional[int]:
    """Element e with a*e = {a} for every a, if one exists."""
    elements, mul = ring.elements, ring.mul
    return ring.memo("scalar_id", lambda: next(
        (e for e in elements if all(mul[a][e] == 1 << a for a in elements)), None
    ))


def weak_identities(ring: FiniteHyperring) -> list[int]:
    """All e with a in a*e for every a, in ascending order."""
    elements, mul = ring.elements, ring.mul
    return list(ring.memo("weak_ids", lambda: [
        e for e in elements if all(mul[a][e] >> a & 1 for a in elements)
    ]))


def canonical_identity(ring: FiniteHyperring) -> Optional[int]:
    """The scalar identity if present, else the least weak identity, else None."""
    e = scalar_identity(ring)
    if e is not None:
        return e
    ids = weak_identities(ring)
    return ids[0] if ids else None


# -- constructors --------------------------------------------------------------


def make_zx_mod(modulus: int, multipliers: Iterable[int]) -> FiniteHyperring:
    """Integers mod `modulus` with a*b = {a*x*b mod modulus : x in multipliers}."""
    m = int(modulus)
    if m < 2:
        raise MalformedTables("modulus must be at least 2")
    xs = sorted({int(x) % m for x in multipliers})
    if not xs:
        raise MalformedTables("need at least one multiplier")
    add = [[(a + b) % m for b in range(m)] for a in range(m)]
    mul = []
    for a in range(m):
        row = []
        for b in range(m):
            row.append(mask_of((a * x * b) % m for x in xs))
        mul.append(row)
    name = "zx(%d;%s)" % (m, ",".join(str(x) for x in xs))
    meta = {"family": "zx_mod", "m": m, "X": xs}
    return FiniteHyperring.from_masks(add, mul, name=name, meta=meta)


def product_ring(r1: FiniteHyperring, r2: FiniteHyperring) -> FiniteHyperring:
    """Componentwise direct product; pair (x1, x2) is encoded as x1*|r2| + x2."""
    n1, n2 = r1.order, r2.order
    n = n1 * n2
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    # The cell of (a1, a2)*(b1, b2) is the box m1 x m2, the union of the
    # copies of m2 = a2*b2 shifted by c1*n2 for each c1 in m1 = a1*b1.
    shifts = [[[c1 * n2 for c1 in iter_bits(m1)] for m1 in row] for row in r1.mul]
    for a1 in range(n1):
        for a2 in range(n2):
            a = a1 * n2 + a2
            for b1 in range(n1):
                s1 = r1.add[a1][b1]
                box = shifts[a1][b1]
                for b2 in range(n2):
                    b = b1 * n2 + b2
                    add[a][b] = s1 * n2 + r2.add[a2][b2]
                    m2 = r2.mul[a2][b2]
                    cell = 0
                    for base in box:
                        cell |= m2 << base
                    mul[a][b] = cell
    name = "%sx%s" % (r1.name or "?", r2.name or "?")
    meta = {"family": "product"}
    ring = FiniteHyperring.from_masks(add, mul, name=name, meta=meta)
    ring.factors = (r1, r2)
    return ring


def factor_mask(
    prod_mask: int, r2_order: int, coordinate: int
) -> int:
    """Project a subset of a product carrier onto one coordinate (0 or 1)."""
    out = 0
    for x in iter_bits(prod_mask):
        x1, x2 = divmod(x, r2_order)
        out |= 1 << (x1 if coordinate == 0 else x2)
    return out


# -- structure maps -------------------------------------------------------------


@dataclass(frozen=True)
class HomMap:
    """A carrier map between two structures, given by an image table."""

    source: FiniteHyperring
    target: FiniteHyperring
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.source.order:
            raise MalformedTables("hom table does not cover the source carrier")
        for y in self.table:
            if not 0 <= y < self.target.order:
                raise MalformedTables("hom table maps outside the target carrier")

    def __call__(self, a: int) -> int:
        return self.table[a]

    def image_mask(self, amask: int) -> int:
        out = 0
        for x in iter_bits(amask):
            out |= 1 << self.table[x]
        return out

    def preimage_mask(self, bmask: int) -> int:
        out = 0
        for x in range(self.source.order):
            if bmask >> self.table[x] & 1:
                out |= 1 << x
        return out

    def kernel_mask(self) -> int:
        return self.preimage_mask(1 << self.target.zero)

    def is_surjective(self) -> bool:
        return self.image_mask(self.source.full) == self.target.full


def check_good_hom(f: HomMap) -> tuple[bool, Optional[tuple]]:
    """Verify f(a+b) = f(a)+f(b) and f(a*b) = f(a)*f(b) setwise.

    Returns (ok, witness); the witness is ("add" | "mul", a, b) for the first
    pair violating the corresponding law.
    """
    src, dst, t = f.source, f.target, f.table
    for a in range(src.order):
        for b in range(src.order):
            if t[src.add[a][b]] != dst.add[t[a]][t[b]]:
                return False, ("add", a, b)
            if f.image_mask(src.mul[a][b]) != dst.mul[t[a]][t[b]]:
                return False, ("mul", a, b)
    return True, None


def identity_hom(ring: FiniteHyperring) -> HomMap:
    return HomMap(ring, ring, tuple(range(ring.order)))
