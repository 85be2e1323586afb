"""Exponent-pair closedness of hyperideals, and the derived invariants.

A proper hyperideal Q is (s,n)-closed when every element whose s-th
hyperpower lands inside Q also has its n-th hyperpower inside Q, and weakly
(s,n)-closed when the same holds for elements whose s-th hyperpower does not
contain 0.  Everything here reduces to two per-exponent element masks:

* land(k)    -- elements a with a^k entirely inside Q,
* zero_in(k) -- elements a with 0 a member of a^k.

Both are kept as rows indexed by exponent: one land row per (ring, set) and
one zero-in row per ring, grown on demand to the largest exponent asked for.
Every entry is read off the ring's power column (entry j lists a^j for every
element a), itself read off the eventually periodic power profiles, so a row
is exact for any mask and any exponent; nothing assumes monotonicity.  For a
hyperideal, land(k) is nondecreasing in k (Q absorbs products, so a^k inside
Q drags every higher power in) and constant once k reaches the power bound
L, which makes the "for every exponent" questions decidable on a finite
window.

Every closedness notion here is one pair kind, and a kind differs from the
others only in its premise, the elements it admits at exponent s:

* "closed" -- a^s inside Q, for (s,n)-closedness;
* "weak"   -- a^s inside Q and free of 0, for weak (s,n)-closedness;
* "tough"  -- 0 in a^s, for the tough zeros behind the weak theorems.

`_premise` is the one definition of the three, and `premise` its public
form with the exponent checked.  The set is (s,n)-closed
for a kind when no admitted element has its n-th power outside it, so
`open_mask(.., kind)`, the elements breaking a pair, is the premise minus
land(n).  `closed_rows(.., kind)` keeps one table per (ring, set, kind) in
the layout "entry s, bit n", a list indexed by s whose entry masks the n
with the pair closed, grown on demand to the largest exponent asked for.
`order_rows` keeps omega and Omega of a set as one pair of rows read off
its closed rows: omega(s) is the least bit of entry s and Omega(n) a scan
of column n.

Rows decide verdicts, masks only form witnesses.  Every verdict over
exponent pairs -- each window check, omega, Omega and the class-ring
transfer -- is one bit or entry of these rows, and `open_mask` is called
only to form a witness or to list the elements that break a pair;
`open_pairs` forms the least witness of each failing pair on demand, and no
witness is stored.  A single-pair entry point such as `is_sn_closed` asks
for the least witness and holds when there is none.

Element regularity keeps one pair of regularity rows per (ring, element):
entry s holds the n with a^n inside a^s * b for a single element b
(regular) and the n with a^n inside a^s * G (Regular).  The products
a^s * b come from one map per ring, shared by all elements, from a set to
its cells over every b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bitsets import iter_bits, least
from .core import FiniteHyperring
from .ideals import require_proper

INF = math.inf
# ZxResidueModel factors d by trial division, O(sqrt d): about 1 s at this bound.
ZX_MAX_MODULUS = 10**14


def _require_exponent(k: int) -> None:
    if k < 1:
        raise ValueError("exponents start at 1")


# -- exponent-indexed rows ------------------------------------------------------------
#
# A row is a list whose entry k is the mask for exponent k; entry 0 is None, so
# reading it fails loudly.  The rows take exponents on trust: a negative index
# would read the wrong entry, so every mask-level function below checks its
# exponents first.


def _start_row() -> list:
    return [None]


def power_column(ring: FiniteHyperring, k: int) -> list:
    """Power column of the ring: entry j lists a^j by element a, for every j <= k.

    One cache entry per ring, grown on demand and read off the power
    profiles, so it is exact for every exponent.  The land, zero-in and
    regularity rows all read it.
    """
    col = ring.memo("powers", _start_row)
    if len(col) <= k:
        profiles = [ring.power_profile(a).power for a in ring.elements]
        col.extend(
            tuple(power(j) for power in profiles) for j in range(len(col), k + 1)
        )
    return col


def _grow(
    ring: FiniteHyperring, row: list, k: int, outside: int, flip: int = 0
) -> None:
    """Extend `row` to exponent k with the masks {a : a^j misses `outside`} ^ flip."""
    col = power_column(ring, k)
    for j in range(len(row), k + 1):
        mask = flip
        bit = 1
        for power in col[j]:
            if not power & outside:
                mask ^= bit
            bit <<= 1
        row.append(mask)


def land_row(ring: FiniteHyperring, imask: int, k: int) -> list:
    """Land row of the given set: entry j is land(j), present for every j <= k."""
    row = ring.memo(("land", imask), _start_row)
    if len(row) <= k:
        _grow(ring, row, k, ~imask)
    return row


def zero_in_row(ring: FiniteHyperring, k: int) -> list:
    """Zero-in row of the ring: entry j is zero_in(j), present for every j <= k."""
    row = ring.memo("zin", _start_row)
    if len(row) <= k:
        # 0 lies in a^j exactly when a^j does not miss {0}.
        _grow(ring, row, k, 1 << ring.zero, ring.full)
    return row


def zero_in_mask(ring: FiniteHyperring, k: int) -> int:
    """Elements whose k-th hyperpower contains 0."""
    _require_exponent(k)
    return zero_in_row(ring, k)[k]


# -- the three pair kinds -------------------------------------------------------
#
# These take the ideal on trust: no hyperideal validation, only the exponent
# check.  The check registry and the closed-pair rows below call them where
# the hypotheses already guarantee proper hyperideals; the public functions
# further down validate their input once, with `_require_query`, and then
# delegate here.


def _premise(ring: FiniteHyperring, imask: int, s: int, kind: str) -> int:
    """The elements a that the pair kind admits at exponent s.

    "closed" admits a^s inside the set, "weak" a^s inside the set and free
    of 0, and "tough" 0 in a^s.  The set is (s,n)-closed for the kind when
    no admitted a has a^n outside it.
    """
    land = land_row(ring, imask, s)[s]
    if kind == "closed":
        return land
    zin = zero_in_row(ring, s)[s]
    if kind == "weak":
        return land & ~zin
    if kind == "tough":
        return zin
    raise ValueError("pair kind must be closed, weak or tough, not %r" % (kind,))


def premise(ring: FiniteHyperring, imask: int, s: int, kind: str) -> int:
    """The elements that the pair kind ("closed", "weak", "tough") admits at s."""
    _require_exponent(s)
    return _premise(ring, imask, s, kind)


def open_mask(
    ring: FiniteHyperring, imask: int, s: int, n: int, kind: str = "closed"
) -> int:
    """Elements breaking the pair (s,n) of the kind: admitted at s, a^n outside."""
    _require_exponent(min(s, n))
    return _premise(ring, imask, s, kind) & ~land_row(ring, imask, n)[n]


def closed_rows(
    ring: FiniteHyperring, imask: int, k: int, kind: str = "closed"
) -> list:
    """Closed-pair rows of the set for the kind, present for every s <= k: bit
    n of entry s is set, for n <= k, when no element admitted at s has its
    n-th power outside the set.

    One cache entry per (ring, set, kind), grown like the regularity rows:
    growing to k adds the new n to the old entries and fills the new entries
    whole.  Entry 0 is None.
    """
    rows = ring.memo(("pairs", imask, kind), _start_row)
    top = len(rows) - 1
    if top >= k:
        return rows
    land = land_row(ring, imask, k)
    # Formed before the row changes, so an unknown kind leaves it as it was.
    admitted = [None] + [_premise(ring, imask, s, kind) for s in range(1, k + 1)]
    rows.extend([0] * (k - top))
    for s in range(1, k + 1):
        trigger = admitted[s]
        row = rows[s]
        for n in range(1 if s > top else top + 1, k + 1):
            if not trigger & ~land[n]:
                row |= 1 << n
        rows[s] = row
    return rows


def open_pairs(ring: FiniteHyperring, imask: int, hyp, kind: str = "closed"):
    """(s, n, least witness) for each pair that `hyp` names and the set fails
    for the kind.

    Entry s of `hyp` masks the n of the pairs (s, n) to test, in the layout of
    the closed-pair rows; entry 0 is ignored.  Pairs come in order of s, then
    n, and each witness is formed on demand and not stored.
    """
    k = max(len(hyp) - 1, max(hyp).bit_length() - 1)
    rows = closed_rows(ring, imask, k, kind)
    for s in range(1, len(hyp)):
        fail = hyp[s] & ~rows[s]
        if fail:
            for n in iter_bits(fail):
                yield s, n, least(open_mask(ring, imask, s, n, kind))


def _start_orders() -> tuple:
    return [None], [None]


def order_rows(ring: FiniteHyperring, imask: int, k: int) -> tuple:
    """(omega row, Omega row) of the set, present for every exponent <= k.

    Entry s of the omega row is the least n with the set (s,n)-closed, always
    within 1..s: the least bit of entry s of the closed-pair rows.  Entry n
    of the Omega row is the greatest s with the set (s,n)-closed, read down
    column n from the power bound L; it is inf when (L, n) is closed, as
    land(s) is constant from L on.  One cache entry per (ring, set), grown
    on demand.  Entry 0 of each row is None.
    """
    _require_exponent(k)
    om, big = ring.memo(("orders", imask), _start_orders)
    top = len(om) - 1
    if top < k:
        bound = ring.power_bound()
        rows = closed_rows(ring, imask, max(bound, k))
        for j in range(top + 1, k + 1):
            om.append(least(rows[j]))
            if rows[bound] >> j & 1:
                big.append(INF)
            else:
                found = (s for s in range(bound - 1, 1, -1) if rows[s] >> j & 1)
                big.append(float(next(found, 1)))
    return om, big


# -- validated entry points -------------------------------------------------------


def _require_query(ring: FiniteHyperring, imask: int, *exponents: int) -> None:
    """Refuse a set that is not a proper hyperideal, then exponents below 1."""
    require_proper(ring, imask)
    _require_exponent(min(exponents))


def sn_closed_witness(
    ring: FiniteHyperring, imask: int, s: int, n: int
) -> Optional[int]:
    """Least element breaking (s,n)-closedness, or None."""
    _require_query(ring, imask, s, n)
    return least(open_mask(ring, imask, s, n))


def is_sn_closed(ring: FiniteHyperring, imask: int, s: int, n: int) -> bool:
    return sn_closed_witness(ring, imask, s, n) is None


def weakly_sn_closed_witness(
    ring: FiniteHyperring, imask: int, s: int, n: int
) -> Optional[int]:
    """Least element breaking weak (s,n)-closedness, or None."""
    _require_query(ring, imask, s, n)
    return least(open_mask(ring, imask, s, n, "weak"))


def is_weakly_sn_closed(ring: FiniteHyperring, imask: int, s: int, n: int) -> bool:
    return weakly_sn_closed_witness(ring, imask, s, n) is None


def find_tough_zero(
    ring: FiniteHyperring, imask: int, s: int, n: int
) -> Optional[int]:
    """Least x with 0 in x^s but x^n not inside Q.

    When Q is a C-hyperideal, 0 in x^s already forces x^s inside Q (the
    power set meets Q at 0), so such an x directly breaks (s,n)-closedness.
    """
    _require_query(ring, imask, s, n)
    return least(open_mask(ring, imask, s, n, "tough"))


def omega(ring: FiniteHyperring, imask: int, s: int) -> int:
    """Least n with the ideal (s,n)-closed; always within 1..s."""
    _require_query(ring, imask, s)
    return order_rows(ring, imask, s)[0][s]


def big_omega(ring: FiniteHyperring, imask: int, n: int) -> float:
    """Greatest s with the ideal (s,n)-closed; inf when every s works."""
    _require_query(ring, imask, n)
    return order_rows(ring, imask, n)[1][n]


@dataclass(frozen=True)
class ClosedProfile:
    """Window of closedness invariants for one proper hyperideal."""

    ideal: int
    bound_L: int
    omega: tuple[int, ...]
    Omega: tuple[float, ...]
    witnesses: dict[int, int]


def closed_profile(
    ring: FiniteHyperring, imask: int, smax: int = 6, nmax: int = 6
) -> ClosedProfile:
    """omega over s = 1..smax, Omega over n = 1..nmax, with sharpness witnesses.

    The witness recorded at s is the least element whose s-th power lies in
    the ideal while its (omega(s)-1)-th power does not, certifying that
    omega(s) cannot be lowered; exponents with omega(s) = 1 need none.
    """
    if smax < 1 or nmax < 1:
        raise ValueError("window smax=%d, nmax=%d is below 1" % (smax, nmax))
    require_proper(ring, imask)
    om_row, big_row = order_rows(ring, imask, max(smax, nmax))
    om = tuple(om_row[1 : smax + 1])
    big = tuple(big_row[1 : nmax + 1])
    wits: dict[int, int] = {}
    for s in range(1, smax + 1):
        n = om[s - 1]
        if n > 1:
            w = least(open_mask(ring, imask, s, n - 1))
            assert w is not None
            wits[s] = w
    return ClosedProfile(
        ideal=imask,
        bound_L=ring.power_bound(),
        omega=om,
        Omega=big,
        witnesses=wits,
    )


# -- element regularity -----------------------------------------------------------


def _product_cells(ring: FiniteHyperring, base: int) -> tuple:
    """The distinct cells base * b over every element b, and their union.

    One map per ring from a set to this pair, shared by every element whose
    powers reach that set.  The cells are read by OR-ing the whole product
    rows of the set's members: entry b of row x is x * b.
    """
    cells = ring.memo("cells", dict)
    found = cells.get(base)
    if found is None:
        mul = ring.mul
        acc = None
        for x in iter_bits(base):
            row = mul[x]
            acc = list(row) if acc is None else [c | m for c, m in zip(acc, row)]
        whole = 0
        for cell in acc:
            whole |= cell
        found = cells[base] = (tuple(dict.fromkeys(acc)), whole)
    return found


def regularity_rows(ring: FiniteHyperring, a: int, k: int) -> list:
    """Regularity rows of one element, present for every s <= k.

    Entry s is the pair (regular, Regular) of exponent masks: bit n of
    `regular` is set when a^n lies inside a^s * b for a single element b, and
    bit n of `Regular` when a^n lies inside a^s * G, the union of those
    per-b products.  Grown on demand like the closed-pair rows, from the
    power column and the shared product cells.  Entry 0 is None.
    """
    rows = ring.memo(("reg", a), _start_row)
    top = len(rows) - 1
    if top >= k:
        return rows
    col = power_column(ring, k)
    powers = [None] + [col[n][a] for n in range(1, k + 1)]
    rows.extend([(0, 0)] * (k - top))
    for s in range(1, k + 1):
        cells, whole = _product_cells(ring, powers[s])
        regular, Regular = rows[s]
        for n in range(1 if s > top else top + 1, k + 1):
            an = powers[n]
            # Each a^s * b lies inside a^s * G, so regular implies Regular.
            if not an & ~whole:
                Regular |= 1 << n
                for cell in cells:
                    if not an & ~cell:
                        regular |= 1 << n
                        break
        rows[s] = (regular, Regular)
    return rows


def is_sn_regular(ring: FiniteHyperring, a: int, s: int, n: int) -> bool:
    """a^n inside a^s * b for a single element b."""
    _require_exponent(s)
    _require_exponent(n)
    return bool(regularity_rows(ring, a, max(s, n))[s][0] >> n & 1)


def is_sn_Regular(ring: FiniteHyperring, a: int, s: int, n: int) -> bool:
    """a^n inside a^s * B for some subset B; equivalently B = whole carrier.

    a^s * B is monotone in B, so the full carrier is the best possible
    choice; the subset quantifier collapses to one containment.
    """
    _require_exponent(s)
    _require_exponent(n)
    return bool(regularity_rows(ring, a, max(s, n))[s][1] >> n & 1)


# -- integer residue model ----------------------------------------------------------


class ZxResidueModel:
    """Closedness of d*Z inside the integers with product set a*X*b.

    In that structure the s-th hyperpower of a is {a^s * p} over products p
    of s-1 multipliers, so membership of a^s in d*Z only depends on a mod d:
    the whole question is decided on residues.  Multipliers must be nonzero
    integers, which keeps 0 out of every hyperpower of a nonzero element;
    0 itself never violates any pair (its powers are {0}, inside d*Z), so
    the weak and plain notions agree on this model.

    The residues are decided in closed form.  Let G be the gcd of the
    multipliers.  For each prime p the least p-adic valuation of a product
    of k-1 multipliers is (k-1)*v_p(G), so the gcd of those products is
    G^(k-1), and a^k lies inside d*Z exactly when d divides a^k * G^(k-1),
    that is when d' = d / gcd(d, G^(k-1)) divides a^k.  Prime by prime,
    p^e dividing d' exactly, that asks for p^ceil(e/k) to divide a: the
    residues whose k-th hyperpower lands in d*Z are the multiples of
    m_k = prod p^ceil(e/k), a divisor of d.  Every multiple of m_s is a
    multiple of m_n exactly when m_n divides m_s, so the least residue
    violating (s,n) is m_s itself when m_s < d and m_n does not divide m_s,
    and there is none otherwise.  d is factored once, by trial division, so
    it is refused above `ZX_MAX_MODULUS`; `power_residues` is the
    definition, read off the products themselves.
    """

    def __init__(self, d: int, multipliers) -> None:
        if d < 2:
            raise ValueError("modulus must be at least 2")
        if d > ZX_MAX_MODULUS:
            raise ValueError("modulus must be at most 10^14, got %d" % d)
        xs = sorted(set(int(x) for x in multipliers))
        if not xs:
            raise ValueError("need at least one multiplier")
        if 0 in xs:
            raise ValueError("multipliers must be nonzero integers")
        self.d = d
        self.multipliers = xs
        self._pi_cache: dict[int, frozenset[int]] = {0: frozenset({1 % d})}
        g = math.gcd(*xs)
        # (p, e, v_p(G)) for each prime power p^e exactly dividing d.
        self._primes = [(p, e, _valuation(g, p)) for p, e in _factor(d)]
        self._land: dict[int, int] = {}

    def _pi(self, k: int) -> frozenset[int]:
        """Residues of all k-fold products of multipliers."""
        top = max(self._pi_cache)
        while top < k:
            cur = self._pi_cache[top]
            nxt = frozenset(
                p * x % self.d for p in cur for x in self.multipliers
            )
            top += 1
            self._pi_cache[top] = nxt
        return self._pi_cache[k]

    def power_residues(self, r: int, s: int) -> frozenset[int]:
        """Residues mod d of the s-th hyperpower of any integer congruent to r."""
        _require_exponent(s)
        base = pow(r, s, self.d)
        return frozenset(base * p % self.d for p in self._pi(s - 1))

    def land_modulus(self, k: int) -> int:
        """m_k: a^k lies inside d*Z exactly when m_k divides a."""
        _require_exponent(k)
        m = self._land.get(k)
        if m is None:
            m = 1
            for p, e, v in self._primes:
                left = e - (k - 1) * v
                if left > 0:
                    m *= p ** -(-left // k)
            self._land[k] = m
        return m

    def witness(self, s: int, n: int) -> Optional[int]:
        """Least residue class violating (s,n)-closedness of d*Z, or None."""
        ms, mn = self.land_modulus(s), self.land_modulus(n)
        return ms if ms < self.d and ms % mn else None

    def closed(self, s: int, n: int) -> bool:
        return self.witness(s, n) is None

    def weakly_closed(self, s: int, n: int) -> bool:
        return self.closed(s, n)


def _valuation(x: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _factor(d: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing d >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = _valuation(d, p)
            d //= p**e
            out.append((p, e))
        p += 1 if p == 2 else 2
    if d > 1:
        out.append((d, 1))
    return out


def zx_residue_closed(d: int, multipliers, s: int, n: int) -> bool:
    return ZxResidueModel(d, multipliers).closed(s, n)


def zx_residue_weakly_closed(d: int, multipliers, s: int, n: int) -> bool:
    return ZxResidueModel(d, multipliers).weakly_closed(s, n)
