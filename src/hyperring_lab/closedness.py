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

Closedness, weak closedness and element regularity share one layout,
"entry s, bit n": a list indexed by the exponent s whose entry is a mask
over exponents n, grown on demand to the largest exponent asked for.
`closed_rows` keeps one such table per (ring, set, weak), bit n of entry s
set when the set is (weakly) (s,n)-closed; every check over exponent pairs
reads it, omega(s) is the least bit of entry s and Omega(n) a scan of
column n.  `tough_free_rows` marks the pairs with no tough zero the same
way.  `open_pairs` forms the least witness of each failing pair on demand
from `open_mask` / `weakly_open_mask`; no witness is stored.

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


def land_mask(ring: FiniteHyperring, imask: int, k: int) -> int:
    """Elements whose k-th hyperpower is contained in the given set."""
    _require_exponent(k)
    return land_row(ring, imask, k)[k]


def zero_in_mask(ring: FiniteHyperring, k: int) -> int:
    """Elements whose k-th hyperpower contains 0."""
    _require_exponent(k)
    return zero_in_row(ring, k)[k]


# -- mask-level formulas -----------------------------------------------------------
#
# These take the ideal on trust: no hyperideal validation, only the exponent
# check.  The check registry and the closed-pair tables below call them where
# the hypotheses already guarantee proper hyperideals; the public functions
# further down validate their input and then delegate here.


def open_mask(ring: FiniteHyperring, imask: int, s: int, n: int) -> int:
    """Elements breaking (s,n)-closedness: a^s inside the ideal, a^n not."""
    _require_exponent(min(s, n))
    land = land_row(ring, imask, max(s, n))
    return land[s] & ~land[n]


def weakly_open_mask(ring: FiniteHyperring, imask: int, s: int, n: int) -> int:
    """Elements breaking weak (s,n)-closedness: a^s inside and free of 0, a^n not."""
    _require_exponent(min(s, n))
    land = land_row(ring, imask, max(s, n))
    return land[s] & ~zero_in_row(ring, s)[s] & ~land[n]


def tough_zero_mask(ring: FiniteHyperring, imask: int, s: int, n: int) -> int:
    """Elements x with 0 in x^s but x^n not inside the ideal."""
    _require_exponent(min(s, n))
    return zero_in_row(ring, s)[s] & ~land_row(ring, imask, n)[n]


# -- closed-pair rows ------------------------------------------------------------


def _pair_rows(ring: FiniteHyperring, imask: int, k: int, kind: str) -> list:
    """Entry s masks the n <= k with no x in trigger(s) and x^n outside the
    set, for s <= k; trigger is land for "closed", land minus zero_in for
    "weak" and zero_in for "tough".  One cache entry per (ring, set, kind),
    grown like the regularity rows: growing to k adds the new n to the old
    entries and fills the new entries whole.  Entry 0 is None.
    """
    rows = ring.memo(("pairs", imask, kind), _start_row)
    top = len(rows) - 1
    if top >= k:
        return rows
    land = land_row(ring, imask, k)
    zin = zero_in_row(ring, k)
    rows.extend([0] * (k - top))
    for s in range(1, k + 1):
        if kind == "closed":
            trigger = land[s]
        elif kind == "weak":
            trigger = land[s] & ~zin[s]
        else:
            trigger = zin[s]
        row = rows[s]
        for n in range(1 if s > top else top + 1, k + 1):
            if not trigger & ~land[n]:
                row |= 1 << n
        rows[s] = row
    return rows


def closed_rows(
    ring: FiniteHyperring, imask: int, k: int, weak: bool = False
) -> list:
    """Closed-pair rows of the set, present for every s <= k: bit n of entry
    s is set when the set is (s,n)-closed (weakly, with `weak`), for n <= k."""
    return _pair_rows(ring, imask, k, "weak" if weak else "closed")


def tough_free_rows(ring: FiniteHyperring, imask: int, k: int) -> list:
    """Rows whose entry s has bit n set when no x has 0 in x^s and x^n
    outside the set: the pairs with no tough zero, for s, n <= k."""
    return _pair_rows(ring, imask, k, "tough")


def open_pairs(ring: FiniteHyperring, imask: int, hyp, weak: bool = False):
    """(s, n, least witness) for each pair that `hyp` names and the set fails.

    Entry s of `hyp` masks the n of the pairs (s, n) to test, in the layout of
    the closed-pair rows; entry 0 is ignored.  Pairs come in order of s, then
    n, and each witness is formed on demand and not stored.
    """
    k = max(len(hyp) - 1, max(hyp).bit_length() - 1)
    rows = closed_rows(ring, imask, k, weak)
    opened = weakly_open_mask if weak else open_mask
    for s in range(1, len(hyp)):
        fail = hyp[s] & ~rows[s]
        if fail:
            for n in iter_bits(fail):
                yield s, n, least(opened(ring, imask, s, n))


def omega_unchecked(ring: FiniteHyperring, imask: int, s: int) -> int:
    """Least n with the ideal (s,n)-closed; always within 1..s."""
    _require_exponent(s)
    return least(closed_rows(ring, imask, s)[s])


def big_omega_unchecked(ring: FiniteHyperring, imask: int, n: int) -> float:
    """Greatest s with the ideal (s,n)-closed; inf when every s works."""
    _require_exponent(n)
    bound = ring.power_bound()
    rows = closed_rows(ring, imask, max(bound, n))
    if rows[bound] >> n & 1:
        return INF
    for s in range(bound - 1, 1, -1):
        if rows[s] >> n & 1:
            return float(s)
    return 1.0


# -- validated entry points -------------------------------------------------------


def sn_closed_witness(
    ring: FiniteHyperring, imask: int, s: int, n: int
) -> Optional[int]:
    """Least element breaking (s,n)-closedness, or None."""
    require_proper(ring, imask)
    _require_exponent(s)
    _require_exponent(n)
    return least(open_mask(ring, imask, s, n))


def is_sn_closed(ring: FiniteHyperring, imask: int, s: int, n: int) -> bool:
    return sn_closed_witness(ring, imask, s, n) is None


def weakly_sn_closed_witness(
    ring: FiniteHyperring, imask: int, s: int, n: int
) -> Optional[int]:
    """Least element breaking weak (s,n)-closedness, or None."""
    require_proper(ring, imask)
    _require_exponent(s)
    _require_exponent(n)
    return least(weakly_open_mask(ring, imask, s, n))


def is_weakly_sn_closed(ring: FiniteHyperring, imask: int, s: int, n: int) -> bool:
    return weakly_sn_closed_witness(ring, imask, s, n) is None


def find_tough_zero(
    ring: FiniteHyperring, imask: int, s: int, n: int
) -> Optional[int]:
    """Least x with 0 in x^s but x^n not inside Q.

    When Q is a C-hyperideal, 0 in x^s already forces x^s inside Q (the
    power set meets Q at 0), so such an x directly breaks (s,n)-closedness.
    """
    require_proper(ring, imask)
    _require_exponent(s)
    _require_exponent(n)
    return least(tough_zero_mask(ring, imask, s, n))


def omega(ring: FiniteHyperring, imask: int, s: int) -> int:
    """Least n with the ideal (s,n)-closed; always within 1..s."""
    require_proper(ring, imask)
    _require_exponent(s)
    return omega_unchecked(ring, imask, s)


def big_omega(ring: FiniteHyperring, imask: int, n: int) -> float:
    """Greatest s with the ideal (s,n)-closed; inf when every s works."""
    require_proper(ring, imask)
    _require_exponent(n)
    return big_omega_unchecked(ring, imask, n)


@dataclass(frozen=True)
class ClosedProfile:
    """Window of closedness invariants for one proper hyperideal."""

    ideal: int
    bound_L: int
    omega: tuple[int, ...]
    Omega: tuple[float, ...]
    witnesses: dict[int, int]

    def omega_at(self, s: int) -> int:
        return self.omega[s - 1]

    def Omega_at(self, n: int) -> float:
        return self.Omega[n - 1]


def closed_profile(
    ring: FiniteHyperring, imask: int, smax: int = 6, nmax: int = 6
) -> ClosedProfile:
    """omega over s = 1..smax, Omega over n = 1..nmax, with sharpness witnesses.

    The witness recorded at s is the least element whose s-th power lies in
    the ideal while its (omega(s)-1)-th power does not, certifying that
    omega(s) cannot be lowered; exponents with omega(s) = 1 need none.
    """
    om = tuple(omega(ring, imask, s) for s in range(1, smax + 1))
    big = tuple(big_omega(ring, imask, n) for n in range(1, nmax + 1))
    wits: dict[int, int] = {}
    for s in range(1, smax + 1):
        n = om[s - 1]
        if n > 1:
            w = sn_closed_witness(ring, imask, s, n - 1)
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
    and there is none otherwise.  d is factored once, by trial division;
    `power_residues` is the definition, read off the products themselves.
    """

    def __init__(self, d: int, multipliers) -> None:
        if d < 2:
            raise ValueError("modulus must be at least 2")
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

    def power_in_ideal(self, r: int, s: int) -> bool:
        return r % self.land_modulus(s) == 0

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
