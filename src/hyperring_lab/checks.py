"""Registry of machine-checkable statements about closedness of hyperideals.

Each check instantiates one quantified statement on a single finite
hyperring: it enumerates every hypothesis-satisfying combination of ideals,
elements, and exponent pairs (the check's "cases"), evaluates the claimed
conclusion exactly, and reports the first failing combination in scan order.
Scan order is deterministic -- ideals ascending as enumerated, elements
ascending, exponent pairs in lexicographic order -- so across an instance
stream the first counterexample reported is the least one.

A check is written as a generator that pays per verdict, not per case.  It
yields only its failing cases, each as a plain tuple
``(ideals, elements, sn, fmt, args)``, and its notes as ``str``; it returns
the number of cases it examined, and a hypothesis guard that rules the whole
ring out returns 0.  A case computes its verdict as a mask and forms a
witness (``least``) only when that mask is nonzero.  Where a check quantifies
over the exponent window, it reads the verdicts of one ideal as a bitmask
over the window positions (`closedness.closed_pairs`), so a case that holds
costs one bit, and forms witnesses at failing bits only (`open_pairs`).  One
runner, `_collect`, takes the count from the generator's return value and
turns the first failing case into a `Counterexample` whose detail is
``fmt % args``; a generator that returns no count raises `TypeError`.

Statements quantified over all exponents are decided on a finite window:
every element's hyperpowers are eventually periodic, so containment masks
stabilize at the ring's power bound and nothing changes beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Optional

from .bitsets import is_subset, iter_bits, least, members
from .closedness import (
    big_omega_unchecked,
    closed_pairs,
    land_mask,
    omega_unchecked,
    open_mask,
    open_pairs,
    regularity_rows,
    tough_zero_mask,
    weakly_open_mask,
    window_pairs,
    zero_in_mask,
)
from .core import (
    FiniteHyperring,
    HomMap,
    UnknownCheckId,
    check_good_hom,
    factor_mask,
    identity_hom,
    is_strongly_distributive,
    make_zx_mod,
    product_ring,
    scalar_identity,
)
from .fundamental import ideal_in_fundamental
from .ideals import (
    enumerate_hyperideals,
    has_i_set,
    ideal_product,
    is_C_hyperideal,
    is_coprime,
    is_hyperideal,
    is_n_absorbing,
    is_strong_C_hyperideal,
    nilpotents,
    prime_hyperideals,
    proper_hyperideals,
    quotient_by_ideal,
    radical,
    set_power,
    units,
    weak_zero_divisors,
)


@dataclass(frozen=True)
class CheckParams:
    """Window bounds shared by all checks."""

    smax: int = 6
    nmax: int = 6
    tuple_max: int = 3
    absorbing_max_n: int = 3


@dataclass(frozen=True)
class Counterexample:
    check_id: str
    ring: FiniteHyperring
    ideals: tuple[int, ...]
    elements: tuple[int, ...]
    sn: Optional[tuple[int, int]]
    detail: str


@dataclass
class RingOutcome:
    """Accumulated result of running one check over one hyperring."""

    applicable: int = 0
    counterexample: Optional[Counterexample] = None
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Check:
    id: str
    statement: str
    fn: Callable[[FiniteHyperring, CheckParams], RingOutcome]
    note: str = ""


def _collect(check_id, gen, ring, p):
    """Run one case generator over one hyperring to a finished outcome."""
    out = RingOutcome()
    failures = gen(ring, p)
    while True:
        try:
            case = next(failures)
        except StopIteration as stop:
            count = stop.value
            break
        if type(case) is str:
            out.notes.append(case)
        elif out.counterexample is None:
            ideals, elements, sn, fmt, args = case
            out.counterexample = Counterexample(
                check_id, ring, ideals, elements, sn, fmt % args
            )
    if type(count) is not int:
        raise TypeError(
            "check %s returned %r instead of its case count" % (check_id, count)
        )
    out.applicable = count
    return out


def _check(check_id, statement, gen, note=""):
    """Registry entry whose fn runs `gen` through `_collect`; it pickles."""
    return Check(check_id, statement, partial(_collect, check_id, gen), note)


# -- shared shortcuts -------------------------------------------------------------


def _kmax(ring, p):
    return max(ring.power_bound(), p.smax, p.nmax)


def _window(p):
    return [(s, n) for s in range(1, p.smax + 1) for n in range(1, p.nmax + 1)]


def _weakly_not_closed(ring, q, p):
    """Window mask of the pairs at which q is weakly closed but not closed."""
    weak = closed_pairs(ring, q, p.smax, p.nmax, True)
    return weak & ~closed_pairs(ring, q, p.smax, p.nmax)


def _box_mask(m1, m2, n2):
    """Pairs mask of m1 x m2 under the (a1, a2) -> a1*n2 + a2 encoding."""
    out = 0
    for a1 in iter_bits(m1):
        out |= m2 << a1 * n2
    return out


def _product_factors(ring):
    return ring._cache.get("factors")


# -- closed hyperideals -----------------------------------------------------------


def _absorbing_closed(ring, p):
    ks = max(ring.power_bound(), p.smax)
    nmax = p.absorbing_max_n
    # The window positions (s, 1) for every s; shifted by n-1, column n.
    column = sum(1 << (s - 1) * nmax for s in range(1, ks + 1))
    count = 0
    for q in proper_hyperideals(ring):
        if not is_C_hyperideal(ring, q):
            continue
        closed = closed_pairs(ring, q, ks, nmax)
        for n in range(1, nmax + 1):
            if not is_n_absorbing(ring, q, n):
                continue
            count += ks
            for s, _, w in open_pairs(ring, q, (column << n - 1) & ~closed, nmax):
                yield (
                    (q,),
                    (w,),
                    (s, n),
                    "%d-absorbing C-hyperideal not (%d,%d)-closed at %d",
                    (n, s, n, w),
                )
    return count


def _prime_products(ring, p):
    primes = prime_hyperideals(ring)
    count = 0
    for t in range(1, p.tuple_max + 1):
        hyp = sum(1 << i for i, (s, n) in enumerate(_window(p)) if n >= min(s, t))
        for combo in combinations_with_replacement(primes, t):
            prod = combo[0]
            for q in combo[1:]:
                prod = ideal_product(ring, prod, q)
            count += hyp.bit_count()
            fail = hyp & ~closed_pairs(ring, prod, p.smax, p.nmax)
            for s, n, w in open_pairs(ring, prod, fail, p.nmax):
                yield (
                    combo + (prod,),
                    (w,),
                    (s, n),
                    "product of %d primes not (%d,%d)-closed at %d",
                    (len(combo), s, n, w),
                )
    return count


def _closed_combinations(ring, p, part):
    """Cases (combo, (s,n)) with n >= min(s, the sum or max of the members'
    omega(s)); the aggregate, the combo's product or intersection, must be
    (s,n)-closed.  The cases of one combo are a mask over the window, tested
    against the aggregate's closed-pair mask."""
    propers = proper_hyperideals(ring)
    # from_n[s][lo] masks the window positions (s, n) with n >= lo, for lo
    # up to nmax + 1; `_window` puts (s, n) at position (s-1)*nmax + n-1.
    ns = (1 << p.nmax) - 1
    from_n = [None] + [
        [None]
        + [(ns >> lo - 1) << (lo - 1 + (s - 1) * p.nmax) for lo in range(1, p.nmax + 2)]
        for s in range(1, p.smax + 1)
    ]
    omegas = {
        q: [omega_unchecked(ring, q, s) for s in range(1, p.smax + 1)]
        for q in propers
    }
    bound = sum if part == "product" else max
    count = 0
    for t in range(1, p.tuple_max + 1):
        for combo in combinations_with_replacement(propers, t):
            if part == "product":
                agg = combo[0]
                for q in combo[1:]:
                    agg = ideal_product(ring, agg, q)
            else:
                agg = ring.full
                for q in combo:
                    agg &= q
            hyp = 0
            for s, nis in enumerate(zip(*[omegas[q] for q in combo]), 1):
                low = min(s, bound(nis))
                hyp |= from_n[s][min(max(1, low), p.nmax + 1)]
            count += hyp.bit_count()
            fail = hyp & ~closed_pairs(ring, agg, p.smax, p.nmax)
            for s, n, w in open_pairs(ring, agg, fail, p.nmax):
                yield (
                    combo + (agg,),
                    (w,),
                    (s, n),
                    "%s of (s=%d, omega)-closed ideals not (%d,%d)-closed at %d",
                    (part, s, s, n, w),
                )
    return count


def _closed_combos_of_pairs(ring, p, combos, fmt):
    """Cases (combo, (s,n)) with every member (s,n)-closed; the aggregate of
    the combo, its last entry, must be (s,n)-closed too."""
    count = 0
    for ideals in combos:
        hyp = -1
        for q in ideals[:-1]:
            hyp &= closed_pairs(ring, q, p.smax, p.nmax)
        count += hyp.bit_count()
        agg = ideals[-1]
        fail = hyp & ~closed_pairs(ring, agg, p.smax, p.nmax)
        for s, n, w in open_pairs(ring, agg, fail, p.nmax):
            yield (ideals, (w,), (s, n), fmt, (s, n, w))
    return count


def _intersection_closed(ring, p):
    propers = proper_hyperideals(ring)

    def combos():
        for t in range(2, p.tuple_max + 1):
            for combo in combinations(propers, t):
                inter = ring.full
                for q in combo:
                    inter &= q
                yield combo + (inter,)

    return (
        yield from _closed_combos_of_pairs(
            ring, p, combos(), "intersection of (%d,%d)-closed ideals open at %d"
        )
    )


def _coprime_products(ring, p):
    propers = proper_hyperideals(ring)

    def combos():
        for t in range(2, p.tuple_max + 1):
            for combo in combinations(propers, t):
                if not all(is_coprime(ring, a, b) for a, b in combinations(combo, 2)):
                    continue
                prod = combo[0]
                for q in combo[1:]:
                    prod = ideal_product(ring, prod, q)
                yield combo + (prod,)

    return (
        yield from _closed_combos_of_pairs(
            ring, p, combos(), "product of coprime (%d,%d)-closed ideals open at %d"
        )
    )


def _square_sum(ring, p):
    all_ideals = enumerate_hyperideals(ring)
    count = 0
    for q in proper_hyperideals(ring):
        if not is_strong_C_hyperideal(ring, q):
            continue
        for s in range(1, p.smax + 1):
            if open_mask(ring, q, s, 2):
                continue
            for pm in all_ideals:
                if not is_subset(set_power(ring, pm, s), q):
                    continue
                count += 1
                p2 = set_power(ring, pm, 2)
                if not is_subset(ring.minkowski_sum(p2, p2), q):
                    yield (
                        (q, pm),
                        (),
                        (s, 2),
                        "P^%d inside Q but P^2+P^2 escapes Q",
                        (s,),
                    )
    return count


def _class_ring_transfer(ring, p):
    count = 0
    for q in proper_hyperideals(ring):
        tr = ideal_in_fundamental(ring, q, p.smax, p.nmax)
        if tr.skipped:
            yield "skip ideal %s: %s" % (members(q), tr.note)
            continue
        count += len(tr.pairs)
        for s, n, hyper, ringside in tr.pairs:
            if hyper != ringside:
                yield (
                    (q,),
                    (),
                    (s, n),
                    "hyperring side %s but class-ring side %s",
                    (hyper, not hyper),
                )
    return count


def _radical_characterization(ring, p):
    bound = ring.power_bound()
    # Window positions with s <= n, the pairs claimed closed for every ideal.
    upper = sum(1 << i for i, (s, n) in enumerate(_window(p)) if s <= n)
    count = 0
    for q in proper_hyperideals(ring):
        count += upper.bit_count() + 1
        fail = upper & ~closed_pairs(ring, q, p.smax, p.nmax)
        for s, n, w in open_pairs(ring, q, fail, p.nmax):
            yield ((q,), (w,), (s, n), "pair with s <= n not closed at %d", (w,))
        radical_fixed = radical(ring, q) == q
        # land(k) grows with k up to the power bound and stays constant
        # after it, so every pair is closed exactly when (bound, 1) is.
        always_closed = not open_mask(ring, q, bound, 1)
        if radical_fixed != always_closed:
            yield (
                (q,),
                (),
                None,
                "radical-fixed %s but closed-for-all-pairs %s",
                (radical_fixed, not radical_fixed),
            )
    return count


def _step_down(ring, p):
    wide = p.nmax + 1
    # The window positions (s, n) with s != n, in tables one wider each way;
    # there (s+1, n) sits `wide` positions after (s, n), (s+1, n+1) one more.
    off_diagonal = sum(
        1 << (s - 1) * wide + n - 1 for s, n in _window(p) if s != n
    )
    count = 0
    for q in proper_hyperideals(ring):
        closed = closed_pairs(ring, q, p.smax + 1, wide)
        hyp = off_diagonal & closed & closed >> wide + 1
        count += hyp.bit_count()
        fail = (hyp & ~(closed >> wide)) << wide
        for s, n, w in open_pairs(ring, q, fail, wide):
            yield (
                (q,),
                (w,),
                (s, n),
                "(%d,%d) and (%d,%d) closed but (%d,%d) open at %d",
                (s - 1, n, s, n + 1, s, n, w),
            )
    return count


def _pair_monotone(ring, p):
    kk = _kmax(ring, p)
    every_n = (1 << kk) - 1
    count = 0
    for q in proper_hyperideals(ring):
        closed = closed_pairs(ring, q, p.smax, kk)
        # opens[s] masks the n - 1 with (s, n) open; seen ORs opens[1..s], so
        # some (s2, n2) with s2 <= s and n2 >= n is open when seen >> n - 1.
        opens = [None] + [
            ~closed >> (s - 1) * kk & every_n for s in range(1, p.smax + 1)
        ]
        seen = 0
        for s in range(1, p.smax + 1):
            seen |= opens[s]
            for n in range(1, p.nmax + 1):
                if opens[s] >> n - 1 & 1:
                    continue
                count += 1
                if not seen >> n - 1:
                    continue
                s2 = next(t for t in range(1, s + 1) if opens[t] >> n - 1)
                bad = (s2, n + least(opens[s2] >> n - 1))
                yield (
                    (q,),
                    (),
                    bad,
                    "(%d,%d) closed but weaker pair %s open",
                    (s, n, bad),
                )
    return count


def _first_open(closed, n, nmax, kk):
    """Least t <= kk with (t, n) open in a closed-pair table, or None."""
    column = (closed >> (t - 1) * nmax + n - 1 & 1 for t in range(1, kk + 1))
    return next((t for t, bit in enumerate(column, 1) if not bit), None)


def _two_absorbing_spread(ring, p):
    kk = _kmax(ring, p)
    count = 0
    for q in proper_hyperideals(ring):
        if not is_C_hyperideal(ring, q):
            continue
        closed = closed_pairs(ring, q, kk + 1, 2)
        bad = _first_open(closed, 2, 2, kk)
        for n in range(3, kk + 1):
            # (n, 2) and (n+1, 2) sit at bits 2n-1 and 2n+1.
            if not closed >> 2 * n - 1 & closed >> 2 * n + 1 & 1:
                continue
            count += 1
            if bad is not None:
                yield (
                    (q,),
                    (),
                    (bad, 2),
                    "(%d,2),(%d,2) closed but (%d,2) open",
                    (n, n + 1, bad),
                )
    return count


def _half_exponent_spread(ring, p):
    kk = _kmax(ring, p)
    count = 0
    for q in proper_hyperideals(ring):
        if not is_C_hyperideal(ring, q):
            continue
        closed = closed_pairs(ring, q, kk, p.nmax)
        bads = [None] + [
            _first_open(closed, n, p.nmax, kk) for n in range(1, p.nmax + 1)
        ]
        for s, n in window_pairs(closed, p.nmax):
            if 2 * n > s:
                continue
            count += 1
            bad = bads[n]
            if bad is not None:
                yield (
                    (q,),
                    (),
                    (bad, n),
                    "(%d,%d) closed with 2n <= s but (%d,%d) open",
                    (s, n, bad, n),
                )
    return count


def _order_comparisons(ring, p):
    kk = _kmax(ring, p)
    propers = proper_hyperideals(ring)
    closed = {q: closed_pairs(ring, q, kk, kk) for q in propers}
    om = {q: [omega_unchecked(ring, q, s) for s in range(1, kk + 1)] for q in propers}
    big = {
        q: [big_omega_unchecked(ring, q, n) for n in range(1, kk + 1)]
        for q in propers
    }
    count = 0
    for pm, qm in permutations(propers, 2):
        count += 1
        cont = not closed[pm] & ~closed[qm]
        by_omega = all(x <= y for x, y in zip(om[qm], om[pm]))
        by_Omega = all(x <= y for x, y in zip(big[pm], big[qm]))
        if not (cont == by_omega == by_Omega):
            yield (
                (pm, qm),
                (),
                None,
                "containment %s, omega comparison %s, Omega comparison %s",
                (cont, by_omega, by_Omega),
            )
    return count


def _omega_jump(ring, p):
    kk = _kmax(ring, p)
    count = 0
    for q in proper_hyperideals(ring):
        for s in range(1, kk + 1):
            w = omega_unchecked(ring, q, s)
            if w >= s:
                continue
            count += 1
            w2 = omega_unchecked(ring, q, s + 1)
            if not (w2 == w or w2 >= w + 2):
                yield (
                    (q,),
                    (),
                    (s, w),
                    "omega(%d)=%d but omega(%d)=%d",
                    (s, w, s + 1, w2),
                )
    return count


def _Omega_jump(ring, p):
    kk = _kmax(ring, p)
    count = 0
    for q in proper_hyperideals(ring):
        for n in range(1, kk + 1):
            big = big_omega_unchecked(ring, q, n)
            if big <= n:
                continue
            count += 1
            big2 = big_omega_unchecked(ring, q, n + 1)
            if not (big2 == big or big2 >= big + 2):
                yield (
                    (q,),
                    (),
                    None,
                    "Omega(%d)=%s but Omega(%d)=%s",
                    (n, big, n + 1, big2),
                )
    return count


def _intersection_bounds(ring, p):
    kk = _kmax(ring, p)
    count = 0
    for pm, qm in combinations(proper_hyperideals(ring), 2):
        im = pm & qm
        ideals = (pm, qm, im)
        count += 2 * kk
        for s in range(1, kk + 1):
            bound = max(omega_unchecked(ring, pm, s), omega_unchecked(ring, qm, s))
            got = omega_unchecked(ring, im, s)
            if got > bound:
                yield (
                    ideals,
                    (),
                    (s, bound),
                    "omega of intersection %d exceeds pointwise max %d",
                    (got, bound),
                )
        for n in range(1, kk + 1):
            bound = min(
                big_omega_unchecked(ring, pm, n), big_omega_unchecked(ring, qm, n)
            )
            got = big_omega_unchecked(ring, im, n)
            if not bound <= got:
                yield (
                    ideals,
                    (),
                    None,
                    "Omega of intersection %s below pointwise min %s",
                    (got, bound),
                )
    return count


def _pairset_equal(ring, pm, qm, im, kk):
    pl, ql, il = [closed_pairs(ring, q, kk, kk) for q in (pm, qm, im)]
    return pl & ql == il


def _omega_is_max(ring, pm, qm, im, kk):
    return all(
        omega_unchecked(ring, im, s)
        == max(omega_unchecked(ring, pm, s), omega_unchecked(ring, qm, s))
        for s in range(1, kk + 1)
    )


def _Omega_is_min(ring, pm, qm, im, kk):
    return all(
        big_omega_unchecked(ring, im, n)
        == min(big_omega_unchecked(ring, pm, n), big_omega_unchecked(ring, qm, n))
        for n in range(1, kk + 1)
    )


def _intersection_equivalence(ring, p, lhs_fn, rhs_fn, fmt):
    """One case per pair of proper ideals: two intersection criteria agree."""
    kk = _kmax(ring, p)
    count = 0
    for pm, qm in combinations(proper_hyperideals(ring), 2):
        im = pm & qm
        count += 1
        lhs = lhs_fn(ring, pm, qm, im, kk)
        if lhs != rhs_fn(ring, pm, qm, im, kk):
            yield ((pm, qm, im), (), None, fmt, (lhs, not lhs))
    return count


def _omega_exactness(ring, p):
    return (
        yield from _intersection_equivalence(
            ring, p, _omega_is_max, _pairset_equal,
            "omega equality %s but pair-set equality %s",
        )
    )


def _Omega_exactness(ring, p):
    return (
        yield from _intersection_equivalence(
            ring, p, _Omega_is_min, _pairset_equal,
            "Omega equality %s but pair-set equality %s",
        )
    )


def _invariant_equivalence(ring, p):
    return (
        yield from _intersection_equivalence(
            ring, p, _omega_is_max, _Omega_is_min,
            "omega equality %s but Omega equality %s",
        )
    )


# -- weakly closed hyperideals ----------------------------------------------------


def _weakly_basics(ring, p):
    propers = proper_hyperideals(ring)
    # Tables over n <= nmax + 1, where (s, n+1) sits one position after
    # (s, n); `window` masks the positions with n <= nmax.
    wide = p.nmax + 1
    window = sum(((1 << p.nmax) - 1) << (s - 1) * wide for s in range(1, p.smax + 1))
    count = 0
    for pm, qm in combinations(propers, 2):
        im = pm & qm
        hyp = (
            window
            & closed_pairs(ring, pm, p.smax, wide, True)
            & closed_pairs(ring, qm, p.smax, wide, True)
        )
        count += hyp.bit_count()
        fail = hyp & ~closed_pairs(ring, im, p.smax, wide, True)
        for s, n, w in open_pairs(ring, im, fail, wide, True):
            yield (
                (pm, qm, im),
                (w,),
                (s, n),
                "intersection of weakly (%d,%d)-closed ideals open at %d",
                (s, n, w),
            )
    for q in propers:
        weak = closed_pairs(ring, q, p.smax, wide, True)
        hyp = window & weak
        count += hyp.bit_count()
        for s, n, w in open_pairs(ring, q, (hyp & ~(weak >> 1)) << 1, wide, True):
            yield (
                (q,),
                (w,),
                (s, n),
                "weakly (%d,%d)-closed but weakly (%d,%d) open at %d",
                (s, n - 1, s, n, w),
            )
        if not is_C_hyperideal(ring, q):
            continue
        count += hyp.bit_count()
        closed = closed_pairs(ring, q, p.smax, wide)
        for s, n in window_pairs(hyp, wide):
            tough = tough_zero_mask(ring, q, s, n)
            not_closed = not closed >> (s - 1) * wide + n - 1 & 1
            if not_closed != bool(tough):
                yield (
                    (q,),
                    tuple(members(tough)[:1]),
                    (s, n),
                    "not-closed %s but tough-zero existence %s",
                    (not_closed, bool(tough)),
                )
    return count


def _tough_zero_shift(ring, p):
    add = ring.add
    count = 0
    for q in proper_hyperideals(ring):
        if not is_strong_C_hyperideal(ring, q):
            continue
        inside = members(q)
        weak = closed_pairs(ring, q, p.smax, p.nmax, True)
        for s, n in window_pairs(weak, p.nmax):
            zs = zero_in_mask(ring, s)
            for x in iter_bits(tough_zero_mask(ring, q, s, n)):
                count += 1
                row = add[x]
                bad = next((a for a in inside if not zs >> row[a] & 1), None)
                if bad is not None:
                    yield (
                        (q,),
                        (x, bad),
                        (s, n),
                        "tough zero %d but 0 not in (%d+%d)^%d",
                        (x, x, bad, s),
                    )
    return count


def _weakly_nilpotent(ring, p):
    ups = nilpotents(ring)
    count = 0
    for q in proper_hyperideals(ring):
        if not is_strong_C_hyperideal(ring, q):
            continue
        hyp = _weakly_not_closed(ring, q, p)
        count += hyp.bit_count()
        escape = q & ~ups
        if not escape:
            continue
        shown = members(escape)[:1]
        for sn in window_pairs(hyp, p.nmax):
            yield (
                (q,),
                tuple(shown),
                sn,
                "weakly-not-closed ideal contains non-nilpotent %s",
                (shown,),
            )
    return count


def _all_weakly_closed(ring, p, ideals, rhs, fmt):
    """One case per window pair with s > n: the ideals given are all weakly
    (s,n)-closed exactly when rhs(s, n) holds."""
    every = -1
    for q in ideals:
        every &= closed_pairs(ring, q, p.smax, p.nmax, True)
    count = 0
    for i, (s, n) in enumerate(_window(p)):
        if s <= n:
            continue
        count += 1
        every_weak = bool(every >> i & 1)
        if every_weak != rhs(s, n):
            yield ((), (), (s, n), fmt, (every_weak, not every_weak))
    return count


def _nilpotent_ideal_criterion(ring, p):
    e = scalar_identity(ring)
    if (
        not is_strongly_distributive(ring)
        or e is None
        or e == ring.zero
        or not has_i_set(ring)
    ):
        return 0
    ups = nilpotents(ring)
    inside = [q for q in proper_hyperideals(ring) if is_subset(q, ups)]
    return (
        yield from _all_weakly_closed(
            ring, p, inside, lambda s, n: not ups & ~zero_in_mask(ring, s),
            "all nilpotent-contained ideals weakly closed %s but "
            "0 in x^s for all nilpotent x %s",
        )
    )


# -- regular elements ----------------------------------------------------------------
#
# Entry s of an element's regularity rows is the pair (regular, Regular) of
# exponent masks: bit n is set when the element is (s,n)-regular, resp.
# (s,n)-Regular.  `exps` below is the mask of the window's n.


def _regular_implies_Regular(ring, p):
    top = max(p.smax, p.nmax)
    exps = (1 << p.nmax + 1) - 2
    count = 0
    for a in ring.elements:
        rows = regularity_rows(ring, a, top)
        for s in range(1, p.smax + 1):
            regular, Regular = rows[s]
            count += (regular & exps).bit_count()
            for n in iter_bits(regular & ~Regular & exps):
                yield (
                    (),
                    (a,),
                    (s, n),
                    "element (%d,%d)-regular but not (%d,%d)-Regular",
                    (s, n, s, n),
                )
    return count


def _regular_iff_small_exponent(ring, p):
    e = scalar_identity(ring)
    if not is_strongly_distributive(ring) or e is None:
        return 0
    um = units(ring)
    zw = weak_zero_divisors(ring)
    pool = ring.full & ~(um | zw)
    top = max(p.smax, p.nmax)
    exps = (1 << p.nmax + 1) - 2
    count = 0
    for a in members(pool):
        rows = regularity_rows(ring, a, top)
        for s in range(1, p.smax + 1):
            count += p.nmax
            at_least_s = exps & ~((1 << s) - 1)
            regular = rows[s][0]
            for n in iter_bits((regular ^ at_least_s) & exps):
                yield (
                    (),
                    (a,),
                    (s, n),
                    "regularity %s but s <= n is %s",
                    (bool(regular >> n & 1), s <= n),
                )
    return count


def _regular_step(ring, p):
    top = max(p.smax + 1, p.nmax)
    exps = (1 << p.nmax + 1) - 2
    count = 0
    for a in ring.elements:
        rows = regularity_rows(ring, a, top)
        for s in range(2, p.smax + 1):
            below_s = (1 << s) - 2
            hyp = rows[s][0] & below_s & exps
            count += hyp.bit_count()
            for n in iter_bits(hyp & ~rows[s + 1][1]):
                yield (
                    (),
                    (a,),
                    (s + 1, n),
                    "(%d,%d)-regular element not (%d,%d)-Regular",
                    (s, n, s + 1, n),
                )
    return count


def _units_Regular(ring, p):
    um = units(ring)
    if um is None:
        return 0
    top = max(p.smax, p.nmax)
    exps = (1 << p.nmax + 1) - 2
    count = 0
    for a in members(um):
        rows = regularity_rows(ring, a, top)
        for s in range(1, p.smax + 1):
            count += p.nmax
            for n in iter_bits(exps & ~rows[s][1]):
                yield ((), (a,), (s, n), "unit not (%d,%d)-Regular", (s, n))
    return count


def _every_ideal_weakly(ring, p):
    if not is_strongly_distributive(ring) or not has_i_set(ring):
        return 0
    ups = nilpotents(ring)
    top = max(p.smax, p.nmax)
    rows = [regularity_rows(ring, a, top) for a in members(ring.full & ~ups)]

    def rhs(s, n):
        return not ups & ~zero_in_mask(ring, s) and all(
            row[s][1] >> n & 1 for row in rows
        )

    return (
        yield from _all_weakly_closed(
            ring, p, proper_hyperideals(ring), rhs,
            "all proper ideals weakly closed %s but Regular/nilpotent "
            "criterion %s",
        )
    )


# -- transport along homomorphisms, quotients, and products ---------------------------


def _hom_pool(ring):
    cached = ring._cache.get("homPool")
    if cached is None:
        ident = identity_hom(ring)
        partner = make_zx_mod(2, [1])
        target = product_ring(ring, partner)
        emb = HomMap(ring, target, tuple(2 * x for x in range(ring.order)))
        for f in (ident, emb):
            ok, wit = check_good_hom(f)
            assert ok, ("hom pool member is not a good homomorphism", wit)
        # coset_ring checks every pair of a quotient projection against the
        # class tables, which is the check_good_hom test, so they are not
        # checked again here.
        projs = [quotient_by_ideal(ring, pm)[1] for pm in proper_hyperideals(ring)]
        cached = ring._cache["homPool"] = (ident, *projs, emb)
    return cached


def _hom_transport(ring, p):
    count = 0
    for f in _hom_pool(ring):
        target = f.target
        injective = len(set(f.table)) == ring.order
        if injective:
            for q2 in enumerate_hyperideals(target, order_bound=64):
                if q2 == target.full:
                    continue
                pre = f.preimage_mask(q2)
                if pre == ring.full:
                    yield "skip: preimage of %s from %s is improper" % (
                        members(q2),
                        target.name,
                    )
                    continue
                assert is_hyperideal(ring, pre)
                hyp = closed_pairs(target, q2, p.smax, p.nmax, True)
                count += hyp.bit_count()
                fail = hyp & ~closed_pairs(ring, pre, p.smax, p.nmax, True)
                for s, n, w in open_pairs(ring, pre, fail, p.nmax, True):
                    yield (
                        (pre,),
                        (w,),
                        (s, n),
                        "preimage of weakly (%d,%d)-closed ideal %s in %s "
                        "open at %d",
                        (s, n, members(q2), target.name, w),
                    )
        if f.is_surjective():
            ker = f.kernel_mask()
            for q1 in proper_hyperideals(ring):
                if not is_subset(ker, q1):
                    continue
                img = f.image_mask(q1)
                assert img != target.full and is_hyperideal(target, img)
                hyp = closed_pairs(ring, q1, p.smax, p.nmax, True)
                count += hyp.bit_count()
                fail = hyp & ~closed_pairs(target, img, p.smax, p.nmax, True)
                for s, n, w in open_pairs(target, img, fail, p.nmax, True):
                    yield (
                        (q1,),
                        (),
                        (s, n),
                        "image %s of weakly (%d,%d)-closed ideal in %s "
                        "open at %d",
                        (members(img), s, n, target.name, w),
                    )
    return count


def _quotient_transport(ring, p):
    propers = proper_hyperideals(ring)
    count = 0
    for pm in propers:
        quot = None
        for qm in propers:
            if not is_subset(pm, qm):
                continue
            if quot is None:
                quot, proj = quotient_by_ideal(ring, pm)
            image = proj.image_mask(qm)
            hyp = closed_pairs(ring, qm, p.smax, p.nmax, True)
            count += hyp.bit_count()
            fail = hyp & ~closed_pairs(quot, image, p.smax, p.nmax, True)
            for s, n, w in open_pairs(quot, image, fail, p.nmax, True):
                yield (
                    (pm, qm),
                    (),
                    (s, n),
                    "image of weakly (%d,%d)-closed ideal in quotient "
                    "open at class %d",
                    (s, n, w),
                )
    return count


def _scalar_identity_factors(ring):
    factors = _product_factors(ring)
    if not factors:
        return None
    f1, f2 = factors
    e1, e2 = scalar_identity(f1), scalar_identity(f2)
    if e1 is None or e2 is None or e1 == f1.zero or e2 == f2.zero:
        return None
    return f1, f2


def _box_equivalence(ring, p):
    factors = _scalar_identity_factors(ring)
    if factors is None:
        return 0
    f1, f2 = factors
    n2 = f2.order
    window = _window(p)
    count = 0
    for side, fac in enumerate(factors):
        for q in proper_hyperideals(fac):
            if not is_C_hyperideal(fac, q):
                continue
            if side == 0:
                box = _box_mask(q, f2.full, n2)
            else:
                box = _box_mask(f1.full, q, n2)
            count += len(window)
            i = closed_pairs(ring, box, p.smax, p.nmax, True)
            ii = closed_pairs(fac, q, p.smax, p.nmax)
            iii = closed_pairs(ring, box, p.smax, p.nmax)
            for k in iter_bits((i ^ ii) | (ii ^ iii)):
                s, n = window[k]
                yield (
                    (box, q),
                    (),
                    (s, n),
                    "box weakly %s, factor closed %s, box closed %s",
                    (bool(i >> k & 1), bool(ii >> k & 1), bool(iii >> k & 1)),
                )
    return count


def _box_C_hyperideal(ring, p):
    factors = _product_factors(ring)
    if not factors:
        return 0
    f1, f2 = factors
    n2 = f2.order
    count = 0
    for i1 in enumerate_hyperideals(f1):
        for i2 in enumerate_hyperideals(f2):
            box = _box_mask(i1, i2, n2)
            count += 1
            lhs = is_C_hyperideal(f1, i1) and is_C_hyperideal(f2, i2)
            if lhs != is_C_hyperideal(ring, box):
                yield (
                    (box,),
                    (),
                    None,
                    "factors C-hyperideals %s but box C-hyperideal %s",
                    (lhs, not lhs),
                )
    return count


def _one_sided_criterion(fa, qa, fb, qb, p):
    """Window mask of one disjunct of the box decomposition criterion:
    qa weakly closed but not closed, with the one-sided conditions on qb."""
    if qa == fa.full:
        return 0
    out = _weakly_not_closed(fa, qa, p)
    for s in range(1, p.smax + 1):
        row = ((1 << p.nmax) - 1) << (s - 1) * p.nmax
        if land_mask(fb, qb, s) & ~zero_in_mask(fb, s):
            out &= ~row
        elif qb != fb.full and land_mask(fa, qa, s) & ~zero_in_mask(fa, s):
            out &= ~row | closed_pairs(fb, qb, p.smax, p.nmax)
    return out


def _box_decomposition(ring, p):
    factors = _scalar_identity_factors(ring)
    if factors is None:
        return 0
    f1, f2 = factors
    n2 = f2.order
    window = _window(p)
    count = 0
    for q in proper_hyperideals(ring):
        q1 = factor_mask(q, n2, 0)
        q2 = factor_mask(q, n2, 1)
        decomposes = _box_mask(q1, q2, n2) == q
        count += len(window)
        lhs = _weakly_not_closed(ring, q, p) if is_C_hyperideal(ring, q) else 0
        rhs = 0
        if decomposes and is_C_hyperideal(f1, q1) and is_C_hyperideal(f2, q2):
            rhs = _one_sided_criterion(f1, q1, f2, q2, p) | _one_sided_criterion(
                f2, q2, f1, q1, p
            )
        for k in iter_bits(lhs ^ rhs):
            found = bool(lhs >> k & 1)
            yield (
                (q,),
                (),
                window[k],
                "weakly-not-closed C-hyperideal %s but decomposition criterion %s",
                (found, not found),
            )
    return count


CHECKS: tuple[Check, ...] = (
    _check(
        "T2_3",
        "A proper n-absorbing C-hyperideal is (s,n)-closed for every s.",
        _absorbing_closed,
    ),
    _check(
        "T2_4",
        "A product of t prime hyperideals is (s,n)-closed whenever "
        "n >= min(s, t).",
        _prime_products,
    ),
    _check(
        "T2_5i",
        "If each Qi is (s,ni)-closed, the product of the Qi is (s,n)-closed "
        "for every n >= min(s, n1+...+nt).",
        partial(_closed_combinations, part="product"),
    ),
    _check(
        "T2_5ii",
        "If each Qi is (s,ni)-closed, the intersection of the Qi is "
        "(s,n)-closed for every n >= min(s, max(ni)).",
        partial(_closed_combinations, part="intersection"),
    ),
    _check(
        "C2_6",
        "An intersection of (s,n)-closed hyperideals is (s,n)-closed.",
        _intersection_closed,
    ),
    _check(
        "C2_7",
        "A product of pairwise coprime (s,n)-closed hyperideals is "
        "(s,n)-closed.",
        _coprime_products,
    ),
    _check(
        "T2_8",
        "If Q is an (s,2)-closed strong C-hyperideal and P is a hyperideal "
        "with P^s inside Q, then P^2 + P^2 lies inside Q.",
        _square_sum,
    ),
    _check(
        "T2_9",
        "A proper hyperideal is (s,n)-closed exactly when its image in the "
        "ring of co-occurrence classes is (s,n)-closed.",
        _class_ring_transfer,
    ),
    _check(
        "R2_rad",
        "Pairs with s <= n are always closed, and a proper hyperideal equals "
        "its radical exactly when every pair is closed.",
        _radical_characterization,
    ),
    _check(
        "T2_10",
        "If (s,n) and (s+1,n+1) are closed pairs with s != n, then (s+1,n) "
        "is a closed pair.",
        _step_down,
    ),
    _check(
        "L2_11",
        "If (s,n) is a closed pair, so is every (s',n') with s' <= s and "
        "n' >= n.",
        _pair_monotone,
    ),
    _check(
        "T2_12i",
        "For a proper C-hyperideal: if (n,2) and (n+1,2) are closed pairs "
        "for some n >= 3, then (t,2) is a closed pair for every t.",
        _two_absorbing_spread,
    ),
    _check(
        "T2_12ii",
        "For a proper C-hyperideal: if (s,n) is a closed pair with 2n <= s, "
        "then (t,n) is a closed pair for every t.",
        _half_exponent_spread,
    ),
    _check(
        "R2_omega",
        "Containment of closed-pair sets, pointwise comparison of omega, and "
        "pointwise comparison of Omega are equivalent orderings.",
        _order_comparisons,
    ),
    _check(
        "T2_13",
        "If omega(s) < s then omega(s+1) equals omega(s) or is at least "
        "omega(s) + 2.",
        _omega_jump,
    ),
    _check(
        "T2_14",
        "If Omega(n) > n then Omega(n+1) equals Omega(n) or is at least "
        "Omega(n) + 2.",
        _Omega_jump,
    ),
    _check(
        "T2_15",
        "omega of an intersection is bounded by the pointwise max of the "
        "omegas, and the pointwise min of the Omegas bounds Omega of the "
        "intersection.",
        _intersection_bounds,
    ),
    _check(
        "T2_16",
        "omega of the intersection equals the pointwise max exactly when the "
        "closed-pair set of the intersection is the intersection of the "
        "closed-pair sets.",
        _omega_exactness,
    ),
    _check(
        "T2_17",
        "Omega of the intersection equals the pointwise min exactly when the "
        "closed-pair set of the intersection is the intersection of the "
        "closed-pair sets.",
        _Omega_exactness,
    ),
    _check(
        "C2_18",
        "omega of the intersection equals the pointwise max exactly when "
        "Omega of the intersection equals the pointwise min.",
        _invariant_equivalence,
    ),
    _check(
        "D3_w",
        "Intersections of weakly (s,n)-closed hyperideals are weakly "
        "(s,n)-closed; weak (s,n)-closedness implies weak (s,n+1)-closedness; "
        "and a weakly (s,n)-closed C-hyperideal fails to be (s,n)-closed "
        "exactly when some x has 0 in x^s and x^n outside it.",
        _weakly_basics,
    ),
    _check(
        "T3_4",
        "If a weakly (s,n)-closed strong C-hyperideal has a tough zero x, "
        "then 0 lies in (x+a)^s for every a in the ideal.",
        _tough_zero_shift,
    ),
    _check(
        "T3_5",
        "A weakly (s,n)-closed strong C-hyperideal that is not (s,n)-closed "
        "consists of nilpotent elements.",
        _weakly_nilpotent,
    ),
    _check(
        "T3_6",
        "In a strongly distributive hyperring with nonzero scalar identity "
        "and an i-set, for s > n: every proper hyperideal inside the "
        "nilpotent set is weakly (s,n)-closed exactly when 0 lies in x^s for "
        "every nilpotent x.",
        _nilpotent_ideal_criterion,
    ),
    _check(
        "D3_reg",
        "Every (s,n)-regular element is (s,n)-Regular.",
        _regular_implies_Regular,
    ),
    _check(
        "T3_9",
        "In a strongly distributive hyperring with scalar identity, an "
        "element outside the weak zero divisors and the units is "
        "(s,n)-regular exactly when s <= n.",
        _regular_iff_small_exponent,
        note=(
            "vacuous at every finite order: strong distributivity makes "
            "b -> a*b collapse to disjoint singleton images for a outside "
            "the weak zero divisors, so such an a is forced to be a unit; "
            "the element pool is provably empty"
        ),
    ),
    _check(
        "T3_10",
        "For s > n, every (s,n)-regular element is (s+1,n)-Regular.",
        _regular_step,
    ),
    _check(
        "T3_11",
        "Every unit is (s,n)-Regular for all pairs (s,n).",
        _units_Regular,
    ),
    _check(
        "T3_12",
        "In a strongly distributive hyperring with an i-set, for s > n: "
        "every proper hyperideal is weakly (s,n)-closed exactly when every "
        "non-nilpotent element is (s,n)-Regular and 0 lies in a^s for every "
        "nilpotent a.",
        _every_ideal_weakly,
    ),
    _check(
        "T3_13hom",
        "Under a good homomorphism, preimages of weakly (s,n)-closed "
        "hyperideals along injections and images of weakly (s,n)-closed "
        "hyperideals containing the kernel along surjections stay weakly "
        "(s,n)-closed.",
        _hom_transport,
    ),
    _check(
        "C3_quot",
        "If P <= Q are proper hyperideals and Q is weakly (s,n)-closed, the "
        "image of Q in the quotient by P is weakly (s,n)-closed.",
        _quotient_transport,
    ),
    _check(
        "T3_14",
        "For a proper C-hyperideal Q1 of a scalar-identity factor: Q1 x G2 "
        "weakly (s,n)-closed, Q1 (s,n)-closed, and Q1 x G2 (s,n)-closed are "
        "equivalent.",
        _box_equivalence,
    ),
    _check(
        "L3_15",
        "I1 and I2 are C-hyperideals exactly when I1 x I2 is a C-hyperideal "
        "of the product.",
        _box_C_hyperideal,
    ),
    _check(
        "T3_16",
        "In a product of scalar-identity hyperrings, a proper hyperideal is "
        "a weakly (s,n)-closed C-hyperideal that is not (s,n)-closed exactly "
        "when it decomposes as a box of C-hyperideals satisfying the "
        "one-sided weakly-not-closed criterion.",
        _box_decomposition,
    ),
)

REGISTRY: dict[str, Check] = {c.id: c for c in CHECKS}


def get_check(check_id: str) -> Check:
    try:
        return REGISTRY[check_id]
    except KeyError:
        raise UnknownCheckId(
            "no check named %r; known: %s" % (check_id, ", ".join(REGISTRY))
        ) from None
