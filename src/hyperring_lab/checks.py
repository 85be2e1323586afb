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
the number of cases it examined.  A case computes its verdict as a mask and
forms a witness (``least``) only when that mask is nonzero.  Where a check
quantifies over exponent pairs, it reads the verdicts of one ideal from its
closed-pair rows (`closedness.closed_rows`, entry s, bit n), so a case that
holds costs one bit.  Its hypotheses are per-s masks in the same layout, and
`open_pairs` forms witnesses at the failing pairs only.  One
runner, `_collect`, takes the count from the generator's return value and
turns the first failing case into a `Counterexample` whose detail is
``fmt % args``; a generator that returns no count raises `TypeError`.

A statement's hypotheses on the ring and on its ideal are registry data, not
code in the generator.  `requires` names ring predicates, tried in order up
to the first that fails; a ring that fails one has 0 cases and its
generator is never called.  With `each`, the generator takes one proper
hyperideal q, as ``gen(ring, q, p)``, and runs on every q that `each`
admits, in enumeration order; the counts are summed.  A hypothesis that
rules out only part of a check stays in its generator.

Exponent pairs are decided on the window s <= smax, n <= nmax only.  Every
element's hyperpowers are eventually periodic, so every verdict repeats
from some exponent on, but on the default sweep that exponent can pass the
window: the power bound exceeds 6 on 52 of the 275 rings, and 26 of them
need exponents up to 8 before every pair is decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Optional

from .bitsets import is_subset, iter_bits, least, members
from .closedness import (
    big_omega_unchecked,
    closed_rows,
    land_mask,
    omega_unchecked,
    open_mask,
    open_pairs,
    regularity_rows,
    tough_free_rows,
    tough_zero_mask,
    zero_in_mask,
)
from .core import (
    FiniteHyperring,
    HomMap,
    UnknownCheckId,
    canonical_identity,
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


def _cases(gen, requires, each, ring, p):
    """Case stream of `gen` on one hyperring under its hypotheses."""
    if not all(holds(ring) for holds in requires):
        return 0
    if each is None:
        return (yield from gen(ring, p))
    count = 0
    for q in proper_hyperideals(ring):
        if each(ring, q):
            got = yield from gen(ring, q, p)
            if type(got) is not int:
                return got  # _collect names the check
            count += got
    return count


def _check(check_id, statement, gen, note="", requires=(), each=None):
    """Registry entry whose fn runs `gen` under its hypotheses through
    `_collect`; every hypothesis is a named function, so it pickles."""
    cases = partial(_cases, gen, requires, each)
    return Check(check_id, statement, partial(_collect, check_id, cases), note)


# -- hypotheses ---------------------------------------------------------------------


def _any_ideal(ring, q):
    return True


def _has_identity(ring):
    return canonical_identity(ring) is not None


def _has_scalar_identity(ring):
    return scalar_identity(ring) is not None


def _has_nonzero_scalar_identity(ring):
    return scalar_identity(ring) not in (None, ring.zero)


def _is_product(ring):
    return bool(ring.factors)


def _factors_have_nonzero_scalar_identity(ring):
    return all(map(_has_nonzero_scalar_identity, ring.factors))


# -- shared shortcuts -------------------------------------------------------------


def _kmax(ring, p):
    return max(ring.power_bound(), p.smax, p.nmax)


def _upto(k):
    """Exponent mask of n = 1..k: bit n set, as in an entry of the rows."""
    return (1 << k + 1) - 2


def _bits(rows):
    """Number of pairs named by per-s masks whose entry 0 is 0."""
    return sum(map(int.bit_count, rows))


def _pairs(rows):
    """(s, n) for each bit n of each entry s >= 1, in order of s, then n."""
    for s in range(1, len(rows)):
        for n in iter_bits(rows[s]):
            yield s, n


def _window_rows(ring, ideals, p, weak=False):
    """Per-s masks of the pairs with s <= smax and n <= nmax at which every
    one of `ideals` is (weakly) closed; entry 0 is 0."""
    top = max(p.smax, p.nmax)
    out = [0] + [_upto(p.nmax)] * p.smax
    for q in ideals:
        rows = closed_rows(ring, q, top, weak)
        for s in range(1, p.smax + 1):
            out[s] &= rows[s]
    return out


def _weakly_not_closed(ring, q, p):
    """Per-s masks of the window pairs at which q is weakly closed but not
    closed."""
    weak = _window_rows(ring, (q,), p, True)
    return [w & ~c for w, c in zip(weak, _window_rows(ring, (q,), p))]


def _box_mask(m1, m2, n2):
    """Pairs mask of m1 x m2 under the (a1, a2) -> a1*n2 + a2 encoding."""
    out = 0
    for a1 in iter_bits(m1):
        out |= m2 << a1 * n2
    return out


# -- closed hyperideals -----------------------------------------------------------


def _absorbing_closed(ring, q, p):
    ks = max(ring.power_bound(), p.smax)
    count = 0
    for n in range(1, p.absorbing_max_n + 1):
        if not is_n_absorbing(ring, q, n):
            continue
        count += ks
        for s, _, w in open_pairs(ring, q, [0] + [1 << n] * ks):
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
    ns = _upto(p.nmax)
    for t in range(1, p.tuple_max + 1):
        # Entry s masks the n >= min(s, t).
        hyp = [0] + [ns & -(1 << min(s, t)) for s in range(1, p.smax + 1)]
        for combo in combinations_with_replacement(primes, t):
            prod = combo[0]
            for q in combo[1:]:
                prod = ideal_product(ring, prod, q)
            count += _bits(hyp)
            for s, n, w in open_pairs(ring, prod, hyp):
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
    against the aggregate's closed-pair rows."""
    propers = proper_hyperideals(ring)
    ns = _upto(p.nmax)
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
            # Entry s masks the n >= min(s, bound of the members' omega(s)).
            hyp = [0] + [
                ns & -(1 << min(s, bound(nis)))
                for s, nis in enumerate(zip(*[omegas[q] for q in combo]), 1)
            ]
            count += _bits(hyp)
            for s, n, w in open_pairs(ring, agg, hyp):
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
        hyp = _window_rows(ring, ideals[:-1], p)
        count += _bits(hyp)
        for s, n, w in open_pairs(ring, ideals[-1], hyp):
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


def _square_sum(ring, q, p):
    all_ideals = enumerate_hyperideals(ring)
    count = 0
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


def _class_ring_transfer(ring, q, p):
    tr = ideal_in_fundamental(ring, q, p.smax, p.nmax)
    if tr.skipped:
        yield "skip ideal %s: %s" % (members(q), tr.note)
        return 0
    for s, n, hyper, ringside in tr.pairs:
        if hyper != ringside:
            yield (
                (q,),
                (),
                (s, n),
                "hyperring side %s but class-ring side %s",
                (hyper, not hyper),
            )
    return len(tr.pairs)


def _radical_characterization(ring, q, p):
    # Entry s masks the n >= s, the pairs claimed closed for every ideal.
    upper = [0] + [_upto(p.nmax) & -(1 << s) for s in range(1, p.smax + 1)]
    for s, n, w in open_pairs(ring, q, upper):
        yield ((q,), (w,), (s, n), "pair with s <= n not closed at %d", (w,))
    radical_fixed = radical(ring, q) == q
    # land(k) grows with k up to the power bound and stays constant
    # after it, so every pair is closed exactly when (bound, 1) is.
    always_closed = not open_mask(ring, q, ring.power_bound(), 1)
    if radical_fixed != always_closed:
        yield (
            (q,),
            (),
            None,
            "radical-fixed %s but closed-for-all-pairs %s",
            (radical_fixed, not radical_fixed),
        )
    return _bits(upper) + 1


def _step_down(ring, q, p):
    ns = _upto(p.nmax)
    closed = closed_rows(ring, q, max(p.smax, p.nmax) + 1)
    # Entry s+1 masks the n != s with (s, n) and (s+1, n+1) closed, so
    # that open_pairs tests the conclusion (s+1, n).
    hyp = [0, 0] + [
        closed[s] & closed[s + 1] >> 1 & ns & ~(1 << s)
        for s in range(1, p.smax + 1)
    ]
    for s, n, w in open_pairs(ring, q, hyp):
        yield (
            (q,),
            (w,),
            (s, n),
            "(%d,%d) and (%d,%d) closed but (%d,%d) open at %d",
            (s - 1, n, s, n + 1, s, n, w),
        )
    return _bits(hyp)


def _pair_monotone(ring, q, p):
    kk = _kmax(ring, p)
    closed = closed_rows(ring, q, kk)
    # opens[s] masks the n <= kk with (s, n) open; seen ORs opens[1..s],
    # so some (s2, n2) with s2 <= s and n2 >= n is open when seen >> n.
    opens = [None] + [~closed[s] & _upto(kk) for s in range(1, p.smax + 1)]
    seen = 0
    count = 0
    for s in range(1, p.smax + 1):
        seen |= opens[s]
        for n in range(1, p.nmax + 1):
            if opens[s] >> n & 1:
                continue
            count += 1
            if not seen >> n:
                continue
            s2 = next(t for t in range(1, s + 1) if opens[t] >> n)
            bad = (s2, n + least(opens[s2] >> n))
            yield (
                (q,),
                (),
                bad,
                "(%d,%d) closed but weaker pair %s open",
                (s, n, bad),
            )
    return count


def _first_open(closed, n, kk):
    """Least t <= kk with (t, n) open in closed-pair rows, or None."""
    return next((t for t in range(1, kk + 1) if not closed[t] >> n & 1), None)


def _two_absorbing_spread(ring, q, p):
    kk = _kmax(ring, p)
    closed = closed_rows(ring, q, kk + 1)
    bad = _first_open(closed, 2, kk)
    count = 0
    for n in range(3, kk + 1):
        if not closed[n] & closed[n + 1] & 4:
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


def _half_exponent_spread(ring, q, p):
    kk = _kmax(ring, p)
    closed = closed_rows(ring, q, kk)
    bads = [None] + [_first_open(closed, n, kk) for n in range(1, p.nmax + 1)]
    # Entry s masks the closed (s, n) with n <= nmax and 2n <= s.
    hyp = [0] + [closed[s] & _upto(min(p.nmax, s // 2)) for s in range(1, kk + 1)]
    for s, n in _pairs(hyp):
        bad = bads[n]
        if bad is not None:
            yield (
                (q,),
                (),
                (bad, n),
                "(%d,%d) closed with 2n <= s but (%d,%d) open",
                (s, n, bad, n),
            )
    return _bits(hyp)


def _order_comparisons(ring, p):
    kk = _kmax(ring, p)
    propers = proper_hyperideals(ring)
    closed = {q: _pair_set(ring, q, kk) for q in propers}
    om = {q: [omega_unchecked(ring, q, s) for s in range(1, kk + 1)] for q in propers}
    big = {
        q: [big_omega_unchecked(ring, q, n) for n in range(1, kk + 1)]
        for q in propers
    }
    count = 0
    for pm, qm in permutations(propers, 2):
        count += 1
        cont = not any(a & ~b for a, b in zip(closed[pm], closed[qm]))
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


def _omega_jump(ring, q, p):
    count = 0
    for s in range(1, _kmax(ring, p) + 1):
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


def _Omega_jump(ring, q, p):
    count = 0
    for n in range(1, _kmax(ring, p) + 1):
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


def _pair_set(ring, q, kk):
    """The closed pairs of q with s, n <= kk: entry s-1 masks the n."""
    every_n = _upto(kk)
    return [row & every_n for row in closed_rows(ring, q, kk)[1 : kk + 1]]


def _pairset_equal(ring, pm, qm, im, kk):
    pl, ql, il = [_pair_set(ring, q, kk) for q in (pm, qm, im)]
    return all(a & b == c for a, b, c in zip(pl, ql, il))


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


# -- weakly closed hyperideals ----------------------------------------------------


def _weakly_basics(ring, p):
    propers = proper_hyperideals(ring)
    count = 0
    for pm, qm in combinations(propers, 2):
        im = pm & qm
        hyp = _window_rows(ring, (pm, qm), p, True)
        count += _bits(hyp)
        for s, n, w in open_pairs(ring, im, hyp, True):
            yield (
                (pm, qm, im),
                (w,),
                (s, n),
                "intersection of weakly (%d,%d)-closed ideals open at %d",
                (s, n, w),
            )
    top = max(p.smax, p.nmax)
    for q in propers:
        hyp = _window_rows(ring, (q,), p, True)
        count += _bits(hyp)
        # Shifted by one, entry s tests (s, n+1) wherever (s, n) holds.
        for s, n, w in open_pairs(ring, q, [h << 1 for h in hyp], True):
            yield (
                (q,),
                (w,),
                (s, n),
                "weakly (%d,%d)-closed but weakly (%d,%d) open at %d",
                (s, n - 1, s, n, w),
            )
        if not is_C_hyperideal(ring, q):
            continue
        count += _bits(hyp)
        closed = closed_rows(ring, q, top)
        free = tough_free_rows(ring, q, top)
        # Not closed exactly when some tough zero exists: a case fails where
        # the closed and tough-free bits differ.
        fail = [0] + [hyp[s] & (closed[s] ^ free[s]) for s in range(1, p.smax + 1)]
        for s, n in _pairs(fail):
            tough = tough_zero_mask(ring, q, s, n)
            yield (
                (q,),
                tuple(members(tough)[:1]),
                (s, n),
                "not-closed %s but tough-zero existence %s",
                (not closed[s] >> n & 1, bool(tough)),
            )
    return count


def _tough_zero_shift(ring, q, p):
    inside = members(q)
    weak = _window_rows(ring, (q,), p, True)
    free = tough_free_rows(ring, q, max(p.smax, p.nmax))
    count = 0
    # Tough-free pairs have no tough zero, so no case.
    for s, n in _pairs([0] + [weak[s] & ~free[s] for s in range(1, p.smax + 1)]):
        zs = zero_in_mask(ring, s)
        for x in iter_bits(tough_zero_mask(ring, q, s, n)):
            count += 1
            row = ring.add[x]
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


def _weakly_nilpotent(ring, q, p):
    hyp = _weakly_not_closed(ring, q, p)
    escape = q & ~nilpotents(ring)
    if escape:
        shown = members(escape)[:1]
        for sn in _pairs(hyp):
            yield (
                (q,),
                tuple(shown),
                sn,
                "weakly-not-closed ideal contains non-nilpotent %s",
                (shown,),
            )
    return _bits(hyp)


def _all_weakly_closed(ring, p, ideals, rhs, fmt):
    """One case per window pair with s > n: the ideals given are all weakly
    (s,n)-closed exactly when rhs(s, n) holds."""
    every = _window_rows(ring, ideals, p, True)
    count = 0
    for s in range(1, p.smax + 1):
        for n in range(1, min(s - 1, p.nmax) + 1):
            count += 1
            every_weak = bool(every[s] >> n & 1)
            if every_weak != rhs(s, n):
                yield ((), (), (s, n), fmt, (every_weak, not every_weak))
    return count


def _nilpotent_ideal_criterion(ring, p):
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
    exps = _upto(p.nmax)
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
    um = units(ring)
    zw = weak_zero_divisors(ring)
    pool = ring.full & ~(um | zw)
    top = max(p.smax, p.nmax)
    exps = _upto(p.nmax)
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
    exps = _upto(p.nmax)
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
    top = max(p.smax, p.nmax)
    exps = _upto(p.nmax)
    count = 0
    for a in members(um):
        rows = regularity_rows(ring, a, top)
        for s in range(1, p.smax + 1):
            count += p.nmax
            for n in iter_bits(exps & ~rows[s][1]):
                yield ((), (a,), (s, n), "unit not (%d,%d)-Regular", (s, n))
    return count


def _every_ideal_weakly(ring, p):
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
    return (ident, *projs, emb)


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
                hyp = _window_rows(target, (q2,), p, True)
                count += _bits(hyp)
                for s, n, w in open_pairs(ring, pre, hyp, True):
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
                hyp = _window_rows(ring, (q1,), p, True)
                count += _bits(hyp)
                for s, n, w in open_pairs(target, img, hyp, True):
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
            hyp = _window_rows(ring, (qm,), p, True)
            count += _bits(hyp)
            for s, n, w in open_pairs(quot, image, hyp, True):
                yield (
                    (pm, qm),
                    (),
                    (s, n),
                    "image of weakly (%d,%d)-closed ideal in quotient "
                    "open at class %d",
                    (s, n, w),
                )
    return count


def _box_equivalence(ring, p):
    f1, f2 = ring.factors
    n2 = f2.order
    count = 0
    for side, fac in enumerate(ring.factors):
        for q in proper_hyperideals(fac):
            if not is_C_hyperideal(fac, q):
                continue
            if side == 0:
                box = _box_mask(q, f2.full, n2)
            else:
                box = _box_mask(f1.full, q, n2)
            count += p.smax * p.nmax
            i = _window_rows(ring, (box,), p, True)
            ii = _window_rows(fac, (q,), p)
            iii = _window_rows(ring, (box,), p)
            for s, n in _pairs([a ^ b | b ^ c for a, b, c in zip(i, ii, iii)]):
                yield (
                    (box, q),
                    (),
                    (s, n),
                    "box weakly %s, factor closed %s, box closed %s",
                    (bool(i[s] >> n & 1), bool(ii[s] >> n & 1), bool(iii[s] >> n & 1)),
                )
    return count


def _box_C_hyperideal(ring, p):
    f1, f2 = ring.factors
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
    """Per-s masks of one disjunct of the box decomposition criterion:
    qa weakly closed but not closed, with the one-sided conditions on qb."""
    if qa == fa.full:
        return [0] * (p.smax + 1)
    out = _weakly_not_closed(fa, qa, p)
    for s in range(1, p.smax + 1):
        if land_mask(fb, qb, s) & ~zero_in_mask(fb, s):
            out[s] = 0
        elif qb != fb.full and land_mask(fa, qa, s) & ~zero_in_mask(fa, s):
            out[s] &= closed_rows(fb, qb, max(p.smax, p.nmax))[s]
    return out


def _box_decomposition(ring, p):
    f1, f2 = ring.factors
    n2 = f2.order
    none = [0] * (p.smax + 1)
    count = 0
    for q in proper_hyperideals(ring):
        q1 = factor_mask(q, n2, 0)
        q2 = factor_mask(q, n2, 1)
        decomposes = _box_mask(q1, q2, n2) == q
        count += p.smax * p.nmax
        lhs = _weakly_not_closed(ring, q, p) if is_C_hyperideal(ring, q) else none
        rhs = none
        if decomposes and is_C_hyperideal(f1, q1) and is_C_hyperideal(f2, q2):
            one = _one_sided_criterion(f1, q1, f2, q2, p)
            two = _one_sided_criterion(f2, q2, f1, q1, p)
            rhs = [a | b for a, b in zip(one, two)]
        for s, n in _pairs([a ^ b for a, b in zip(lhs, rhs)]):
            found = bool(lhs[s] >> n & 1)
            yield (
                (q,),
                (),
                (s, n),
                "weakly-not-closed C-hyperideal %s but decomposition criterion %s",
                (found, not found),
            )
    return count


CHECKS: tuple[Check, ...] = (
    _check(
        "T2_3",
        "A proper n-absorbing C-hyperideal is (s,n)-closed for every s.",
        _absorbing_closed,
        each=is_C_hyperideal,
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
        each=is_strong_C_hyperideal,
    ),
    _check(
        "T2_9",
        "A proper hyperideal is (s,n)-closed exactly when its image in the "
        "ring of co-occurrence classes is (s,n)-closed.",
        _class_ring_transfer,
        each=_any_ideal,
    ),
    _check(
        "R2_rad",
        "Pairs with s <= n are always closed, and a proper hyperideal equals "
        "its radical exactly when every pair is closed.",
        _radical_characterization,
        each=_any_ideal,
    ),
    _check(
        "T2_10",
        "If (s,n) and (s+1,n+1) are closed pairs with s != n, then (s+1,n) "
        "is a closed pair.",
        _step_down,
        each=_any_ideal,
    ),
    _check(
        "L2_11",
        "If (s,n) is a closed pair, so is every (s',n') with s' <= s and "
        "n' >= n.",
        _pair_monotone,
        each=_any_ideal,
    ),
    _check(
        "T2_12i",
        "For a proper C-hyperideal: if (n,2) and (n+1,2) are closed pairs "
        "for some n >= 3, then (t,2) is a closed pair for every t.",
        _two_absorbing_spread,
        each=is_C_hyperideal,
    ),
    _check(
        "T2_12ii",
        "For a proper C-hyperideal: if (s,n) is a closed pair with 2n <= s, "
        "then (t,n) is a closed pair for every t.",
        _half_exponent_spread,
        each=is_C_hyperideal,
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
        each=_any_ideal,
    ),
    _check(
        "T2_14",
        "If Omega(n) > n then Omega(n+1) equals Omega(n) or is at least "
        "Omega(n) + 2.",
        _Omega_jump,
        each=_any_ideal,
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
        partial(
            _intersection_equivalence, lhs_fn=_omega_is_max, rhs_fn=_pairset_equal,
            fmt="omega equality %s but pair-set equality %s",
        ),
    ),
    _check(
        "T2_17",
        "Omega of the intersection equals the pointwise min exactly when the "
        "closed-pair set of the intersection is the intersection of the "
        "closed-pair sets.",
        partial(
            _intersection_equivalence, lhs_fn=_Omega_is_min, rhs_fn=_pairset_equal,
            fmt="Omega equality %s but pair-set equality %s",
        ),
    ),
    _check(
        "C2_18",
        "omega of the intersection equals the pointwise max exactly when "
        "Omega of the intersection equals the pointwise min.",
        partial(
            _intersection_equivalence, lhs_fn=_omega_is_max, rhs_fn=_Omega_is_min,
            fmt="omega equality %s but Omega equality %s",
        ),
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
        each=is_strong_C_hyperideal,
    ),
    _check(
        "T3_5",
        "A weakly (s,n)-closed strong C-hyperideal that is not (s,n)-closed "
        "consists of nilpotent elements.",
        _weakly_nilpotent,
        each=is_strong_C_hyperideal,
    ),
    _check(
        "T3_6",
        "In a strongly distributive hyperring with nonzero scalar identity "
        "and an i-set, for s > n: every proper hyperideal inside the "
        "nilpotent set is weakly (s,n)-closed exactly when 0 lies in x^s for "
        "every nilpotent x.",
        _nilpotent_ideal_criterion,
        requires=(is_strongly_distributive, _has_nonzero_scalar_identity, has_i_set),
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
        requires=(is_strongly_distributive, _has_scalar_identity),
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
        requires=(_has_identity,),
    ),
    _check(
        "T3_12",
        "In a strongly distributive hyperring with an i-set, for s > n: "
        "every proper hyperideal is weakly (s,n)-closed exactly when every "
        "non-nilpotent element is (s,n)-Regular and 0 lies in a^s for every "
        "nilpotent a.",
        _every_ideal_weakly,
        requires=(is_strongly_distributive, has_i_set),
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
        requires=(_is_product, _factors_have_nonzero_scalar_identity),
    ),
    _check(
        "L3_15",
        "I1 and I2 are C-hyperideals exactly when I1 x I2 is a C-hyperideal "
        "of the product.",
        _box_C_hyperideal,
        requires=(_is_product,),
    ),
    _check(
        "T3_16",
        "In a product of scalar-identity hyperrings, a proper hyperideal is "
        "a weakly (s,n)-closed C-hyperideal that is not (s,n)-closed exactly "
        "when it decomposes as a box of C-hyperideals satisfying the "
        "one-sided weakly-not-closed criterion.",
        _box_decomposition,
        requires=(_is_product, _factors_have_nonzero_scalar_identity),
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
