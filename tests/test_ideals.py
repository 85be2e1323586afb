"""Hyperideal enumeration, classification, arithmetic, and derived subsets."""

import random
from itertools import combinations_with_replacement

import pytest

from hyperring_lab import (
    AxiomFailure,
    EmptyOperand,
    FiniteHyperring,
    NotAHyperideal,
    OrderTooLarge,
    ProperIdealRequired,
    SuiteConfig,
    WellDefinednessFailure,
    classify_ideal,
    enumerate_hyperideals,
    find_i_sets,
    generate_hyperideal,
    generate_instances,
    has_i_set,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_C_hyperideal,
    is_coprime,
    is_hyperideal,
    is_maximal,
    is_n_absorbing,
    is_prime,
    is_strong_C_hyperideal,
    make_zx_mod,
    mask_of,
    members,
    nilpotents,
    prime_hyperideals,
    product_ring,
    proper_hyperideals,
    quotient_by_ideal,
    radical,
    set_power,
    units,
    weak_zero_divisors,
)
from hyperring_lab.ideals import (
    _multiset_products,
    cooccurrence_subgroup,
    n_absorbing_witness,
    product_class_C,
    subgroup_closure,
)

import oracles as orc


def masks_to_sets(masks):
    return [members(m) for m in masks]


def test_is_hyperideal_frozen_cases():
    r = make_zx_mod(4, [2])
    assert is_hyperideal(r, mask_of([0, 2]))
    assert not is_hyperideal(r, mask_of([0, 1]))
    assert not is_hyperideal(r, 0)
    assert is_hyperideal(r, r.full)


def test_enumerate_matches_subset_filter_oracle():
    for ring in [make_zx_mod(4, [2]), make_zx_mod(6, [1]), make_zx_mod(6, [2, 3]),
                 product_ring(make_zx_mod(2, [1]), make_zx_mod(3, [1]))]:
        n, add, mul = orc.tables(ring)
        engine = {frozenset(members(m)) for m in enumerate_hyperideals(ring)}
        assert engine == set(orc.all_ideals(n, add, mul)), ring.name


def test_lattice_matches_subgroup_walk_up_to_order_32():
    """Ordered lattice on each default ring, its order-2n product target, and
    its quotients, against the subgroup walk of the reference."""
    partner = make_zx_mod(2, [1])
    for ring in generate_instances(SuiteConfig()):
        target = product_ring(ring, partner)
        cases = [(ring, enumerate_hyperideals(ring)),
                 (target, enumerate_hyperideals(target, order_bound=64))]
        for p in proper_hyperideals(ring):
            quot, _ = quotient_by_ideal(ring, p)
            cases.append((quot, enumerate_hyperideals(quot)))
        for r, found in cases:
            assert masks_to_sets(found) == orc.subgroup_walk_ideals(*orc.tables(r)), r.name


def test_absorbing_witness_matches_brute_force():
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 8]
    assert len(rings) == 94
    for ring in rings:
        n, _, mul = orc.tables(ring)
        for q in proper_hyperideals(ring):
            Q = frozenset(members(q))
            for deg in (1, 2, 3):
                expect = orc.first_absorbing_witness(n, mul, Q, deg)
                assert n_absorbing_witness(ring, q, deg) == expect, (ring.name, Q, deg)


def test_absorbing_table_keeps_least_tuple_of_each_class():
    """The witness search reads one tuple per (product, drop-one subproducts)
    class; it must be the lexicographically least tuple of that class."""
    for ring in [r for r in generate_instances(SuiteConfig()) if r.order <= 6]:
        n, _, mul = orc.tables(ring)

        def prod(tup):
            return mask_of(orc.tuple_product(mul, tup))

        levels, masks = _multiset_products(ring, 4)
        for k in (1, 2, 3):
            least = {}
            for tup in combinations_with_replacement(range(n), k + 1):
                subs = frozenset(prod(tup[:i] + tup[i + 1:]) for i in range(k + 1))
                least.setdefault((prod(tup), subs), tup)
            table = {
                (p, frozenset(masks[i] for i in members(subs))): tup
                for p, group in levels[k].items()
                for tup, subs in group
            }
            assert table == least, (ring.name, k)


def test_negation_needs_every_inverse():
    r = FiniteHyperring([[0, 1], [1, 1]], [[[0], [0]], [[0], [0]]])
    with pytest.raises(AxiomFailure, match="element 1 has no additive inverse"):
        subgroup_closure(r, mask_of([1]))


def test_subgroup_closure_matches_fixpoint_oracle():
    """The join of cyclic pieces against the frozenset fixpoint, on every
    subset of every default ring of order <= 8."""
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 8]
    assert len(rings) == 94
    expected = {}  # rings with one addition table share the oracle's answers
    for ring in rings:
        n, add, _ = orc.tables(ring)
        key = tuple(map(tuple, add))
        if key not in expected:
            expected[key] = [
                mask_of(orc.subgroup_closure(n, add, members(m))) for m in range(1 << n)
            ]
        got = [subgroup_closure(ring, m) for m in range(1 << n)]
        assert got == expected[key], ring.name


def _corrupted_products(ring, rng):
    """The ring with one or two product cells, each with its mirror cell,
    overwritten by a random nonempty set.  The table stays commutative, so
    r*a and a*r agree, but it mostly breaks associativity or distributivity."""
    n = ring.order
    mul = [list(row) for row in ring.mul]
    for _ in range(rng.randint(1, 2)):
        a, b = rng.randrange(n), rng.randrange(n)
        mul[a][b] = mul[b][a] = rng.randrange(1, 1 << n)
    return FiniteHyperring.from_masks(ring.add, mul, name=ring.name + "*")


def test_is_hyperideal_matches_oracle_on_and_off_the_axioms():
    """The absorption-table test against the oracle on every nonempty subset
    of the default rings of order <= 6 and of seeded corruptions of them."""
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 6]
    assert len(rings) == 39
    rng = random.Random(6)
    broken = 0
    for ring in rings:
        for r in [ring] + [_corrupted_products(ring, rng) for _ in range(3)]:
            broken += not r.validate().ok
            n, add, mul = orc.tables(r)
            for m in range(1, 1 << n):
                want = orc.is_ideal(n, add, mul, frozenset(members(m)))
                assert is_hyperideal(r, m) == want, (r.name, r.mul, members(m))
    assert broken >= 39 * 3 // 2


def test_enumeration_is_sorted_and_cached():
    r = make_zx_mod(6, [1])
    found = enumerate_hyperideals(r)
    assert masks_to_sets(found) == [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
    assert enumerate_hyperideals(r) == found
    assert masks_to_sets(proper_hyperideals(r)) == [[0], [0, 3], [0, 2, 4]]


def test_generate_hyperideal():
    r = make_zx_mod(4, [2])
    assert members(generate_hyperideal(r, mask_of([2]))) == [0, 2]
    assert members(generate_hyperideal(r, mask_of([1]))) == [0, 1, 2, 3]
    with pytest.raises(EmptyOperand):
        generate_hyperideal(r, 0)


def test_subgroup_closure_is_subtraction_closure():
    r = make_zx_mod(6, [1])
    assert members(subgroup_closure(r, mask_of([2]))) == [0, 2, 4]
    assert members(subgroup_closure(r, mask_of([5]))) == [0, 1, 2, 3, 4, 5]


def test_prime_and_maximal_frozen():
    r = make_zx_mod(4, [1])
    assert is_prime(r, mask_of([0, 2])) and is_maximal(r, mask_of([0, 2]))
    assert not is_prime(r, mask_of([0])) and not is_maximal(r, mask_of([0]))
    assert masks_to_sets(prime_hyperideals(make_zx_mod(6, [1]))) == [[0, 3], [0, 2, 4]]
    assert prime_hyperideals(make_zx_mod(4, [2])) == []


def test_properness_is_enforced():
    r = make_zx_mod(4, [1])
    with pytest.raises(ProperIdealRequired):
        is_prime(r, r.full)
    with pytest.raises(NotAHyperideal):
        is_prime(r, mask_of([0, 1]))
    with pytest.raises(ProperIdealRequired):
        quotient_by_ideal(r, r.full)


def test_radical_frozen():
    assert members(radical(make_zx_mod(4, [1]), mask_of([0]))) == [0, 2]
    assert members(radical(make_zx_mod(4, [1]), mask_of([0, 2]))) == [0, 2]
    assert members(radical(make_zx_mod(4, [2]), mask_of([0]))) == [0, 1, 2, 3]
    assert members(radical(make_zx_mod(6, [1]), mask_of([0]))) == [0]
    for ring in [make_zx_mod(4, [1]), make_zx_mod(6, [2, 3])]:
        n, add, mul = orc.tables(ring)
        for q in proper_hyperideals(ring):
            assert frozenset(members(radical(ring, q))) == orc.radical(n, add, mul, frozenset(members(q)))


def test_ideal_arithmetic_frozen():
    r = make_zx_mod(6, [1])
    evens = mask_of([0, 2, 4])
    threes = mask_of([0, 3])
    assert is_coprime(r, evens, threes)
    assert members(ideal_sum(r, evens, threes)) == [0, 1, 2, 3, 4, 5]
    assert members(ideal_product(r, evens, threes)) == [0]
    assert members(set_power(r, evens, 2)) == [0, 2, 4]
    assert members(ideal_power(r, threes, 2)) == [0, 3]
    with pytest.raises(ValueError):
        set_power(r, evens, 0)


def test_absorbing_witnesses_frozen():
    r = make_zx_mod(4, [2])
    assert n_absorbing_witness(r, mask_of([0]), 1) == (1, 2)
    assert n_absorbing_witness(r, mask_of([0]), 2) == (1, 1, 1)
    assert not is_n_absorbing(r, mask_of([0]), 2)
    r8 = make_zx_mod(8, [2])
    assert n_absorbing_witness(r8, mask_of([0]), 3) == (1, 1, 1, 1)
    r6 = make_zx_mod(6, [3])
    assert not is_n_absorbing(r6, mask_of([0]), 1)
    assert is_n_absorbing(r6, mask_of([0]), 2)
    assert is_n_absorbing(r6, mask_of([0, 2, 4]), 1)
    with pytest.raises(ValueError):
        is_n_absorbing(r6, mask_of([0]), 0)


def test_absorbing_witness_is_genuine():
    """The recorded tuple lands its full product in the ideal but no drop-one product."""
    r = make_zx_mod(8, [2])
    tup = n_absorbing_witness(r, mask_of([0]), 3)
    full = mask_of([0])
    prod = 1 << tup[0]
    for x in tup[1:]:
        prod = r.row_product(prod, x)
    assert prod & ~full == 0
    for i in range(len(tup)):
        rest = tup[:i] + tup[i + 1:]
        sub = 1 << rest[0]
        for x in rest[1:]:
            sub = r.row_product(sub, x)
        assert sub & ~full != 0


def test_class_C_and_cooccurrence_frozen():
    r = make_zx_mod(4, [1, 3])
    assert sorted(members(c) for c in product_class_C(r)) == [[0], [1], [1, 3], [2], [3]]
    assert sorted(sorted(u) for u in orc.class_U(*orc.tables(r))) == [[0], [0, 2], [1], [1, 3], [2], [3]]
    assert members(cooccurrence_subgroup(r)) == [0, 2]
    assert members(cooccurrence_subgroup(make_zx_mod(4, [1]))) == [0]


def test_C_and_strong_C_frozen():
    r = make_zx_mod(4, [1, 3])
    assert is_C_hyperideal(r, mask_of([0]))
    assert not is_strong_C_hyperideal(r, mask_of([0]))
    assert is_C_hyperideal(r, mask_of([0, 2]))
    assert is_strong_C_hyperideal(r, mask_of([0, 2]))
    r6 = make_zx_mod(6, [3])
    for q in proper_hyperideals(r6):
        assert is_C_hyperideal(r6, q) and is_strong_C_hyperideal(r6, q)


def test_strong_C_agrees_with_sum_closure_definition():
    """Strong C: every finite sum of products that meets the ideal lies inside it."""
    for ring in [make_zx_mod(m, xs) for m, xs in [(4, [1, 3]), (6, [3]), (4, [1]), (8, [2]), (6, [2, 3])]]:
        n, add, mul = orc.tables(ring)
        sums = orc.class_U(n, add, mul)
        for q in enumerate_hyperideals(ring):
            Q = frozenset(members(q))
            expected = all(E <= Q for E in sums if E & Q)
            assert is_strong_C_hyperideal(ring, q) == expected, (ring.name, members(q))


def test_element_subsets_frozen():
    r = make_zx_mod(4, [1])
    assert members(nilpotents(r)) == [0, 2]
    assert members(units(r)) == [1, 3]
    assert members(weak_zero_divisors(r)) == [0, 2]
    r2 = make_zx_mod(4, [2])
    assert members(nilpotents(r2)) == [0, 1, 2, 3]
    assert units(r2) is None


def test_i_sets_frozen_and_oracle():
    r = make_zx_mod(4, [1])
    assert masks_to_sets(find_i_sets(r)) == [[1], [0, 1], [2, 3], [0, 2, 3]]
    assert has_i_set(r)
    n, add, mul = orc.tables(r)
    assert {frozenset(members(m)) for m in find_i_sets(r)} == set(orc.all_i_sets(n, add, mul))
    assert not has_i_set(make_zx_mod(4, [2]))
    with pytest.raises(OrderTooLarge):
        find_i_sets(product_ring(make_zx_mod(4, [1, 3]), make_zx_mod(4, [1, 3])))


def test_quotient_frozen_tables():
    r = make_zx_mod(4, [1])
    quot, proj = quotient_by_ideal(r, mask_of([0, 2]))
    assert quot.order == 2
    assert [list(row) for row in quot.add] == [[0, 1], [1, 0]]
    assert [members(c) for c in quot.mul[1]] == [[0], [1]]
    assert proj.table == (0, 1, 0, 1)
    again, _ = quotient_by_ideal(r, mask_of([0, 2]))
    assert again is quot


def test_quotient_collapses_to_singletons_on_cosets():
    r = make_zx_mod(6, [1])
    quot, proj = quotient_by_ideal(r, mask_of([0, 3]))
    assert quot.order == 3
    assert proj.is_surjective()
    for a in range(r.order):
        for b in range(r.order):
            image = proj.image_mask(r.mul[a][b])
            assert image == quot.mul[proj(a)][proj(b)]


def test_classify_ideal_frozen():
    r = make_zx_mod(4, [1])
    assert classify_ideal(r, mask_of([0, 2])) == {
        "proper": True,
        "prime": True,
        "maximal": True,
        "c_hyperideal": True,
        "strong_c_hyperideal": True,
    }
    assert classify_ideal(r, r.full)["proper"] is False
    assert classify_ideal(r, r.full)["prime"] is False
    with pytest.raises(NotAHyperideal):
        classify_ideal(r, mask_of([1]))


def test_set_power_row_matches_iterated_oracle_products():
    """`set_power` keeps one row per (ring, set); asking for P^6 before P^2
    must leave every entry equal to the iterated frozenset product, for every
    hyperideal and a seeded sample of other subsets of the default rings of
    order <= 8."""
    rng = random.Random(1103)
    for ring in generate_instances(SuiteConfig()):
        if ring.order > 8:
            continue
        n, add, mul = orc.tables(ring)
        subsets = orc.all_ideals(n, add, mul)
        subsets += [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(4)]
        for P in subsets:
            pmask = mask_of(sorted(P))
            assert members(set_power(ring, pmask, 6)) == sorted(
                _oracle_set_power(mul, P, 6)
            ), (ring.name, sorted(P))
            for s in (2, 1, 3, 5, 4):
                assert members(set_power(ring, pmask, s)) == sorted(
                    _oracle_set_power(mul, P, s)
                ), (ring.name, sorted(P), s)


def _oracle_set_power(mul, P, s):
    acc = P
    for _ in range(s - 1):
        acc = orc.set_product(mul, acc, P)
    return acc
