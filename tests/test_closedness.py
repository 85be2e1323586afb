"""(s,n)-closedness, weak closedness, omega/Omega profiles, and the residue model."""

import ast
import itertools
import math
import random
from functools import partial
from pathlib import Path

import pytest

from hyperring_lab import (
    ProperIdealRequired,
    SuiteConfig,
    ZxResidueModel,
    big_omega,
    closed_profile,
    enumerate_hyperideals,
    find_tough_zero,
    generate_instances,
    is_sn_Regular,
    is_sn_closed,
    is_sn_regular,
    is_weakly_sn_closed,
    make_zx_mod,
    mask_of,
    members,
    omega,
    product_ring,
    proper_hyperideals,
    sn_closed_witness,
    weakly_sn_closed_witness,
    zx_residue_closed,
    zx_residue_weakly_closed,
)
from hyperring_lab import closedness
from hyperring_lab.bitsets import least
from hyperring_lab.closedness import (
    closed_rows,
    land_row,
    open_mask,
    open_pairs,
    order_rows,
    power_column,
    premise,
    zero_in_mask,
    zero_in_row,
)

import oracles as orc

INF = math.inf


def test_closed_witness_frozen():
    r = make_zx_mod(4, [1])
    zero_ideal = mask_of([0])
    assert not is_sn_closed(r, zero_ideal, 2, 1)
    assert sn_closed_witness(r, zero_ideal, 2, 1) == 2
    assert is_sn_closed(r, zero_ideal, 2, 2)
    assert sn_closed_witness(r, zero_ideal, 2, 2) is None


def test_weakly_closed_ignores_zero_containing_powers():
    """2^2 = {0} lands in the zero ideal but carries 0, so it never witnesses."""
    r = make_zx_mod(4, [1])
    zero_ideal = mask_of([0])
    assert is_weakly_sn_closed(r, zero_ideal, 2, 1)
    assert weakly_sn_closed_witness(r, zero_ideal, 2, 1) is None
    assert not is_sn_closed(r, zero_ideal, 2, 1)


def test_closedness_matches_oracle():
    for ring in [make_zx_mod(4, [1]), make_zx_mod(4, [2]), make_zx_mod(8, [2]),
                 product_ring(make_zx_mod(2, [1]), make_zx_mod(4, [2]))]:
        n, add, mul = orc.tables(ring)
        for q in proper_hyperideals(ring):
            Q = frozenset(members(q))
            for s in range(1, 6):
                for k in range(1, 6):
                    assert is_sn_closed(ring, q, s, k) == orc.sn_closed(n, add, mul, Q, s, k)
                    assert is_weakly_sn_closed(ring, q, s, k) == orc.weakly_sn_closed(n, add, mul, Q, s, k)


def test_exponent_and_properness_validation():
    r = make_zx_mod(4, [1])
    with pytest.raises(ValueError):
        is_sn_closed(r, mask_of([0]), 0, 1)
    with pytest.raises(ProperIdealRequired):
        is_sn_closed(r, r.full, 2, 1)


KINDS = ("closed", "weak", "tough")


@pytest.mark.parametrize("bad", [0, -1])
def test_mask_functions_refuse_exponents_below_one(bad):
    """The rows are lists, so an unchecked exponent of -1 would read the last entry."""
    r = make_zx_mod(8, [2])
    q = mask_of([0])
    land_row(r, q, 6)
    zero_in_row(r, 6)
    order_rows(r, q, 6)
    calls = [
        partial(zero_in_mask, r, bad),
        partial(order_rows, r, q, bad),
    ]
    for kind in KINDS:
        calls += [
            partial(premise, r, q, bad, kind),
            partial(open_mask, r, q, bad, 2, kind),
            partial(open_mask, r, q, 2, bad, kind),
        ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_pair_kinds_are_only_the_three():
    """An unknown pair kind, or the old boolean flag, is refused, and the
    refusal leaves the rows of the known kinds as they were."""
    r = make_zx_mod(8, [2])
    q = mask_of([0])
    before = [list(closed_rows(r, q, 4, kind)) for kind in KINDS]
    for kind in ("strong", True):
        calls = [
            partial(premise, r, q, 2, kind),
            partial(open_mask, r, q, 2, 1, kind),
            partial(closed_rows, r, q, 4, kind),
            lambda: list(open_pairs(r, q, [0, 2], kind)),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()
    assert [list(closed_rows(r, q, 4, kind)) for kind in KINDS] == before


def test_rows_grown_out_of_order_match_oracle_powers():
    """Each row is first grown to power bound + 3 and read at every lower exponent,
    then grown again by two.

    The masks are every hyperideal and every singleton.  Singletons are mostly
    not ideals, and their land masks need not grow with k, so this also
    checks that the rows assume no monotonicity.
    """
    for ring in generate_instances(SuiteConfig()):
        if ring.order > 8:
            continue
        n, add, mul = orc.tables(ring)
        zero = orc.find_zero(n, add)
        top = ring.power_bound() + 3
        order = [top] + list(range(1, top)) + [top + 2, top + 1]
        powers = {(a, k): orc.power(mul, a, k) for a in range(n) for k in order}
        for k in order:
            expect = [a for a in range(n) if zero in powers[a, k]]
            assert members(zero_in_mask(ring, k)) == expect, (ring.name, k)
        for q in list(enumerate_hyperideals(ring)) + [1 << a for a in range(n)]:
            inside = set(members(q))
            for k in order:
                expect = [a for a in range(n) if powers[a, k] <= inside]
                got = premise(ring, q, k, "closed")
                assert members(got) == expect, (ring.name, members(q), k)


def test_order_rows_grown_out_of_order_match_the_oracle():
    """The omega and Omega rows of every proper ideal of the default rings
    of order <= 8 are grown to power bound + 3, read at every lower
    exponent, then grown by two, and each entry present is compared with
    the oracle's omega and Omega every time."""
    for ring in generate_instances(SuiteConfig()):
        if ring.order > 8:
            continue
        n, add, mul = orc.tables(ring)
        top = ring.power_bound() + 3
        for q in proper_hyperideals(ring):
            Q = frozenset(members(q))
            expect_om = [None] + [orc.omega(n, add, mul, Q, k) for k in range(1, top + 3)]
            expect_big = [None] + [orc.big_omega(n, add, mul, Q, k) for k in range(1, top + 3)]
            grown = 0
            for k in [top] + list(range(1, top)) + [top + 2]:
                om, big = order_rows(ring, q, k)
                grown = max(grown, k)
                where = (ring.name, members(q), k)
                assert len(om) == len(big) == grown + 1, where
                assert om[1:] == expect_om[1 : grown + 1], where
                assert big[1:] == expect_big[1 : grown + 1], where


def test_power_column_grown_out_of_order_matches_oracle_powers():
    """The column of each freshly built ring is grown to scattered exponents,
    and every entry present is compared with the oracle's powers each time."""
    for ring in generate_instances(SuiteConfig()):
        if ring.order > 8:
            continue
        n, _, mul = orc.tables(ring)
        top = ring.power_bound() + 3
        grown = 0
        for k in (3, 1, top, 2, top + 4, top + 1):
            col = power_column(ring, k)
            grown = max(grown, k)
            assert len(col) == grown + 1
            for j in range(1, len(col)):
                expect = [mask_of(orc.power(mul, a, j)) for a in range(n)]
                assert list(col[j]) == expect, (ring.name, j)


def test_land_and_zero_in_masks_frozen():
    r = make_zx_mod(8, [2])
    zero_ideal = mask_of([0])
    expect = [[0], [0, 2, 4, 6], [0, 2, 4, 6], list(range(8)), list(range(8)), list(range(8))]
    assert [members(premise(r, zero_ideal, k, "closed")) for k in range(1, 7)] == expect
    assert [members(zero_in_mask(r, k)) for k in range(1, 7)] == expect


def test_omega_profiles_frozen():
    cases = [
        (make_zx_mod(4, [1]), [0], (1, 2, 2, 2, 2, 2), (1.0, INF, INF, INF, INF, INF), {2: 2, 3: 2, 4: 2, 5: 2, 6: 2}),
        (make_zx_mod(4, [1]), [0, 2], (1, 1, 1, 1, 1, 1), (INF,) * 6, {}),
        (make_zx_mod(4, [2]), [0], (1, 2, 3, 3, 3, 3), (1.0, 2.0, INF, INF, INF, INF), {2: 2, 3: 1, 4: 1, 5: 1, 6: 1}),
        (make_zx_mod(8, [2]), [0], (1, 2, 2, 4, 4, 4), (1.0, 3.0, 3.0, INF, INF, INF), {2: 2, 3: 2, 4: 1, 5: 1, 6: 1}),
    ]
    for ring, ideal, om, big, wits in cases:
        prof = closed_profile(ring, mask_of(ideal), 6, 6)
        assert prof.omega == om, ring.name
        assert prof.Omega == big, ring.name
        assert prof.witnesses == wits, ring.name
        assert prof.bound_L == ring.power_bound()


def test_omega_matches_scan_oracle():
    """omega and Omega, both read off the closed-pair rows, against plain
    scans on every proper ideal of the default rings of order <= 8: omega
    for s <= 6 and Omega for n up to the power bound + 2."""
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 8]
    assert len(rings) == 94
    for ring in rings:
        n, add, mul = orc.tables(ring)
        for q in proper_hyperideals(ring):
            Q = frozenset(members(q))
            for s in range(1, 7):
                where = (ring.name, members(q), s)
                assert omega(ring, q, s) == orc.omega(n, add, mul, Q, s), where
            for k in range(1, ring.power_bound() + 3):
                where = (ring.name, members(q), k)
                assert big_omega(ring, q, k) == orc.big_omega(n, add, mul, Q, k), where


def test_omega_invariant_relations():
    """n >= omega(s) iff closed iff s <= Omega(n), on a sharp instance."""
    r = make_zx_mod(8, [2])
    zero_ideal = mask_of([0])
    for s in range(1, 7):
        for n in range(1, 7):
            closed = is_sn_closed(r, zero_ideal, s, n)
            assert closed == (n >= omega(r, zero_ideal, s))
            assert closed == (s <= big_omega(r, zero_ideal, n))


def test_profile_witnesses_are_sharp():
    r = make_zx_mod(8, [2])
    prof = closed_profile(r, mask_of([0]), 6, 6)
    for s, w in prof.witnesses.items():
        n = prof.omega[s - 1]
        assert n > 1
        assert r.power(w, s) & ~mask_of([0]) == 0
        assert r.power(w, n - 1) & ~mask_of([0]) != 0


def test_closed_profile_validates_its_ideal_once(monkeypatch):
    calls = []
    real = closedness.require_proper
    monkeypatch.setattr(
        closedness, "require_proper", lambda ring, imask: calls.append(imask) or real(ring, imask)
    )
    prof = closed_profile(make_zx_mod(8, [2]), mask_of([0]), 6, 6)
    assert prof.witnesses and calls == [mask_of([0])]


def test_closed_profile_refuses_a_window_below_one():
    """An empty window would read as a profile with no entries."""
    ring = make_zx_mod(4, [1, 3])
    for smax, nmax in ((-2, 3), (3, 0)):
        with pytest.raises(ValueError, match="below 1"):
            closed_profile(ring, mask_of([0]), smax, nmax)


def test_tough_zero_frozen():
    r = make_zx_mod(4, [1])
    assert find_tough_zero(r, mask_of([0]), 2, 1) == 2
    assert find_tough_zero(r, mask_of([0]), 2, 2) is None
    assert find_tough_zero(r, mask_of([0, 2]), 3, 1) is None


def test_regular_flavors_frozen():
    r = make_zx_mod(4, [1])
    assert is_sn_regular(r, 1, 3, 1)
    assert is_sn_Regular(r, 1, 3, 1)
    assert not is_sn_regular(r, 2, 2, 1)
    assert not is_sn_Regular(r, 2, 2, 1)
    assert is_sn_regular(r, 2, 1, 2)


def test_Regular_subset_quantifier_collapses():
    """Existence over one element, over any subset, and over the full set agree."""
    for ring in [make_zx_mod(4, [1]), make_zx_mod(5, [2]), make_zx_mod(6, [2, 3])]:
        n, add, mul = orc.tables(ring)
        for a in range(n):
            for s in range(1, 5):
                for k in range(1, 5):
                    assert is_sn_Regular(ring, a, s, k) == orc.Regular_subsets(n, add, mul, a, s, k)
                    assert is_sn_regular(ring, a, s, k) == orc.regular(n, add, mul, a, s, k)


def test_regularity_predicates_match_brute_force():
    """Both predicates against their definitions on the default rings of
    order <= 6 for exponents up to 9; Regular is compared with the existence
    over every nonempty subset B.  The (a, s, n) are read in a seeded random
    order, so each element's regularity rows grow from scattered exponents
    and are read back below their last growth, and the ring's shared product
    cells are filled by whichever element reaches a power set first."""
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 6]
    assert len(rings) == 39
    rng = random.Random(9)
    for ring in rings:
        n, add, mul = orc.tables(ring)
        cases = [(a, s, k) for a in range(n) for s in range(1, 10) for k in range(1, 10)]
        rng.shuffle(cases)
        for a, s, k in cases:
            where = (ring.name, a, s, k)
            assert is_sn_regular(ring, a, s, k) == orc.regular(n, add, mul, a, s, k), where
            assert is_sn_Regular(ring, a, s, k) == orc.Regular_subsets(n, add, mul, a, s, k), where


def test_residue_model_matches_finite_reduction():
    """dZ inside the multiplier model reduces exactly to {0} inside zx(d;X)."""
    for d, xs in [(4, [2]), (6, [2, 3]), (8, [2]), (9, [3])]:
        model = ZxResidueModel(d, xs)
        ring = make_zx_mod(d, xs)
        zero_ideal = mask_of([0])
        for s in range(1, 7):
            for n in range(1, 7):
                assert model.closed(s, n) == is_sn_closed(ring, zero_ideal, s, n), (d, xs, s, n)


def test_residue_model_matches_the_table_engine():
    """The closed form against {0} inside zx(d; X mod d): the least open
    residue of every pair s, n <= 10 for every d <= 16 and every X of one or
    two multipliers below 3d, none a multiple of d."""
    zero = mask_of([0])
    for d in range(2, 17):
        xs = [x for x in range(1, 3 * d) if x % d]
        by_residues: dict = {}
        for k in (1, 2):
            for X in itertools.combinations(xs, k):
                by_residues.setdefault(frozenset(x % d for x in X), []).append(X)
        for residues, Xs in by_residues.items():
            ring = make_zx_mod(d, residues)
            rows = closed_rows(ring, zero, 10)
            expect = {
                (s, n): None if rows[s] >> n & 1 else least(open_mask(ring, zero, s, n))
                for s in range(1, 11)
                for n in range(1, 11)
            }
            for X in Xs:
                model = ZxResidueModel(d, X)
                for (s, n), w in expect.items():
                    assert model.witness(s, n) == w, (d, X, s, n)


def test_residue_model_matches_its_definition():
    """`land_modulus` and `witness` against `power_residues` for d < 40,
    with negative multipliers and multipliers divisible by d."""
    rng = random.Random(16)
    negative = divisible = 0
    for d in range(2, 40):
        pool = [x for x in range(-3 * d, 3 * d + 1) if x]
        for _ in range(6):
            model = ZxResidueModel(d, rng.sample(pool, rng.randrange(1, 4)))
            negative += model.multipliers[0] < 0
            divisible += any(x % d == 0 for x in model.multipliers)
            lands = [None] + [
                {r for r in range(d) if model.power_residues(r, k) == {0}}
                for k in range(1, 9)
            ]
            for k in range(1, 9):
                assert {r for r in range(d) if r % model.land_modulus(k) == 0} == lands[k]
            for s in range(1, 9):
                for n in range(1, 9):
                    w = min(lands[s] - lands[n], default=None)
                    assert model.witness(s, n) == w, (d, model.multipliers, s, n)
    assert negative > 50 and divisible > 20


def test_residue_model_frozen_examples():
    assert zx_residue_closed(105, [2, 4], 7, 3)
    assert zx_residue_closed(105, [2, 4], 7, 1)
    assert not zx_residue_closed(4, [2], 2, 1)
    assert ZxResidueModel(4, [2]).witness(2, 1) == 2
    assert zx_residue_weakly_closed(390, [7, 11], 5, 4)


def test_residue_model_weakly_equals_closed():
    """No nonzero integer has 0 among its power residues, so the weak form collapses."""
    model = ZxResidueModel(12, [2, 3])
    for s in range(1, 8):
        for n in range(1, 8):
            assert model.weakly_closed(s, n) == model.closed(s, n)


def test_residue_model_validation():
    with pytest.raises(ValueError):
        ZxResidueModel(1, [2])
    with pytest.raises(ValueError):
        ZxResidueModel(6, [])
    with pytest.raises(ValueError):
        ZxResidueModel(6, [0, 2])
    with pytest.raises(ValueError):
        ZxResidueModel(6, [2]).closed(0, 1)


def test_closed_pair_tables_match_the_frozenset_oracle():
    """Closed-pair rows of the three kinds against `oracles.sn_closed`,
    `weakly_sn_closed` and `tough_free`, and `open_pairs` of each kind
    against the least oracle witness of each open pair (for "tough", the
    least tough zero), on every proper ideal of the default
    rings of order <= 8.  Each set's rows are grown out of order, to 6, then
    4, then kk, then kk + 1, and after each step every bit of every entry is
    compared, so a growth must extend the old entries as well as add new
    ones."""
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 8]
    assert len(rings) == 94
    for ring in rings:
        n, add, mul = orc.tables(ring)
        zero = orc.find_zero(n, add)
        kk = max(ring.power_bound(), 7)
        steps = (6, 4, kk, kk + 1)
        powers = [
            [None] + [orc.power(mul, a, k) for k in range(1, kk + 2)] for a in range(n)
        ]
        triggers = {
            "closed": lambda ps, Q: ps <= Q,
            "weak": lambda ps, Q: ps <= Q and zero not in ps,
            "tough": lambda ps, Q: zero in ps,
        }
        oracles = {
            "closed": orc.sn_closed,
            "weak": orc.weakly_sn_closed,
            "tough": orc.tough_free,
        }
        for Q in orc.all_ideals(n, add, mul):
            if len(Q) == n:
                continue
            q = mask_of(sorted(Q))
            for kind, trigger in triggers.items():
                breaks = {}
                for s in range(1, kk + 2):
                    for m in range(1, kk + 2):
                        bad = [
                            a for a in range(n)
                            if trigger(powers[a][s], Q) and not powers[a][m] <= Q
                        ]
                        assert (not bad) == oracles[kind](n, add, mul, Q, s, m)
                        breaks[s, m] = bad
                grown = 0
                for k in steps:
                    where = (ring.name, members(q), kind, k)
                    rows = closed_rows(ring, q, k, kind)
                    grown = max(grown, k)
                    assert len(rows) == grown + 1, where
                    for s in range(1, grown + 1):
                        expect = sum(
                            1 << m for m in range(1, grown + 1) if not breaks[s, m]
                        )
                        assert rows[s] == expect, where + (s,)
                    every = [0] + [(1 << k + 1) - 2] * k
                    got = list(open_pairs(ring, q, every, kind))
                    want = [
                        (s, m, breaks[s, m][0])
                        for s in range(1, k + 1)
                        for m in range(1, k + 1)
                        if breaks[s, m]
                    ]
                    assert got == want, where


def test_only_closedness_imports_the_premise_rows():
    """The land and zero-in rows are read through the pair kinds, so no
    other module of the package imports them to spell a premise of its own."""
    rows = {"land_row", "land_mask", "zero_in_row"}
    package = Path(closedness.__file__).parent
    importing = sorted(
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and rows & {a.name for a in node.names}
    )
    assert importing == []
