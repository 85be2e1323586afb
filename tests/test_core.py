"""Tables, axioms, constructions, powers, and structure maps."""

import random
import re
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import hyperring_lab
from hyperring_lab import (
    AxiomFailure,
    AxiomReport,
    SuiteConfig,
    FiniteHyperring,
    HomMap,
    MalformedTables,
    canonical_identity,
    check_good_hom,
    generate_instances,
    is_strongly_distributive,
    make_zx_mod,
    mask_of,
    members,
    product_ring,
    scalar_identity,
    validate_axioms,
    weak_identities,
)
from hyperring_lab.core import factor_mask, identity_hom

import oracles as orc


def test_make_zx_mod_singleton_tables():
    """a*b = {2ab mod 4} with |X| = 1."""
    r = make_zx_mod(4, [2])
    assert r.order == 4
    assert r.name == "zx(4;2)"
    assert members(r.mul[1][1]) == [2]
    assert members(r.mul[0][3]) == [0]
    assert validate_axioms(r).ok


def test_make_zx_mod_two_multipliers_tables():
    r = make_zx_mod(4, [1, 3])
    assert members(r.mul[1][1]) == [1, 3]
    assert members(r.mul[2][2]) == [0]
    assert validate_axioms(r).ok


def test_make_zx_mod_rejects_bad_arguments():
    with pytest.raises(MalformedTables):
        make_zx_mod(1, [1])
    with pytest.raises(MalformedTables):
        make_zx_mod(4, [])


def test_axiom_report_is_ordered_and_named():
    report = validate_axioms(make_zx_mod(4, [2]))
    names = [c.name for c in report.axioms]
    assert names == [
        "zero_identity",
        "add_commutative",
        "add_associative",
        "add_inverse",
        "mul_commutative",
        "mul_associative",
        "left_distributive_inclusion",
        "right_distributive_inclusion",
        "sign_rule",
    ]
    assert report.ok and report.failed() == []


ORACLE_AXIOM_NAMES = {
    "zero_identity": "add_identity",
    "add_commutative": "add_commutative",
    "add_associative": "add_associative",
    "add_inverse": "add_inverses",
    "mul_commutative": "mul_commutative",
    "mul_associative": "mul_associative",
    "left_distributive_inclusion": "distributive_inclusion",
    "right_distributive_inclusion": "distributive_inclusion",
    "sign_rule": "sign_rule",
}


def test_axiom_report_matches_oracle_on_small_rings():
    for ring in [make_zx_mod(m, xs) for m, xs in [(4, [2]), (4, [1, 3]), (5, [2]), (6, [2, 3])]]:
        n, add, mul = orc.tables(ring)
        oracle = orc.axiom_report(n, add, mul)
        report = validate_axioms(ring)
        assert report.ok == all(oracle.values())
        for check in report.axioms:
            assert check.ok == oracle[ORACLE_AXIOM_NAMES[check.name]], check.name


def test_altered_cell_breaks_axioms_with_witness():
    """Overwriting 1*1 to {1} in the 2ab-mod-4 tables must be caught."""
    r = make_zx_mod(4, [2])
    mul = [list(row) for row in r.mul]
    mul[1][1] = mask_of([1])
    broken = FiniteHyperring.from_masks([list(row) for row in r.add], mul)
    report = validate_axioms(broken)
    assert not report.ok
    assert set(report.failed()) & {"mul_associative", "distributive_inclusion", "mul_commutative", "sign_rule"}
    witness = report[report.failed()[0]].witness
    assert witness is not None and all(0 <= x < 4 for x in witness)


def _edited_zx4(add_cells=(), mul_cells=()):
    """zx(4;1) with the given addition cells and product cells overwritten."""
    base = make_zx_mod(4, [1])
    add = [list(row) for row in base.add]
    mul = [list(row) for row in base.mul]
    for (a, b), value in add_cells:
        add[a][b] = value
    for (a, b), xs in mul_cells:
        mul[a][b] = mask_of(xs)
    return FiniteHyperring.from_masks(add, mul)


@pytest.mark.parametrize(
    "law, edits, witness",
    [
        ("zero_identity", dict(add_cells=[((0, 1), 0)]), None),
        ("add_commutative", dict(add_cells=[((1, 2), 0)]), (1, 2)),
        ("add_associative", dict(add_cells=[((1, 2), 0), ((2, 1), 0)]), (1, 1, 2)),
        ("add_inverse", dict(add_cells=[((3, 1), 2)]), (3,)),
        ("mul_commutative", dict(mul_cells=[((1, 2), [0])]), (1, 2)),
        ("mul_associative", dict(mul_cells=[((2, 3), [0]), ((3, 2), [0])]), (2, 3, 3)),
        ("left_distributive_inclusion", dict(mul_cells=[((1, 1), [1, 3])]), (1, 2, 3)),
        ("right_distributive_inclusion", dict(mul_cells=[((2, 1), [0])]), (1, 1, 1)),
        ("sign_rule", dict(mul_cells=[((1, 3), [1]), ((3, 1), [1])]), (1, 1)),
    ],
)
def test_each_law_reports_its_first_witness(law, edits, witness):
    """The witness is the lexicographically first violating tuple."""
    check = validate_axioms(_edited_zx4(**edits))[law]
    assert not check.ok
    assert check.witness == witness


def test_from_masks_rejects_empty_cells_and_bad_shapes():
    with pytest.raises(MalformedTables):
        FiniteHyperring.from_masks([[0, 1], [1, 0]], [[1, 1], [1, 0]])
    with pytest.raises(MalformedTables):
        FiniteHyperring.from_masks([[0], [0]], [[1], [1]])
    for entry in (True, 2.0):
        with pytest.raises(MalformedTables) as refused:
            FiniteHyperring.from_masks([[0, 1], [1, entry]], [[1, 1], [1, 2]])
        assert str(refused.value) == "add[1][1]: expected an element index, got %r" % entry


def test_power_sequences_frozen():
    r1 = make_zx_mod(4, [2])
    assert members(r1.power(1, 1)) == [1]
    assert members(r1.power(1, 2)) == [2]
    assert members(r1.power(1, 3)) == [0]
    assert members(r1.power(1, 7)) == [0]
    r2 = make_zx_mod(4, [1, 3])
    assert members(r2.power(3, 1)) == [3]
    assert members(r2.power(3, 2)) == [1, 3]
    assert members(r2.power(3, 9)) == [1, 3]


def test_power_profile_tail_and_period():
    prof = make_zx_mod(4, [2]).power_profile(1)
    assert prof.tail == 3 and prof.period == 1
    prof = make_zx_mod(4, [1, 3]).power_profile(3)
    assert prof.tail == 2 and prof.period == 1
    with pytest.raises(ValueError):
        prof.power(0)


def test_powers_match_oracle_far_past_the_bound():
    for ring in [make_zx_mod(6, [2, 3]), make_zx_mod(8, [2]), make_zx_mod(7, [3])]:
        n, add, mul = orc.tables(ring)
        for a in range(n):
            for k in range(1, 2 * ring.power_bound() + 3):
                assert frozenset(members(ring.power(a, k))) == orc.power(mul, a, k)


def test_product_ring_componentwise():
    r = product_ring(make_zx_mod(4, [2]), make_zx_mod(4, [1, 3]))
    assert r.order == 16
    a = orc.pair_index(4, 1, 1)
    cell = r.mul[a][a]
    expect = {orc.pair_index(4, 2, 1), orc.pair_index(4, 2, 3)}
    assert set(members(cell)) == expect
    assert validate_axioms(r).ok
    assert orc.pair_split(4, a) == (1, 1)


def test_factor_mask_projections():
    mask = mask_of([orc.pair_index(3, 0, 1), orc.pair_index(3, 2, 1), orc.pair_index(3, 2, 2)])
    assert members(factor_mask(mask, 3, 0)) == [0, 2]
    assert members(factor_mask(mask, 3, 1)) == [1, 2]


def test_identity_flavors():
    strong = make_zx_mod(4, [1])
    assert scalar_identity(strong) == 1
    assert canonical_identity(strong) == 1
    loose = make_zx_mod(4, [1, 3])
    assert scalar_identity(loose) is None
    assert weak_identities(loose) == [1, 3]
    assert canonical_identity(loose) == 1
    assert scalar_identity(make_zx_mod(4, [2])) is None


@pytest.fixture
def memo_builds(monkeypatch):
    """Keys whose build ran, in order, through every ring's memo."""
    builds = []
    memo = FiniteHyperring.memo

    def counted(self, key, build):
        def counted_build():
            builds.append(key)
            return build()

        return memo(self, key, counted_build)

    monkeypatch.setattr(FiniteHyperring, "memo", counted)
    return builds


def test_memo_builds_once_per_key():
    ring = make_zx_mod(4, [1])
    calls = []

    def build():
        calls.append(len(calls))
        return [len(calls)]

    first = ring.memo(("probe", 1), build)
    assert ring.memo(("probe", 1), build) is first
    assert ring.memo(("probe", 2), build) == [2]
    assert calls == [0, 1]


def test_memo_caches_none(memo_builds):
    ring = make_zx_mod(4, [2])
    assert scalar_identity(ring) is None
    assert scalar_identity(ring) is None
    assert memo_builds.count("scalar_id") == 1


def test_memo_stores_nothing_when_the_build_raises(memo_builds):
    # 1 + 1 = 1: zero is 0, but 1 has no additive inverse.
    ring = FiniteHyperring([[0, 1], [1, 1]], [[[0], [0]], [[0], [1]]])
    for _ in range(2):
        with pytest.raises(AxiomFailure):
            ring.neg_table()
    assert memo_builds.count("neg") == 2
    assert "neg" not in ring._cache


def test_star_import_binds_every_exported_name():
    assert len(set(hyperring_lab.__all__)) == len(hyperring_lab.__all__)
    namespace: dict = {}
    exec("from hyperring_lab import *", namespace)
    assert [n for n in hyperring_lab.__all__ if n not in namespace] == []


def test_only_core_touches_the_memo_dict():
    package = Path(hyperring_lab.__file__).parent
    touching = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"\b_cache\b", path.read_text())
    )
    assert touching == ["core.py"]


def test_strong_distributivity_flag():
    assert is_strongly_distributive(make_zx_mod(4, [2]))
    assert not is_strongly_distributive(make_zx_mod(4, [1, 3]))


def _seeded_tables(rng, n):
    """A random table pair whose addition or product is not symmetric.

    The additions are a random table or one of the two projections, on
    which A + B and B + A differ while every product table is strongly
    distributive; the products are random cells or random symmetric cells.
    The third kind pairs the addition of Z/n with the cells {b*k_a mod n}
    for random k, whose left law holds and whose right law need not."""
    kind = rng.randrange(3)
    if kind == 0:
        add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    elif kind == 1:
        add = [[b for c in range(n)] for b in range(n)]
    else:
        add = [[c for c in range(n)] for b in range(n)]
    style = rng.randrange(3)
    if style == 0:
        mul = [[rng.sample(range(n), rng.randrange(1, n + 1)) for _ in range(n)]
               for _ in range(n)]
    elif style == 1:
        mul = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                mul[a][b] = mul[b][a] = rng.sample(range(n), rng.randrange(1, n + 1))
    else:
        add = [[(b + c) % n for c in range(n)] for b in range(n)]
        ks = [rng.randrange(n) for _ in range(n)]
        mul = [[[b * ks[a] % n] for b in range(n)] for a in range(n)]
    return FiniteHyperring(add, mul, name="seeded")


def test_strong_distributivity_matches_brute_force():
    """Against the cell-by-cell definition on the default rings of order <= 8
    and on seeded tables with an asymmetric addition or product, where a
    Minkowski sum memoized by the unordered pair, or a skipped right-hand
    law, gives the wrong verdict."""
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 8]
    rng = random.Random(10)
    rings += [_seeded_tables(rng, rng.randrange(2, 6)) for _ in range(300)]
    verdicts = set()
    for ring in rings:
        n, add, mul = orc.tables(ring)
        expect = orc.strongly_distributive(n, add, mul)
        assert is_strongly_distributive(ring) == expect, (ring.name, ring.add, ring.mul)
        verdicts.add((expect, ring.name == "seeded"))
    assert verdicts == {(True, False), (False, False), (True, True), (False, True)}


def _corrupted(rng, ring):
    """The ring's tables with one or two cells overwritten.

    An addition cell, a product cell without its mirror, a mirrored pair of
    product cells, or one addition cell and one product cell: the first
    leaves the addition non-commutative and the second the product table
    asymmetric, so the right distributive scan runs on its own."""
    n = ring.order
    add = [list(row) for row in ring.add]
    mul = [list(row) for row in ring.mul]
    kind = rng.randrange(4)
    if kind in (0, 3):
        add[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    if kind in (1, 3):
        mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(1, 1 << n)
    if kind == 2:
        a, b = rng.randrange(n), rng.randrange(n)
        mul[a][b] = mul[b][a] = rng.randrange(1, 1 << n)
    return FiniteHyperring.from_masks(add, mul, name="corrupted")


def test_validator_matches_the_loop_oracle():
    """`validate_axioms` gives the loop form's report, witnesses included,
    and `is_strongly_distributive` the cell-by-cell verdict, on every default
    ring and on 1,500 seeded corruptions of the default rings of order <= 6."""
    rings = generate_instances(SuiteConfig())
    rng = random.Random(16)
    small = [r for r in rings if r.order <= 6]
    rings += [_corrupted(rng, rng.choice(small)) for _ in range(1500)]
    failing, split = set(), 0
    for ring in rings:
        report = validate_axioms(ring)
        assert report == orc.validate_axioms_loops(ring), (ring.name, ring.add, ring.mul)
        n, add, mul = orc.tables(ring)
        assert is_strongly_distributive(ring) == orc.strongly_distributive(n, add, mul), (
            ring.name, ring.add, ring.mul)
        failing.update(report.failed())
        split += (report["left_distributive_inclusion"].witness
                  != report["right_distributive_inclusion"].witness)
    # Every law fails somewhere, and the right-law scan, run only on an
    # asymmetric product table, finds witnesses of its own.
    assert failing == {c.name for c in report.axioms}
    assert split > 100


def test_good_hom_identity_and_swap():
    r = make_zx_mod(4, [2])
    ok, witness = check_good_hom(identity_hom(r))
    assert ok and witness is None
    swap = HomMap(r, r, (0, 3, 2, 1))
    ok, witness = check_good_hom(swap)
    assert ok


def test_bad_hom_reports_witness():
    r = make_zx_mod(4, [2])
    collapse = HomMap(r, r, (0, 0, 2, 0))
    ok, witness = check_good_hom(collapse)
    assert not ok and witness is not None


def test_hom_masks():
    r = make_zx_mod(4, [2])
    f = HomMap(r, r, (0, 3, 2, 1))
    assert members(f.image_mask(mask_of([1, 2]))) == [2, 3]
    assert members(f.preimage_mask(mask_of([3]))) == [1]
    assert members(f.kernel_mask()) == [0]
    assert f.is_surjective()


def test_product_ring_cells_follow_the_pair_encoding():
    """Every sum and product cell of the default product rings against the
    oracle's pair encoding, one member pair at a time."""
    factors = [
        r for r in generate_instances(SuiteConfig())
        if r.meta.get("family") == "zx_mod" and r.order <= 6
    ]
    pairs = [
        (r1, r2) for r1, r2 in combinations_with_replacement(factors, 2)
        if r1.order * r2.order <= 16
    ]
    assert len(pairs) == 110
    for r1, r2 in pairs:
        ring = product_ring(r1, r2)
        n1, add1, mul1 = orc.tables(r1)
        n2, add2, mul2 = orc.tables(r2)
        for x1 in range(n1):
            for x2 in range(n2):
                a = orc.pair_index(n2, x1, x2)
                for y1 in range(n1):
                    for y2 in range(n2):
                        b = orc.pair_index(n2, y1, y2)
                        where = (ring.name, x1, x2, y1, y2)
                        assert ring.add[a][b] == orc.pair_index(
                            n2, add1[x1][y1], add2[x2][y2]
                        ), where
                        cell = {
                            orc.pair_index(n2, c1, c2)
                            for c1 in mul1[x1][y1]
                            for c2 in mul2[x2][y2]
                        }
                        assert set(members(ring.mul[a][b])) == cell, where
