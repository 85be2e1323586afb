"""Co-occurrence classes, the induced quotient ring, and ideal transfer."""

import pytest

from hyperring_lab import (
    FiniteHyperring,
    NotAHyperideal,
    ProperIdealRequired,
    SuiteConfig,
    enumerate_hyperideals,
    fundamental_ring,
    gamma_star_classes,
    generate_instances,
    ideal_in_fundamental,
    make_zx_mod,
    mask_of,
    members,
    product_ring,
    proper_hyperideals,
    validate_axioms,
)
from hyperring_lab.bitsets import least
from hyperring_lab.closedness import closed_rows

import oracles as orc


def test_gamma_star_classes_frozen():
    r = make_zx_mod(4, [1, 3])
    assert [members(c) for c in gamma_star_classes(r)] == [[0, 2], [1, 3]]
    r2 = make_zx_mod(4, [1])
    assert [members(c) for c in gamma_star_classes(r2)] == [[0], [1], [2], [3]]


def test_gamma_star_matches_transitive_closure_oracle():
    for ring in [make_zx_mod(4, [1, 3]), make_zx_mod(4, [2]), make_zx_mod(6, [2, 3]),
                 make_zx_mod(5, [2]), product_ring(make_zx_mod(2, [1]), make_zx_mod(3, [2]))]:
        n, add, mul = orc.tables(ring)
        engine = sorted(frozenset(members(c)) for c in gamma_star_classes(ring))
        assert engine == orc.gamma_star_partition(n, add, mul), ring.name


def class_members(quot, proj):
    """Members of each class, in the quotient's element order."""
    return [members(proj.preimage_mask(1 << i)) for i in quot.elements]


def class_products(quot):
    """The quotient's product table with each singleton cell read as its class."""
    return [[least(cell) for cell in row] for row in quot.mul]


def test_fundamental_ring_frozen_tables():
    quot, proj = fundamental_ring(make_zx_mod(4, [1, 3]))
    assert class_members(quot, proj) == [[0, 2], [1, 3]]
    assert quot.add == [[0, 1], [1, 0]]
    mul = class_products(quot)
    assert mul == [[0, 0], [0, 1]]
    assert quot.order == 2 and quot.zero == 0
    assert proj.table == (0, 1, 0, 1)
    assert orc.ring_power(mul, 1, 5) == 1 and orc.ring_power(mul, 0, 2) == 0


def test_fundamental_ring_collapses_singleton_classes():
    r = make_zx_mod(5, [2])
    quot, _ = fundamental_ring(r)
    assert quot.order == 5
    for a in range(5):
        for b in range(5):
            assert quot.add[a][b] == r.add[a][b]
            assert quot.mul[a][b] == r.mul[a][b]


def test_fundamental_ring_axioms_hold_across_families():
    for ring in [make_zx_mod(6, [2, 3]), make_zx_mod(8, [2]), make_zx_mod(9, [3]),
                 product_ring(make_zx_mod(2, [1]), make_zx_mod(4, [2]))]:
        quot, _ = fundamental_ring(ring)
        assert quot.order >= 1
        assert quot.add[quot.zero] == list(quot.elements)


def test_transfer_detects_one_direction_gap():
    """The zero ideal collapses to the zero ring-ideal, which is closed at (2,1)."""
    r = make_zx_mod(4, [1, 3])
    tr = ideal_in_fundamental(r, mask_of([0]), 3, 3)
    assert not tr.skipped
    assert members(tr.image) == [0]
    assert tr.image_is_ideal and tr.image_proper
    assert tr.first_mismatch == (2, 1)
    assert not tr.equivalent
    recorded = {(s, n): (h, g) for s, n, h, g in tr.pairs}
    assert recorded[(2, 1)] == (False, True)
    assert recorded[(1, 1)] == (True, True)
    assert recorded[(3, 3)] == (True, True)


def test_transfer_agrees_on_strongly_distributive_rings():
    for ring in [make_zx_mod(4, [2]), make_zx_mod(8, [2]), make_zx_mod(6, [3])]:
        for q in proper_hyperideals(ring):
            tr = ideal_in_fundamental(ring, q, 5, 5)
            if tr.skipped:
                continue
            assert tr.equivalent, (ring.name, members(q), tr.first_mismatch)


def test_transfer_skips_whole_ring_image():
    """Ideals meeting every class map onto the full class ring and are skipped."""
    r = make_zx_mod(3, [1, 2])
    tr = ideal_in_fundamental(r, mask_of([0]), 3, 3)
    assert tr.skipped and "whole class ring" in tr.note
    assert tr.pairs == ()


def test_transfer_validates_input():
    r = make_zx_mod(4, [1, 3])
    with pytest.raises(NotAHyperideal):
        ideal_in_fundamental(r, mask_of([1]), 3, 3)
    with pytest.raises(ProperIdealRequired):
        ideal_in_fundamental(r, r.full, 3, 3)


def test_transfer_refuses_a_window_below_one():
    """An empty window would record no pairs and read as equivalent, though
    the (3,3) window finds the mismatch at (2,1)."""
    r = make_zx_mod(4, [1, 3])
    assert ideal_in_fundamental(r, mask_of([0]), 3, 3).first_mismatch == (2, 1)
    for smax, nmax in ((0, 6), (6, 0)):
        with pytest.raises(ValueError, match="below 1"):
            ideal_in_fundamental(r, mask_of([0]), smax, nmax)


def test_ring_ideal_closed_basics():
    mul = class_products(fundamental_ring(make_zx_mod(4, [1, 3]))[0])
    assert orc.ring_ideal_closed(mul, {0}, 2, 1)
    with pytest.raises(ProperIdealRequired):
        orc.ring_ideal_closed(mul, {0, 1}, 2, 1)


def small_default_rings():
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 8]
    assert len(rings) == 94
    return rings


def test_class_ring_tables_match_partition_oracle():
    for ring in small_default_rings():
        classes, cadd, cmul = orc.class_ring_tables(*orc.tables(ring))
        quot, proj = fundamental_ring(ring)
        assert list(map(frozenset, class_members(quot, proj))) == classes, ring.name
        assert quot.add == cadd, ring.name
        assert class_products(quot) == cmul, ring.name


def test_class_ring_is_a_hyperring_the_library_accepts():
    """The class ring is an ordinary FiniteHyperring: it passes
    validate_axioms, its lattice is the oracle's ideal list of the class
    tables, and its closed-pair rows agree with the ordinary-ring oracle."""
    for ring in small_default_rings():
        quot, proj = fundamental_ring(ring)
        assert isinstance(quot, FiniteHyperring) and proj.target is quot
        assert validate_axioms(quot).ok, ring.name
        classes, cadd, cmul = orc.class_ring_tables(*orc.tables(ring))
        k = len(classes)
        cmul_sets = [[frozenset([c]) for c in row] for row in cmul]
        lattice = enumerate_hyperideals(quot)
        assert set(map(frozenset, map(members, lattice))) == set(
            orc.all_ideals(k, cadd, cmul_sets)
        ), ring.name
        for j in lattice:
            if j == quot.full:
                continue
            rows = closed_rows(quot, j, 4)
            J = frozenset(members(j))
            for s in range(1, 5):
                for n in range(1, 5):
                    assert bool(rows[s] >> n & 1) == orc.ring_ideal_closed(
                        cmul, J, s, n
                    ), (ring.name, sorted(J), s, n)


def test_transfer_verdicts_match_class_ring_oracle():
    """Image, its ideal test, every verdict of both sides and the first
    mismatch, against frozenset references on the oracle's class ring.  The
    non-square window (4, 7) runs first, on fresh rings, so rows read only
    up to smax would miss the n above it."""
    for ring in small_default_rings():
        n, add, mul = orc.tables(ring)
        classes, cadd, cmul = orc.class_ring_tables(n, add, mul)
        k = len(classes)
        cmul_sets = [[frozenset([c]) for c in row] for row in cmul]
        for q in proper_hyperideals(ring):
            Q = frozenset(members(q))
            image = frozenset(i for i, c in enumerate(classes) if c & Q)
            is_ideal = orc.is_ideal(k, cadd, cmul_sets, image)
            where = (ring.name, sorted(Q))
            for smax, nmax in ((4, 7), (6, 6)):
                tr = ideal_in_fundamental(ring, q, smax, nmax)
                assert frozenset(members(tr.image)) == image, where
                assert tr.image_is_ideal == is_ideal, where
                assert tr.skipped == (len(image) == k or not is_ideal), where
                if tr.skipped:
                    continue
                expected = [
                    (s, e, orc.sn_closed(n, add, mul, Q, s, e),
                     orc.ring_ideal_closed(cmul, image, s, e))
                    for s in range(1, smax + 1)
                    for e in range(1, nmax + 1)
                ]
                assert list(tr.pairs) == expected, where + (smax, nmax)
                mismatch = [(s, e) for s, e, hyper, ringside in expected if hyper != ringside]
                assert tr.first_mismatch == (mismatch[0] if mismatch else None), where
