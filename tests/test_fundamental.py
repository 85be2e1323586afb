"""Co-occurrence classes, the induced quotient ring, and ideal transfer."""

import pytest

from hyperring_lab import (
    NotAHyperideal,
    ProperIdealRequired,
    SuiteConfig,
    fundamental_ring,
    gamma_star_classes,
    generate_instances,
    ideal_in_fundamental,
    make_zx_mod,
    mask_of,
    members,
    product_ring,
    proper_hyperideals,
)

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


def test_fundamental_ring_frozen_tables():
    fr = fundamental_ring(make_zx_mod(4, [1, 3]))
    assert [members(c) for c in fr.classes] == [[0, 2], [1, 3]]
    assert fr.add == ((0, 1), (1, 0))
    assert fr.mul == ((0, 0), (0, 1))
    assert fr.order == 2 and fr.zero == 0
    assert fr.class_of == (0, 1, 0, 1)
    assert orc.ring_power(fr.mul, 1, 5) == 1 and orc.ring_power(fr.mul, 0, 2) == 0


def test_fundamental_ring_collapses_singleton_classes():
    r = make_zx_mod(5, [2])
    fr = fundamental_ring(r)
    assert fr.order == 5
    for a in range(5):
        for b in range(5):
            assert fr.add[a][b] == r.add[a][b]
            assert mask_of([fr.mul[a][b]]) == r.mul[a][b]


def test_fundamental_ring_axioms_hold_across_families():
    for ring in [make_zx_mod(6, [2, 3]), make_zx_mod(8, [2]), make_zx_mod(9, [3]),
                 product_ring(make_zx_mod(2, [1]), make_zx_mod(4, [2]))]:
        fr = fundamental_ring(ring)
        assert fr.order >= 1
        assert fr.add[fr.zero] == tuple(range(fr.order))


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


def test_ring_ideal_closed_basics():
    fr = fundamental_ring(make_zx_mod(4, [1, 3]))
    assert orc.ring_ideal_closed(fr.mul, {0}, 2, 1)
    with pytest.raises(ProperIdealRequired):
        orc.ring_ideal_closed(fr.mul, {0, 1}, 2, 1)


def small_default_rings():
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 8]
    assert len(rings) == 94
    return rings


def test_class_ring_tables_match_partition_oracle():
    for ring in small_default_rings():
        classes, cadd, cmul = orc.class_ring_tables(*orc.tables(ring))
        fr = fundamental_ring(ring)
        assert [frozenset(members(c)) for c in fr.classes] == classes, ring.name
        assert fr.add == tuple(map(tuple, cadd)), ring.name
        assert fr.mul == tuple(map(tuple, cmul)), ring.name


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
