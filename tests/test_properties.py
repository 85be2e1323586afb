"""Property-based invariants over randomly drawn instances."""

import json

from hypothesis import given, settings, strategies as st

from hyperring_lab import (
    big_omega,
    canonical_identity,
    enumerate_hyperideals,
    is_hyperideal,
    is_sn_closed,
    is_strongly_distributive,
    make_zx_mod,
    members,
    omega,
    proper_hyperideals,
    validate_axioms,
)
from hyperring_lab.jsonio import canonical_json


@st.composite
def zx_rings(draw, max_modulus=9, max_multipliers=3):
    m = draw(st.integers(2, max_modulus))
    xs = draw(st.sets(st.integers(1, m - 1), min_size=1, max_size=max_multipliers))
    return make_zx_mod(m, sorted(xs))


@st.composite
def rings_with_ideal(draw):
    ring = draw(zx_rings())
    masks = proper_hyperideals(ring)
    return ring, masks[draw(st.integers(0, len(masks) - 1))]


@settings(max_examples=60, deadline=None)
@given(zx_rings())
def test_construction_always_satisfies_axioms(ring):
    assert validate_axioms(ring).ok


@settings(max_examples=60, deadline=None)
@given(zx_rings(max_multipliers=1))
def test_single_multiplier_rings_are_strongly_distributive(ring):
    assert is_strongly_distributive(ring)


def test_two_multiplier_ring_can_fail_strong_distributivity():
    assert not is_strongly_distributive(make_zx_mod(4, [1, 3]))


@settings(max_examples=50, deadline=None)
@given(zx_rings(), st.integers(0, 8), st.integers(1, 30))
def test_power_periodic_extension(ring, a_pick, k):
    a = a_pick % ring.order
    prof = ring.power_profile(a)
    direct = 1 << a
    for _ in range(k - 1):
        direct = ring.row_product(direct, a)
    assert ring.power(a, k) == direct
    if k >= prof.tail:
        assert ring.power(a, k) == ring.power(a, prof.tail + (k - prof.tail) % prof.period)


@settings(max_examples=50, deadline=None)
@given(zx_rings(), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6))
def test_power_addition_law(ring, a_pick, j, k):
    a = a_pick % ring.order
    assert ring.hyper_product(ring.power(a, j), ring.power(a, k)) == ring.power(a, j + k)


@settings(max_examples=50, deadline=None)
@given(rings_with_ideal(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_closed_pairs_are_monotone(pair, s, n, ds, dn):
    """A closed pair stays closed with smaller s or larger n."""
    ring, q = pair
    if is_sn_closed(ring, q, s, n):
        assert is_sn_closed(ring, q, max(1, s - ds), n + dn)


@settings(max_examples=50, deadline=None)
@given(rings_with_ideal(), st.integers(1, 6), st.integers(1, 6))
def test_omega_Omega_and_closedness_agree(pair, s, n):
    ring, q = pair
    closed = is_sn_closed(ring, q, s, n)
    assert closed == (n >= omega(ring, q, s))
    assert closed == (s <= big_omega(ring, q, n))


@settings(max_examples=40, deadline=None)
@given(zx_rings())
def test_ideal_sums_and_intersections_stay_ideals(ring):
    masks = enumerate_hyperideals(ring)
    for a in masks:
        for b in masks:
            assert is_hyperideal(ring, ring.minkowski_sum(a, b))
            assert is_hyperideal(ring, a & b)


@settings(max_examples=40, deadline=None)
@given(zx_rings())
def test_canonical_identity_is_least_weak_identity(ring):
    e = canonical_identity(ring)
    if e is not None:
        assert all(a in members(ring.mul[a][e]) for a in range(ring.order))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.text("ab", min_size=1, max_size=4),
                       st.integers(-5, 5) | st.floats(allow_nan=False), max_size=5))
def test_canonical_json_is_key_order_invariant(doc):
    shuffled = dict(reversed(list(doc.items())))
    assert canonical_json(doc) == canonical_json(shuffled)
    json.loads(canonical_json(doc))
