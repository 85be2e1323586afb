"""Behavior of individual registry checks on hand-picked instances."""

import hashlib

import pytest

from hyperring_lab import (
    SuiteConfig,
    checks,
    generate_instances,
    is_C_hyperideal,
    make_zx_mod,
    mask_of,
    members,
    product_ring,
    proper_hyperideals,
    units,
    weak_zero_divisors,
)
from hyperring_lab.checks import (
    CHECKS,
    CheckParams,
    _box_mask,
    _check,
    _hom_pool,
    get_check,
)
from hyperring_lab.closedness import omega_unchecked
from hyperring_lab.core import check_good_hom

import oracles as orc

PARAMS = CheckParams()


def run(check_id, ring, params=PARAMS):
    return get_check(check_id).fn(ring, params)


def test_every_check_accepts_a_small_instance():
    ring = make_zx_mod(4, [1])
    for check in CHECKS:
        out = check.fn(ring, PARAMS)
        assert out.counterexample is None, check.id
        assert out.applicable >= 0


def test_section_two_checks_have_cases_on_small_instances():
    ring = make_zx_mod(4, [1])
    expected_nonzero = ["T2_3", "T2_4", "T2_5i", "T2_5ii", "C2_6", "T2_8", "T2_9",
                        "R2_rad", "T2_10", "L2_11", "T2_12i", "T2_12ii", "R2_omega",
                        "T2_13", "T2_14", "T2_15", "T2_16", "T2_17", "C2_18"]
    for cid in expected_nonzero:
        assert run(cid, ring).applicable > 0, cid


def test_product_gated_checks_need_factor_metadata():
    plain = make_zx_mod(4, [1])
    for cid in ("T3_14", "L3_15", "T3_16"):
        assert run(cid, plain).applicable == 0
    prod = product_ring(make_zx_mod(2, [1]), make_zx_mod(4, [1]))
    assert run("T3_14", prod).applicable == 108
    assert run("L3_15", prod).applicable == 6
    assert run("T3_16", prod).applicable == 180
    for cid in ("T3_14", "L3_15", "T3_16"):
        assert run(cid, prod).counterexample is None


def test_product_factors_survive_a_cleared_memo():
    """The factor pair is a field of the product ring, not a memo entry, so
    the product checks still apply after the ring's memo is dropped."""
    prod = product_ring(make_zx_mod(2, [1]), make_zx_mod(4, [1]))
    prod.drop_memo()
    counts = [run(cid, prod).applicable for cid in ("T3_14", "L3_15", "T3_16")]
    assert counts == [108, 6, 180]


def test_closed_pair_rows_are_keyed_by_set_and_kind_only():
    """After every check runs on the default rings of order <= 6 and on the
    targets of their hom pools, each closed-pair cache entry of the
    instance, of its factors and of those targets is keyed ("pairs", set,
    kind): one table per set and kind, whatever exponent windows the
    checks asked for."""
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 6]
    assert len(rings) == 39
    keys = []
    for ring in rings:
        # The identity hom's target is the ring itself.
        targets = {id(f.target): f.target for f in _hom_pool(ring)}
        for r in targets.values():
            for check in CHECKS:
                check.fn(r, PARAMS)
        for r in [*targets.values(), *(ring.factors or ())]:
            keys += [k for k in r._cache if type(k) is tuple and k[0] == "pairs"]
    assert keys
    for key in keys:
        assert len(key) == 3, key
        assert type(key[1]) is int and key[2] in ("closed", "weak", "tough"), key


def _unreachable(*args):
    raise AssertionError("called on a ring its hypotheses rule out")


def test_identity_gated_product_checks_skip_identityless_factors():
    prod = product_ring(make_zx_mod(2, [1]), make_zx_mod(4, [2]))
    assert run("T3_14", prod).applicable == 0
    assert run("T3_16", prod).applicable == 0
    assert run("L3_15", prod).applicable > 0
    # Under T3_14's hypotheses a generator is never called on this product,
    # nor on a plain ring, where the factor test after the product test
    # is never reached either.
    requires = get_check("T3_14").fn.args[1].args[1]
    gated = _check("GATED", "Never runs on these rings.", _unreachable, requires=requires)
    for ring in (prod, make_zx_mod(4, [1])):
        out = gated.fn(ring, PARAMS)
        assert (out.applicable, out.notes, out.counterexample) == (0, [], None)
    short = _check("SHORT", "Stops at its first hypothesis.", _unreachable,
                   requires=(checks._is_product, _unreachable))
    assert short.fn(make_zx_mod(4, [1]), PARAMS).applicable == 0


def test_each_hands_over_the_admitted_proper_ideals_in_order():
    ring = product_ring(make_zx_mod(2, [1]), make_zx_mod(6, [1, 3]))
    seen = []

    def record(ring, q, params):
        seen.append(q)
        yield "ideal %s" % members(q)
        return 2

    out = _check("EACH", "Records each ideal.", record, each=is_C_hyperideal).fn(ring, PARAMS)
    assert [members(q) for q in seen] == [[0, 2, 4], [0, 1, 2, 3, 4, 5], [0, 2, 4, 6, 8, 10]]
    assert seen == [q for q in proper_hyperideals(ring) if is_C_hyperideal(ring, q)]
    assert len(proper_hyperideals(ring)) == 7
    assert out.applicable == 6
    assert out.notes == ["ideal %s" % members(q) for q in seen]


def test_element_pool_for_regularity_split_is_empty_at_finite_order():
    """Units and weak zero divisors jointly cover every sampled carrier."""
    for ring in [make_zx_mod(m, xs) for m, xs in [(5, [1]), (6, [1]), (9, [3]), (7, [2]), (10, [1, 3])]]:
        um = units(ring) or 0
        assert ring.full & ~(um | weak_zero_divisors(ring)) == 0, ring.name
        assert run("T3_9", ring).applicable == 0


def test_hom_pool_layout_and_goodness():
    ring = make_zx_mod(4, [1])
    pool = _hom_pool(ring)
    assert [f.target.name for f in pool] == ["zx(4;1)", "zx(4;1)/0", "zx(4;1)/02", "zx(4;1)xzx(2;1)"]
    for f in pool:
        ok, witness = check_good_hom(f)
        assert ok, witness
    # Only the quotient rings are memoized on the ring; the pool itself and
    # its order-2n product target are built afresh on every call.
    again = _hom_pool(ring)
    assert again[-1].target is not pool[-1].target
    assert all(f.target is g.target for f, g in zip(again[:-1], pool[:-1]))


def test_box_mask_encoding():
    mask = _box_mask(mask_of([0, 1]), mask_of([2]), 4)
    assert members(mask) == [2, 6]
    assert _box_mask(mask_of([0]), mask_of([0, 1, 2, 3]), 4) == mask_of([0, 1, 2, 3])


def test_transfer_check_reports_skips_but_still_counts():
    out = run("T2_9", make_zx_mod(3, [1, 2]))
    assert out.applicable == 0
    assert any("whole class ring" in note for note in out.notes)


def test_step_down_check_only_fires_off_diagonal():
    out = run("T2_10", make_zx_mod(8, [2]))
    assert out.applicable > 0
    assert out.counterexample is None


def test_weakly_basics_counts_three_clause_families():
    single_ideal_ring = make_zx_mod(5, [1])
    out = run("D3_w", single_ideal_ring)
    assert out.applicable == 72
    assert out.counterexample is None


def _drain(gen):
    """Every item a case generator yields, and the count it returns."""
    items = []
    while True:
        try:
            items.append(next(gen))
        except StopIteration as stop:
            return items, stop.value


@pytest.mark.parametrize("params", [PARAMS, CheckParams(smax=7, nmax=4, tuple_max=2)])
@pytest.mark.parametrize("part", ["product", "intersection"])
def test_closed_combinations_match_the_per_pair_reference(part, params, monkeypatch):
    """T2_5i/ii test one pair mask per aggregate; with omega lowered so that
    failures occur, every yield and the count equal the per-(s,n) loop's on
    the default rings of order <= 6, in the default window and a non-square
    one."""
    def lowered(ring, q, s):
        return max(1, omega_unchecked(ring, q, s) - 1)

    monkeypatch.setattr(checks, "omega_unchecked", lowered)
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 6]
    assert len(rings) == 39
    failures = 0
    for ring in rings:
        got = _drain(checks._closed_combinations(ring, params, part))
        expect = _drain(orc.closed_combinations(ring, params, part, lowered))
        assert got == expect, ring.name
        failures += len(got[0])
    assert failures > 0


def _case_stream_digest():
    """sha256 over every yield and returned count of every check on every
    default instance, drained in registry order per instance."""
    digest = hashlib.sha256()
    cfg = SuiteConfig()
    params = cfg.params()
    for ring in generate_instances(cfg):
        for check in CHECKS:
            # Each registry fn is partial(_collect, id, gen); drain gen itself.
            failures = check.fn.args[1](ring, params)
            digest.update(repr((ring.name, check.id)).encode())
            while True:
                try:
                    case = next(failures)
                except StopIteration as stop:
                    digest.update(repr(("count", stop.value)).encode())
                    break
                digest.update(repr(case).encode())
    return digest.hexdigest()


def test_full_failing_case_stream_is_pinned():
    """Every failing case, with its witness, and every note and case count of
    the default sweep, not only the first counterexample and 12 notes per
    check that the report keeps: a kernel change that moves any later
    witness or count changes the digest."""
    assert _case_stream_digest() == (
        "23953a790a6f497799bc6b4841f33cc7014a43053d2fb384c4dd835e0bba0335"
    )
