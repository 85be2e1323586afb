"""Check registry, suite driver, instance generation, and counterexample reporting."""

import pytest

from hyperring_lab import (
    CHECKS,
    CheckParams,
    UnknownCheckId,
    get_check,
    make_zx_mod,
    product_ring,
)
from hyperring_lab.catalog import result_hash
from hyperring_lab.checks import Counterexample, _any_ideal, _check
from hyperring_lab.harness import (
    SuiteConfig,
    _run_instance,
    counterexample_to_dict,
    generate_instances,
    run_suite,
)
from hyperring_lab.jsonio import canonical_json

ALL_IDS = [
    "T2_3", "T2_4", "T2_5i", "T2_5ii", "C2_6", "C2_7", "T2_8", "T2_9",
    "R2_rad", "T2_10", "L2_11", "T2_12i", "T2_12ii", "R2_omega", "T2_13",
    "T2_14", "T2_15", "T2_16", "T2_17", "C2_18", "D3_w", "T3_4", "T3_5",
    "T3_6", "D3_reg", "T3_9", "T3_10", "T3_11", "T3_12", "T3_13hom",
    "C3_quot", "T3_14", "L3_15", "T3_16",
]


def test_registry_ids_and_lookup():
    assert [c.id for c in CHECKS] == ALL_IDS
    assert len(CHECKS) >= 25
    assert get_check("T2_9").id == "T2_9"
    with pytest.raises(UnknownCheckId):
        get_check("T9_99")


def test_statements_are_self_contained():
    terms = ("closed", "C-hyperideal", "Regular", "regular", "omega", "Omega")
    for check in CHECKS:
        assert check.statement.endswith(".")
        assert len(check.statement) > 40
        assert any(term in check.statement for term in terms), check.id


def test_default_instance_stream():
    instances = generate_instances(SuiteConfig())
    names = [r.name for r in instances]
    assert len(instances) == 275
    assert len(set(names)) == 275
    orders = [r.order for r in instances]
    assert orders == sorted(orders)
    assert max(orders) <= 16
    assert "zx(4;2)" in names and "zx(4;1,3)" in names
    assert "zx(10;3,7)" in names
    assert sum(1 for r in instances if r.meta.get("family") == "product") == 110


def test_random_instances_are_seed_stable():
    cfg = SuiteConfig(random_count=10, seed=7)
    first = [r.name for r in generate_instances(cfg)]
    second = [r.name for r in generate_instances(cfg)]
    assert first == second
    assert len(first) == 285
    other = [r.name for r in generate_instances(SuiteConfig(random_count=10, seed=8))]
    assert other != first


def test_empty_instance_list_is_vacuous_success():
    report = run_suite(SuiteConfig(), instances=[])
    assert report.ok
    assert all(r.vacuous and r.passed for r in report.reports)


def test_two_genuine_counterexamples_frozen():
    """The default suite finds exactly two violated statements, bit for bit."""
    cfg = SuiteConfig(check_ids=("C2_7", "T2_9"))
    report = run_suite(cfg)
    failing = {r.check_id: r for r in report.failing()}
    assert sorted(failing) == ["C2_7", "T2_9"]

    ce = failing["C2_7"].counterexample
    assert ce["instance"] == "zx(2;1)xzx(4;2)"
    assert ce["ideals"] == [[0, 1, 2, 3], [0, 2, 4, 6], [0]]
    assert ce["sn"] == [3, 2]
    assert ce["elements"] == [1]

    ce = failing["T2_9"].counterexample
    assert ce["instance"] == "zx(4;1,3)"
    assert ce["ideals"] == [[0]]
    assert ce["sn"] == [2, 1]


def test_first_counterexample_is_genuine_for_coprime_products():
    """Re-derive the failing product case from raw tables, no engine shortcuts."""
    import oracles as orc

    ring = product_ring(make_zx_mod(2, [1]), make_zx_mod(4, [2]))
    n, add, mul = orc.tables(ring)
    q1 = frozenset([0, 1, 2, 3])
    q2 = frozenset([0, 2, 4, 6])
    assert orc.is_ideal(n, add, mul, q1) and orc.is_ideal(n, add, mul, q2)
    assert orc.set_sum(add, q1, q2) == frozenset(range(8))
    assert orc.sn_closed(n, add, mul, q1, 3, 2)
    assert orc.sn_closed(n, add, mul, q2, 3, 2)
    product = frozenset([0])
    assert orc.power(mul, 1, 3) <= product
    assert not orc.power(mul, 1, 2) <= product


def test_vacuous_checks_are_flagged_with_notes():
    report = run_suite(SuiteConfig(check_ids=("T3_9",)))
    row = report.reports[0]
    assert row.vacuous and row.passed
    assert "provably empty" in row.note


def test_corrupted_check_is_reported():
    """A deliberately wrong statement must surface as a failing report."""

    def bogus(ring, params):
        if ring.order % 2 == 0:
            yield ((1 << ring.zero,), (), None, "even order", ())
        return 1

    fake = _check("BOGUS", "Every instance has odd order.", bogus)
    report = run_suite(SuiteConfig(), instances=[make_zx_mod(3, [1]), make_zx_mod(4, [1])], checks=(fake,))
    assert not report.ok
    ce = report.reports[0].counterexample
    assert ce["instance"] == "zx(4;1)"
    assert ce["detail"] == "even order"
    assert report.reports[0].applicable == 2


def test_collect_refuses_a_generator_without_a_case_count():
    """A forgotten `return count` must not read as a check with 0 cases,
    whether the generator runs on the ring or on each of its ideals."""

    def uncounted(ring, params):
        yield "a note"

    def uncounted_per_ideal(ring, q, params):
        yield "a note"

    for fake in (
        _check("UNCOUNTED", "Returns no case count.", uncounted),
        _check("UNCOUNTED", "Returns no case count.", uncounted_per_ideal, each=_any_ideal),
    ):
        with pytest.raises(TypeError, match="UNCOUNTED returned None"):
            fake.fn(make_zx_mod(3, [1]), CheckParams())


def test_counterexample_dict_carries_full_tables():
    ring = make_zx_mod(4, [1])
    ce = Counterexample("X", ring, (1,), (2,), (3, 1), "demo")
    doc = counterexample_to_dict(ce)
    assert doc["ring"]["order"] == 4
    assert doc["ring"]["mul"][1][1] == [1]
    assert doc["ideals"] == [[0]] and doc["elements"] == [2] and doc["sn"] == [3, 1]


def test_parallel_merge_equals_sequential():
    instances = generate_instances(SuiteConfig())[:24]
    ids = ("T2_3", "R2_rad", "D3_w", "L3_15")
    seq = run_suite(SuiteConfig(check_ids=ids, threads=1), instances=instances)
    par = run_suite(SuiteConfig(check_ids=ids, threads=2), instances=instances)
    assert canonical_json(seq.to_dict()) == canonical_json(par.to_dict())


def test_full_registry_parallel_equals_sequential():
    """Every registered check survives pickling, so threads > 1 runs them all."""
    instances = [r for r in generate_instances(SuiteConfig()) if r.order <= 4]
    assert any(r.meta.get("family") == "product" for r in instances)
    seq = run_suite(SuiteConfig(threads=1), instances=instances)
    par = run_suite(SuiteConfig(threads=2), instances=instances)
    assert [r.check_id for r in seq.reports] == ALL_IDS
    assert {r.check_id: r for r in seq.reports}["T2_9"].notes
    assert canonical_json(seq.to_dict()) == canonical_json(par.to_dict())


def test_check_params_reach_checks():
    cfg = SuiteConfig(s_max=2, n_max=2, check_ids=("L2_11",))
    small = run_suite(cfg, instances=[make_zx_mod(4, [1])])
    big = run_suite(SuiteConfig(check_ids=("L2_11",)), instances=[make_zx_mod(4, [1])])
    assert 0 < small.reports[0].applicable < big.reports[0].applicable


def test_default_sweep_report_hash_is_pinned():
    """The canonical report of the default sweep, which perfbench also pins:
    a kernel change that moves a verdict or a case count changes it."""
    assert result_hash(run_suite(SuiteConfig()).to_dict()) == "614809fc4ec45e22"


def _small_default_rings():
    rings = [r for r in generate_instances(SuiteConfig()) if r.order <= 6]
    assert len(rings) == 39
    return rings


def test_run_instance_drops_the_memo_and_keeps_the_factors():
    factors = (make_zx_mod(2, [1]), make_zx_mod(4, [1]))
    prod = product_ring(*factors)
    _run_instance(prod, CHECKS, CheckParams())
    assert prod._cache == {}
    assert prod.factors[0] is factors[0] and prod.factors[1] is factors[1]


@pytest.mark.parametrize("threads", [1, 2])
def test_rerun_from_dropped_memos_gives_the_same_report(threads):
    """A second run over the same rings starts from empty memos and must
    rebuild every table to the same verdicts and case counts."""
    rings = _small_default_rings()
    cfg = SuiteConfig(threads=threads)
    first = result_hash(run_suite(cfg, instances=rings).to_dict())
    second = result_hash(run_suite(cfg, instances=rings).to_dict())
    assert first == second


def test_serial_run_leaves_memo_entries_only_on_product_factors():
    rings = _small_default_rings()
    run_suite(SuiteConfig(threads=1), instances=rings)
    factor_ids = {id(f) for r in rings for f in (r.factors or ())}
    holding = {id(r) for r in rings if r._cache}
    assert holding
    assert holding <= factor_ids
