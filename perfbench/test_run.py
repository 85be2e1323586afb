"""Tests of the benchmark itself: failures must show, and the seed must matter.

    python3 -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import bisect
import json
import time

import pytest

import run
from spans import Tracer

TINY = dict(zx_max_modulus=3, zx_max_multipliers=1, product_factor_max_order=2, max_order=4)


@pytest.fixture
def tiny():
    """A three-ring suite part and pins that match its report."""
    cfg = run.harness.SuiteConfig(threads=1, **TINY)
    part = run.SuitePart("tiny", cfg, run.harness.generate_instances(cfg), None)
    report = run.harness.run_suite(cfg, instances=part.instances)
    pins = {"suite": {"default": run.catalog.result_hash(report.to_dict()), "tail": []}, "toolkit": {}}
    return part, pins


def test_suite_pass_accepts_the_pinned_report(tiny, tmp_path):
    part, pins = tiny
    tally = run.Tally()
    result = run.suite_pass([part], pins, tmp_path, tally, run.timed_registry([]))
    assert result.ok and tally.failed == 0 and tally.attempted == len(part.instances)
    assert sum(result.cases_by_check.values()) > 0


def test_changed_report_bytes_fail_every_instance(tiny, tmp_path):
    part, pins = tiny
    pins["suite"]["default"] = "0" * 16
    tally = run.Tally()
    assert not run.suite_pass([part], pins, tmp_path, tally).ok
    assert tally.failed == tally.attempted == len(part.instances)
    assert json.loads(run.result_line(tally, {}))["correct"] is False


def test_raising_check_fails_the_part(tiny, tmp_path):
    part, pins = tiny

    def broken(ring, params):
        raise RuntimeError("boom")

    registry = (run.checks.Check("X", "raises", broken),)
    tally = run.Tally()
    assert not run.suite_pass([part], pins, tmp_path, tally, registry).ok
    assert tally.failed == len(part.instances)
    assert "RuntimeError: boom" in tally.errors[0]


def _toolkit(tmp_path):
    ops = [
        run.Op("validate", run.RingSpec(((4, (1, 3)),))),
        run.Op("classify", run.RingSpec(((2, (1,)), (3, (1, 2))))),
        run.Op("zx", run.ZxSpec(180, (2,), 2)),
    ]
    paths = run.write_docs(ops, tmp_path)
    pins = {"toolkit": {}}
    for op, path in zip(ops, paths):
        code, text, _ = run.run_op(op, path)
        pins["toolkit"][op.key] = (run.output_digest(code, text), 1)
    return ops, paths, pins


def test_toolkit_counts_corrupted_and_raising_commands(tmp_path, monkeypatch):
    ops, paths, pins = _toolkit(tmp_path)
    tally = run.Tally()
    ok, _, latencies, cases = run.toolkit_pass(ops, paths, pins, tally)
    assert ok and tally.failed == 0 and len(latencies) == cases == 3

    pins["toolkit"][ops[1].key] = ("00000000", 1)
    tally = run.Tally()
    assert not run.toolkit_pass(ops, paths, pins, tally)[0]
    assert (tally.attempted, tally.failed) == (3, 1)

    real_main = run.cli.main

    def flaky_main(argv):
        if argv[0] == "zx":
            raise ValueError("bad modulus")
        return real_main(argv)

    monkeypatch.setattr(run.cli, "main", flaky_main)
    tally = run.Tally()
    run.toolkit_pass(ops, paths, pins, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert any("ValueError: bad modulus" in why for why in tally.errors)


@pytest.fixture(scope="module")
def pins():
    return run.load_pins()


def test_seed_changes_tail_and_toolkit_draw(pins):
    base = {r.name for r in run.harness.generate_instances(run.harness.SuiteConfig())}
    tails = {seed: [r.name for r in run.tail_part(seed, 1, base).instances] for seed in (1, 2)}
    assert tails[1] and tails[1] != tails[2]
    assert not base & set(tails[1])
    pools = pins["pools"]
    assert run.toolkit_stream(1, pools) != run.toolkit_stream(2, pools)
    assert run.toolkit_stream(5, pools) == run.toolkit_stream(5, pools)


def test_toolkit_draws_one_ring_from_each_slice_of_the_pool(pins):
    pool = pins["pools"]["ring"]
    position = {spec: i for i, spec in enumerate(pool)}
    cuts = [len(pool) * i // run.OPS_PER_COMMAND for i in range(run.OPS_PER_COMMAND)]
    for seed in (1, 2):
        drawn = [position[op.spec] for op in run.toolkit_stream(seed, pins["pools"]) if op.command == "validate"]
        slices = sorted(bisect.bisect_right(cuts, p) - 1 for p in drawn)
        assert slices == list(range(run.OPS_PER_COMMAND))


def test_pins_cover_both_pools_and_the_seed_commit_hash(pins):
    assert pins["suite"]["default"] == "614809fc4ec45e22"
    assert len(pins["suite"]["tail"]) == run.TAIL_SEEDS
    assert sorted(s.name for s in pins["pools"]["ring"]) == sorted(s.name for s in run.ring_pool())
    assert sorted(s.name for s in pins["pools"]["zx"]) == sorted(s.name for s in run.zx_pool())
    assert all(op.key in pins["toolkit"] for op in run.toolkit_stream(3, pins["pools"]))


def test_emitted_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    layers = run.layer_metrics({}, {}, {}, {}, [], 0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])


def test_tracer_self_time_excludes_child_spans():
    def inner():
        time.sleep(0.02)

    with Tracer() as tracer:
        traced_inner = tracer.wrap("inner", inner)

        def outer():
            time.sleep(0.01)
            traced_inner()

        tracer.wrap("outer", outer)()
    outer_stats, inner_stats = tracer.stats["outer"], tracer.stats["inner"]
    assert inner_stats.calls == outer_stats.calls == 1
    assert outer_stats.total_s >= inner_stats.total_s + 0.01
    assert 0.01 <= outer_stats.self_s < inner_stats.total_s


def test_tracer_patch_reaches_importers_and_restores():
    import hyperring_lab.checks as checks_mod
    import hyperring_lab.ideals as ideals_mod

    original = ideals_mod.enumerate_hyperideals
    with Tracer() as tracer:
        tracer.patch(ideals_mod, "enumerate_hyperideals", "e")
        assert checks_mod.enumerate_hyperideals is ideals_mod.enumerate_hyperideals is not original
    assert checks_mod.enumerate_hyperideals is ideals_mod.enumerate_hyperideals is original


def test_latency_percentiles_are_medians_over_passes():
    tally = run.Tally(walls=[1.0, 3.0, 2.0], latencies=[[0.001] * 20, [0.003] * 20, [0.002] * 20])
    metrics = run.end_to_end_metrics([0.5], tally, 1)
    assert metrics["op_p50_ms"][::2] == pytest.approx((2.0, 60))
    assert metrics["op_p95_ms"][0] == pytest.approx(2.0)
    assert metrics["wall_s"][0] == 2.0
