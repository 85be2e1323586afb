"""Suite driver: streams generated hyperrings through the check registry.

Instances come from two systematic families -- modular multiplier rings and
their pairwise direct products -- plus optional seeded random draws from the
first family.  Each check collects, per instance, how many hypothesis-
satisfying combinations it examined and the first failing one in scan order;
the suite merges those in instance order, so reruns with the same
configuration reproduce the same counterexample.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Optional

from .bitsets import members
from .checks import CHECKS, Check, CheckParams, Counterexample, get_check
from .core import FiniteHyperring, make_zx_mod, product_ring
from .ideals import ENUMERATION_ORDER_BOUND
from .jsonio import ring_to_dict

THREADS_ENV = "HYPERRING_LAB_THREADS"

# Least allowed value of each sweep, window and count field of SuiteConfig.
_COUNT_FLOORS = (
    ("zx_max_modulus", 2),
    ("zx_max_multipliers", 1),
    ("max_order", 2),
    ("s_max", 1),
    ("n_max", 1),
    ("tuple_max", 1),
    ("absorbing_max_n", 1),
    ("random_count", 0),
)


@dataclass(frozen=True)
class SuiteConfig:
    """Instance-generation and window bounds for one suite run."""

    zx_max_modulus: int = 10
    zx_max_multipliers: int = 2
    product_factor_max_order: int = 6
    max_order: int = 16
    s_max: int = 6
    n_max: int = 6
    tuple_max: int = 3
    absorbing_max_n: int = 3
    random_count: int = 0
    seed: int = 0
    check_ids: Optional[tuple[str, ...]] = None
    threads: Optional[int] = None

    def __post_init__(self) -> None:
        # An empty sweep or a degenerate window would pass most checks
        # vacuously, so it is refused here, before any ring is built.
        for name, low in _COUNT_FLOORS:
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(
                    "%s must be an integer >= %d, got %r" % (name, low, value)
                )

    def params(self) -> CheckParams:
        return CheckParams(
            smax=self.s_max,
            nmax=self.n_max,
            tuple_max=self.tuple_max,
            absorbing_max_n=self.absorbing_max_n,
        )

    def to_dict(self) -> dict:
        return {
            "zx_max_modulus": self.zx_max_modulus,
            "zx_max_multipliers": self.zx_max_multipliers,
            "product_factor_max_order": self.product_factor_max_order,
            "max_order": self.max_order,
            "s_max": self.s_max,
            "n_max": self.n_max,
            "tuple_max": self.tuple_max,
            "absorbing_max_n": self.absorbing_max_n,
            "random_count": self.random_count,
            "seed": self.seed,
            "check_ids": list(self.check_ids) if self.check_ids else None,
        }


@dataclass
class TheoremReport:
    check_id: str
    statement: str
    note: str
    instances_examined: int
    applicable: int
    passed: bool
    counterexample: Optional[dict]
    notes: tuple[str, ...]
    runtime_seconds: float

    @property
    def vacuous(self) -> bool:
        return self.applicable == 0

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "statement": self.statement,
            "note": self.note,
            "instances_examined": self.instances_examined,
            "applicable": self.applicable,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
            "runtime_seconds": self.runtime_seconds,
        }


@dataclass
class SuiteReport:
    config: SuiteConfig
    instance_names: tuple[str, ...]
    reports: tuple[TheoremReport, ...]
    total_runtime_seconds: float

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.reports)

    def failing(self) -> list[TheoremReport]:
        return [r for r in self.reports if not r.passed]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "instances": list(self.instance_names),
            "reports": [r.to_dict() for r in self.reports],
            "passed": self.ok,
            "total_runtime_seconds": self.total_runtime_seconds,
        }


def counterexample_to_dict(ce: Counterexample) -> dict:
    return {
        "check": ce.check_id,
        "instance": ce.ring.name,
        "ring": ring_to_dict(ce.ring),
        "ideals": [members(m) for m in ce.ideals],
        "elements": list(ce.elements),
        "sn": list(ce.sn) if ce.sn else None,
        "detail": ce.detail,
    }


def zx_instances(cfg: SuiteConfig) -> list[FiniteHyperring]:
    out = []
    for m in range(2, cfg.zx_max_modulus + 1):
        pool = range(1, m)
        for k in range(1, cfg.zx_max_multipliers + 1):
            for xs in combinations(pool, k):
                out.append(make_zx_mod(m, xs))
    return out


def random_zx_instances(cfg: SuiteConfig, taken: set) -> list[FiniteHyperring]:
    rng = random.Random(cfg.seed)
    out = []
    attempts = 0
    while len(out) < cfg.random_count and attempts < cfg.random_count * 50 + 50:
        attempts += 1
        m = rng.randrange(2, max(cfg.zx_max_modulus, 4) + 3)
        size = rng.randrange(1, min(4, m) + 1)
        xs = rng.sample(range(1, m), min(size, m - 1)) if m > 1 else [1]
        ring = make_zx_mod(m, xs)
        if ring.name in taken or ring.order > cfg.max_order:
            continue
        taken.add(ring.name)
        out.append(ring)
    return out


def generate_instances(cfg: SuiteConfig) -> list[FiniteHyperring]:
    """Deterministic instance stream, sorted by (order, name).

    A `max_order` the checks could not enumerate is refused before any ring
    is built.
    """
    if cfg.max_order > ENUMERATION_ORDER_BOUND:
        raise ValueError(
            "max_order %d exceeds the hyperideal enumeration cap of order %d"
            % (cfg.max_order, ENUMERATION_ORDER_BOUND)
        )
    base = [r for r in zx_instances(cfg) if r.order <= cfg.max_order]
    factors = [r for r in base if r.order <= cfg.product_factor_max_order]
    products = []
    for r1, r2 in combinations_with_replacement(factors, 2):
        if r1.order * r2.order <= cfg.max_order:
            products.append(product_ring(r1, r2))
    taken = {r.name for r in base} | {r.name for r in products}
    extras = random_zx_instances(cfg, taken) if cfg.random_count else []
    stream = base + products + extras
    stream.sort(key=lambda r: (r.order, r.name or ""))
    return stream


def _selected_checks(cfg: SuiteConfig) -> tuple[Check, ...]:
    if cfg.check_ids is None:
        return CHECKS
    if not cfg.check_ids:
        raise ValueError("check_ids must name at least one check")
    return tuple(get_check(cid) for cid in cfg.check_ids)


def _run_instance(ring, checks, params):
    """All checks against one instance; shared caches stay warm on the ring."""
    results = []
    for check in checks:
        started = time.perf_counter()
        outcome = check.fn(ring, params)
        elapsed = time.perf_counter() - started
        ce = outcome.counterexample
        results.append(
            {
                "check": check.id,
                "applicable": outcome.applicable,
                "counterexample": counterexample_to_dict(ce) if ce else None,
                "notes": list(outcome.notes),
                "runtime_seconds": elapsed,
            }
        )
    return results


def _run_instance_packed(args):
    return _run_instance(*args)


def _resolve_threads(cfg: SuiteConfig) -> int:
    """Worker count from the config, else the environment, else 1."""
    if cfg.threads is not None:
        source, value = "threads", cfg.threads
    else:
        source, value = THREADS_ENV, os.environ.get(THREADS_ENV, "").strip()
        if not value:
            return 1
        if value.isdecimal():
            value = int(value)
    if type(value) is not int or value < 1:
        raise ValueError("%s must be a positive integer, got %r" % (source, value))
    return value


def run_suite(
    cfg: SuiteConfig = SuiteConfig(),
    instances: Optional[list[FiniteHyperring]] = None,
    checks: Optional[tuple[Check, ...]] = None,
) -> SuiteReport:
    started = time.perf_counter()
    threads = _resolve_threads(cfg)
    # Checks first, so an unknown check id is refused before the sweep is built.
    if checks is None:
        checks = _selected_checks(cfg)
    if instances is None:
        instances = generate_instances(cfg)
    params = cfg.params()
    if threads > 1 and len(instances) > 1:
        # Largest rings first, one per task, so no worker is left with the
        # order-16 tail; results go back into stream order for the merge.
        schedule = sorted(range(len(instances)), key=lambda i: -instances[i].order)
        work = [(instances[i], checks, params) for i in schedule]
        per_instance = [None] * len(instances)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            done = pool.map(_run_instance_packed, work, chunksize=1)
            for i, results in zip(schedule, done):
                per_instance[i] = results
    else:
        per_instance = [_run_instance(ring, checks, params) for ring in instances]

    reports = []
    for pos, check in enumerate(checks):
        examined = 0
        applicable = 0
        counterexample = None
        notes: list[str] = []
        runtime = 0.0
        for ring, results in zip(instances, per_instance):
            row = results[pos]
            examined += 1
            applicable += row["applicable"]
            runtime += row["runtime_seconds"]
            for note in row["notes"]:
                tagged = "%s: %s" % (ring.name, note)
                if tagged not in notes and len(notes) < 12:
                    notes.append(tagged)
            if counterexample is None and row["counterexample"]:
                counterexample = row["counterexample"]
        reports.append(
            TheoremReport(
                check_id=check.id,
                statement=check.statement,
                note=check.note,
                instances_examined=examined,
                applicable=applicable,
                passed=counterexample is None,
                counterexample=counterexample,
                notes=tuple(notes),
                runtime_seconds=runtime,
            )
        )
    return SuiteReport(
        config=cfg,
        instance_names=tuple(r.name or "?" for r in instances),
        reports=tuple(reports),
        total_runtime_seconds=time.perf_counter() - started,
    )
