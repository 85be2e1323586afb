"""Suite driver: streams generated hyperrings through the check registry.

Instances come from two systematic families -- modular multiplier rings and
their pairwise direct products -- plus optional seeded random draws from the
first family.  Each check collects, per instance, how many hypothesis-
satisfying combinations it examined and the first failing one in scan order;
the suite merges those in instance order, so reruns with the same
configuration reproduce the same counterexample.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations, combinations_with_replacement, repeat
from typing import Optional

from .checks import CHECKS, Check, get_check
from .core import FiniteHyperring, make_zx_mod, product_ring
from .ideals import ENUMERATION_ORDER_BOUND

# Least allowed value of each sweep, window, count and worker field of SuiteConfig.
_COUNT_FLOORS = (
    ("zx_max_modulus", 2),
    ("zx_max_multipliers", 1),
    ("product_factor_max_order", 1),
    ("max_order", 2),
    ("s_max", 1),
    ("n_max", 1),
    ("tuple_max", 1),
    ("absorbing_max_n", 1),
    ("random_count", 0),
    ("threads", 1),
)


@dataclass(frozen=True)
class SuiteConfig:
    """Instance-generation and window bounds for one suite run, defaulted
    and checked here only: a bad field is refused at construction."""

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
    threads: int = 1

    def __post_init__(self) -> None:
        # An empty sweep or a degenerate window would pass most checks
        # vacuously, so it is refused here, before any ring is built.
        for name, low in _COUNT_FLOORS:
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(
                    "%s must be an integer >= %d, got %r" % (name, low, value)
                )
        if type(self.seed) is not int:
            raise ValueError("seed must be an integer, got %r" % (self.seed,))
        if self.max_order > ENUMERATION_ORDER_BOUND:
            raise ValueError(
                "max_order %d exceeds the hyperideal enumeration cap of order %d"
                % (self.max_order, ENUMERATION_ORDER_BOUND)
            )
        if self.check_ids is not None:
            if type(self.check_ids) is not tuple or not self.check_ids:
                raise ValueError(
                    "check_ids must name at least one check, in a tuple, got %r"
                    % (self.check_ids,)
                )
            seen = set()
            for check_id in self.check_ids:
                get_check(check_id)
                if check_id in seen:
                    raise ValueError("check_ids names %r more than once" % (check_id,))
                seen.add(check_id)

    def to_dict(self) -> dict:
        # The worker count does not change the report, so it is left out.
        doc = asdict(self)
        del doc["threads"]
        return doc


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
    """Deterministic instance stream, sorted by (order, name)."""
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


def _run_instance(ring, checks, cfg):
    """(RingOutcome, seconds) of each check against one instance, in order.

    A check's outcome already holds its counterexample as the report's
    record, so nothing refers back to the ring.  The ring's memo stays warm
    across its checks and is dropped once the last one has run: no later
    instance reads it.  The memos of a product's factor rings are left as
    they are.
    """
    results = []
    for check in checks:
        started = time.perf_counter()
        results.append((check.fn(ring, cfg), time.perf_counter() - started))
    ring.drop_memo()
    return results


def run_suite(
    cfg: SuiteConfig = SuiteConfig(),
    instances: Optional[list[FiniteHyperring]] = None,
    checks: Optional[tuple[Check, ...]] = None,
) -> SuiteReport:
    """Every check against every instance, merged per check in stream order.

    Each instance's memo is dropped after its checks, so the instances come
    back with empty memos; only rings that are factors of a product in the
    stream may still hold entries.
    """
    started = time.perf_counter()
    if checks is None:
        checks = CHECKS if cfg.check_ids is None else tuple(map(get_check, cfg.check_ids))
    if instances is None:
        instances = generate_instances(cfg)
    if cfg.threads > 1 and len(instances) > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            per_instance = list(
                pool.map(_run_instance, instances, repeat(checks), repeat(cfg), chunksize=1)
            )
    else:
        per_instance = [_run_instance(ring, checks, cfg) for ring in instances]

    reports = []
    for pos, check in enumerate(checks):
        examined = 0
        applicable = 0
        counterexample = None
        notes: list[str] = []
        runtime = 0.0
        for ring, results in zip(instances, per_instance):
            outcome, seconds = results[pos]
            examined += 1
            applicable += outcome.applicable
            runtime += seconds
            for note in outcome.notes:
                tagged = "%s: %s" % (ring.name, note)
                if tagged not in notes and len(notes) < 12:
                    notes.append(tagged)
            if counterexample is None:
                counterexample = outcome.counterexample
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
