"""Benchmark of hyperring-lab: the check suite, and the per-file CLI commands.

    python3 perfbench/run.py --workload suite-serial --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client):

  suite-serial    `run_suite` in one process on the default 275-instance sweep,
                  then on a tail of TAIL_COUNT seeded random instances; each
                  report goes through `canonical_json` and `Catalog.put_result`.
  suite-parallel  the same inputs with threads = number of CPUs.
  toolkit-cold    a seeded stream of `validate`, `classify`, `profile`,
                  `fundamental` and `zx` commands through `cli.main`; every
                  ring command reloads its ring from a JSON document, so every
                  cache starts cold, as it does from the shell.
  all             each of the above in turn, each in its own process.

Every output is checked against the digests pinned in perfbench/pins (see
pin.py); an operation that raises or whose output differs counts as failed.
With --trace 0 the last line of output holds the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced pass.  Set-up time is taken in
fresh interpreters started by this script with --setup-child, one before
each pass.

End-to-end times are CPU seconds (user + system) of the process doing the
work, not wall-clock time.  The work is single-threaded and never waits, so
the two differ only by the time the host takes the CPU away from a virtual
machine, which on a shared host changes by tens of percent from minute to
minute.  suite-parallel, whose work runs in pool workers, is timed by the
wall clock.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins"
WORK = ROOT / ".perfbench_work"

sys.path[:0] = [str(HERE), str(SRC)]
from spans import Tracer  # noqa: E402

try:
    import hyperring_lab
    from hyperring_lab import catalog, checks, cli, core, harness, jsonio
except ImportError:  # a copy of the benchmark without the package; main() refuses to run
    hyperring_lab = None

WORKLOADS = ("suite-serial", "suite-parallel", "toolkit-cold")
TAIL_COUNT = 4
TAIL_SEEDS = 1024  # the tail uses seed % TAIL_SEEDS; each of these tails has a pinned hash
SETUP_REPEATS = 11
OPS_PER_COMMAND = 80
RING_COMMANDS = ("validate", "classify", "profile", "fundamental")
ZX_MODULI = (105, 180, 210, 252, 330, 360, 462, 720, 1155, 1260, 1800, 2310)
ZX_MULTIPLIERS = (2, 3, 5, 7, 11)
ZX_EXPONENTS = (1, 2, 3)
ORDERS = range(2, 17)
DIGEST_LENGTH = 8

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("instances_per_s", "1/s"),
    ("cases_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


# (module, attribute, label, cache-miss probe): the coarse public calls that
# get spans in a traced run.  bitsets helpers, land_mask and power_profile run
# millions of times; a span there would measure the span, so they are counted
# from ring caches instead.
SPANNED = (
    ("harness", "generate_instances", "harness.generate_instances", None),
    ("harness", "run_suite", "harness.run_suite", None),
    ("ideals", "enumerate_hyperideals", "ideals.enumerate_hyperideals",
     lambda ring, *args, **kwargs: "ideals" not in ring._cache),
    ("ideals", "quotient_by_ideal", "ideals.quotient_by_ideal", None),
    ("ideals", "n_absorbing_witness", "ideals.n_absorbing_witness", None),
    ("ideals", "classify_ideal", "ideals.classify_ideal", None),
    ("closedness", "closed_profile", "closedness.closed_profile", None),
    ("closedness.ZxResidueModel", "closed", "closedness.ZxResidueModel.closed", None),
    ("core", "validate_axioms", "core.validate_axioms", None),
    ("core", "product_ring", "core.product_ring", None),
    ("fundamental", "fundamental_ring", "fundamental.fundamental_ring", None),
    ("fundamental", "ideal_in_fundamental", "fundamental.ideal_in_fundamental", None),
    ("jsonio", "ring_from_dict", "jsonio.ring_from_dict", None),
    ("jsonio", "canonical_json", "jsonio.canonical_json", None),
    ("catalog.Catalog", "put_result", "catalog.put_result", None),
    ("cli", "main", "cli.main", None),
)


# -- inputs -----------------------------------------------------------------------


@dataclass
class SuitePart:
    """One `run_suite` call of a suite pass and the key of its pinned hash."""

    label: str
    cfg: object
    instances: list
    tail_seed: int | None


def suite_parts(seed: int, threads: int) -> list[SuitePart]:
    """Fresh rings, so that no ring cache survives from an earlier pass."""
    base_cfg = harness.SuiteConfig(threads=threads)
    base = harness.generate_instances(base_cfg)
    tail = tail_part(seed % TAIL_SEEDS, threads, {ring.name for ring in base})
    return [SuitePart("default sweep", base_cfg, base, None), tail]


def tail_part(tail_seed: int, threads: int, taken: set) -> SuitePart:
    """The `random_count` draws of a seeded sweep that the default sweep lacks."""
    cfg = harness.SuiteConfig(random_count=TAIL_COUNT, seed=tail_seed, threads=threads)
    tail = [r for r in harness.generate_instances(cfg) if r.name not in taken]
    return SuitePart("tail seed %d" % tail_seed, cfg, tail, tail_seed)


@dataclass(frozen=True)
class RingSpec:
    """A zx(m;X) ring, or the direct product of two of them."""

    factors: tuple

    @property
    def name(self) -> str:
        return "x".join("zx(%d;%s)" % (m, ",".join(map(str, xs))) for m, xs in self.factors)

    def build(self):
        rings = [core.make_zx_mod(m, xs) for m, xs in self.factors]
        return rings[0] if len(rings) == 1 else core.product_ring(*rings)


@dataclass(frozen=True)
class ZxSpec:
    """Arguments of one `zx` command: d*Z under multipliers xs at exponent n."""

    d: int
    xs: tuple
    n: int

    @property
    def name(self) -> str:
        return "%d %s %d" % (self.d, ",".join(map(str, self.xs)), self.n)


@dataclass(frozen=True)
class Op:
    command: str
    spec: object

    @property
    def key(self) -> tuple[str, str]:
        return (self.command, self.spec.name)

    def argv(self, doc) -> list[str]:
        if self.command == "zx":
            s = self.spec
            return ["zx", str(s.d), ",".join(map(str, s.xs)), "--n", str(s.n)]
        return [self.command, str(doc), "--json"]


def ring_pool() -> list[RingSpec]:
    """Every zx(m;X) with m <= 16 and |X| <= 3, and their products of order <= 16."""
    zx = [(m, xs) for m in range(2, 17) for k in (1, 2, 3) for xs in itertools.combinations(range(1, m), k)]
    small = [f for f in zx if f[0] <= 8]
    pool = [RingSpec((f,)) for f in zx]
    pool += [RingSpec((a, b)) for a, b in itertools.combinations_with_replacement(small, 2) if a[0] * b[0] <= 16]
    return pool


def zx_pool() -> list[ZxSpec]:
    return [
        ZxSpec(d, xs, n)
        for d in ZX_MODULI
        for k in (1, 2, 3)
        for xs in itertools.combinations(ZX_MULTIPLIERS, k)
        for n in ZX_EXPONENTS
    ]


def stratified(pool: list, k: int, rng: random.Random) -> list:
    """One draw from each of k equal slices of the pool.

    The pinned pools are in ascending order of cost, so every seed gets
    nearly the same cost in each slice: the stream's run time stays steady
    from seed to seed while its rings change.
    """
    cuts = [len(pool) * i // k for i in range(k + 1)]
    return [pool[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]


def toolkit_stream(seed: int, pools: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = [Op(cmd, spec) for cmd in RING_COMMANDS for spec in stratified(pools["ring"], OPS_PER_COMMAND, rng)]
    ops += [Op("zx", spec) for spec in stratified(pools["zx"], OPS_PER_COMMAND, rng)]
    rng.shuffle(ops)
    return ops


def doc_paths(ops: list[Op], work: Path) -> list:
    return [None if op.command == "zx" else work / "docs" / ("%d.json" % i) for i, op in enumerate(ops)]


def write_docs(ops: list[Op], work: Path) -> list:
    paths = doc_paths(ops, work)
    (work / "docs").mkdir(parents=True, exist_ok=True)
    for op, path in zip(ops, paths):
        if path is not None:
            jsonio.write_json(str(path), jsonio.ring_to_dict(op.spec.build()))
    return paths


# -- pinned outputs -----------------------------------------------------------------


def output_digest(code: int, text: str) -> str:
    return hashlib.sha256(("%d\n%s" % (code, text)).encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


def load_pins() -> dict:
    """The pinned outputs, and the toolkit pools in the pinned cost order.

    {"suite": {"default": hash, "tail": [hash per tail seed]},
     "toolkit": {op key: (digest, cases)},
     "pools": {"ring": [RingSpec], "zx": [ZxSpec]}}
    """
    suite = json.loads((PINS / "suite.json").read_text())
    toolkit = {}
    specs = {spec.name: spec for spec in ring_pool()}
    rings = []
    with open(PINS / "rings.tsv", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            name, *digests, ideals = line.rstrip("\n").split("\t")
            rings.append(specs[name])
            for command, digest in zip(RING_COMMANDS, digests):
                cases = int(ideals) if command in ("classify", "profile") else 0
                toolkit[(command, name)] = (digest, cases)
    specs = {spec.name: spec for spec in zx_pool()}
    zx = []
    with open(PINS / "zx.tsv", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                name, digest = line.rstrip("\n").split("\t")
                zx.append(specs[name])
                toolkit[("zx", name)] = (digest, 0)
    return {"suite": suite, "toolkit": toolkit, "pools": {"ring": rings, "zx": zx}}


def pinned_hash(pins: dict, part: SuitePart):
    suite = pins["suite"]
    return suite["default"] if part.tail_seed is None else suite["tail"][part.tail_seed]


# -- passes -------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, and the samples of the passes that succeeded."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # per pass, the seconds of each op
    instances: int = 0  # per pass
    cases: int = 0  # per pass
    ops: int = 0  # per pass

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 8:
            self.errors.append(why)


class _CallClock:
    """Check function that records (ring order, CPU seconds) of each call."""

    def __init__(self, fn, calls: list) -> None:
        self.fn = fn
        self.calls = calls

    def __call__(self, ring, params):
        start = process_time()
        try:
            return self.fn(ring, params)
        finally:
            self.calls.append((ring.order, process_time() - start))


def timed_registry(calls: list) -> tuple:
    return tuple(dataclasses.replace(c, fn=_CallClock(c.fn, calls)) for c in checks.CHECKS)


@dataclass
class SuitePass:
    ok: bool
    wall: float
    cases_by_check: Counter
    seconds_by_check: Counter
    report_bytes: int


def pass_clock(parts):
    """CPU time of this process, or the wall clock when a pool does the work."""
    return perf_counter if any(part.cfg.threads > 1 for part in parts) else process_time


def suite_pass(parts, pins, store: Path, tally: Tally, registry=None) -> SuitePass:
    """Run, encode, store and check every part; timing covers all of it."""
    ok = True
    by_check: Counter = Counter()
    seconds: Counter = Counter()
    nbytes = 0
    clock = pass_clock(parts)
    start = clock()
    for part in parts:
        tally.attempted += len(part.instances)
        try:
            report = harness.run_suite(part.cfg, instances=part.instances, checks=registry)
            doc = report.to_dict()
            nbytes += len(jsonio.canonical_json(doc))
            stored = catalog.Catalog(str(store)).put_result(doc)
        except Exception as err:  # noqa: BLE001 -- a crash is a measured failure
            ok = False
            tally.fail(len(part.instances), "%s: %s: %s" % (part.label, type(err).__name__, err))
            continue
        want = pinned_hash(pins, part)
        if stored != want:
            ok = False
            tally.fail(len(part.instances), "%s: report hash %s, pinned %s" % (part.label, stored, want))
            continue
        for r in report.reports:
            by_check[r.check_id] += r.applicable
            seconds[r.check_id] += r.runtime_seconds
    return SuitePass(ok, clock() - start, by_check, seconds, nbytes)


def run_op(op: Op, path) -> tuple[int, str, float]:
    """Exit code, all output and CPU seconds of one command."""
    out = io.StringIO()
    start = process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(op.argv(path))
    elapsed = process_time() - start
    return code, out.getvalue(), elapsed


def toolkit_pass(ops, paths, pins, tally: Tally) -> tuple[bool, float, list, int]:
    """Run every command once; returns (ok, wall, per-op seconds, cases)."""
    ok = True
    latencies = []
    cases = 0
    start = process_time()
    for op, path in zip(ops, paths):
        tally.attempted += 1
        try:
            code, text, elapsed = run_op(op, path)
        except (Exception, SystemExit) as err:  # noqa: BLE001 -- a crash is a measured failure
            ok = False
            tally.fail(1, "%s %s: %s: %s" % (*op.key, type(err).__name__, err))
            continue
        digest, op_cases = pins["toolkit"].get(op.key, (None, 0))
        got = output_digest(code, text)
        if got != digest:
            ok = False
            tally.fail(1, "%s %s: output digest %s, pinned %s" % (*op.key, got, digest))
            continue
        latencies.append(elapsed)
        cases += op_cases
    return ok, process_time() - start, latencies, cases


def measure(seconds: float, set_up, one_pass) -> list[float]:
    """Alternate timed set-ups and a pass while the next pass should end within `seconds`.

    Set-ups keep pace with the passes, SETUP_REPEATS of them spread over the
    run, so that both see the same spells of a busy host.  There is always
    at least one pass, and a failed pass ends the run; returns at least
    SETUP_REPEATS set-up times.
    """
    setups = []
    start = last = perf_counter()
    while True:
        due = 1 + (SETUP_REPEATS - 1) * (perf_counter() - start) / seconds
        while len(setups) < due:
            setups.append(set_up())
        gc.collect()
        if not one_pass():
            break
        now = perf_counter()
        if now - start + (now - last) > seconds:
            break
        last = now
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up())
    return setups


# -- workloads ----------------------------------------------------------------------


def threads_for(workload: str) -> int:
    return (os.cpu_count() or 1) if workload == "suite-parallel" else 1


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(workload: str, seed: int, work: Path) -> float:
    """CPU seconds from a fresh interpreter to the package imported and inputs built."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-child",
        "--workload", workload, "--seed", str(seed), "--work", str(work),
    ]
    start = children_cpu_s()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
    return children_cpu_s() - start


def setup_child(workload: str, seed: int, work: Path) -> None:
    if workload == "toolkit-cold":
        write_docs(toolkit_stream(seed, load_pins()["pools"]), work)
    else:
        suite_parts(seed, threads_for(workload))


def bench_suite(workload, seed, seconds, work, pins, tally) -> list[float]:
    threads = threads_for(workload)
    parts = suite_parts(seed, threads)
    tally.instances = sum(len(p.instances) for p in parts)
    # An op is one check on one instance: run_suite calls every check on every instance.
    tally.ops = tally.instances * len(checks.CHECKS)
    passes = itertools.count()

    def one_pass():
        nonlocal parts
        calls: list = []
        registry = timed_registry(calls) if threads == 1 else None
        # A new catalog directory each pass, so put_result really writes.
        store = work / "catalog" / str(next(passes))
        result = suite_pass(parts, pins, store, tally, registry)
        if result.ok:
            tally.walls.append(result.wall)
            tally.cases = sum(result.cases_by_check.values())
            if registry is not None:
                tally.latencies.append([seconds for _, seconds in calls])
        parts = suite_parts(seed, threads)
        return result.ok

    return measure(seconds, lambda: time_setup(workload, seed, work), one_pass)


def bench_toolkit(seed, seconds, work, pins, tally) -> list[float]:
    ops = toolkit_stream(seed, pins["pools"])
    paths = doc_paths(ops, work)
    tally.ops = len(ops)
    tally.instances = sum(op.command != "zx" for op in ops)

    def one_pass():
        ok, wall, latencies, cases = toolkit_pass(ops, paths, pins, tally)
        if ok:
            tally.walls.append(wall)
            tally.latencies.append(latencies)
            tally.cases = cases
        return ok

    # The set-up child writes the ring documents the passes read.
    return measure(seconds, lambda: time_setup("toolkit-cold", seed, work), one_pass)


def quantile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def peak_rss_mb(threads: int) -> float:
    """Main process peak, plus `threads` times the largest child peak when a pool ran."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if threads > 1:
        own += threads * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def end_to_end_metrics(setup: list, tally: Tally, threads: int) -> dict:
    """{name: (value, unit, samples)}.

    Throughputs are per-pass counts over the median pass, and latency
    percentiles the median over passes of each pass's percentile.
    """
    out = {"setup_s": (statistics.median(setup), "s", len(setup))}
    if tally.walls:
        wall = statistics.median(tally.walls)
        passes = len(tally.walls)
        out["wall_s"] = (wall, "s", passes)
        out["instances_per_s"] = (tally.instances / wall, "1/s", passes)
        out["cases_per_s"] = (tally.cases / wall, "1/s", passes)
        out["ops_per_s"] = (tally.ops / wall, "1/s", passes)
    if tally.latencies:
        n = sum(map(len, tally.latencies))
        for pct in (50, 95):
            value = statistics.median(quantile(pass_latencies, pct) for pass_latencies in tally.latencies)
            out["op_p%d_ms" % pct] = (value * 1e3, "ms", n)
    out["peak_rss_mb"] = (peak_rss_mb(threads), "MB", 1)
    return out


# -- traced run ---------------------------------------------------------------------


def install_spans(tracer: Tracer, loaded_rings: list) -> None:
    for owner, attr, label, computes in SPANNED:
        module, _, cls = owner.partition(".")
        target = sys.modules["hyperring_lab." + module]
        if cls:
            target = getattr(target, cls)
        # Every ring the CLI loads is kept, to count its cache entries after the pass.
        keep = loaded_rings if label == "jsonio.ring_from_dict" else None
        tracer.patch(target, attr, label, computes, keep)


def cache_entries(rings, tag: str) -> int:
    return sum(1 for ring in rings for key in ring._cache if isinstance(key, tuple) and key[0] == tag)


def layer_metrics(stats, cases_by_check, seconds_by_check, seconds_by_order, rings, report_bytes, overhead) -> dict:
    """{name: (value, unit)} for every per-layer metric; layers a workload skips read 0."""

    def span(label, field_name):
        return getattr(stats[label], field_name) if label in stats else 0

    out = {}
    for check in checks.CHECKS:
        out["checks.%s.s" % check.id] = (seconds_by_check.get(check.id, 0.0), "s")
        out["checks.%s.cases" % check.id] = (cases_by_check.get(check.id, 0), "count")
    for k in ORDERS:
        out["harness.order%d.s" % k] = (seconds_by_order.get(k, 0.0), "s")
    out["harness.generate_instances.s"] = (span("harness.generate_instances", "total_s"), "s")
    out["harness.run_suite.overhead_s"] = (
        span("harness.run_suite", "total_s") - sum(seconds_by_check.values()), "s")
    for label in ("ideals.enumerate_hyperideals", "closedness.ZxResidueModel.closed",
                  "core.validate_axioms", "fundamental.fundamental_ring"):
        out[label + ".calls"] = (span(label, "calls"), "count")
    out["ideals.enumerate_hyperideals.computed"] = (span("ideals.enumerate_hyperideals", "computed"), "count")
    for label in ("ideals.enumerate_hyperideals", "ideals.quotient_by_ideal", "ideals.n_absorbing_witness",
                  "ideals.classify_ideal", "closedness.closed_profile", "closedness.ZxResidueModel.closed",
                  "core.validate_axioms", "core.product_ring", "fundamental.fundamental_ring",
                  "fundamental.ideal_in_fundamental", "jsonio.ring_from_dict", "cli.main"):
        out[label + ".self_s"] = (span(label, "self_s"), "s")
    out["closedness.land_mask.computed"] = (cache_entries(rings, "land"), "count")
    out["core.power_profile.computed"] = (cache_entries(rings, "profile"), "count")
    out["jsonio.canonical_json.s"] = (span("jsonio.canonical_json", "total_s"), "s")
    out["jsonio.report_bytes"] = (report_bytes, "B")
    out["catalog.put_result.s"] = (span("catalog.put_result", "total_s"), "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def baseline_shares(seconds_by_check: Counter, seconds_by_order: dict) -> str:
    """Whether the measured shares still match the profile the ROADMAP baseline names."""
    total = sum(seconds_by_check.values()) or 1.0
    top = [cid for cid, _ in seconds_by_check.most_common(2)]
    biggest_order = max(seconds_by_order, key=seconds_by_order.get)
    return "baseline shares: top checks %s (%s); largest order bucket %d at %.1f%% (%s)" % (
        ", ".join("%s %.1f%%" % (cid, 100 * seconds_by_check[cid] / total) for cid in top),
        "as in baseline" if set(top) == {"T3_13hom", "T2_3"} else "CHANGED from T3_13hom, T2_3",
        biggest_order,
        100 * seconds_by_order[biggest_order] / total,
        "as in baseline" if biggest_order == 16 else "CHANGED from 16",
    )


def traced_suite(workload, seed, work, pins, tally) -> dict:
    threads = threads_for(workload)
    calls: list = []
    registry = timed_registry(calls) if threads == 1 else None
    gc.collect()
    reference = suite_pass(suite_parts(seed, threads), pins, work / "catalog" / "untraced", tally, registry)
    calls.clear()
    with Tracer() as tracer:
        install_spans(tracer, [])
        parts = suite_parts(seed, threads)
        gc.collect()
        traced = suite_pass(parts, pins, work / "catalog" / "traced", tally, registry)
    rings = [r for p in parts for r in p.instances]
    by_order: Counter = Counter()
    for order, seconds in calls:
        by_order[order] += seconds
    if traced.ok and registry is not None:
        print(baseline_shares(traced.seconds_by_check, by_order))
    return layer_metrics(tracer.stats, traced.cases_by_check, traced.seconds_by_check, by_order,
                         rings, traced.report_bytes, traced.wall - reference.wall)


def traced_toolkit(seed, work, pins, tally) -> dict:
    ops = toolkit_stream(seed, pins["pools"])
    paths = write_docs(ops, work)
    gc.collect()
    _, reference, _, _ = toolkit_pass(ops, paths, pins, tally)
    loaded: list = []
    with Tracer() as tracer:
        install_spans(tracer, loaded)
        paths = write_docs(ops, work)
        gc.collect()
        _, wall, _, _ = toolkit_pass(ops, paths, pins, tally)
    return layer_metrics(tracer.stats, {}, {}, {}, loaded, 0, wall - reference)


# -- command line -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path, pins: dict):
    """Returns (tally, {name: (value, unit, samples or None)})."""
    tally = Tally()
    if trace:
        if workload == "toolkit-cold":
            layers = traced_toolkit(seed, work, pins, tally)
        else:
            layers = traced_suite(workload, seed, work, pins, tally)
        return tally, {name: (value, unit, None) for name, (value, unit) in layers.items()}
    if workload == "toolkit-cold":
        setup = bench_toolkit(seed, seconds, work, pins, tally)
    else:
        setup = bench_suite(workload, seed, seconds, work, pins, tally)
    return tally, end_to_end_metrics(setup, tally, threads_for(workload))


def print_table(workload: str, tally: Tally, metrics: dict, trace: bool) -> None:
    print("== %s" % workload)
    print("%-40s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for name in metrics if trace else [n for n, _ in END_TO_END]:
        if name in metrics:
            value, unit, samples = metrics[name]
            print("%-40s %16.6f  %-6s %s" % (name, value, unit, "" if samples is None else samples))
        else:
            print("%-40s %16s  %-6s" % (name, "n/a", ""))
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print("%-40s %16.6f  %-6s %d attempted" % ("error_rate", rate, "ratio", tally.attempted))
    for why in tally.errors:
        print("FAILED %s" % why)


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    })


def package_ready() -> bool:
    if hyperring_lab is None:
        return False
    return Path(hyperring_lab.__file__).resolve().is_relative_to(SRC.resolve())


class Terminated(BaseException):
    """SIGTERM arrived; not an Exception, so no op counts it as its own failure."""


def _terminate(signum, frame):
    # Unwinding lets subprocess.run kill and reap a running set-up child, and
    # removes the work directory.
    raise Terminated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not package_ready():
        print("perfbench: hyperring_lab source not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed, args.work)
        return 0

    if args.workload == "all":
        # One process per workload, so that each has its own peak memory.
        codes = []
        for workload in WORKLOADS:
            sys.stdout.flush()
            codes.append(subprocess.run([
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ], cwd=ROOT).returncode)
        return max(codes)

    signal.signal(signal.SIGTERM, _terminate)
    pins = load_pins()
    work = WORK / ("run-%d" % os.getpid())
    try:
        tally, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work, pins)
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print_table(args.workload, tally, metrics, bool(args.trace))
    print(result_line(tally, metrics))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
