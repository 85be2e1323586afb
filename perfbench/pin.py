"""Record the outputs the benchmark checks against, in perfbench/pins.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are trusted: every later commit must
reproduce these bytes, and a speed-up that changes them is a regression.  It
writes the canonical report hash of the default sweep and of each pinned
tail seed, and a digest of every toolkit command on every ring and residue
model that a seed can draw, with the number of hyperideals it lists.  The
toolkit rows are in ascending order of the seconds they took here, which
the benchmark uses to stratify its draws; re-pinning on another machine
reorders them and so changes which rings a seed draws.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def pin_suite() -> dict:
    base_cfg = run.harness.SuiteConfig(threads=1)
    base = run.harness.generate_instances(base_cfg)
    default = run.catalog.result_hash(run.harness.run_suite(base_cfg, instances=base).to_dict())
    taken = {ring.name for ring in base}
    tails = []
    for tail_seed in range(run.TAIL_SEEDS):
        part = run.tail_part(tail_seed, 1, taken)
        report = run.harness.run_suite(part.cfg, instances=part.instances)
        tails.append(run.catalog.result_hash(report.to_dict()))
    return {"default": default, "tail_count": run.TAIL_COUNT, "tail": tails}


def pin_rings(work: Path) -> list[str]:
    """One row per ring, cheapest first (the four commands' total seconds)."""
    rows = []
    work.mkdir(parents=True, exist_ok=True)
    path = work / "ring.json"
    for spec in run.ring_pool():
        ring = spec.build()
        if ring.name != spec.name:
            raise SystemExit("pool name %s differs from ring name %s" % (spec.name, ring.name))
        run.jsonio.write_json(str(path), run.jsonio.ring_to_dict(ring))
        digests, listed, cost = [], {}, 0.0
        for command in run.RING_COMMANDS:
            code, text, seconds = run.run_op(run.Op(command, spec), path)
            digests.append(run.output_digest(code, text))
            cost += seconds
            if command in ("classify", "profile"):
                listed[command] = len(json.loads(text))
        if listed["classify"] != listed["profile"]:
            raise SystemExit("%s: classify and profile list different ideals" % spec.name)
        rows.append((cost, "\t".join([spec.name, *digests, str(listed["classify"])])))
    header = "# ring\t" + "\t".join(run.RING_COMMANDS) + "\tideals listed by classify and profile"
    return [header] + [line for _, line in sorted(rows)]


def pin_zx() -> list[str]:
    """One row per residue model, cheapest first."""
    rows = []
    for spec in run.zx_pool():
        code, text, seconds = run.run_op(run.Op("zx", spec), None)
        rows.append((seconds, "%s\t%s" % (spec.name, run.output_digest(code, text))))
    return ["# d multipliers n\tdigest"] + [line for _, line in sorted(rows)]


def main() -> int:
    if not run.package_ready():
        print("pin: hyperring_lab source not found under %s" % run.SRC, file=sys.stderr)
        return 2
    work = run.WORK / "pin"
    run.PINS.mkdir(exist_ok=True)
    try:
        (run.PINS / "zx.tsv").write_text("\n".join(pin_zx()) + "\n")
        (run.PINS / "rings.tsv").write_text("\n".join(pin_rings(work)) + "\n")
        suite = pin_suite()
        (run.PINS / "suite.json").write_text(json.dumps(suite, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("default sweep result hash %s" % suite["default"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
