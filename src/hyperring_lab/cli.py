"""Command-line front end.

Exit codes: 0 when everything asked for holds, 1 when a violation or
counterexample was found, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bitsets import mask_of, members
from .catalog import Catalog, result_hash
from .closedness import (
    ZxResidueModel,
    closed_profile,
    is_sn_closed,
    is_weakly_sn_closed,
)
from .core import HyperringError, validate_axioms
from .fundamental import fundamental_ring
from .harness import SuiteConfig, generate_instances, run_suite
from .ideals import classify_ideal, is_hyperideal, proper_hyperideals
from .jsonio import (
    canonical_json,
    fundamental_to_dict,
    ideal_to_dict,
    profile_to_dict,
    read_json,
    ring_from_dict,
    ring_to_dict,
)


def _load_ring(path):
    return ring_from_dict(read_json(path))


def _ideal_masks(ring, spec):
    """Parse an ideal spec: '@enumerate' or a comma-separated member list."""
    if spec == "@enumerate":
        masks = proper_hyperideals(ring)
        if not masks:
            raise HyperringError("no proper hyperideals to enumerate")
        return masks
    try:
        xs = sorted({int(part) for part in spec.split(",") if part.strip() != ""})
    except ValueError:
        raise HyperringError("ideal spec must be comma-separated integers") from None
    if not xs:
        raise HyperringError("ideal spec is empty")
    for x in xs:
        if not 0 <= x < ring.order:
            raise HyperringError("element %d out of range 0..%d" % (x, ring.order - 1))
    mask = mask_of(xs)
    if not is_hyperideal(ring, mask):
        raise HyperringError("%r is not a hyperideal" % (xs,))
    return [mask]


def cmd_validate(args):
    ring = _load_ring(args.ring)
    report = validate_axioms(ring)
    if args.json:
        doc = {
            "name": ring.name,
            "order": ring.order,
            "axioms": [
                {"axiom": c.name, "ok": c.ok, "witness": list(c.witness or ())}
                for c in report.axioms
            ],
            "ok": report.ok,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for c in report.axioms:
            mark = "ok " if c.ok else "FAIL"
            extra = "" if c.ok else "  witness=%s" % (tuple(c.witness or ()),)
            print("%s  %s%s" % (mark, c.name, extra))
        print("hyperring" if report.ok else "not a hyperring: %s" % ", ".join(report.failed()))
    return 0 if report.ok else 1


def cmd_classify(args):
    ring = _load_ring(args.ring)
    rows = [ideal_to_dict(ring, m) for m in _ideal_masks(ring, args.ideal)]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            tags = [k for k, v in row["class"].items() if v]
            print("%s: %s" % (row["members"], ", ".join(tags) if tags else "hyperideal only"))
    return 0


def _require_positive(**flags):
    """Refuse a window bound below 1 before any work is done."""
    for flag, value in flags.items():
        if value < 1:
            raise ValueError("--%s must be at least 1, got %d" % (flag, value))


def cmd_profile(args):
    _require_positive(smax=args.smax, nmax=args.nmax)
    ring = _load_ring(args.ring)
    rows = []
    for mask in _ideal_masks(ring, args.ideal):
        rows.append(profile_to_dict(closed_profile(ring, mask, args.smax, args.nmax)))
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            print(
                "%s: omega=%s Omega=%s witnesses=%s"
                % (row["ideal"], row["omega"], row["Omega"], row["witnesses"])
            )
    return 0


def cmd_fundamental(args):
    ring = _load_ring(args.ring)
    fr = fundamental_ring(ring)
    if args.json:
        print(json.dumps(fundamental_to_dict(fr), indent=2, sort_keys=True))
    else:
        doc = fundamental_to_dict(fr)
        print("classes: %s" % (doc["classes"],))
        print("add: %s" % (doc["add"],))
        print("mul: %s" % (doc["mul"],))
    return 0


def cmd_closed(args):
    ring = _load_ring(args.ring)
    verdicts = []
    test = is_weakly_sn_closed if args.weakly else is_sn_closed
    kind = "weakly (%d,%d)-closed" if args.weakly else "(%d,%d)-closed"
    for mask in _ideal_masks(ring, args.ideal):
        ok = test(ring, mask, args.s, args.n)
        verdicts.append(ok)
        print("%s: %s: %s" % (members(mask), kind % (args.s, args.n), "yes" if ok else "no"))
    return 0 if all(verdicts) else 1


def cmd_zx(args):
    _require_positive(smax=args.smax)
    multipliers = [int(x) for x in args.multipliers.split(",") if x.strip() != ""]
    model = ZxResidueModel(args.modulus, multipliers)
    label = "weakly closed" if args.weakly else "closed"
    results = []
    for s in range(1, args.smax + 1):
        ok = model.weakly_closed(s, args.n) if args.weakly else model.closed(s, args.n)
        results.append(ok)
        verdict = "yes" if ok else "no (residue %d)" % model.witness(s, args.n)
        print("s=%d n=%d: %s: %s" % (s, args.n, label, verdict))
    print("%s for all s <= %d: %s" % (label, args.smax, "yes" if all(results) else "no"))
    return 0 if all(results) else 1


def _print_suite_table(report):
    width = max(len(r.check_id) for r in report.reports)
    for r in report.reports:
        if not r.passed:
            status = "FAIL"
        elif r.vacuous:
            status = "pass (vacuous)"
        else:
            status = "pass"
        print(
            "%-*s  cases=%-7d %s" % (width, r.check_id, r.applicable, status)
        )
        if r.note:
            print("%-*s    note: %s" % (width, "", r.note))
        if not r.passed:
            ce = r.counterexample
            print("%-*s    instance %s" % (width, "", ce["instance"]))
            print("%-*s    ideals %s" % (width, "", ce["ideals"]))
            if ce["sn"]:
                print("%-*s    (s,n)=%s" % (width, "", tuple(ce["sn"])))
            if ce["elements"]:
                print("%-*s    elements %s" % (width, "", ce["elements"]))
            print("%-*s    %s" % (width, "", ce["detail"]))
    print(
        "instances=%d  checks=%d  failing=%d  %.1fs"
        % (
            len(report.instance_names),
            len(report.reports),
            len(report.failing()),
            report.total_runtime_seconds,
        )
    )


def _require_writable_targets(args):
    """Refuse a --json or --catalog path that cannot be written, before the run."""
    if args.json and args.json != "-":
        parent = os.path.dirname(os.path.abspath(args.json))
        if not os.path.isdir(parent):
            raise HyperringError("--json directory %s does not exist" % parent)
        if os.path.isdir(args.json):
            raise HyperringError("--json path %s is a directory" % args.json)
    if args.catalog and os.path.exists(args.catalog) and not os.path.isdir(args.catalog):
        raise HyperringError("--catalog path %s is not a directory" % args.catalog)


def cmd_verify(args):
    _require_writable_targets(args)
    cfg = SuiteConfig(
        zx_max_modulus=args.zx_max_modulus,
        zx_max_multipliers=args.zx_max_multipliers,
        product_factor_max_order=args.product_factor_max_order,
        max_order=args.max_order,
        s_max=args.smax,
        n_max=args.nmax,
        tuple_max=args.tuple_max,
        absorbing_max_n=args.absorbing_max_n,
        random_count=args.random,
        seed=args.seed,
        check_ids=None if args.checks is None else tuple(args.checks.split(",")),
        threads=args.threads,
    )
    report = run_suite(cfg)
    doc = report.to_dict()
    if args.table or not args.json:
        _print_suite_table(report)
    if args.json:
        payload = canonical_json(doc)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.write("\n")
    if args.catalog:
        cat = Catalog(args.catalog)
        rid = cat.put_result(doc)
        print("result %s stored in %s" % (rid, cat.results_dir))
    else:
        print("result hash %s" % result_hash(doc))
    return 0 if report.ok else 1


def cmd_instances(args):
    cfg = SuiteConfig(random_count=args.random, seed=args.seed)
    for ring in generate_instances(cfg):
        print("%-18s order=%d" % (ring.name, ring.order))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperring-lab",
        description="finite multiplicative hyperrings: ideals, closedness, suite checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the hyperring axioms of a JSON file")
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="classify hyperideals of a ring")
    p.add_argument("ring")
    p.add_argument("--ideal", default="@enumerate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("profile", help="omega/Omega closedness profile of ideals")
    p.add_argument("ring")
    p.add_argument("--ideal", default="@enumerate")
    p.add_argument("--smax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("fundamental", help="ring of co-occurrence classes")
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fundamental)

    p = sub.add_parser("closed", help="test (s,n)-closedness of ideals")
    p.add_argument("ring")
    p.add_argument("--ideal", default="@enumerate")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weakly", action="store_true")
    p.set_defaults(fn=cmd_closed)

    p = sub.add_parser(
        "zx", help="closedness of d*Z in the integer multiplier model"
    )
    p.add_argument("modulus", type=int)
    p.add_argument("multipliers", help="comma-separated nonzero integers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--smax", type=int, default=12)
    p.add_argument("--weakly", action="store_true")
    p.set_defaults(fn=cmd_zx)

    p = sub.add_parser("verify", help="run the full check suite")
    p.add_argument("--zx-max-modulus", type=int, default=10)
    p.add_argument("--zx-max-multipliers", type=int, default=2)
    p.add_argument("--product-factor-max-order", type=int, default=6)
    p.add_argument("--max-order", type=int, default=16)
    p.add_argument("--smax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--tuple-max", type=int, default=3)
    p.add_argument("--absorbing-max-n", type=int, default=3)
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", help="comma-separated check ids (default: all)")
    p.add_argument("--threads", type=int)
    p.add_argument("--catalog", help="store the result in this directory")
    p.add_argument("--json", help="write canonical report JSON to a file, or - for stdout")
    p.add_argument("--table", action="store_true", help="print the table even with --json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("instances", help="list the generated instance stream")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_instances)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HyperringError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print("error: invalid JSON: %s" % err, file=sys.stderr)
        return 2
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
