"""Command-line front end.

Exit codes: 0 when everything asked for holds, 1 when a violation or
counterexample was found, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

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
    doc = fundamental_to_dict(*fundamental_ring(ring))
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
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


def _suite_config(args):
    """SuiteConfig of the suite flags given; SuiteConfig defaults the rest."""
    given = vars(args)
    names = [f.name for f in fields(SuiteConfig)]
    return SuiteConfig(**{name: given[name] for name in names if name in given})


def cmd_verify(args):
    _require_writable_targets(args)
    report = run_suite(_suite_config(args))
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
    for ring in generate_instances(_suite_config(args)):
        print("%-18s order=%d" % (ring.name, ring.order))
    return 0


def _ring_arguments(p):
    p.add_argument("ring")
    p.add_argument("--json", action="store_true")


def _classify_arguments(p):
    p.add_argument("ring")
    p.add_argument("--ideal", default="@enumerate")
    p.add_argument("--json", action="store_true")


def _profile_arguments(p):
    p.add_argument("ring")
    p.add_argument("--ideal", default="@enumerate")
    p.add_argument("--smax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--json", action="store_true")


def _closed_arguments(p):
    p.add_argument("ring")
    p.add_argument("--ideal", default="@enumerate")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weakly", action="store_true")


def _zx_arguments(p):
    p.add_argument("modulus", type=int)
    p.add_argument("multipliers", help="comma-separated nonzero integers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--smax", type=int, default=12)
    p.add_argument("--weakly", action="store_true")


def _instances_arguments(p):
    # The suite flags store under SuiteConfig's field names, and only when
    # given: SuiteConfig holds the defaults.
    p.argument_default = argparse.SUPPRESS
    p.add_argument("--random", type=int, dest="random_count", metavar="RANDOM")
    p.add_argument("--seed", type=int)


def _verify_arguments(p):
    p.argument_default = argparse.SUPPRESS
    p.add_argument("--zx-max-modulus", type=int)
    p.add_argument("--zx-max-multipliers", type=int)
    p.add_argument("--product-factor-max-order", type=int)
    p.add_argument("--max-order", type=int)
    p.add_argument("--smax", type=int, dest="s_max", metavar="SMAX")
    p.add_argument("--nmax", type=int, dest="n_max", metavar="NMAX")
    p.add_argument("--tuple-max", type=int)
    p.add_argument("--absorbing-max-n", type=int)
    _instances_arguments(p)
    p.add_argument(
        "--checks", type=lambda ids: tuple(ids.split(",")), dest="check_ids",
        metavar="CHECKS", help="comma-separated check ids (default: all)",
    )
    p.add_argument("--threads", type=int)
    p.add_argument("--catalog", default=None, help="store the result in this directory")
    p.add_argument(
        "--json", default=None, help="write canonical report JSON to a file, or - for stdout"
    )
    p.add_argument(
        "--table", action="store_true", default=False, help="print the table even with --json"
    )


# The subcommands in help order, as (name, help, argument adder, handler).
SUBCOMMANDS = (
    ("validate", "check the hyperring axioms of a JSON file", _ring_arguments, cmd_validate),
    ("classify", "classify hyperideals of a ring", _classify_arguments, cmd_classify),
    ("profile", "omega/Omega closedness profile of ideals", _profile_arguments, cmd_profile),
    ("fundamental", "ring of co-occurrence classes", _ring_arguments, cmd_fundamental),
    ("closed", "test (s,n)-closedness of ideals", _closed_arguments, cmd_closed),
    ("zx", "closedness of d*Z in the integer multiplier model", _zx_arguments, cmd_zx),
    ("verify", "run the full check suite", _verify_arguments, cmd_verify),
    ("instances", "list the generated instance stream", _instances_arguments, cmd_instances),
)

def build_parser(names=None):
    """The parser with the subcommands named, or with all of them.

    Built with fewer, it still spells every name in its usage line, so its
    usage reads as the whole parser's.  Only a missing or unknown subcommand
    would show the difference in its message, and main builds them all then.
    """
    parser = argparse.ArgumentParser(
        prog="hyperring-lab",
        description="finite multiplicative hyperrings: ideals, closedness, suite checks",
    )
    chosen = [row for row in SUBCOMMANDS if names is None or row[0] in names]
    spelled = {}
    if len(chosen) < len(SUBCOMMANDS):
        spelled["metavar"] = "{%s}" % ",".join(row[0] for row in SUBCOMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, **spelled)
    for name, help_text, add_arguments, handler in chosen:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    """Run one command.  Only the named subcommand's parser is built; help,
    a missing or an unknown subcommand build them all."""
    if argv is None:
        argv = sys.argv[1:]
    named = argv[:1] if argv and any(argv[0] == row[0] for row in SUBCOMMANDS) else None
    args = build_parser(named).parse_args(argv)
    try:
        return args.fn(args)
    except json.JSONDecodeError as err:  # a ValueError, so it goes first
        print("error: invalid JSON: %s" % err, file=sys.stderr)
        return 2
    except (HyperringError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
