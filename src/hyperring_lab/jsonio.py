"""JSON codecs for hyperrings, ideals, profiles, and class rings.

The interchange form stores the addition table as a matrix of element
indices and each multiplication cell as an ascending list of members, so a
file diff shows exactly which cells changed.  Decoding checks the
document (an object with a positive `order`, two tables of `order` rows, a
string `name`, an object `meta`) and hands the tables to the
`FiniteHyperring` constructor, which refuses a bad row or cell; nothing is
repaired.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .bitsets import least, members
from .closedness import ClosedProfile
from .core import FiniteHyperring, HomMap, MalformedTables
from .ideals import classify_ideal

VOLATILE_KEYS = frozenset({"runtime_seconds", "total_runtime_seconds"})


def ring_to_dict(ring: FiniteHyperring) -> dict:
    return {
        "name": ring.name,
        "order": ring.order,
        "add": [list(row) for row in ring.add],
        "mul": [[members(cell) for cell in row] for row in ring.mul],
        "meta": dict(ring.meta),
    }


def ring_from_dict(data: dict) -> FiniteHyperring:
    if not isinstance(data, dict):
        raise MalformedTables("hyperring document must be an object")
    try:
        order = data["order"]
        add_rows = data["add"]
        mul_rows = data["mul"]
    except KeyError as missing:
        raise MalformedTables("missing key %s" % missing) from None
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise MalformedTables("order must be a positive integer")
    for key, rows in (("add", add_rows), ("mul", mul_rows)):
        if not isinstance(rows, list):
            raise MalformedTables("%s must be a list of rows" % key)
        if len(rows) != order:
            raise MalformedTables("tables must have exactly %d rows" % order)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedTables("name must be a string")
    meta = data.get("meta")
    if meta is None:
        meta = {}
    elif not isinstance(meta, dict):
        raise MalformedTables("meta must be an object")
    return FiniteHyperring(add_rows, mul_rows, name=name, meta=meta)


def ideal_to_dict(ring: FiniteHyperring, imask: int) -> dict:
    return {
        "ring": ring.name,
        "members": members(imask),
        "class": classify_ideal(ring, imask),
    }


def profile_to_dict(profile: ClosedProfile) -> dict:
    return {
        "ideal": members(profile.ideal),
        "bound_L": profile.bound_L,
        "omega": list(profile.omega),
        "Omega": ["inf" if math.isinf(v) else int(v) for v in profile.Omega],
        "witnesses": {str(s): w for s, w in sorted(profile.witnesses.items())},
    }


def fundamental_to_dict(quot: FiniteHyperring, proj: HomMap) -> dict:
    return {
        "classes": [members(proj.preimage_mask(1 << i)) for i in quot.elements],
        "add": [list(row) for row in quot.add],
        "mul": [[least(cell) for cell in row] for row in quot.mul],
    }


def _strip_volatile(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {
            k: _strip_volatile(v)
            for k, v in obj.items()
            if k not in VOLATILE_KEYS
        }
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """Stable compact encoding with timing fields removed; used for hashing."""
    return json.dumps(_strip_volatile(obj), sort_keys=True, separators=(",", ":"))


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedTables("%s: JSON nested too deeply to read" % path) from None


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
