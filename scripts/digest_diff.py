#!/usr/bin/env python3
"""Compare two ``solver_digest.py --dump`` files record by record.

Example (a change against its parent checkout)::

    python3 scripts/solver_digest.py --src ../parent/src --dump parent.jsonl
    python3 scripts/solver_digest.py --src src --dump change.jsonl
    python3 scripts/digest_diff.py parent.jsonl change.jsonl

Records are matched by tag, function and their rank among the records with
that tag and function, so a call that only one tree makes shows as a record
of one file alone.  The report counts the records that changed, and among
them those that switched between a value and an error, changed an error
message, or changed the ``class_used`` of a result (such a record's other
fields live on another class and are not compared), or the shape or the
zero pattern (support) of an array field, with the tags of the first few of
each.  Only the fields that both records hold are compared; a field that
one tree's results hold and the other's lack (a renamed or new field) is
listed by name with the number of records that hold it.  Then, for each
field name (function and dotted field), it gives the number of changed
records and the largest absolute and relative difference of the numeric
entries; the relative difference of two entries is their absolute
difference over the larger magnitude.  A field that is not numeric, or
whose values differ in kind, counts as changed without a difference.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter, defaultdict

import numpy as np

EXAMPLES = 5


def records(path: str) -> dict:
    """Each record of a dump keyed by ``(tag, fn, rank)``."""
    keyed = {}
    seen: Counter = Counter()
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            key = (record["tag"], record["fn"])
            keyed[(*key, seen[key])] = record
            seen[key] += 1
    return keyed


def numeric(value) -> np.ndarray | None:
    """A field value as a float array, or None when it holds anything but numbers."""
    if isinstance(value, bool):
        return None
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None
    return None if array.dtype == object else array


def differences(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest absolute and relative entrywise difference of two arrays of one shape."""
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        gap = np.where(equal, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(equal, 0.0, gap / scale)
    gap[np.isnan(gap)] = math.inf
    rel[np.isnan(rel)] = math.inf
    return float(gap.max(initial=0.0)), float(rel.max(initial=0.0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="dump of the first tree (the parent)")
    parser.add_argument("b", help="dump of the second tree (the change)")
    args = parser.parse_args()
    old, new = records(args.a), records(args.b)
    both = [key for key in old if key in new]
    kinds: dict[str, list] = defaultdict(list)
    per_field: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    one_sided: Counter = Counter()
    changed = 0
    for key in both:
        a, b = old[key], new[key]
        where = f"{key[0]} {key[1]}"
        if "error" in a or "error" in b:
            if a != b:
                changed += 1
                kinds["value <-> error" if ("error" in a) != ("error" in b) else "error message"].append(where)
            continue
        shared = set(a["fields"]) & set(b["fields"])
        one_sided.update(f"{key[1]}.{name} only in A" for name in set(a["fields"]) - shared)
        one_sided.update(f"{key[1]}.{name} only in B" for name in set(b["fields"]) - shared)
        names = sorted(name for name in shared if a["fields"][name] != b["fields"][name])
        if not names:
            continue
        changed += 1
        if any(name.endswith("class_used") for name in names):
            # the result now lives on another class: its fields are not comparable
            kinds["class_used"].append(where)
            continue
        for name in names:
            x, y = a["fields"][name], b["fields"][name]
            stats = per_field[f"{key[1]}.{name}"]
            stats[0] += 1
            xa, ya = numeric(x), numeric(y)
            if xa is None or ya is None:
                continue
            if xa.shape != ya.shape:
                kinds["shape"].append(f"{where} {name}")
                continue
            if xa.ndim and ((xa != 0) != (ya != 0)).any():
                kinds["support"].append(f"{where} {name}")
            gap, rel = differences(xa, ya)
            stats[1], stats[2] = max(stats[1], gap), max(stats[2], rel)
    print(f"records: {len(both)} in both, {len(old) - len(both)} only in A, {len(new) - len(both)} only in B")
    print(f"changed: {changed}")
    for kind in ("value <-> error", "error message", "class_used", "shape", "support"):
        found = kinds.get(kind, [])
        print(f"{kind}: {len(found)}" + "".join(f"\n    {where}" for where in found[:EXAMPLES]))
    print(f"fields held by one side: {len(one_sided)}"
          + "".join(f"\n    {name} ({count} records)" for name, count in sorted(one_sided.items())))
    if per_field:
        width = max(len(name) for name in per_field)
        print(f"{'field':<{width}}  {'changed':>8}  {'max abs':>9}  {'max rel':>9}")
        for name, (count, gap, rel) in sorted(per_field.items()):
            print(f"{name:<{width}}  {count:>8}  {gap:>9.2e}  {rel:>9.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
