"""Compare two `hardyshift run` reports under the print floor.

    python tests/golden/floor_diff.py OLD.json NEW.json

Every number that differs between the reports, and every coefficient
pair present in one report only (trimmed tails), must lie within the
print floor on both sides: coefficients relative to the norm of their
element (one witness element or image, one kernel entry, one matrix
entry), other numbers relative to 1.  Anything else, such as a changed
key, string, bool or a length change outside a coefficient list, is a
real difference.  Prints a count per field, each real difference with
its |Δ| over its scale (the element norm, or 1) where it is a number,
and the largest of those, and exits 1 on a real difference.
"""

from __future__ import annotations

import collections
import json
import math
import re
import sys

FLOOR = 1e-13


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pairs(x) -> bool:
    return isinstance(x, list) and bool(x) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in x)


def _pairs_in(x):
    if _is_pairs(x):
        yield from x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _pairs_in(v)
    elif isinstance(x, list):
        for v in x:
            yield from _pairs_in(v)


def _norm(x) -> float:
    return math.sqrt(sum(a * a + b * b for a, b in _pairs_in(x)))


def compare(old, new, path="$", scale=None, changed=None, real=None):
    changed = collections.defaultdict(int) if changed is None else changed
    real = [] if real is None else real
    field = re.sub(r"\[\d+\]", "[]", path)
    if isinstance(old, dict) and old.get("kind") in ("scalar", "vector"):
        scale = max(_norm(old), _norm(new))  # one witness element or image
    if _is_pairs(old) and _is_pairs(new):
        s = scale if scale is not None else max(_norm(old), _norm(new))
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else [0.0, 0.0]
            b = new[i] if i < len(new) else [0.0, 0.0]
            for x, y in zip(a, b):
                if x == y:
                    continue
                if abs(x) <= FLOOR * s and abs(y) <= FLOOR * s:
                    changed[field] += 1
                else:
                    real.append((f"{path}[{i}]: {a} -> {b} (scale {s:.3g})", abs(x - y) / s))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            real.append((f"{path}: keys {sorted(old)} -> {sorted(new)}", None))
        for k in old.keys() & new.keys():
            compare(old[k], new[k], f"{path}.{k}", scale, changed, real)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            real.append((f"{path}: length {len(old)} -> {len(new)}", None))
        for i, (a, b) in enumerate(zip(old, new)):
            compare(a, b, f"{path}[{i}]", scale, changed, real)
    elif _is_number(old) and _is_number(new):
        if old != new:
            if abs(old) <= FLOOR and abs(new) <= FLOOR:
                changed[field] += 1
            else:
                real.append((f"{path}: {old!r} -> {new!r}", abs(old - new)))
    elif type(old) is not type(new) or old != new:
        real.append((f"{path}: {old!r} -> {new!r}", None))
    return changed, real


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        old = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        new = json.load(fh)
    changed, real = compare(old, new)
    for field, n in sorted(changed.items()):
        print(f"within the floor on both sides: {n:5d}  {field}")
    for line, rel in real:
        print(f"REAL DIFFERENCE {line}" + ("" if rel is None else f" |Δ|/scale {rel:.3g}"))
    rels = [rel for _, rel in real if rel is not None]
    print(f"{sum(changed.values())} values changed within the floor, "
          f"{len(real)} real differences"
          + (f", largest |Δ|/scale {max(rels):.3g}" if rels else ""))
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
