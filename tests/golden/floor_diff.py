"""Compare two `hardyshift run` reports under the print floor.

    python tests/golden/floor_diff.py OLD.json NEW.json
    python tests/golden/floor_diff.py OLD_DIR NEW_DIR

Every number that differs between the reports, and every coefficient
pair present in one report only (trimmed tails), must lie within the
print floor on both sides: coefficients relative to the norm of their
element (one witness element or image, one kernel entry, one matrix
entry), other numbers relative to 1.  Anything else, such as a changed
key, string, bool or a length change outside a coefficient list, is a
real difference.  Prints a count per field, each real difference with
its |Δ| over its scale (the element norm, or 1) where it is a number,
and the largest of those, and exits 1 on a real difference.

Given two directories written by `write_reports.py`, it compares every
report file of the two trees: the exit-code line and any report that is
not JSON (the text format, input errors) byte for byte, where any
difference is real, and JSON reports as above.  It prints each moved
report with its counts, every real difference that is not a number, a
count of moved numbers per field path (indices dropped) within the floor
and past it, and the largest |Δ|/scale over all reports; a report found
in one tree only is a real difference.
"""

from __future__ import annotations

import collections
import json
import math
import pathlib
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
                    real.append((f"{path}[{i}]: {a} -> {b} (scale {s:.3g})", abs(x - y) / s,
                                 field))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            real.append((f"{path}: keys {sorted(old)} -> {sorted(new)}", None, field))
        for k in old.keys() & new.keys():
            compare(old[k], new[k], f"{path}.{k}", scale, changed, real)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            real.append((f"{path}: length {len(old)} -> {len(new)}", None, field))
        for i, (a, b) in enumerate(zip(old, new)):
            compare(a, b, f"{path}[{i}]", scale, changed, real)
    elif _is_number(old) and _is_number(new):
        if old != new:
            if abs(old) <= FLOOR and abs(new) <= FLOOR:
                changed[field] += 1
            else:
                real.append((f"{path}: {old!r} -> {new!r}", abs(old - new), field))
    elif type(old) is not type(new) or old != new:
        real.append((f"{path}: {old!r} -> {new!r}", None, field))
    return changed, real


def _report(path: pathlib.Path):
    """The exit-code line of a report file, and its report: parsed JSON, or
    the text itself when it is not JSON."""
    head, _, body = path.read_text(encoding="utf-8").partition("\n")
    try:
        return head, json.loads(body)
    except json.JSONDecodeError:
        return head, body


def compare_trees(old_dir: pathlib.Path, new_dir: pathlib.Path) -> int:
    files = {p.relative_to(root) for root in (old_dir, new_dir)
             for p in root.rglob("*") if p.is_file()}
    moved = collections.defaultdict(lambda: [0, 0])  # field: [within the floor, past it]
    rels, n_real, n_moved = [], 0, 0
    for name in sorted(files, key=str):
        if not ((old_dir / name).is_file() and (new_dir / name).is_file()):
            print(f"REAL DIFFERENCE {name}: in one tree only")
            n_real += 1
            continue
        (old_exit, old), (new_exit, new) = _report(old_dir / name), _report(new_dir / name)
        if isinstance(old, str) or isinstance(new, str):
            changed, real = {}, [] if old == new else [("report text differs", None, "$")]
        else:
            changed, real = compare(old, new)
        if old_exit != new_exit:
            real.append((f"{old_exit!r} -> {new_exit!r}", None, "exit"))
        if not (changed or real):
            continue
        n_moved += 1
        for field, n in changed.items():
            moved[field][0] += n
        for line, rel, field in real:
            if rel is None:
                print(f"REAL DIFFERENCE {name}: {line}")
            else:
                moved[field][1] += 1
                rels.append(rel)
        n_real += len(real)
        worst = max((rel for _, rel, _ in real if rel is not None), default=None)
        print(f"moved {name}: {sum(changed.values())} within the floor, {len(real)} real"
              + ("" if worst is None else f", largest |Δ|/scale {worst:.3g}"))
    for field, (within, past) in sorted(moved.items()):
        print(f"moved numbers: {within:5d} within the floor, {past:5d} past it  {field}")
    print(f"{n_moved} of {len(files)} reports moved, {n_real} real differences"
          + (f", largest |Δ|/scale {max(rels):.3g}" if rels else ""))
    return 1 if n_real else 0


def main(argv) -> int:
    if pathlib.Path(argv[1]).is_dir():
        return compare_trees(pathlib.Path(argv[1]), pathlib.Path(argv[2]))
    with open(argv[1], encoding="utf-8") as fh:
        old = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        new = json.load(fh)
    changed, real = compare(old, new)
    for field, n in sorted(changed.items()):
        print(f"within the floor on both sides: {n:5d}  {field}")
    for line, rel, _ in real:
        print(f"REAL DIFFERENCE {line}" + ("" if rel is None else f" |Δ|/scale {rel:.3g}"))
    rels = [rel for _, rel, _ in real if rel is not None]
    print(f"{sum(changed.values())} values changed within the floor, "
          f"{len(real)} real differences"
          + (f", largest |Δ|/scale {max(rels):.3g}" if rels else ""))
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
