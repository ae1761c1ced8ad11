"""Problem-file schema: named objects plus a task list, JSON encoded.

Complex numbers are [re, im] pairs; polynomials are ascending-degree
coefficient arrays; matrices are row-major nested coefficient arrays with
an optional min_pow.  Every task reference is resolved against the
declared objects before any computation starts, so an unknown name fails
the whole file with a field path instead of failing one task mid-run.
Floats are parsed in C, or one at a time when the text could hold a
literal past the float range; a non-finite number anywhere is refused.
A file's coefficients are read in one array pass; a file that pass refuses
is walked object by object, which names the first bad entry.
Operators are string tokens only.  ``TASK_KEYS`` is the one task schema,
read by the parser and by the CLI's flags; a key that a task or spec does
not define, or a gamma outside 1..m-1, is refused.  The CLI passes a
single-task subcommand's flags here as task keys, so errors name the JSON
path; integer flags, like operator-token integers, are ASCII digits only.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import Any, Optional, Sequence

import numpy as np

from .blaschke import BlaschkeProduct
from .errors import HardyShiftError, _is_integer
from .invariance import OperatorSpec
from .laurent import _check_sigma_params, from_poly_grid
from .subspaces import MonomialSubspace, SpanSubspace, orthonormalize
from .tolerances import ANALYTICITY_TOL, MEMBERSHIP_TOL, RANK_TOL

__all__ = ["TASK_KEYS", "ParseError", "ValidationError", "Problem", "Task",
           "read_problem_file", "load_problem", "parse_problem", "parse_operator_token"]

# Each task kind's keys, in the order they are checked: key -> (value, required).
# A value is the object table that a name refers to ("span": a span subspace),
# "operators", "conditions", "bool", or the least value of an integer.  A key
# required "theta" is required with a theta and refused without one.
_CHECK_KEYS = {"subspace": ("subspaces", True), "operators": ("operators", True)}
TASK_KEYS = {
    "check-invariance": _CHECK_KEYS,
    "check-near-invariance": _CHECK_KEYS,
    "verify-theta": {"theta": ("matrices", True), "m": (2, True),
                     "conditions": ("conditions", True)},
    "hitt": {"subspace": ("span", True), "m": (2, True), "theta": ("matrices", False),
             "gamma": (1, "theta"), "k": (1, "theta")},
    "blaschke-transfer": {"subspace": ("span", True), "blaschke": ("blaschke", True),
                          "n": (1, True), "depth": (1, False), "near": ("bool", False)},
    "build-sigma": {"m": (2, True), "gamma": (1, True), "k": (1, True)},
}
_NOUNS = {"subspaces": "subspace", "span": "subspace", "matrices": "matrix",
          "blaschke": "blaschke product"}

# An integer in an operator token or an integer flag: ASCII digits only,
# since int() also takes digits such as '٣', underscores and a sign.
_INT_TOKEN = re.compile(r"-?[0-9]+")


class ParseError(HardyShiftError):
    """The problem file is not syntactically valid JSON."""


class ValidationError(HardyShiftError):
    """The problem file parsed but violates the schema; carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _real_at(path: str, value: Any) -> float:
    """A finite JSON number as a float; booleans are not numbers here."""
    try:
        if _is_integer(value) or isinstance(value, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValidationError(path, f"expected a finite number, got {value!r}")


def _complex_at(path: str, value: Any) -> complex:
    """A number or an [re, im] pair, each part finite."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real_at(path, value[0]), _real_at(path, value[1]))
    return complex(_real_at(path, value))


def _object_at(parent: dict, key: str, path: str) -> dict:
    """An optional section, which must be a JSON object when present."""
    value = parent.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(path, "must be an object")
    return value


def _known_keys(spec: dict, keys: Sequence[str], path: str) -> None:
    """Refuse a key that the spec's schema does not define."""
    if unknown := [key for key in spec if key not in keys]:
        raise ValidationError(f"{path}.{unknown[0]}", "unknown key")


@contextlib.contextmanager
def _at(path: str):
    """A domain error raised inside, as a ValidationError naming path."""
    try:
        yield
    except HardyShiftError as exc:
        raise ValidationError(path, str(exc)) from exc


def _coeff_list_at(path: str, value: Any) -> Sequence[complex]:
    """A coefficient list walked entry by entry, so that an error names the first bad one."""
    if not isinstance(value, list) or not value:
        raise ValidationError(path, "expected a nonempty coefficient array")
    return [_complex_at(f"{path}[{i}]", v) for i, v in enumerate(value)]


def _coeff_pass(polys: dict, matrices: Any, cap: int):
    """A file's coefficient arrays, its polys and then its matrix entries in file order, in
    one array pass: (the polys' zero-padded rows as one table, an iterator over the entries
    as slices of one array).  None, for the walk, unless each array is a nonempty list of
    [re, im] pairs of finite ints and floats and no poly has a nonzero past the cap."""
    try:  # a matrix spec that is not an object of row lists is walked
        arrays = [*polys.values(),
                  *(e for spec in matrices.values() for row in spec["entries"] for e in row)]
    except (AttributeError, KeyError, TypeError):
        return None
    if set(map(type, arrays)) != {list} or not all(arrays):
        return None
    pairs = list(chain.from_iterable(arrays))
    if (set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}
            or not set(map(type, flat := list(chain.from_iterable(pairs)))) <= {int, float}):
        return None
    try:
        values = np.array(flat, dtype=np.float64).view(np.complex128)
    except OverflowError:  # an integer beyond the float range
        return None
    n, lens = len(polys), np.array([len(a) for a in arrays])
    ends = np.cumsum(lens)
    head = values[: ends[n - 1] if n else 0]  # the polys' coefficients
    if (lens[:n] > cap + 1).any():  # a poly past the cap keeps only zeros there
        col = np.arange(head.size) - np.repeat(ends[:n] - lens[:n], lens[:n])
        head = None if head[col > cap].any() else head[col <= cap]
    if head is None or not np.isfinite(values).all():
        return None
    table = np.zeros((n, cap + 1), np.complex128)
    table[np.arange(cap + 1) < lens[:n, None]] = head
    return table, (values[e - k:e] for e, k in zip(ends[n:].tolist(), lens[n:].tolist()))


@dataclass
class Task:
    index: int
    kind: str
    params: dict


@dataclass
class Problem:
    cap: int
    tolerances: dict
    polys: dict  # name -> the cap+1 coefficients
    matrices: dict
    blaschke: dict
    subspaces: dict
    tasks: list

    @property
    def membership_tol(self) -> float:
        return self.tolerances["membership"]

    @property
    def rank_tol(self) -> float:
        return self.tolerances["rank"]

    @property
    def analyticity_tol(self) -> float:
        return self.tolerances["analyticity"]


def parse_operator_token(token: Any, problem: "Problem", path: str) -> OperatorSpec:
    """A compact "kind:power" or "kind:NAME:power" string token."""
    if not isinstance(token, str):
        raise ValidationError(path, "operator must be a string token")
    kind, *args = token.split(":")
    if kind not in ("shift", "coshift", "toeplitz", "toeplitz_adjoint"):
        raise ValidationError(path, f"unknown operator kind {kind!r}")
    toeplitz = kind.startswith("toeplitz")
    if len(args) != 1 + toeplitz or not _INT_TOKEN.fullmatch(args[-1]):
        raise ValidationError(path, f"bad operator token {token!r}")
    power = int(args[-1])
    blaschke = _ref(problem.blaschke, "blaschke product", args[0], path) if toeplitz else None
    if power < 1:
        raise ValidationError(path, "operator power must be >= 1")
    return OperatorSpec(power, kind in ("coshift", "toeplitz_adjoint"), blaschke)


def _ref(objects: dict, what: str, name: Any, path: str) -> Any:
    """The declared object a task or span names."""
    if not isinstance(name, str) or name not in objects:
        raise ValidationError(path, f"unknown {what} {name!r}")
    return objects[name]


def _finite(token: str) -> float:
    """A JSON number token as a float; NaN, Infinity, -Infinity and a
    literal past the float range such as 1e400 raise ValueError."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _float_parser(text: str) -> Any:
    """json's parse_float: None (C parsing) unless a float literal could pass the float range.
    With I digits before the point and exponent E it is below 10^(I+E): flag I > 198, E > 99."""
    a = np.frombuffer(text.encode().replace(b"+", b"") + b"   ", np.uint8)  # pad past e + 3
    digit = (a - ord("0")) < 10  # all-digit 100-byte blocks: any run of 199 holds one
    e = np.flatnonzero((a | 32) == ord("e"))  # 'e' or 'E' before three digits: E > 99
    return _finite if (digit[: a.size // 100 * 100].reshape(-1, 100).all(axis=1).any()
                       or (digit[e + 1] & digit[e + 2] & digit[e + 3]).any()) else None


def read_problem_file(path: str) -> Any:
    """The JSON value of a problem file.  Unreadable or undecodable bytes,
    bad JSON, nesting too deep to parse and non-finite numbers, anywhere
    in the file, raise ParseError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text, parse_float=_float_parser(text), parse_constant=_finite)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"{path}: {exc}") from exc


def load_problem(path: str, cap: Optional[int] = None,
                 tol: Optional[float] = None) -> Problem:
    """Parse a problem file: ``read_problem_file``, then ``parse_problem``."""
    return parse_problem(read_problem_file(path), cap, tol)


def parse_problem(data: Any, cap: Optional[int] = None,
                  tol: Optional[float] = None) -> Problem:
    if not isinstance(data, dict):
        raise ValidationError("$", "problem file must be a JSON object")
    ws = _object_at(data, "workspace", "workspace")
    file_cap = ws.get("cap", 64)
    if not _is_integer(file_cap) or file_cap < 1:
        raise ValidationError("workspace.cap", "must be a positive integer")
    if cap is not None:
        if not _is_integer(cap) or cap < 1:
            raise ValidationError("--cap", "must be a positive integer")
        file_cap = cap
    tols = {"membership": MEMBERSHIP_TOL, "rank": RANK_TOL,
            "analyticity": ANALYTICITY_TOL}
    for key, val in _object_at(ws, "tolerances", "workspace.tolerances").items():
        if key not in tols:
            raise ValidationError(f"workspace.tolerances.{key}", "unknown tolerance")
        path = f"workspace.tolerances.{key}"
        tols[key] = _real_at(path, val)
        if tols[key] <= 0:
            raise ValidationError(path, "must be positive")
    if tol is not None:
        tols["membership"] = _real_at("--tol", tol)
        if tols["membership"] <= 0:
            raise ValidationError("--tol", "must be positive")

    objects = _object_at(data, "objects", "objects")
    polys = _object_at(objects, "polys", "objects.polys")
    batch = _coeff_pass(polys, objects.get("matrices", {}), file_cap)
    table, read = batch or (np.zeros((len(polys), file_cap + 1), np.complex128), None)
    for i, (name, coeffs) in enumerate(() if batch else polys.items()):  # the walk
        vals = np.asarray(_coeff_list_at(f"objects.polys.{name}", coeffs), dtype=np.complex128)
        if vals[file_cap + 1:].any():
            raise ValidationError(f"objects.polys.{name}", f"coefficients up to degree "
                                  f"{vals.size - 1} exceed cap {file_cap}")
        table[i, : vals.size] = vals[: file_cap + 1]
    problem = Problem(file_cap, tols, dict(zip(polys, table)), {}, {}, {}, [])

    for name, spec in _object_at(objects, "matrices", "objects.matrices").items():
        path = f"objects.matrices.{name}"
        if not isinstance(spec, dict) or "entries" not in spec:
            raise ValidationError(path, "expected an object with 'entries'")
        _known_keys(spec, ("entries", "min_pow"), path)
        entries = spec["entries"]
        if not isinstance(entries, list) or not entries:
            raise ValidationError(f"{path}.entries", "expected a nonempty row list")
        grid = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or not row:
                raise ValidationError(f"{path}.entries[{i}]", "expected a nonempty column list")
            grid.append([next(read) if batch else _coeff_list_at(f"{path}.entries[{i}][{j}]", e)
                         for j, e in enumerate(row)])
        min_pow = spec.get("min_pow", 0)
        if not _is_integer(min_pow):
            raise ValidationError(f"{path}.min_pow", "must be an integer")
        with _at(path):
            problem.matrices[name] = from_poly_grid(grid, min_pow)

    for name, spec in _object_at(objects, "blaschke", "objects.blaschke").items():
        path = f"objects.blaschke.{name}"
        if not isinstance(spec, dict) or "zeros" not in spec:
            raise ValidationError(path, "expected an object with 'zeros'")
        _known_keys(spec, ("lambda", "zeros"), path)
        if not isinstance(spec["zeros"], list):
            raise ValidationError(f"{path}.zeros", "expected a list of zeros")
        lam = _complex_at(f"{path}.lambda", spec.get("lambda", 1.0))
        zeros = [_complex_at(f"{path}.zeros[{i}]", z)
                 for i, z in enumerate(spec["zeros"])]
        with _at(path):
            problem.blaschke[name] = BlaschkeProduct(lam, zeros)

    for name, spec in _object_at(data, "subspaces", "subspaces").items():
        path = f"subspaces.{name}"
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ValidationError(path, "expected an object with 'kind'")
        kind = spec["kind"]
        if kind == "monomial":
            _known_keys(spec, ("kind", "generators", "exceptional", "cap"), path)
            gens = spec.get("generators", [])
            if not isinstance(gens, list) or not all(_is_integer(g) for g in gens):
                raise ValidationError(f"{path}.generators", "expected a list of integers")
            exc_set = spec.get("exceptional", [])
            if not isinstance(exc_set, list) or not all(_is_integer(e) for e in exc_set):
                raise ValidationError(f"{path}.exceptional", "expected a list of integers")
            mcap = spec.get("cap", file_cap)
            if not _is_integer(mcap) or mcap < 0:
                raise ValidationError(f"{path}.cap", "must be a nonnegative integer")
            with _at(path):
                problem.subspaces[name] = MonomialSubspace(tuple(gens), mcap,
                                                           frozenset(exc_set), label=name)
        elif kind == "span":
            _known_keys(spec, ("kind", "generators"), path)
            gen_names = spec.get("generators", [])
            if not isinstance(gen_names, list) or not gen_names:
                raise ValidationError(f"{path}.generators", "expected a nonempty name list")
            gens = [_ref(problem.polys, "polynomial", g, f"{path}.generators")
                    for g in gen_names]
            problem.subspaces[name] = orthonormalize(np.column_stack(gens), tols["rank"],
                                                     label=name)
        else:
            raise ValidationError(f"{path}.kind", f"unknown subspace kind {kind!r}")

    raw_tasks = data.get("tasks", [])
    if not isinstance(raw_tasks, list):
        raise ValidationError("tasks", "must be a list")
    for idx, raw in enumerate(raw_tasks):
        problem.tasks.append(_parse_task(problem, idx, raw))
    return problem


def _condition_at(cond: Any, m: int, path: str) -> tuple:
    """One verify-theta condition {"gamma": γ, "k": k} as (γ, k), by build_sigma's rule."""
    if not (isinstance(cond, dict) and cond.keys() == {"gamma", "k"}
            and _is_integer(cond["gamma"]) and _is_integer(cond["k"])):
        raise ValidationError(path, "expected {'gamma': int, 'k': int}")
    with _at(path):
        _check_sigma_params(m, cond["gamma"], cond["k"])
    return cond["gamma"], cond["k"]


def _parse_task(problem: Problem, idx: int, raw: Any) -> Task:
    """The task's keys, checked in the order of its kind's TASK_KEYS entry."""
    path = f"tasks[{idx}]"
    if not isinstance(raw, dict) or "task" not in raw:
        raise ValidationError(path, "expected an object with 'task'")
    kind = raw["task"]
    if not isinstance(kind, str) or kind not in TASK_KEYS:
        raise ValidationError(f"{path}.task", f"unknown task {kind!r}")
    _known_keys(raw, ("task", *TASK_KEYS[kind]), path)
    params: dict = {}
    for key, (value, required) in TASK_KEYS[kind].items():
        at, val = f"{path}.{key}", raw.get(key)
        if required == "theta":
            if key in raw and "theta" not in raw:
                raise ValidationError(at, "given without 'theta'")
            required = "theta" in raw
        if key not in raw and not required:
            continue
        if isinstance(value, int):
            if not _is_integer(val) or val < value:
                raise ValidationError(at, f"must be an integer >= {value}")
        elif value == "bool":
            if not isinstance(val, bool):
                raise ValidationError(at, "must be a boolean")
        elif value in ("operators", "conditions"):
            if not isinstance(val, list) or not val:
                raise ValidationError(at, "expected a nonempty list")
            # verify-theta's m precedes its conditions
            val = [parse_operator_token(v, problem, f"{at}[{i}]") if value == "operators"
                   else _condition_at(v, params["m"], f"{at}[{i}]") for i, v in enumerate(val)]
        else:  # a name in an object table
            params[f"{key}_name"] = val
            val = _ref(getattr(problem, "subspaces" if value == "span" else value),
                       _NOUNS[value], val, at)
            if value == "span" and not isinstance(val, SpanSubspace):
                raise ValidationError(at, f"{kind} needs a span subspace")
        params[key] = val
    if "gamma" in params:  # build-sigma, or hitt with a theta
        with _at(f"{path}.gamma"):
            _check_sigma_params(params["m"], params["gamma"], params["k"])
    return Task(idx, kind, params)
