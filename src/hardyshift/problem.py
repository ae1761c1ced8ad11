"""Problem-file schema: named objects plus a task list, JSON encoded.

Complex numbers are [re, im] pairs; polynomials are ascending-degree
coefficient arrays; matrices are row-major nested coefficient arrays with
an optional min_pow.  Every task reference is resolved against the
declared objects before any computation starts, so an unknown name fails
the whole file with a field path instead of failing one task mid-run.
Floats are parsed in C, or one at a time when the text could hold a
literal past the float range; a non-finite number anywhere is refused.
Operators are string tokens only.  The CLI passes a single-task
subcommand's flags here as task keys, so errors name the JSON path;
integer flags, like operator-token integers, are ASCII digits only.
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
from .laurent import from_poly_grid
from .subspaces import MonomialSubspace, SpanSubspace, orthonormalize
from .tolerances import ANALYTICITY_TOL, MEMBERSHIP_TOL, RANK_TOL

__all__ = ["ParseError", "ValidationError", "Problem", "Task",
           "read_problem_file", "load_problem", "parse_problem", "parse_operator_token"]

TASK_KINDS = ("check-invariance", "check-near-invariance", "verify-theta",
              "hitt", "blaschke-transfer", "build-sigma")

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


def _coeff_list_at(path: str, value: Any) -> Sequence[complex]:
    """A list of [re, im] pairs of ints and floats is read in one array
    pass; any other list, or one with a value past the float range, is
    walked, so that an error names the first bad entry."""
    if not isinstance(value, list) or not value:
        raise ValidationError(path, "expected a nonempty coefficient array")
    if (set(map(type, value)) == {list} and set(map(len, value)) == {2}
            and set(map(type, flat := list(chain.from_iterable(value)))) <= {int, float}):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            pairs = np.array(flat, dtype=np.float64)
            if np.isfinite(pairs).all():
                return pairs.view(np.complex128)
    return [_complex_at(f"{path}[{i}]", v) for i, v in enumerate(value)]


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

    problem = Problem(file_cap, tols, {}, {}, {}, {}, [])
    objects = _object_at(data, "objects", "objects")

    for name, coeffs in _object_at(objects, "polys", "objects.polys").items():
        vals = np.asarray(_coeff_list_at(f"objects.polys.{name}", coeffs), dtype=np.complex128)
        if vals[file_cap + 1:].any():
            raise ValidationError(f"objects.polys.{name}", f"coefficients up to degree "
                                  f"{vals.size - 1} exceed cap {file_cap}")
        problem.polys[name] = np.zeros(file_cap + 1, dtype=np.complex128)
        problem.polys[name][: vals.size] = vals[: file_cap + 1]

    for name, spec in _object_at(objects, "matrices", "objects.matrices").items():
        path = f"objects.matrices.{name}"
        if not isinstance(spec, dict) or "entries" not in spec:
            raise ValidationError(path, "expected an object with 'entries'")
        entries = spec["entries"]
        if not isinstance(entries, list) or not entries:
            raise ValidationError(f"{path}.entries", "expected a nonempty row list")
        grid = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or not row:
                raise ValidationError(f"{path}.entries[{i}]", "expected a nonempty column list")
            grid.append([_coeff_list_at(f"{path}.entries[{i}][{j}]", e)
                         for j, e in enumerate(row)])
        min_pow = spec.get("min_pow", 0)
        if not _is_integer(min_pow):
            raise ValidationError(f"{path}.min_pow", "must be an integer")
        try:
            problem.matrices[name] = from_poly_grid(grid, min_pow)
        except HardyShiftError as exc:
            raise ValidationError(path, str(exc)) from exc

    for name, spec in _object_at(objects, "blaschke", "objects.blaschke").items():
        path = f"objects.blaschke.{name}"
        if not isinstance(spec, dict) or "zeros" not in spec:
            raise ValidationError(path, "expected an object with 'zeros'")
        if not isinstance(spec["zeros"], list):
            raise ValidationError(f"{path}.zeros", "expected a list of zeros")
        lam = _complex_at(f"{path}.lambda", spec.get("lambda", 1.0))
        zeros = [_complex_at(f"{path}.zeros[{i}]", z)
                 for i, z in enumerate(spec["zeros"])]
        try:
            problem.blaschke[name] = BlaschkeProduct(lam, zeros)
        except HardyShiftError as exc:
            raise ValidationError(path, str(exc)) from exc

    for name, spec in _object_at(data, "subspaces", "subspaces").items():
        path = f"subspaces.{name}"
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ValidationError(path, "expected an object with 'kind'")
        kind = spec["kind"]
        if kind == "monomial":
            gens = spec.get("generators", [])
            if not isinstance(gens, list) or not all(_is_integer(g) for g in gens):
                raise ValidationError(f"{path}.generators", "expected a list of integers")
            exc_set = spec.get("exceptional", [])
            if not isinstance(exc_set, list) or not all(_is_integer(e) for e in exc_set):
                raise ValidationError(f"{path}.exceptional", "expected a list of integers")
            mcap = spec.get("cap", file_cap)
            if not _is_integer(mcap) or mcap < 0:
                raise ValidationError(f"{path}.cap", "must be a nonnegative integer")
            try:
                problem.subspaces[name] = MonomialSubspace(tuple(gens), mcap,
                                                           frozenset(exc_set), label=name)
            except HardyShiftError as exc:
                raise ValidationError(path, str(exc)) from exc
        elif kind == "span":
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


def _int_at(raw: dict, key: str, path: str, minimum: int = 1) -> int:
    val = raw.get(key)
    if not _is_integer(val) or val < minimum:
        raise ValidationError(f"{path}.{key}", f"must be an integer >= {minimum}")
    return val


def _parse_task(problem: Problem, idx: int, raw: Any) -> Task:
    path = f"tasks[{idx}]"
    if not isinstance(raw, dict) or "task" not in raw:
        raise ValidationError(path, "expected an object with 'task'")
    kind = raw["task"]
    if kind not in TASK_KINDS:
        raise ValidationError(f"{path}.task", f"unknown task {kind!r}")
    params: dict = {}

    def named(key: str, objects: dict, what: str) -> Any:
        params[f"{key}_name"] = raw.get(key)
        return _ref(objects, what, raw.get(key), f"{path}.{key}")

    if kind in ("check-invariance", "check-near-invariance"):
        params["subspace"] = named("subspace", problem.subspaces, "subspace")
        ops = raw.get("operators")
        if not isinstance(ops, list) or not ops:
            raise ValidationError(f"{path}.operators", "expected a nonempty list")
        params["operators"] = [parse_operator_token(o, problem, f"{path}.operators[{i}]")
                               for i, o in enumerate(ops)]
    elif kind == "verify-theta":
        params["theta"] = named("theta", problem.matrices, "matrix")
        params["m"] = _int_at(raw, "m", path, 2)
        conds = raw.get("conditions")
        if not isinstance(conds, list) or not conds:
            raise ValidationError(f"{path}.conditions", "expected a nonempty list")
        parsed = []
        for i, c in enumerate(conds):
            if not (isinstance(c, dict) and _is_integer(c.get("gamma"))
                    and _is_integer(c.get("k"))):
                raise ValidationError(f"{path}.conditions[{i}]",
                                      "expected {'gamma': int, 'k': int}")
            parsed.append((c["gamma"], c["k"]))
        params["conditions"] = parsed
    elif kind == "hitt":
        sub = named("subspace", problem.subspaces, "subspace")
        if not isinstance(sub, SpanSubspace):
            raise ValidationError(f"{path}.subspace", "hitt needs a span subspace")
        params["subspace"] = sub
        params["m"] = _int_at(raw, "m", path, 2)
        if "theta" in raw:
            params["theta"] = named("theta", problem.matrices, "matrix")
            params["gamma"] = _int_at(raw, "gamma", path, 1)
            params["k"] = _int_at(raw, "k", path, 1)
    elif kind == "blaschke-transfer":
        sub = named("subspace", problem.subspaces, "subspace")
        if not isinstance(sub, SpanSubspace):
            raise ValidationError(f"{path}.subspace", "transfer needs a span subspace")
        params["subspace"] = sub
        params["blaschke"] = named("blaschke", problem.blaschke, "blaschke product")
        params["n"] = _int_at(raw, "n", path, 1)
        if "depth" in raw:
            params["depth"] = _int_at(raw, "depth", path, 1)
        params["near"] = raw.get("near", False)
        if not isinstance(params["near"], bool):
            raise ValidationError(f"{path}.near", "must be a boolean")
    else:  # build-sigma
        params["m"] = _int_at(raw, "m", path, 2)
        params["gamma"] = _int_at(raw, "gamma", path, 1)
        params["k"] = _int_at(raw, "k", path, 1)
    return Task(idx, kind, params)
