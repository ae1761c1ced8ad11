import argparse
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from hardyshift import cli
from hardyshift.cli import main
from hardyshift.problem import (TASK_KEYS, ParseError, ValidationError, _finite, _float_parser,
                                load_problem, parse_problem, read_problem_file)

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBLEM = {
    "workspace": {"cap": 48, "tolerances": {"membership": 1e-8}},
    "objects": {
        "polys": {
            "g1": [[1, 0], [1, 0], [1, 0]],
            "g2": [[0, 0], [1, 0], [2, 0]],
        },
        "matrices": {
            "Th": {"entries": [[[[0, 0], [0.7071067811865476, 0]]],
                                [[[0, 0], [0.7071067811865476, 0]]]]},
        },
        "blaschke": {"B": {"lambda": [1, 0], "zeros": [[0, 0], [0.5, 0]]}},
    },
    "subspaces": {
        "M1": {"kind": "monomial", "generators": [2, 3], "cap": 48},
        "S": {"kind": "span", "generators": ["g1", "g2"]},
    },
    "tasks": [
        {"task": "check-invariance", "subspace": "M1",
         "operators": ["shift:2", "shift:3"]},
        {"task": "hitt", "subspace": "S", "m": 2,
         "theta": "Th", "gamma": 1, "k": 1},
        {"task": "build-sigma", "m": 2, "gamma": 1, "k": 1},
    ],
}


def write_problem(tmp_path, data=PROBLEM, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_run_all_pass(tmp_path, capsys):
    path = write_problem(tmp_path)
    rc = main(["run", path])
    out = capsys.readouterr()
    assert rc == 0
    report = json.loads(out.out)
    assert report["summary"] == {"pass": 3, "fail": 0, "error": 0, "verdict": "PASS"}
    assert [t["task"] for t in report["tasks"]] == \
        ["check-invariance", "hitt", "build-sigma"]
    sigma = report["tasks"][2]
    assert sigma["text"] == ["[0, z^2]", "[z, 0]"]
    hitt = report["tasks"][1]
    assert hitt["certify"]["stages"][0]["name"] == "theta_inner"


def test_exit_code_on_fail(tmp_path, capsys):
    data = json.loads(json.dumps(PROBLEM))
    data["tasks"] = [{"task": "check-invariance", "subspace": "M1",
                      "operators": ["shift:1"]}]
    rc = main(["run", write_problem(tmp_path, data)])
    out = capsys.readouterr()
    assert rc == 1
    report = json.loads(out.out)
    witness = report["tasks"][0]["checks"][0]["witness"]
    assert witness["element"] == 0 and witness["image"] == 1


def test_exit_code_on_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err

    data = json.loads(json.dumps(PROBLEM))
    data["tasks"][0]["subspace"] = "missing"
    assert main(["run", write_problem(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "tasks[0].subspace" in err


def test_task_error_isolated(tmp_path, capsys):
    data = json.loads(json.dumps(PROBLEM))
    data["tasks"] = [
        {"task": "check-invariance", "subspace": "M1", "operators": ["shift:99"]},
        {"task": "build-sigma", "m": 3, "gamma": 2, "k": 1},
    ]
    rc = main(["run", write_problem(tmp_path, data)])
    out = capsys.readouterr()
    assert rc == 1
    report = json.loads(out.out)
    assert report["tasks"][0]["verdict"] == "ERROR"
    assert report["tasks"][0]["error"]["type"] == "BudgetExceeded"
    assert report["tasks"][1]["verdict"] == "PASS"


def test_empty_task_list(tmp_path, capsys):
    rc = main(["run", write_problem(tmp_path, {"workspace": {"cap": 8}})])
    out = capsys.readouterr()
    assert rc == 0
    assert json.loads(out.out)["tasks"] == []


def test_byte_identical_reports(tmp_path, capsys):
    path = write_problem(tmp_path)
    main(["run", path])
    first = capsys.readouterr().out
    main(["run", path])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("name", ["demo", "audit"])
@pytest.mark.parametrize("cap", [None, 192])
def test_shipped_reports_match_golden(name, cap, capsys):
    # tests/golden holds `hardyshift run` reports on the shipped problem
    # files; a change that alters them must replace them deliberately
    argv = ["run", str(ROOT / "problems" / f"{name}.json")]
    if cap is not None:
        argv += ["--cap", str(cap)]
    main(argv)
    golden = ROOT / "tests" / "golden" / f"{name}_cap{cap or 48}.json"
    assert capsys.readouterr().out == golden.read_bytes().decode("utf-8")


def test_hitt_report_matches_golden(capsys):
    # hitt tasks on spans span{z^(ml) q_i}: m = 2 at dimension 40, m = 3
    # with two q_i and a certified theta, and a span with a stray monomial
    # whose peel fails; the report pins every reconstruction error,
    # Parseval gap and the failing peel's message
    golden = ROOT / "tests" / "golden"
    assert main(["run", str(golden / "hitt_problem.json")]) == 1
    assert capsys.readouterr().out == (golden / "hitt_report.json").read_bytes().decode("utf-8")


def _run_report(blas_threads, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "hardyshift.cli", "run", *args], cwd=ROOT,
                          env=env, capture_output=True, check=False).stdout


# invariance and near-invariance transfer for an off-origin degree-2
# product at cap 384, where the layer frame and the Toeplitz images are
# BLAS products
TRANSFER_PROBLEM = {
    "workspace": {"cap": 384},
    "objects": {
        "polys": {"r0": [[1, 0], [0.5, 0], [0, -0.25], [0.3, 0]],
                  "r1": [[0.2, 0], [-1, 0], [0, 0.7]],
                  # r0 (z - 0.5)(z + 0.3 - 0.5j), a member of B H^2
                  "br0": [[-0.15, 0.25], [-0.275, -0.375], [0.9625, -0.2125],
                          [0.33, 0.125], [-0.06, -0.4], [0.3, 0]]},
        "blaschke": {"B": {"lambda": [0.6, 0.8], "zeros": [[0.5, 0], [-0.3, 0.5]]}},
    },
    "subspaces": {"M": {"kind": "span", "generators": ["r0", "br0", "r1"]}},
    "tasks": [{"task": "blaschke-transfer", "subspace": "M", "blaschke": "B",
               "n": 1, "near": near} for near in (False, True)],
}

# the same for a degree-3 product at cap 384, whose layer coordinates are
# taken from a few layers and moved blocks, with r0 (z - 0.5)(z + 0.3 - 0.5j)(z - 0.2j)
TRANSFER3_PROBLEM = {
    **TRANSFER_PROBLEM,
    "objects": {
        "polys": {**TRANSFER_PROBLEM["objects"]["polys"],
                  "br0": [[round(c.real, 12), round(c.imag, 12)] for c in np.convolve(
                      [1, 0.5, -0.25j, 0.3], np.poly([0.5, -0.3 + 0.5j, 0.2j])[::-1])]},
        "blaschke": {"B": {"lambda": [0.6, 0.8], "zeros": [[0.5, 0], [-0.3, 0.5], [0, 0.2]]}},
    },
}

# check-invariance at cap 384 of a span with a long member, the reproducing
# kernel at 0.9, under the degree-2 product: a FAIL under both operators
# whose witness images are FFT products
INVARIANCE_FFT_PROBLEM = {
    **TRANSFER_PROBLEM,
    "objects": {**TRANSFER_PROBLEM["objects"],
                "polys": {**TRANSFER_PROBLEM["objects"]["polys"],
                          "k": [[0.9 ** j, 0] for j in range(385)]}},
    "subspaces": {"M": {"kind": "span", "generators": ["r0", "k", "r1"]}},
    "tasks": [{"task": "check-invariance", "subspace": "M",
               "operators": ["toeplitz:B:1", "toeplitz_adjoint:B:1"]}],
}

# verify-theta on U·diag(1, z²)·V at cap 192, a FAIL whose model-space
# witness was one vector of a 2-dimensional null space that the BLAS
# thread count rotated
SQUARE_THETA_PROBLEM = {
    "workspace": {"cap": 192},
    # entry (i, j) holds the coefficients of 1, z and z²
    "objects": {"matrices": {"theta": {"entries": [
        [[[0.4222551048019976, 0.1991154051874635], [0, 0],
          [0.4287769877955799, 0.2833157824985634]],
         [[-0.23722736090520632, 0.32437337874993255], [0, 0],
           [0.4176288740231192, -0.4266466430060683]]],
        [[[0.5932778034071283, 0.06680331122465943], [0, 0],
          [-0.3888293602130349, -0.10152161464446044]],
         [[-0.15332158662010184, 0.4905201616163383], [0, 0],
           [-0.2014694477373696, 0.4211370082796252]]]]}}},
    "tasks": [{"task": "verify-theta", "theta": "theta", "m": 2,
               "conditions": [{"gamma": 1, "k": 1}]}],
}


# verify-theta on two columns at cap 384, FAILs whose model-space witness
# is the first failing P e_i: (0.6, 0.8z), whose range frame takes CGS2,
# and z·v for a unit vector v, whose cut range generators are whole or zero
COLUMN_THETA_PROBLEM = {
    "workspace": {"cap": 384},
    "objects": {"matrices": {
        "c": {"entries": [[[[0.6, 0]]], [[[0, 0], [0.8, 0]]]]},
        "zv": {"entries": [[[[0, 0], [0.5, 0.5]]], [[[0, 0], [-0.5, 0.5]]]]}}},
    "tasks": [{"task": "verify-theta", "theta": name, "m": 2,
               "conditions": [{"gamma": 1, "k": 1}, {"gamma": 1, "k": 2}]}
              for name in ("c", "zv")],
}


@pytest.mark.parametrize("args", [
    ("problems/demo.json", "--cap", "192"),
    ("tests/golden/hitt_problem.json",),
    (TRANSFER_PROBLEM,),
    pytest.param((SQUARE_THETA_PROBLEM,), marks=pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")),
    pytest.param((COLUMN_THETA_PROBLEM,), marks=pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")),
    # the three 385 × 381 range checks of diag(1, z, z) multiply at column windows
    ("problems/demo.json", "--cap", "384"),
    (TRANSFER3_PROBLEM,),
    (INVARIANCE_FFT_PROBLEM,)])
def test_reports_do_not_depend_on_blas_threads(args, tmp_path):
    # the print floor makes report bytes independent of the BLAS
    # reduction order, which changes with the thread count
    args = [write_problem(tmp_path, a) if isinstance(a, dict) else a for a in args]
    one = _run_report(1, *args)
    assert one.startswith(b"{") and one == _run_report(2, *args)


def test_empty_jmap_space_keeps_the_span_label(tmp_path, capsys):
    data = {"workspace": {"cap": 16},
            "objects": {"polys": {"z0": [[0, 0]], "z1": [[0, 0], [0, 0]]}},
            "subspaces": {"zero_span": {"kind": "span", "generators": ["z0", "z1"]}},
            "tasks": [{"task": "hitt", "subspace": "zero_span", "m": 2}]}
    assert main(["run", write_problem(tmp_path, data)]) == 0
    jmap = json.loads(capsys.readouterr().out)["tasks"][0]["jmap"]
    assert jmap["dim"] == 0
    assert jmap["coshift_invariance"]["subspace"] == "J_2(zero_span)"


def test_out_file_and_text_format(tmp_path, capsys):
    path = write_problem(tmp_path)
    target = tmp_path / "report.json"
    rc = main(["run", path, "--out", str(target)])
    capsys.readouterr()
    assert rc == 0
    assert json.loads(target.read_text())["summary"]["verdict"] == "PASS"
    rc = main(["run", path, "--format", "text"])
    out = capsys.readouterr().out
    assert "task[0] check-invariance: PASS" in out
    assert "summary: pass=3" in out


def test_build_sigma_subcommand(capsys):
    rc = main(["build-sigma", "--m", "3", "--gamma", "1", "--k", "1",
               "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[0, 0, z^2]" in out
    assert "[z, 0, 0]" in out


def test_single_task_subcommands(tmp_path, capsys):
    path = write_problem(tmp_path)
    rc = main(["check-invariance", path, "--subspace", "M1",
               "--op", "shift:2", "--op", "shift:3"])
    assert rc == 0
    capsys.readouterr()

    rc = main(["check-near-invariance", path, "--subspace", "M1",
               "--op", "coshift:2"])
    assert rc == 1  # definition-based verdict fails, with a witness
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"][0]["checks"][0]["witness"]["element"] == 3

    # the lifted range of this rank-one column is invariant under the square
    # shift but genuinely not under the cube: the analytic-product condition
    # alone does not force cube invariance for non-square matrices
    rc = main(["verify-theta", path, "--theta", "Th", "--m", "2", "--cond", "1:1"])
    capsys.readouterr()
    assert rc == 1

    rc = main(["hitt", path, "--subspace", "S", "--m", "2",
               "--theta", "Th", "--gamma", "1", "--k", "1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["tasks"][0]["verdict"] == "PASS"

    rc = main(["blaschke-transfer", path, "--subspace", "S", "--blaschke", "B",
               "--n", "1", "--depth", "24"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["tasks"][0]["agreement"] is True


def single_task_argv(problem, task):
    """The single-task subcommand that runs a problem file's task: each key as its flag."""
    argv = [task["task"]] + ([] if task["task"] == "build-sigma" else [problem])
    for key, value in task.items():
        flag = {"operators": "--op", "conditions": "--cond"}.get(key, f"--{key}")
        if key == "near":
            argv += [flag] if value else []
        elif key in ("operators", "conditions"):
            for v in value:
                argv += [flag, f"{v['gamma']}:{v['k']}" if key == "conditions" else v]
        elif key != "task":
            argv += [flag, str(value)]
    return argv


SHIPPED_TASKS = [(path, i) for path in sorted(ROOT.glob("problems/*.json"))
                 for i in range(len(json.loads(path.read_text())["tasks"]))]


@pytest.mark.parametrize("path, index", SHIPPED_TASKS,
                         ids=[f"{p.stem}_{i}" for p, i in SHIPPED_TASKS])
def test_single_task_subcommand_matches_run_on_a_one_task_file(tmp_path, capsys, path, index):
    # the flags reach parse_problem as task keys; build-sigma reads no file
    data = json.loads(path.read_text())
    task = data["tasks"][index]
    one_task = {"tasks": [task]} if task["task"] == "build-sigma" else {**data, "tasks": [task]}
    rc = main(["run", write_problem(tmp_path, one_task)])
    expected = capsys.readouterr().out
    assert main(single_task_argv(str(path), task)) == rc
    assert capsys.readouterr().out == expected


def _readme_commands():
    """Each `hardyshift ...` command of README's CLI block, as an argv."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_commands_run(monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert main(argv) in (0, 1)  # an input error would exit 2


def test_hitt_theta_without_gamma_is_refused_by_the_schema(tmp_path, capsys):
    argv = ["hitt", write_problem(tmp_path), "--subspace", "S", "--m", "2", "--theta", "Th"]
    assert main([*argv, "--k", "1"]) == 2
    assert capsys.readouterr().err == "input error: tasks[0].gamma: must be an integer >= 1\n"


def test_hitt_gamma_without_theta_is_refused(tmp_path, capsys):
    # gamma and k are read only to certify a theta; they used to be dropped
    argv = ["hitt", write_problem(tmp_path), "--subspace", "S", "--m", "2"]
    assert main([*argv, "--gamma", "1", "--k", "1"]) == 2
    assert capsys.readouterr().err == "input error: tasks[0].gamma: given without 'theta'\n"


COMMON_FLAGS = ["tol", "cap", "format", "out"]
# a list key is a repeatable flag, a bool a switch, anything else one value
FLAG_ACTION = {"operators": argparse._AppendAction, "conditions": argparse._AppendAction,
               "bool": argparse._StoreTrueAction}


@pytest.mark.parametrize("kind", TASK_KEYS)
def test_subcommand_flags_follow_the_task_schema(kind):
    ap = cli._build_parser()
    subcommands = next(a for a in ap._actions if a.dest == "command").choices
    actions = {a.dest: a for a in subcommands[kind]._actions if a.dest != "help"}
    files = [] if kind == "build-sigma" else ["problem"]  # build-sigma reads no file
    assert list(actions) == [*files, *TASK_KEYS[kind], *COMMON_FLAGS]
    for key, (value, required) in TASK_KEYS[kind].items():
        assert actions[key].required == (required is True), key
        assert (actions[key].type is cli._int_flag) == isinstance(value, int), key
        assert type(actions[key]) is FLAG_ACTION.get(value, argparse._StoreAction), key


@pytest.mark.parametrize("depth", [26, 10 ** 12])
def test_transfer_depth_past_the_cap_is_a_task_error(tmp_path, capsys, depth):
    # B has degree 2 at cap 48, so the deepest layer may start at degree 48
    # (depth 25); the depth is refused before the layer frame is allocated
    rc = main(["blaschke-transfer", write_problem(tmp_path), "--subspace", "S",
               "--blaschke", "B", "--n", "1", "--depth", str(depth)])
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert rc == 1
    assert task["verdict"] == "ERROR"
    assert task["error"]["type"] == "BudgetExceeded"
    assert f"depth {depth} " in task["error"]["message"]


def test_hitt_certification_uses_the_file_rank_tolerance(tmp_path, capsys):
    # at rank 1e-12 the 1e-10 z direction is kept, and both kernel entries
    # live; the certification used to peel at rank 1e-9 and stall
    data = {"workspace": {"cap": 24, "tolerances": {"rank": 1e-12}},
            "objects": {"polys": {"p": [1e-2, 0, 1], "q": [0, 1e-10, 0, 1]},
                        "matrices": {"Th": {"entries": [[[0, 0, 1]], [[0]]]}}},
            "subspaces": {"S": {"kind": "span", "generators": ["p", "q"]}},
            "tasks": [{"task": "hitt", "subspace": "S", "m": 2},
                      {"task": "hitt", "subspace": "S", "m": 2,
                       "theta": "Th", "gamma": 1, "k": 1}]}
    assert main(["run", write_problem(tmp_path, data)]) == 0
    plain, certified = json.loads(capsys.readouterr().out)["tasks"]
    assert plain["kernel"]["degenerate"] == [False, False]
    assert certified["kernel"] == plain["kernel"]
    assert certified["jmap"] == plain["jmap"]
    assert [s["verdict"] for s in certified["certify"]["stages"]] == ["PASS"] * 4


def test_hitt_refuses_an_arity_past_the_cap_as_build_sigma_does(capsys):
    assert main(["hitt", str(ROOT / "problems" / "demo.json"), "--subspace", "two_dim",
                 "--m", "1000000"]) == 1
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["error"] == {"type": "BudgetExceeded",
                             "message": "cap 48 cannot host arity 1000000"}


@pytest.mark.parametrize("mcap", [0, -1])
def test_a_monomial_subspace_cap_is_nonnegative(tmp_path, capsys, mcap):
    # cap 0 tracks the exponent 0 alone and gets a verdict; -1 is refused
    data = {"workspace": {"cap": 8},
            "subspaces": {"M": {"kind": "monomial", "generators": [2], "cap": mcap}},
            "tasks": [{"task": "check-invariance", "subspace": "M",
                       "operators": ["coshift:1"]}]}
    rc = main(["run", write_problem(tmp_path, data)])
    out = capsys.readouterr()
    if mcap < 0:
        assert rc == 2 and "subspaces.M.cap" in out.err and "nonnegative" in out.err
    else:
        check = json.loads(out.out)["tasks"][0]["checks"][0]
        assert rc == 0 and (check["verdict"], check["tested"]) == ("PASS", 1)


def test_problem_parsing_validation():
    with pytest.raises(ValidationError):
        parse_problem({"workspace": {"cap": 0}})
    with pytest.raises(ValidationError):
        parse_problem({"tasks": [{"task": "unknown-kind"}]})
    with pytest.raises(ValidationError):
        parse_problem({"tasks": [{"task": "build-sigma", "m": 2, "gamma": 1}]})
    with pytest.raises(ParseError):
        load_problem("/nonexistent/problem.json")


def _span_shift1(poly, tolerances=None):
    """A span{poly} problem with one S^1 invariance task."""
    return {"workspace": {"cap": 16, "tolerances": tolerances or {}},
            "objects": {"polys": {"p": poly}},
            "subspaces": {"S": {"kind": "span", "generators": ["p"]}},
            "tasks": [{"task": "check-invariance", "subspace": "S",
                       "operators": ["shift:1"]}]}


def _patched(path, value):
    data = json.loads(json.dumps(PROBLEM))
    *parents, key = path
    node = data
    for part in parents:
        node = node[part]
    node[key] = value
    return data


NAN, INF = float("nan"), float("inf")

NON_FINITE = {
    # NaN and Infinity make every `residual > tol` test false
    "nan_coefficient": _span_shift1([[1, 0], [NAN, 0]]),
    "infinite_membership_tol": _span_shift1([1, 2], {"membership": INF}),
    "nan_rank_tol": _patched(["workspace", "tolerances", "rank"], NAN),
    "infinite_real_coefficient": _patched(["objects", "polys", "g1"], [1, INF]),
    "nan_matrix_entry": _patched(["objects", "matrices", "Th", "entries", 0, 0],
                                 [[0, 0], [NAN, 0]]),
    "nan_blaschke_zero": _patched(["objects", "blaschke", "B", "zeros"], [[0, 0], [NAN, 0]]),
    "infinite_lambda": _patched(["objects", "blaschke", "B", "lambda"], [INF, 0]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_input_rejected(tmp_path, capsys, case):
    assert main(["run", write_problem(tmp_path, NON_FINITE[case])]) == 2
    assert "finite" in capsys.readouterr().err


def _noted(tmp_path, token):
    """A file whose workspace.note, which no field reads, holds the token."""
    path = tmp_path / "problem.json"
    path.write_text('{"workspace": {"cap": 8, "note": %s}, "tasks": %s}'
                    % (token, json.dumps(SIGMA_ONLY)))
    return path


@pytest.mark.parametrize("token", [
    "NaN", "Infinity", "-Infinity", "1e400", "1E+400", "1e0400", "-1e400",
    # 300 digits and a one-digit exponent: no three-digit exponent, under 309 digits
    pytest.param("9" * 300 + "e9", id="nines300e9"),
    pytest.param("1" + "0" * 309 + ".0", id="ten_to_309"),
])
def test_non_finite_number_in_an_unread_key_rejected(tmp_path, capsys, token):
    # no field reads workspace.note, so only the JSON parser can see it
    path = _noted(tmp_path, token)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and str(path) in err


@pytest.mark.parametrize("token, value", [
    ("1.7976931348623157e308", 1.7976931348623157e308),
    ("1e-400", 0.0),
    pytest.param("1" * 250 + "e-240", float("1" * 250 + "e-240"), id="digits250e-240"),
    ('"e400"', "e400"),
])
def test_finite_numbers_near_the_float_range_load(tmp_path, capsys, token, value):
    path = _noted(tmp_path, token)
    assert read_problem_file(str(path))["workspace"]["note"] == value
    assert main(["run", str(path)]) == 0


def _bits(value):
    """The decoded value with every float as its exact bits."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("path", sorted([*ROOT.glob("problems/*.json"),
                                         *ROOT.glob("tests/golden/*.json")]),
                         ids=lambda p: p.name)
def test_c_float_parse_and_checked_parse_give_the_same_bits(path):
    text = path.read_text(encoding="utf-8")
    assert _float_parser(text) is None  # these files take the C parse
    checked = json.loads(text, parse_float=_finite, parse_constant=_finite)
    assert _bits(read_problem_file(str(path))) == _bits(checked)


def test_overflow_guard_passes_only_finite_literals():
    for digits in range(1, 400):
        for exponent in ("", "e9", "E99", "e+99", "e100", "E+308", "e-400"):
            literal = "9" * digits + ".5" + exponent
            for pad in (0, 1, 100 - digits % 100):  # start on, just past, end on a boundary
                checked = _float_parser("x" * pad + literal) is _finite
                assert checked or math.isfinite(float(literal))


def test_non_finite_tol_flag_rejected(tmp_path, capsys):
    path = write_problem(tmp_path)
    for value in ("nan", "inf"):
        assert main(["run", path, "--tol", value]) == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("task", [
    {"task": "check-near-invariance", "subspace": "S", "operators": ["toeplitz:B:1"]},
    {"task": "check-invariance", "subspace": "S", "operators": ["toeplitz:B:1"]},
    {"task": "check-invariance", "subspace": "M1", "operators": ["toeplitz:B:1"]},
])
def test_zero_free_blaschke_product_exits_2(tmp_path, capsys, task):
    data = _patched(["objects", "blaschke", "B", "zeros"], [])
    data["tasks"] = [task]
    assert main(["run", write_problem(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "objects.blaschke.B" in err and "at least one zero" in err


SIGMA_ONLY = [{"task": "build-sigma", "m": 2, "gamma": 1, "k": 1}]

BOOL_FOR_INT = {
    "workspace_cap": {"workspace": {"cap": True}, "tasks": SIGMA_ONLY},
    # true for gamma and k reaches numpy as a boolean mask
    "build_sigma_gamma_k": {"tasks": [{"task": "build-sigma", "m": 2,
                                       "gamma": True, "k": True}]},
    "monomial_generators": _patched(["subspaces", "M1", "generators"], [2, True]),
    "monomial_exceptional": _patched(["subspaces", "M1", "exceptional"], [True]),
    "monomial_cap": _patched(["subspaces", "M1", "cap"], True),
    # an object operator is refused whole, so its bool never reaches an int
    "operator_k": _patched(["tasks", 0, "operators"], [{"op": "shift", "k": True}]),
    "operator_n": _patched(["tasks", 0, "operators"],
                           [{"op": "toeplitz", "n": True, "blaschke": "B"}]),
    "min_pow": _patched(["objects", "matrices", "Th", "min_pow"], True),
    "tolerance": _patched(["workspace", "tolerances", "membership"], True),
    "condition_pair": _patched(["tasks", 1], {"task": "verify-theta", "theta": "Th", "m": 2,
                                              "conditions": [{"gamma": True, "k": 1}]}),
    # a string is not a bool: "no" used to run the near-invariance check
    "transfer_near": _patched(["tasks", 1], {"task": "blaschke-transfer", "subspace": "S",
                                             "blaschke": "B", "n": 1, "near": "no"}),
}


def _section(path, value):
    """PROBLEM with one section replaced and only a build-sigma task."""
    data = _patched(path, value)
    data["tasks"] = SIGMA_ONLY
    return data


# each section is a JSON object and each zero list a list; a list or a
# number used to crash (TypeError, AttributeError) or read as empty
WRONG_SECTION_TYPE = {
    "polys_list": ("objects.polys", _section(["objects", "polys"], [[1, 0]])),
    "polys_null": ("objects.polys", _section(["objects", "polys"], None)),
    "matrices_list": ("objects.matrices", _section(["objects", "matrices"], [])),
    "blaschke_list": ("objects.blaschke", _section(["objects", "blaschke"], ["B"])),
    "subspaces_list": ("subspaces", _section(["subspaces"], ["M1"])),
    "zeros_number": ("objects.blaschke.B.zeros",
                     _section(["objects", "blaschke", "B", "zeros"], 5)),
    "zeros_object": ("objects.blaschke.B.zeros",
                     _section(["objects", "blaschke", "B", "zeros"], {"a": [0, 0]})),
}


@pytest.mark.parametrize("case", sorted(WRONG_SECTION_TYPE))
def test_wrong_section_type_exits_2(tmp_path, capsys, case):
    path, data = WRONG_SECTION_TYPE[case]
    assert main(["run", write_problem(tmp_path, data)]) == 2
    assert f"input error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BOOL_FOR_INT))
def test_bool_for_int_rejected(tmp_path, capsys, case):
    assert main(["run", write_problem(tmp_path, BOOL_FOR_INT[case])]) == 2
    assert "input error" in capsys.readouterr().err


def test_transfer_near_must_be_a_json_boolean(tmp_path, capsys):
    assert main(["run", write_problem(tmp_path, BOOL_FOR_INT["transfer_near"])]) == 2
    assert "tasks[1].near" in capsys.readouterr().err


def _task(task):
    return _patched(["tasks", 1], task)


# a key that its task kind or spec does not define is refused with its path;
# each of these used to be read as absent, and the file ran
UNKNOWN_KEY = {
    # a hitt task without its theta skipped the certification and PASSed
    "hitt_thetta": ("tasks[1].thetta", _task({"task": "hitt", "subspace": "S", "m": 2,
                                              "thetta": "Th", "gamma": 1, "k": 1})),
    # a transfer without near compared invariance instead
    "transfer_neer": ("tasks[1].neer", _task({"task": "blaschke-transfer", "subspace": "S",
                                              "blaschke": "B", "n": 1, "neer": True})),
    "monomial_exceptionl": ("subspaces.M1.exceptionl",
                            _patched(["subspaces", "M1", "exceptionl"], [3])),
    "span_cap": ("subspaces.S.cap", _patched(["subspaces", "S", "cap"], 4)),
    "blaschke_lamda": ("objects.blaschke.B.lamda",
                       _patched(["objects", "blaschke", "B", "lamda"], [0, 1])),
    "matrix_min_po": ("objects.matrices.Th.min_po",
                      _patched(["objects", "matrices", "Th", "min_po"], 1)),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEY))
def test_unknown_task_and_spec_keys_exit_2(tmp_path, capsys, case):
    path, data = UNKNOWN_KEY[case]
    assert main(["run", write_problem(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"input error: {path}: unknown key\n"


def test_top_level_and_workspace_keys_stay_free(tmp_path, capsys):
    assert main(["run", write_problem(tmp_path)]) == 0
    expected = capsys.readouterr().out
    data = {**_patched(["workspace", "note"], "cap 48"), "comment": "free"}
    assert main(["run", write_problem(tmp_path, data)]) == 0
    assert capsys.readouterr().out == expected


DEMO = str(ROOT / "problems" / "demo.json")


# gamma in 1..m-1 and k >= 1, the rule of build_sigma, checked where m is
# known; each of these used to become a task ERROR (exit 1)
@pytest.mark.parametrize("argv, path, message", [
    (["verify-theta", DEMO, "--theta", "diag_1zz", "--m", "3", "--cond", "0:1"],
     "tasks[0].conditions[0]", "gamma must be in 1..2, got 0"),
    (["verify-theta", DEMO, "--theta", "diag_1zz", "--m", "3", "--cond", "1:1", "--cond", "5:1"],
     "tasks[0].conditions[1]", "gamma must be in 1..2, got 5"),
    (["verify-theta", DEMO, "--theta", "diag_1zz", "--m", "3", "--cond", "1:0"],
     "tasks[0].conditions[0]", "k must be >= 1, got 0"),
    (["hitt", DEMO, "--subspace", "two_dim", "--m", "2", "--theta", "col_zz",
      "--gamma", "5", "--k", "1"], "tasks[0].gamma", "gamma must be in 1..1, got 5"),
    (["build-sigma", "--m", "3", "--gamma", "3", "--k", "1"],
     "tasks[0].gamma", "gamma must be in 1..2, got 3"),
], ids=["cond_gamma_0", "cond_gamma_5", "cond_k_0", "hitt_gamma_5", "sigma_gamma_3"])
def test_gamma_and_k_out_of_range_exit_2(capsys, argv, path, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize("cond, message", [
    ({"gamma": 0, "k": 1}, "gamma must be in 1..1, got 0"),
    ({"gamma": 1, "k": 1, "note": 0}, "expected {'gamma': int, 'k': int}"),
], ids=["gamma_0", "extra_key"])
def test_condition_out_of_range_in_a_file_exits_2(tmp_path, capsys, cond, message):
    data = _task({"task": "verify-theta", "theta": "Th", "m": 2, "conditions": [cond]})
    assert main(["run", write_problem(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"input error: tasks[1].conditions[0]: {message}\n"


# str.isdigit accepts '²', which int() rejects
@pytest.mark.parametrize("op", ["shift:²", "coshift:٣", "toeplitz:B:²", "shift:--3",
                                "shift:0", "coshift:-3", "shift:+2", "shift: 2"])
def test_operator_token_integers_exit_2(tmp_path, capsys, op):
    path = write_problem(tmp_path)
    assert main(["check-invariance", path, "--subspace", "M1", "--op", op]) == 2
    assert "tasks[0].operators[0]" in capsys.readouterr().err


def test_operator_power_below_one_exits_2(tmp_path, capsys):
    data = _patched(["tasks", 0, "operators"], ["shift:0"])
    assert main(["run", write_problem(tmp_path, data)]) == 2
    assert "tasks[0].operators[0]: operator power must be >= 1" in capsys.readouterr().err


def test_object_operator_token_exits_2(tmp_path, capsys):
    # operators are string tokens only; an object is refused, not read
    data = _patched(["tasks", 0, "operators"], ["shift:2", {"op": "shift", "k": 2}])
    assert main(["run", write_problem(tmp_path, data)]) == 2
    assert capsys.readouterr().err == \
        "input error: tasks[0].operators[1]: operator must be a string token\n"


# an integer flag takes the operator-token rule; int() would read each of these
@pytest.mark.parametrize("flag, value", [("--m", "\u0663"), ("--k", "1_0"),
                                         ("--cap", "\u0664\u0668"), ("--gamma", "+1")])
def test_integer_flags_take_ascii_digits_only(capsys, flag, value):
    args = {"--m": "3", "--gamma": "1", "--k": "1", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["build-sigma", *(a for pair in args.items() for a in pair)])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("cond", ["1:²", "²:1", "1:٣", "1:-1"])
def test_cond_integers_exit_2(tmp_path, capsys, cond):
    path = write_problem(tmp_path)
    assert main(["verify-theta", path, "--theta", "Th", "--m", "2", "--cond", cond]) == 2
    assert "--cond" in capsys.readouterr().err


def test_shipped_problem_files(capsys):
    root = ROOT / "problems"
    rc = main(["run", str(root / "demo.json")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["summary"]["verdict"] == "PASS"
    products = out["tasks"][3]["products"]
    assert products[0]["text"] == ["[0, 0, z^3]", "[1, 0, 0]", "[0, z, 0]"]
    assert products[1]["text"] == ["[0, z^3, 0]", "[0, 0, z^2]", "[1, 0, 0]"]

    rc = main(["run", str(root / "audit.json")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    # the monomial set membership audit: the plain shift fails, the quoted
    # near-invariance claims fail under the definition-based check
    checks = {c["operator"]: c["verdict"] for c in out["tasks"][0]["checks"]}
    assert checks == {"S^1": "FAIL", "S^2": "PASS", "S^3": "PASS"}


@pytest.mark.parametrize("cap", ["-3", "0"])
@pytest.mark.parametrize("args", [
    ["run", "problems/audit.json"],
    ["verify-theta", "problems/demo.json", "--theta", "diag_1zz", "--m", "3", "--cond", "1:1"],
])
def test_cap_override_must_be_positive(cap, args, capsys):
    # the override obeys the rule of workspace.cap
    assert main([args[0], str(ROOT / args[1]), *args[2:], "--cap", cap]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "input error: --cap: must be a positive integer\n"


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["run", str(ROOT / "problems" / "demo.json"), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {target}: ")
    assert not target.exists()


def test_unwritable_out_is_refused_before_any_task_runs(tmp_path, capsys, monkeypatch):
    def no_run(problem):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "run_problem", no_run)
    target = tmp_path / "missing" / "report.json"
    assert main(["run", str(ROOT / "problems" / "demo.json"), "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"output error: cannot write {target}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_out_exits_2(capsys):
    # /dev/full opens but refuses the write
    assert main(["build-sigma", "--m", "2", "--gamma", "1", "--k", "1",
                 "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith("output error: cannot write /dev/full: ")


def test_single_task_subcommand_parses_only_its_own_task(tmp_path, capsys):
    data = json.loads((ROOT / "problems" / "demo.json").read_text())
    data["tasks"].append({"task": "check-invariance", "subspace": "nowhere",
                          "operators": ["shift:2"]})
    path = write_problem(tmp_path, data)
    assert main(["run", path]) == 2  # run still parses every task
    assert "tasks[7].subspace: unknown subspace" in capsys.readouterr().err
    assert main(["check-invariance", path, "--subspace", "semigroup23",
                 "--op", "shift:2", "--op", "shift:3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [t["task"] for t in report["tasks"]] == ["check-invariance"]


@pytest.mark.parametrize("tasks", [
    [{"task": "blaschke-transfer", "subspace": "S", "blaschke": "B", "n": 1}],
    [{"task": "check-invariance", "subspace": "S", "operators": ["toeplitz:B:1"]}],
    SIGMA_ONLY,  # no task reads the product
], ids=["transfer", "toeplitz_check", "unused"])
def test_zero_on_the_circle_exits_2(tmp_path, capsys, tasks):
    data = _patched(["objects", "blaschke", "B", "zeros"], [[0, 0], [1, 0]])
    data["tasks"] = tasks
    assert main(["run", write_problem(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "objects.blaschke.B" in err and "strictly inside the disc" in err


@pytest.mark.parametrize("content", [
    b'{"workspace": {"cap": 8}, "tasks": [], "note": "\xff"}',
    b"[" * 100_000,  # deeper than the parser's recursion limit
], ids=["non_utf8_byte", "deep_nesting"])
def test_undecodable_file_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match=re.escape(str(path))):
        load_problem(str(path))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {path}: ")
