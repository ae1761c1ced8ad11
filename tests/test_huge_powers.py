"""Operator powers and matrix band offsets past the int64 range act like
any other value past the cap, instead of overflowing fixed-width arrays."""

import json

import numpy as np
import pytest

from hardyshift import BudgetExceeded, TaylorPoly, cli, invariance
from hardyshift.cli import main
from hardyshift.laurent import build_sigma, diag_polys, from_poly_grid, toeplitz_adjoint_apply

from conftest import matrix_action, time_limit

CAP = 16
HUGE = 10 ** 20

PROBLEM = {
    "workspace": {"cap": CAP},
    "objects": {
        "polys": {"g": [[1, 0], [1, 0]]},
        "blaschke": {"B": {"zeros": [[0, 0], [0.5, 0]]}, "Z": {"zeros": [[0, 0]]}},
    },
    "subspaces": {"S": {"kind": "span", "generators": ["g"]}},
}


def run_task(tmp_path, capsys, task, op):
    data = dict(PROBLEM, tasks=[{"task": task, "subspace": "S", "operators": [op]}])
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    rc = main(["run", str(path)])
    return rc, json.loads(capsys.readouterr().out)["tasks"][0]


@pytest.mark.parametrize("task, past_cap, huge", [
    # S^n and T_B^n leave no testable frame vector under the cap
    ("check-invariance", "shift:17", f"shift:{HUGE}"),
    ("check-invariance", "toeplitz:B:9", f"toeplitz:B:{HUGE}"),
    ("check-invariance", "toeplitz:Z:17", f"toeplitz:Z:{HUGE}"),
    # M ∩ B^n H^2 needs n·deg B <= cap
    ("check-near-invariance", "toeplitz:B:9", f"toeplitz:B:{HUGE}"),
    # the adjoint of a monomial power past the cap maps everything to 0
    ("check-invariance", "toeplitz_adjoint:Z:17", f"toeplitz_adjoint:Z:{HUGE}"),
])
def test_a_huge_power_is_reported_like_a_power_past_the_cap(tmp_path, capsys, task,
                                                            past_cap, huge):
    rc, ref = run_task(tmp_path, capsys, task, past_cap)
    got_rc, got = run_task(tmp_path, capsys, task, huge)
    assert got_rc == rc
    assert got["verdict"] == ref["verdict"]
    assert ref["verdict"] == "PASS" or ref["error"]["type"] == "BudgetExceeded"
    assert normalized(got, huge) == normalized(ref, past_cap)


def normalized(task, op):
    """The task report with the power n and the degree n·deg B as 'N'."""
    n, deg = int(op.rsplit(":", 1)[1]), 2 if ":B:" in op else 1
    return json.dumps(task).replace(str(n * deg), "N").replace(str(n), "N")


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("min_pow", [CAP + 1, CAP + 7, 2 ** 62, HUGE])
def test_matrix_band_offsets_of_any_size_act_past_the_cap(min_pow, sign):
    # the entry z^min_pow (1 + z/2), or z^-min_pow (1 + z^-1/2)
    A = from_poly_grid([[[1, 0.5] if sign > 0 else [0.5, 1]]], sign * min_pow - (sign < 0))
    f = TaylorPoly([1, 2, 0, 3], CAP)
    X = f.padded(CAP + 1)[:, None]
    # both powers of the entry exceed the cap in size, so A and A* move
    # every coefficient below degree 0 or past the cap
    assert np.array_equal(toeplitz_adjoint_apply(A, X), np.zeros_like(X))
    assert np.array_equal(matrix_action(A, X), np.zeros_like(X))


def test_a_huge_adjoint_power_near_the_circle_finishes(tmp_path, capsys):
    # T_B^n* for a zero at 0.99 and n = 10^20: B^n is expanded by binary
    # powering instead of n - 1 convolutions.  Its cut expansion is 0 in
    # double precision, so the image 0 lies in the span.
    data = {"workspace": {"cap": 64},
            "objects": {"polys": {"g": [[1, 0], [1, 0]]},
                        "blaschke": {"B": {"zeros": [[0.99, 0]]}}},
            "subspaces": {"S": {"kind": "span", "generators": ["g"]}},
            "tasks": [{"task": "check-invariance", "subspace": "S",
                       "operators": [f"toeplitz_adjoint:B:{HUGE}"]}]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    with time_limit(10.0):
        rc = main(["run", str(path)])
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert rc == 0 and task["verdict"] == "PASS"
    assert task["checks"][0]["tested"] == 1


@pytest.mark.parametrize("k", [CAP, HUGE])
def test_verify_theta_with_an_order_past_the_cap_is_a_budget_error(tmp_path, capsys,
                                                                   monkeypatch, k):
    # S^(km+gamma) past the cap leaves nothing testable; it is refused
    # before any block shift matrix or frame is built, so k = 10^20 no
    # longer allocates an (m, m, k+2) table
    def no_build(*args):
        raise AssertionError("built before the order was checked")

    for name in ("build_sigma", "build_theta_range", "build_model_space"):
        monkeypatch.setattr(invariance, name, no_build)
    with pytest.raises(BudgetExceeded, match=f"order {k * 2 + 1} of S"):
        invariance.verify_theorem_multi(diag_polys([[1], [0, 1]]), 2, [(1, 1), (1, k)], CAP)
    data = {"workspace": {"cap": CAP}, "objects": {"matrices": {"Th": {"entries": [[[1]], [[0, 1]]]}}},
            "tasks": [{"task": "verify-theta", "theta": "Th", "m": 2,
                       "conditions": [{"gamma": 1, "k": k}]}]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 1
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["verdict"] == "ERROR"
    assert task["error"] == {"type": "BudgetExceeded",
                             "message": f"order {k * 2 + 1} of S^(km+gamma) exceeds cap {CAP}"}


def test_a_huge_block_shift_matrix_holds_two_powers(capsys):
    sigma = build_sigma(3, 1, HUGE)
    assert (sigma.min_pow, sigma.max_pow) == (HUGE, HUGE + 1)
    assert main(["build-sigma", "--m", "3", "--gamma", "1", "--k", str(HUGE),
                 "--format", "text"]) == 0
    assert f"  [0, 0, z^{HUGE + 1}]\n  [z^{HUGE}, 0, 0]\n" in capsys.readouterr().out


def test_build_sigma_with_an_arity_past_the_cap_is_a_budget_error(capsys, monkeypatch):
    # the (m, m, 2) table of m = 10^6 would take 29 TiB; the arity is
    # refused by the cap before it is built, as build_model_space does
    def no_build(*args):
        raise AssertionError("built before the arity was checked")

    monkeypatch.setattr(cli, "build_sigma", no_build)
    assert main(["build-sigma", "--m", "1000000", "--gamma", "1", "--k", "1"]) == 1
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["verdict"] == "ERROR"
    assert task["error"] == {"type": "BudgetExceeded",
                             "message": "cap 64 cannot host arity 1000000"}


def test_build_sigma_at_the_largest_arity_the_cap_hosts_prints(capsys):
    # the default cap 64 hosts m = 65
    assert main(["build-sigma", "--m", "65", "--gamma", "1", "--k", "1",
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "task[0] build-sigma: PASS\n" in out
    assert "  [z, 0, 0, " in out and "cap=64" in out
