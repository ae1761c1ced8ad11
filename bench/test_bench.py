"""Self-test of the benchmark: the correctness gate and the tracer.

Run from the repository root with `python -m pytest -q bench/test_bench.py`.
Small caps keep it fast; the constructions are the benchmark's own.
"""

import json
import time

import pytest

import calibration
import run
import tracing
import workloads

cli, problem = run._import_program()


@pytest.fixture(scope="module")
def theta_small(tmp_path_factory):
    cases = workloads.generate("theta_pipeline", 7, run.ROOT, cap=48)
    paths = workloads.write_cases(cases, str(tmp_path_factory.mktemp("theta")))
    return cases, paths


def test_speedometer_removes_its_own_samples():
    with calibration.Speedometer(period=0.01) as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
        end = time.perf_counter()
    inside = [sec for st, sec in zip(meter.starts, meter.seconds) if start <= st < end]
    scaled, raw = meter.at_reference_speed(start, end)
    assert len(inside) > 3
    assert raw == pytest.approx(end - start - sum(inside), rel=1e-9)
    assert scaled > 0 and raw < end - start


def _gate(cases, payloads):
    return run._gate(cases, payloads, [[run._sha(p) for p in payloads]])


def _fail_witness_stage(payload: str):
    report = json.loads(payload)
    for stage in report["tasks"][0].get("stages", []):
        if stage["verdict"] == "FAIL" and stage.get("report", {}).get("witness"):
            return report, stage
    return report, None


@pytest.mark.parametrize("workload, cap", [("theta_pipeline", 48), ("toeplitz_near", 96)])
def test_gate_accepts_correct_reports(workload, cap, tmp_path):
    cases = workloads.generate(workload, 3, run.ROOT, cap=cap)
    paths = workloads.write_cases(cases, str(tmp_path))
    _, payloads = run._one_pass(cli, problem, paths)
    failed, problems = _gate(cases, payloads)
    assert (failed, problems) == (0, {})


def test_gate_counts_a_corrupted_verdict_and_residual(theta_small):
    cases, paths = theta_small
    _, payloads = run._one_pass(cli, problem, paths)
    assert _gate(cases, payloads)[0] == 0

    verdict_at = next(i for i, c in enumerate(cases) if c.expect.get("verdict") == "PASS")
    report = json.loads(payloads[verdict_at])
    report["tasks"][0]["verdict"] = "FAIL"
    payloads[verdict_at] = json.dumps(report)

    witness_at = next(i for i, p in enumerate(payloads) if _fail_witness_stage(p)[1])
    report, stage = _fail_witness_stage(payloads[witness_at])
    stage["report"]["witness"]["residual"] *= 1.5
    payloads[witness_at] = json.dumps(report)

    failed, problems = _gate(cases, payloads)
    assert failed == 2
    assert set(problems) == {cases[verdict_at].name, cases[witness_at].name}
    assert any("reported residual" in p for p in problems[cases[witness_at].name])


def test_traced_pass_matches_untraced(theta_small):
    cases, paths = theta_small
    plain_spans, plain = run._one_pass(cli, problem, paths)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_spans, traced = run._one_pass(cli, problem, paths, tracer)
    finally:
        tracer.uninstall()
    assert run._digest(cases, traced) == run._digest(cases, plain)
    assert not tracer._undo and not hasattr(problem.load_problem, "__wrapped__")

    wall = sum(run._seconds(traced_spans))
    metrics = tracer.metrics(wall, sum(run._seconds(plain_spans)))
    own = tracer.self_times()
    assert min(own) > -1e-9
    assert metrics["trace.unattributed_s"] >= 0
    selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert selfs + metrics["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["subspaces.project.calls"] > 0
    assert metrics["invariance.verify_theorem_multi.calls"] == sum(
        1 for c in cases if c.problem["tasks"][0]["task"] == "verify-theta")
    assert set(metrics) <= set(tracing.per_layer_units())
