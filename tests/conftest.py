import contextlib
import signal

import numpy as np
import pytest

from hardyshift import (SpanSubspace, TaylorPoly, VectorPoly, adjoint_on_circle, lift,
                        toeplitz_adjoint_apply)
from hardyshift.invariance import range_generators
from hardyshift.subspaces import _null_combos
from hardyshift.tolerances import RANK_TOL
from hardyshift.veclift import fit_cap


def pytest_runtest_logreport(report):
    # One visible PASS/FAIL line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        if hasattr(report, "wasxfail") or getattr(report, "keywords", {}).get("xfail"):
            outcome = ("XFAIL (quoted value fails independent verification)"
                       if report.outcome == "skipped" else "XPASS")
        elif report.outcome == "passed":
            outcome = "PASS"
        else:
            outcome = report.outcome.upper().replace("FAILED", "FAIL")
        print(f"\n[acceptance] {name}: {outcome}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_taylor(rng, deg, cap, scale=1.0):
    coeffs = scale * (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    return TaylorPoly(coeffs, cap)


def random_vector(rng, m, deg, cap, scale=1.0):
    return VectorPoly([random_taylor(rng, deg, cap, scale) for _ in range(m)])


def monomial(k, cap, coefficient=1.0):
    """The element coefficient * z^k; a k past the cap raises BudgetExceeded."""
    return TaylorPoly([0] * k + [coefficient], cap)


def allclose(f, g, tol=0.0):
    """Two elements agree coefficientwise within the absolute tolerance
    (0 means bit-equal)."""
    n = max(f.coeffs.size, g.coeffs.size)
    return bool(np.all(np.abs(f.padded(n) - g.padded(n)) <= tol))


def random_columns(rng, m, deg, cap, count):
    """count columns of m stacked blocks of cap+1 coefficients, each block
    of degree deg."""
    X = np.zeros((m, cap + 1, count), dtype=complex)
    X[:, : deg + 1] = rng.standard_normal((m, deg + 1, count)) \
        + 1j * rng.standard_normal((m, deg + 1, count))
    return X.reshape(m * (cap + 1), count)


def stacked(*elements):
    """The column matrix of elements sharing a cap, the matrix a span is
    built from: column j holds element j's coefficients, the components of
    a vector element stacked.  ``TaylorPoly(column, cap)`` turns a scalar
    column back into an element."""
    return np.column_stack([np.concatenate([c.padded(e.cap + 1)
                                            for c in getattr(e, "components", (e,))])
                            for e in elements])


def matrix_action(A, X):
    """Analytic part of A F for every column F of X, cut at the cap: the
    action that ``toeplitz_adjoint_apply`` runs, taken with A* (A** = A)."""
    return toeplitz_adjoint_apply(adjoint_on_circle(A), X)


def model_space_frame(theta, m, cap, rank_tol=RANK_TOL):
    """The model space K_Θ with a frame, for any Θ: the lifted SVD null
    basis of the range generators cut to the cap's component degree c,
    with the model-space builder's label and band.  The oracle of the
    frame-free model that the builder keeps for a Θ that is not square inner."""
    c = (cap + 1) // m - 1
    combos = _null_combos(np.conj(range_generators(theta, c).T), m * (c + 1), rank_tol)[1]
    return SpanSubspace(fit_cap(lift(combos.T, m), m, cap), cap, 1, rank_tol,
                        label=f"T_{m}(K_Θ) at cap {cap}", band=m * (c + 1) - 1)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once the wall time runs out."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
