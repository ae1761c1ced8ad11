"""The model space K_Θ of a Θ that is not square inner is kept without a
frame, as the range of P = I - QQᴴ, and its co-shift invariance is tested
on the columns P e_i.  These tests hold that check against the
frame-based one on the lifted SVD null basis of the cut range generators
(``conftest.model_space_frame``, the oracle)."""

import numpy as np
import pytest

from hardyshift import (BlaschkeProduct, DimensionMismatch, OperatorSpec, check_invariance,
                        from_poly_grid, identity, matmul, verify_theorem_multi)
from hardyshift import subspaces
from hardyshift.invariance import ComplementModel, build_model_space
from hardyshift.laurent import LaurentMatrix
from hardyshift.tolerances import MEMBERSHIP_TOL, RANK_TOL

from conftest import model_space_frame

SQRT5 = 5 ** 0.5


def _unitary(rng, m):
    return np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]


def _monomial_column(rng, m, a):
    """z^a times a unit vector of C^m: its cut generators are whole or zero."""
    table = np.zeros((m, 1, a + 1), dtype=complex)
    table[:, 0, a] = _unitary(rng, m)[:, 0]
    return LaurentMatrix(m, 1, 0, table)


def _factor_column(rng, m, count):
    """The first column of a product of count factors U·diag(z^a)·V: an
    inner column whose cut generators are nonzero; with two factors they
    also overlap, so Q takes CGS2."""
    theta = identity(m)
    for _ in range(count):
        a = rng.integers(0, 3, size=m)
        U, V = _unitary(rng, m), _unitary(rng, m)
        table = np.zeros((m, m, a.max() + 1), dtype=complex)
        for l, e in enumerate(a):
            table[:, :, e] += np.outer(U[:, l], V[l])
        theta = matmul(theta, LaurentMatrix(m, m, 0, table))
    return LaurentMatrix(m, 1, theta.min_pow, theta.table[:, :1].copy())


def _cases():
    rng = np.random.default_rng(26)
    cases = [(f"z^{a}·v m={m}", _monomial_column(rng, m, a), m)
             for m in (2, 3, 4) for a in (0, 1, 2)]
    cases += [(f"{count} factors m={m}", _factor_column(rng, m, count), m)
              for m in (2, 3, 4) for count in (1, 2)]
    return cases + [
        ("(0.6, 0.8z)", from_poly_grid([[[0.6]], [[0, 0.8]]]), 2),
        ("(1, 2)/√5", from_poly_grid([[[1 / SQRT5]], [[2 / SQRT5]]]), 2),
        ("[[0.6, 0], [0.8z, 0], [0, 1], [0, 0]]",
         from_poly_grid([[[0.6], [0]], [[0, 0.8], [0]], [[0], [1]], [[0], [0]]]), 4),
    ]


CASES = _cases()


@pytest.mark.parametrize("cap", [48, 97])
@pytest.mark.parametrize("name, theta, m", CASES, ids=[c[0] for c in CASES])
def test_complement_check_agrees_with_the_frame_oracle(name, theta, m, cap):
    model, oracle = build_model_space(theta, m, cap), model_space_frame(theta, m, cap)
    assert isinstance(model, ComplementModel) and model.label == oracle.label
    F = oracle.matrix
    P = F @ F.conj().T  # the oracle's projector onto K_Θ
    live = np.flatnonzero(np.real(np.diag(P)) > RANK_TOL)
    for k in range(1, 2 * m + 4):
        op = OperatorSpec(k, True)
        got, want = check_invariance(model, op), check_invariance(oracle, op)
        assert got.verdict == want.verdict, (name, k)
        assert (got.check, got.operator, got.subspace, got.untested) == \
            (want.check, want.operator, want.subspace, want.untested)
        if got.passed:
            assert got.witness is None and got.tested == live.size
            continue
        w = got.witness
        x, y = w.element[0], w.image[0]
        i = int(w.note.split()[1][2:])  # "P e_i image leaves the span"
        # the element is P e_i over its norm: it lies in K_Θ
        assert np.linalg.norm(x - P[:, i] / np.linalg.norm(P[:, i])) <= 1e-12
        assert np.linalg.norm(x - P @ x) <= 1e-12
        # the image is its co-shift, and the residual is the image's distance from K_Θ
        assert np.array_equal(y[: cap + 1 - k], x[k:]) and not y[cap + 1 - k:].any()
        residual = np.linalg.norm(y - P @ y)
        assert residual > MEMBERSHIP_TOL and w.residual == pytest.approx(residual, rel=1e-9)
        # it is the first P e_i that fails, and ``tested`` counts the P e_i up to it
        before = live[live < i]
        images = np.zeros((cap + 1, before.size), dtype=complex)
        images[: cap + 1 - k] = P[k:, before]
        assert np.all(np.linalg.norm(images - P @ images, axis=0)
                      <= MEMBERSHIP_TOL * np.linalg.norm(P[:, before], axis=0))
        assert i in live and got.tested == before.size + 1


def test_zero_cut_generators_are_dropped_before_the_gram_test(monkeypatch):
    # z^a·v cuts a generators per column to zero; without them the rest are
    # orthonormal and pass the Gram test.  The lifted generators of
    # (0.6, 0.8z) have disjoint supports, so they pass it too, cut or not;
    # those of a product of two factors overlap and take CGS2
    cgs2, runs = subspaces._cgs2, []

    def counted(*args):
        runs.append(args)
        return cgs2(*args)

    monkeypatch.setattr(subspaces, "_cgs2", counted)
    for name, theta, m in CASES:
        if name.startswith("z^"):
            build_model_space(theta, m, 97)
    build_model_space(from_poly_grid([[[0.6]], [[0, 0.8]]]), 2, 97)
    assert not runs
    for name, theta, m in CASES:
        if name.startswith("2 factors"):
            build_model_space(theta, m, 97)
            assert runs, name
            runs.clear()


def _in_range_theta(R):
    """Θ = [e0 e2]·R at m = 4: its range holds components 0 and 2, K_Θ
    components 1 and 3, for any unitary R."""
    table = np.zeros((4, 2, 1), dtype=complex)
    table[0, :, 0], table[2, :, 0] = R
    return LaurentMatrix(4, 2, 0, table)


@pytest.mark.parametrize("cap", [47, 48, 383])
def test_coordinates_in_the_range_are_the_zero_element(cap):
    # every e_i of components 0 and 2 lies in the range, so P e_i = 0: it is
    # not tested, and it neither FAILs nor gives a NaN, also when the
    # rounding of 1 - ||Q[i, :]||² leaves it at ±EPS
    s = 2 ** -0.5
    n = 4 * ((cap + 1) // 4)
    for R in (np.eye(2), np.array([[s, s], [s, -s]])):
        rep = verify_theorem_multi(_in_range_theta(R), 4, [(2, 1)], cap)
        assert rep.passed, [(st.name, st.verdict) for st in rep.stages]
        for name in ("model_invariant_(S^4)*", "model_invariant_(S^6)*"):
            assert rep.stage(name).data.tested == n // 2


def test_rotated_range_coordinates_stay_below_the_cut_off():
    # random rotations R leave 1 - ||Q[i, :]||² at a few EPS, of either
    # sign, on the coordinates in the range; a cut-off at the rounding
    # level would divide rounding by about EPS^½ there and FAIL
    rng = np.random.default_rng(0)
    rounded = 0
    for _ in range(200):
        model = build_model_space(_in_range_theta(_unitary(rng, 2)), 4, 47)
        Q = model.complement.matrix[: model.n]
        norm2 = 1.0 - np.sum(np.abs(Q) ** 2, axis=1)
        rounded += np.count_nonzero(norm2[0::2])
        assert np.max(np.abs(norm2[0::2])) < 1e-14
        for k in (4, 6):
            rep = check_invariance(model, OperatorSpec(k, True))
            assert rep.passed and rep.tested == model.n // 2
    assert rounded


def test_a_complement_model_takes_co_shifts_only():
    model = build_model_space(from_poly_grid([[[0.6]], [[0, 0.8]]]), 2, 16)
    for op in (OperatorSpec(1), OperatorSpec(1, True, BlaschkeProduct(1.0, [0.5]))):
        with pytest.raises(DimensionMismatch, match="co-shifts only"):
            check_invariance(model, op)
    # a power past the model's coordinates maps every element to 0; all
    # P e_i but P e_14 are tested: e_14, the lift of (z^7, 0), is the cut
    # generator (0.6 z^7, 0) over its norm
    rep = check_invariance(model, OperatorSpec(10 ** 20, True))
    assert rep.passed and rep.tested == model.n - 1
