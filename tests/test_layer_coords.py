"""The layer-coordinate kernel of ``blaschke`` against the layer frame it does
not form: W^H X and |X - W W^H X| of ``build_wold_frame(B, cap, depth).matrix``."""

import json
import tracemalloc

import numpy as np
import pytest

from hardyshift import BlaschkeProduct, DepthExhausted, build_wold_frame
from hardyshift import blaschke
from hardyshift.blaschke import _layer_coords
from hardyshift.cli import main
from hardyshift.subspaces import frame_distance

# degree 1 to 3, zeros off the origin, and at it next to others
FAMILIES = [[0.5], [0.3 + 0.2j, -0.4j], [0, -0.45 + 0.1j], [0.6j, 0.2, -0.5],
            [0, 0.5, -0.3 + 0.1j]]
MONOMIALS = [[0], [0, 0], [0, 0, 0]]  # B = λz^d
CAPS = [16, 48, 97, 384]
COLUMNS = [1, 3, 70]


def depths(cap, m):
    """1, 2, the default and the largest allowed depth."""
    return [1, 2, None, cap // m + 1]


def columns(rng, cap, p):
    X = rng.standard_normal((cap + 1, p)) + 1j * rng.standard_normal((cap + 1, p))
    return X / np.linalg.norm(X, axis=0)


@pytest.fixture
def layers_built(monkeypatch):
    """The depths ``_layers`` is called with: the depth itself on the frame path."""
    built, layers = [], blaschke._layers
    monkeypatch.setattr(blaschke, "_layers", lambda B, cap, depth: (built.append(depth),
                                                                    layers(B, cap, depth))[1])
    return built


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("zeros", FAMILIES)
def test_coordinates_and_residuals_match_the_frame(zeros, cap, rng, layers_built):
    B = BlaschkeProduct(np.exp(0.7j), zeros)
    split = frame = 0
    for depth in depths(cap, B.degree):
        W = build_wold_frame(B, cap, depth)
        F = W.matrix
        for p in COLUMNS:
            X = columns(rng, cap, p)
            layers_built.clear()
            C, residuals = _layer_coords(X, W, np.inf)
            want = F.conj().T @ X
            assert C.shape == want.shape and residuals.shape == (p,)
            assert np.max(np.abs(C - want)) <= 1e-13
            assert np.max(np.abs(residuals - np.linalg.norm(X - F @ want, axis=0))) <= 1e-13
            if layers_built == [W.depth]:  # s = depth: the frame product itself
                frame += 1
                C_frame, r_frame = frame_distance(F, X)
                assert np.array_equal(C, C_frame) and np.array_equal(residuals, r_frame)
            else:
                split += 1
                assert layers_built[0] < W.depth
    assert frame > 0 and split > 0


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("zeros", MONOMIALS)
def test_a_monomial_product_gives_the_frame_coordinates_bit_for_bit(zeros, cap, rng,
                                                                    layers_built):
    B = BlaschkeProduct(np.exp(0.7j), zeros)
    for depth in depths(cap, B.degree):
        W = build_wold_frame(B, cap, depth)
        for p in COLUMNS:
            X = columns(rng, cap, p)
            layers_built.clear()
            C, residuals = _layer_coords(X, W, np.inf)
            assert layers_built == [W.depth]  # its frame is kept
            C_frame, r_frame = frame_distance(W.matrix, X)
            assert np.array_equal(C, C_frame) and np.array_equal(residuals, r_frame)


@pytest.mark.parametrize("depth", [2, 40, 100])
@pytest.mark.parametrize("zeros", [[0.5], [0.3 + 0.2j, -0.4j], [0.6j, 0.2, -0.5]])
def test_a_short_depth_fails_at_the_frame_paths_first_column(zeros, depth, rng, layers_built):
    cap = 384
    B = BlaschkeProduct(np.exp(0.7j), zeros)
    W = build_wold_frame(B, cap, depth)
    X = np.zeros((cap + 1, 3), dtype=np.complex128)
    X[:, 0] = W.matrix[:, 0]  # a model basis vector, covered at every depth
    X[[0, 300], 1] = [1, 0.2]  # z^300 lies past the layers
    X[[0, 200], 2] = [0.1, 1]  # and so does z^200, in a later column
    _, r_frame = frame_distance(W.matrix, X)
    assert r_frame[0] <= 1e-8 < min(r_frame[1:])
    layers_built.clear()
    with pytest.raises(DepthExhausted) as info:
        _layer_coords(X, W, 1e-8)
    assert abs(info.value.residual - r_frame[1]) <= 1e-12 * r_frame[1]
    assert f"{info.value.residual:.3e}" in str(info.value)
    assert (layers_built == [depth]) == (depth == 2)  # both paths are tried


def test_a_cap_384_transfer_forms_no_full_frame(tmp_path, capsys):
    cap = 384
    problem = {
        "workspace": {"cap": cap},
        "objects": {
            "polys": {"r0": [[1, 0], [0.5, 0], [0, -0.25], [0.3, 0]],
                      "r1": [[0.2, 0], [-1, 0], [0, 0.7]],
                      "br0": [[-0.5, 0], [0.75, 0], [0.25, -0.125], [0.15, 0], [0.3, 0]]},
            "blaschke": {"B": {"lambda": [0.6, 0.8], "zeros": [[0.5, 0]]}}},
        "subspaces": {"M": {"kind": "span", "generators": ["r0", "br0", "r1"]}},
        "tasks": [{"task": "blaschke-transfer", "subspace": "M", "blaschke": "B", "n": 1}],
    }
    path = tmp_path / "transfer.json"
    path.write_text(json.dumps(problem))
    assert main(["run", str(path)]) == 0  # the first run warms caches and imports
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["run", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"][0]["depth"] == cap + 1
    assert peak < (cap + 1) ** 2 * 16 / 2


@pytest.mark.parametrize("depth", [2, 100])
def test_a_nan_column_fails_closed_on_both_paths(depth, layers_built):
    W = build_wold_frame(BlaschkeProduct(1.0, [0.5]), 384, depth)
    X = np.zeros((385, 3), dtype=np.complex128)
    X[0] = 1.0
    X[7, 1] = np.nan
    layers_built.clear()
    with pytest.raises(DepthExhausted, match="residual nan") as info:
        _layer_coords(X, W, np.inf)
    assert np.isnan(info.value.residual) and (layers_built == [depth]) == (depth == 2)
