import math

import numpy as np

from hardyshift.report import element_payload, floored, floored12, poly_pairs


def blocks(*rows, cap):
    """An element as (arity, cap+1) coefficient blocks, one row per block."""
    out = np.zeros((len(rows), cap + 1), dtype=np.complex128)
    for row, coeffs in zip(out, rows):
        row[: len(coeffs)] = coeffs
    return out


def test_parts_within_the_floor_print_zero_and_tails_are_trimmed():
    f = blocks([1.0, 1e-14 - 3e-14j, 0.5 + 2e-13j, 1e-15, 1e-20j], cap=8)
    # the norm is sqrt(1.25); 1e-13 of it is about 1.12e-13
    assert element_payload(f) == {"kind": "scalar",
                                  "coeffs": [[1.0, 0.0], [0.0, 0.0], [0.5, 2e-13]]}
    signed_zero = element_payload(blocks(np.array([-0.0 - 0.0j, 1.0]), cap=4))["coeffs"]
    assert [[repr(x) for x in p] for p in signed_zero] == [["0.0", "0.0"], ["1.0", "0.0"]]


def test_floor_is_relative_to_the_element_norm():
    small = blocks([1e-20, 1e-34, 3e-20], cap=6)
    assert element_payload(small)["coeffs"] == [[1e-20, 0.0], [0.0, 0.0], [3e-20, 0.0]]
    # a vector element is one scale over both blocks: a block of dust
    # prints as zero, though its own norm would keep it
    v = blocks([1.0, 2.0], [0.0, 5e-14], cap=6)
    assert element_payload(v) == {"kind": "vector",
                                  "components": [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]]]}
    assert element_payload(v[1:])["coeffs"] == [[0.0, 0.0], [5e-14, 0.0]]


def test_floor_scale_does_not_overflow():
    reals = [1e300, -1e-300, 1e290, 1e286, 0.1]
    f = blocks(np.array(reals, dtype=np.complex128) * (1 + 1j), cap=8)
    got = element_payload(f)["coeffs"]  # RuntimeWarnings are errors here
    assert got == poly_pairs(np.array([1e300 + 1e300j, 0, 1e290 + 1e290j]))


def test_floored_copies_read_only_blocks():
    # witness blocks are read-only views of a frame matrix
    c = blocks([1.0, 1e-20, 2.0], cap=4)[0]
    c.flags.writeable = False
    got = floored(c)
    assert got.shape == (5,) and got[1] == 0.0 and c[1] == 1e-20
    assert element_payload(3) == 3  # a monomial witness stays an exponent


def test_gaps_within_the_floor_print_zero():
    assert floored12(1e-13) == 0.0
    assert floored12(2.220446049250313e-16) == 0.0
    assert floored12(1.5e-13) == 1.5e-13
    assert floored12(0.123456789012345) == 0.123456789012
    assert math.isnan(floored12(float("nan")))
