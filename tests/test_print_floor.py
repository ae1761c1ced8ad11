import math

import numpy as np

from hardyshift import taylor, vector
from hardyshift.report import element_payload, floored12, poly_pairs


def test_parts_within_the_floor_print_zero_and_tails_are_trimmed():
    f = taylor([1.0, 1e-14 - 3e-14j, 0.5 + 2e-13j, 1e-15, 1e-20j], 8)
    # the norm is sqrt(1.25); 1e-13 of it is about 1.12e-13
    assert element_payload(f) == {"kind": "scalar",
                                  "coeffs": [[1.0, 0.0], [0.0, 0.0], [0.5, 2e-13]]}
    signed_zero = element_payload(taylor(np.array([-0.0 - 0.0j, 1.0]), 4))["coeffs"]
    assert [[repr(x) for x in p] for p in signed_zero] == [["0.0", "0.0"], ["1.0", "0.0"]]


def test_floor_is_relative_to_the_element_norm():
    small = taylor([1e-20, 1e-34, 3e-20], 6)
    assert element_payload(small)["coeffs"] == [[1e-20, 0.0], [0.0, 0.0], [3e-20, 0.0]]
    # a vector element is one scale: a component of dust prints as zero
    v = vector([taylor([1.0, 2.0], 6), taylor([0.0, 5e-14], 6)])
    assert element_payload(v)["components"] == [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]]]


def test_floor_scale_does_not_overflow():
    reals = [1e300, -1e-300, 1e290, 1e286, 0.1]
    f = taylor(np.array(reals, dtype=np.complex128) * (1 + 1j), 8)
    got = element_payload(f)["coeffs"]  # RuntimeWarnings are errors here
    assert got == poly_pairs(taylor([1e300 + 1e300j, 0, 1e290 + 1e290j], 8))


def test_gaps_within_the_floor_print_zero():
    assert floored12(1e-13) == 0.0
    assert floored12(2.220446049250313e-16) == 0.0
    assert floored12(1.5e-13) == 1.5e-13
    assert floored12(0.123456789012345) == 0.123456789012
    assert math.isnan(floored12(float("nan")))
