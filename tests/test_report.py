import numpy as np

from hardyshift import taylor
from hardyshift.report import poly_pairs, round12


def test_poly_pairs_matches_per_element_round12():
    reals = [0.0, -0.0, 5e-324, -2.5e-310, np.nextafter(2.2250738585072014e-308, 0),
             1e300, -1e-300, 1e12, 123456789012345.0, -(2.0 ** 53), 2.0 ** 60,
             123456789012.5, 123456789013.5, -1000000000005.0, 1000000000015.0,
             0.1, 1 / 3, -2.0 / 3e-7]
    coeffs = np.array(reals, dtype=np.complex128)
    coeffs.imag = reals[::-1]
    f = taylor(coeffs, len(reals) + 3)
    got = poly_pairs(f)
    want = [[round12(c.real), round12(c.imag)] for c in coeffs]
    assert got == want
    assert [[repr(x) for x in p] for p in got] == [[repr(x) for x in p] for p in want]


def test_poly_pairs_zero_polynomial():
    assert poly_pairs(taylor([0.0], 4)) == [[0.0, 0.0]]
