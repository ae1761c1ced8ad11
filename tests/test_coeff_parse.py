"""The one-pass read of a coefficient list against the walk over its
entries: the same values on lists of [re, im] pairs, and on any other
list the walk itself, with its exit-2 message naming the first bad entry."""

import math

import numpy as np
import pytest

from hardyshift.problem import ValidationError, _coeff_list_at, _complex_at


def walk(path, value):
    return [_complex_at(f"{path}[{i}]", v) for i, v in enumerate(value)]


def outcome(read, value):
    """The exact bits of the values, or the message."""
    try:
        return [(c.real.hex(), c.imag.hex()) for c in map(complex, read("objects.polys.p", value))]
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("value", [
    [[1, 2], [3.5, -0.25]],
    [[0, 0]],
    [[-0.0, 0.0], [0.0, -0.0]],
    [[2 ** 53 + 1, -(2 ** 63) - 1], [10 ** 20, 1e300], [-1e-320, 7]],
    [[5e-324, -5e-324], [-0.0, 2.2250738585072009e-308], [1.7976931348623157e308, -1]],
])
def test_pairs_of_numbers_read_in_one_pass_give_the_walk_values(value):
    assert isinstance(_coeff_list_at("objects.polys.p", value), np.ndarray)
    assert outcome(_coeff_list_at, value) == outcome(walk, value)


def test_random_pairs_read_in_one_pass_give_the_walk_bits(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        bits = rng.integers(0, 2 ** 63, 2 * n, dtype=np.uint64) | rng.choice(
            np.array([0, 2 ** 63], dtype=np.uint64), 2 * n)  # any sign and exponent
        parts = [v if math.isfinite(v) else -0.0 for v in bits.view(np.float64).tolist()]
        parts[:: 3] = rng.integers(-(2 ** 62), 2 ** 62, len(parts[:: 3])).tolist()
        value = [parts[i:i + 2] for i in range(0, len(parts), 2)]
        assert isinstance(_coeff_list_at("objects.polys.p", value), np.ndarray)
        assert outcome(_coeff_list_at, value) == outcome(walk, value)


BAD = {"bool": True, "nan": float("nan"), "string": "1", "huge": 10 ** 400, "none": None}


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("kind", [*BAD, "bare"])
@pytest.mark.parametrize("as_part", [False, True])
def test_other_lists_give_the_walk_values_or_message(kind, where, as_part):
    value = [[1, 2], [0.5, -1], [3, 4.25], [-2, 0], [7, 8]]
    if kind == "bare":
        value[where] = 3 if not as_part else [3, [1]]
    else:
        value[where] = [1.5, BAD[kind]] if as_part else BAD[kind]
    expected = outcome(walk, value)
    assert outcome(_coeff_list_at, value) == expected
    if kind != "bare" or as_part:
        assert expected == f"objects.polys.p[{where}]: expected a finite number, " \
                           f"got {value[where][1] if as_part else value[where]!r}"


@pytest.mark.parametrize("value", [[[1, 2, 3]], [[1]], [(1, 2)], [[1, 2], []]])
def test_lists_that_are_not_pairs_are_walked(value):
    assert outcome(_coeff_list_at, value) == outcome(walk, value)
