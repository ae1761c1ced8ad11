"""The one array pass over a file's coefficients against the walk over its
entries: the same bits on files of [re, im] pairs, and on any other file
the walk itself, with its exit-2 message naming the first bad entry."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardyshift import problem
from hardyshift.problem import ValidationError, _coeff_pass, _complex_at, parse_problem


def walk(path, value):
    return [_complex_at(f"{path}[{i}]", v) for i, v in enumerate(value)]


def bits(values):
    return [(c.real.hex(), c.imag.hex()) for c in map(complex, values)]


def poly_file(value, cap=None):
    """A file whose one poly p is value, at a cap that holds all of it by default."""
    cap = max(len(value) - 1, 1) if cap is None else cap
    return {"workspace": {"cap": cap}, "objects": {"polys": {"p": value}}}


def file_read(path, value):
    """The values of a one-poly file that parse_problem reads: its leading
    len(value) coefficients, after checking that the rest are zero."""
    table = parse_problem(poly_file(value)).polys["p"]
    assert not table[len(value):].any()
    return table[: len(value)]


def outcome(read, value):
    """The exact bits of the values, or the message."""
    try:
        return bits(read("objects.polys.p", value))
    except ValidationError as exc:
        return str(exc)


def the_pass_takes(value):
    """The file pass takes the one-poly file: its table is an array."""
    batch = _coeff_pass({"p": value}, {}, max(len(value) - 1, 1))
    return batch is not None and isinstance(batch[0], np.ndarray)


@pytest.mark.parametrize("value", [
    [[1, 2], [3.5, -0.25]],
    [[0, 0]],
    [[-0.0, 0.0], [0.0, -0.0]],
    [[2 ** 53 + 1, -(2 ** 63) - 1], [10 ** 20, 1e300], [-1e-320, 7]],
    [[5e-324, -5e-324], [-0.0, 2.2250738585072009e-308], [1.7976931348623157e308, -1]],
])
def test_pairs_of_numbers_read_in_one_pass_give_the_walk_values(value):
    assert the_pass_takes(value)
    assert outcome(file_read, value) == outcome(walk, value)


def test_random_pairs_read_in_one_pass_give_the_walk_bits(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        bits_ = rng.integers(0, 2 ** 63, 2 * n, dtype=np.uint64) | rng.choice(
            np.array([0, 2 ** 63], dtype=np.uint64), 2 * n)  # any sign and exponent
        parts = [v if math.isfinite(v) else -0.0 for v in bits_.view(np.float64).tolist()]
        parts[:: 3] = rng.integers(-(2 ** 62), 2 ** 62, len(parts[:: 3])).tolist()
        value = [parts[i:i + 2] for i in range(0, len(parts), 2)]
        assert the_pass_takes(value)
        assert outcome(file_read, value) == outcome(walk, value)


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
    assert not the_pass_takes(value)
    assert outcome(file_read, value) == expected
    if kind != "bare" or as_part:
        assert expected == f"objects.polys.p[{where}]: expected a finite number, " \
                           f"got {value[where][1] if as_part else value[where]!r}"


@pytest.mark.parametrize("value", [[[1, 2, 3]], [[1]], [(1, 2)], [[1, 2], []]])
def test_lists_that_are_not_pairs_are_walked(value):
    assert not the_pass_takes(value)
    assert outcome(file_read, value) == outcome(walk, value)


# The messages of the walk, which every release of the parser has given: a
# bad value in poly p or in entry (0, 1) of matrix T; None for a valid value.
GOOD = [[1, 2], [0.5, -1]]
CASES = {
    "bool": ([[1, 2], [True, 0]], "[1]: expected a finite number, got True"),
    "string": ([[1, 2], ["1", 0]], "[1]: expected a finite number, got '1'"),
    "null": ([[1, 2], None], "[1]: expected a finite number, got None"),
    "pair of three": ([[1, 2], [1, 2, 3]], "[1]: expected a finite number, got [1, 2, 3]"),
    "bare number": ([[1, 2], 3], None),
    "nested list": ([[1, 2], [[1], 2]], "[1]: expected a finite number, got [1]"),
    "past the float range": ([[1, 2], [0, 10 ** 400]],
                             f"[1]: expected a finite number, got {10 ** 400!r}"),
    "empty list": ([], ": expected a nonempty coefficient array"),
    "nonzero past the cap": ([[0, 0], [0, 0], [0, 0], [1, 0]],
                             ": coefficients up to degree 3 exceed cap 2"),
}


def message(data):
    try:
        parse_problem(data)
    except ValidationError as exc:
        return str(exc)
    return None


def with_objects(**objects):
    return {"workspace": {"cap": 2}, "objects": objects}


@pytest.mark.parametrize("case", CASES)
def test_a_bad_poly_gives_the_walk_message_and_path(case):
    value, tail = CASES[case]
    data = with_objects(polys={"a": GOOD, "p": value})
    assert _coeff_pass(data["objects"]["polys"], {}, 2) is None
    assert message(data) == (tail and f"objects.polys.p{tail}")
    if tail is None:  # a bare number is 3 + 0j
        assert bits(parse_problem(data).polys["p"]) == bits([1 + 2j, 3, 0])


@pytest.mark.parametrize("case", CASES)
def test_a_bad_matrix_entry_gives_the_walk_message_and_path(case):
    value, tail = CASES[case]
    data = with_objects(polys={"a": GOOD}, matrices={"T": {"entries": [[GOOD, value]]}})
    if case == "nonzero past the cap":  # the cap bounds polys only
        tail = None
        assert _coeff_pass(data["objects"]["polys"], data["objects"]["matrices"], 2)
    else:
        assert _coeff_pass(data["objects"]["polys"], data["objects"]["matrices"], 2) is None
    assert message(data) == (tail and f"objects.matrices.T.entries[0][1]{tail}")


def test_a_cap_error_in_poly_2_comes_before_a_type_error_in_poly_3():
    data = with_objects(polys={"a": GOOD, "b": CASES["nonzero past the cap"][0],
                               "c": CASES["bool"][0]})
    assert message(data) == "objects.polys.b: coefficients up to degree 3 exceed cap 2"


def test_a_poly_error_comes_before_a_matrix_error():
    data = with_objects(polys={"a": GOOD, "c": CASES["string"][0]},
                        matrices={"T": {"entries": [[CASES["bool"][0]]]}})
    assert message(data) == "objects.polys.c[1]: expected a finite number, got '1'"
    # a bare number is valid, so the matrix's error is the first
    data = with_objects(polys={"a": CASES["bare number"][0]},
                        matrices={"T": {"entries": [[CASES["null"][0]]]}})
    assert message(data) == "objects.matrices.T.entries[0][0][1]: expected a finite number, got None"


def test_a_spec_error_of_an_earlier_matrix_comes_before_an_entry_error():
    data = with_objects(polys={"a": GOOD}, matrices={"T": {"entries": [[GOOD]], "x": 1},
                                                     "U": {"entries": [[CASES["bool"][0]]]}})
    assert message(data) == "objects.matrices.T.x: unknown key"
    data = with_objects(polys={"a": CASES["bool"][0]}, matrices=[])
    assert message(data) == "objects.polys.a[1]: expected a finite number, got True"


# Parts: ints past 2^53 and 2^64, subnormals and signed zeros among any finite floats.
PART = st.one_of(st.integers(-(2 ** 70), 2 ** 70), st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  2 ** 53 + 1, -(2 ** 63) - 1]))
COEFFS = st.lists(st.lists(PART, min_size=2, max_size=2), min_size=1, max_size=12)


@st.composite
def files(draw):
    """A file of polys, some longer than cap + 1 with zero tails, and matrix entries."""
    cap = draw(st.integers(1, 10))
    polys = {}
    for i in range(draw(st.integers(0, 5))):
        value = draw(COEFFS)[: cap + 1]
        value += draw(st.lists(st.sampled_from([[0, 0], [0.0, -0.0], [-0.0, 0]]), max_size=4))
        polys[f"p{i}"] = value
    matrices = {}
    for i in range(draw(st.integers(0, 3))):
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        matrices[f"T{i}"] = {"entries": [[draw(COEFFS) for _ in range(cols)]
                                         for _ in range(rows)]}
    return {"workspace": {"cap": cap}, "objects": {"polys": polys, "matrices": matrices}}


def parsed_bits(data):
    """The bits of every poly and of every matrix's table and min_pow."""
    p = parse_problem(data)
    return ([bits(v) for v in p.polys.values()],
            [(bits(m.table.ravel()), m.table.shape, m.min_pow) for m in p.matrices.values()])


@settings(max_examples=200, deadline=None)
@given(files())
@example({"workspace": {"cap": 1}, "objects": {
    "polys": {"p": [[2 ** 53 + 1, -0.0], [5e-324, 0], [0, -0.0], [-0.0, 0]]},
    "matrices": {"T": {"entries": [[[[-0.0, 2 ** 64 + 1]], [[1e-310, -1]]]]}}}})
def test_the_file_pass_equals_the_walk_bit_for_bit(data):
    objects = data["objects"]
    if objects["polys"] or objects["matrices"]:
        assert _coeff_pass(objects["polys"], objects["matrices"], data["workspace"]["cap"])
    with mock.patch.object(problem, "_coeff_pass", lambda *args: None):
        walked = parsed_bits(data)
    assert parsed_bits(data) == walked
