"""Matrix types, invariants, and the JSON/CSV file formats."""

import decimal
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minctrl.matrices
from minctrl.errors import InvalidInputError
from minctrl.linalg import left_eigensystem
from minctrl.matrices import (
    DenseMatrix,
    RationalMatrix,
    as_dense,
    as_rational,
    integer_form,
    load_json_object,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    primitive_vector,
    save_matrix,
    scale_to_integers,
)


def test_dense_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        DenseMatrix([[1.0, float("nan")]])
    with pytest.raises(InvalidInputError):
        DenseMatrix([[math.inf], [0.0]])


@pytest.mark.parametrize(
    "entries",
    [
        [[True], [1]],
        [[1.5, False]],
        [[np.True_, 2.0]],
        np.array([[True], [False]]),
        [np.array([1.0, 2.0]), np.array([True, False])],
        np.array([[True, 1.5]], dtype=object),
    ],
    ids=["nested", "nested-float", "numpy-scalar", "bool-array", "rows-of-arrays", "object-array"],
)
def test_dense_rejects_booleans_as_rational_does(entries):
    with pytest.raises(InvalidInputError, match="boolean"):
        DenseMatrix(entries)
    with pytest.raises(InvalidInputError):
        RationalMatrix.from_rows([list(row) for row in entries])


@pytest.mark.parametrize(
    "entries",
    [[["1", 2.0]], [[None, 1.0]], np.array([["1", 2.0]], dtype=object), [[1.0], ["2"]]],
    ids=["numeric-string", "none", "object-array", "second-row"],
)
def test_dense_rejects_strings_and_none(entries):
    # numpy would read "1" as 1.0 and None as NaN; a file's string entry
    # makes it rational instead, so only direct input reaches this check
    with pytest.raises(InvalidInputError, match="must be real numbers"):
        DenseMatrix(entries)


def test_dense_checks_a_typed_array_by_dtype_only():
    # a float ndarray, as the harness passes, is never scanned entry by entry
    class NoIteration(np.ndarray):
        def __iter__(self):
            raise AssertionError("scanned")

    arr = np.eye(3).view(NoIteration)
    assert DenseMatrix(arr) == DenseMatrix.identity(3)
    assert DenseMatrix(np.array([[1, 0], [0, 1]], dtype=np.int64)) == DenseMatrix.identity(2)


def test_dense_shape_and_entries():
    m = DenseMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    data = matrix_to_json_dict(m)["data"]
    assert data == [1, 2, 3, 4, 5, 6]
    assert all(type(x) is float for x in data)  # Python floats, not numpy scalars


def test_dense_immutable():
    m = DenseMatrix.identity(2)
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0
    with pytest.raises(AttributeError):
        m.array = np.zeros((2, 2))


def test_dense_transpose():
    m = DenseMatrix([[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert (t.rows, t.cols) == (3, 2)
    assert t.array.tolist() == [[1, 4], [2, 5], [3, 6]]
    assert t.transpose() == m
    # its own array, read-only like every DenseMatrix's
    assert not np.shares_memory(t.array, m.array)
    assert not t.array.flags.writeable


def test_rational_is_an_immutable_value():
    m = RationalMatrix.from_rows([["1/2", 3]])
    same = RationalMatrix.from_rows([[Fraction(1, 2), "3"]])
    assert m == same and hash(m) == hash(same) and len({m, same}) == 1
    assert m != as_dense(m) and m != m.transpose()
    with pytest.raises(AttributeError):
        m.data = same.data
    # no attribute can be added either; Python 3.11 reports it as a TypeError,
    # from the frozen __setattr__ that dataclasses gives a slots class
    with pytest.raises((AttributeError, TypeError)):
        m.extra = 1
    with pytest.raises(InvalidInputError, match="ragged rows"):
        RationalMatrix(((Fraction(1),), ()))
    with pytest.raises(InvalidInputError, match="dimensions must be positive"):
        RationalMatrix(())


def test_rational_entries_normalized():
    m = RationalMatrix.from_rows([["2/4", "-6/8"], ["3", "0/5"]])
    assert m.data[0][0] == Fraction(1, 2)
    assert m.data[0][1] == Fraction(-3, 4)
    # Fraction guarantees positive denominators and reduced form
    assert all(x.denominator > 0 for row in m.data for x in row)
    assert all(math.gcd(abs(x.numerator), x.denominator) == 1
               for row in m.data for x in row)


def test_rational_rejects_zero_denominator():
    with pytest.raises(InvalidInputError):
        RationalMatrix.from_rows([["1/0"]])


def test_rational_inverse_and_matmul():
    m = RationalMatrix.from_rows([[2, 1], [1, 1]])
    inv = m.inverse()
    assert m @ inv == RationalMatrix.identity(2)
    assert inv @ m == RationalMatrix.identity(2)


def test_rational_inverse_singular():
    with pytest.raises(InvalidInputError):
        RationalMatrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_float_to_rational_is_exact():
    m = DenseMatrix([[0.5, 0.25], [3.0, -7.5]])
    r = as_rational(m)
    assert r.data[0][0] == Fraction(1, 2)
    assert r.data[1][1] == Fraction(-15, 2)
    assert as_dense(r) == m


def test_json_round_trip_dense(tmp_path):
    m = DenseMatrix([[1.5, 2.0], [3.0, 4.25]])
    path = tmp_path / "m.json"
    save_matrix(m, path)
    again = load_matrix(path)
    assert isinstance(again, DenseMatrix)
    assert again == m


def test_json_round_trip_rational(tmp_path):
    m = RationalMatrix.from_rows([["1/3", "-7/2"], ["0", "5"]])
    path = tmp_path / "m.json"
    save_matrix(m, path)
    again = load_matrix(path)
    assert isinstance(again, RationalMatrix)
    assert again == m


def test_json_round_trip_past_int_digit_limit(tmp_path):
    # 7**6000 has 5,071 digits: past Python's 4,300-digit int/str limit
    m = RationalMatrix.from_rows(
        [[Fraction(7**6000, 3**5000), "1/3"], [-(7**6000), 0]]
    )
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert load_matrix(path) == m
    _assert_integer_forms(m)


def test_texts_past_int_digit_limit_made_once_per_entry_object(monkeypatch):
    big = Fraction(10**4999 + 7, 3)  # a 5,000-digit numerator, past the 4,300-digit limit
    m = RationalMatrix(((big, Fraction(1, 3)), (Fraction(-5), big)))
    reference = [minctrl.matrices._rational_text(x) for row in m.data for x in row]
    texts = []
    real = minctrl.matrices._rational_text
    monkeypatch.setattr(
        minctrl.matrices, "_rational_text", lambda x: texts.append(x) or real(x)
    )
    data = matrix_to_json_dict(m)["data"]
    assert data == reference
    assert texts == [big] and data[0] is data[3]


def test_json_round_trip_past_int_digit_limit_without_decimal(tmp_path, monkeypatch):
    # conversions past the limit go by 4,000-digit chunks, not through decimal
    def no_decimal(*_args, **_kwargs):
        raise AssertionError("decimal used")

    monkeypatch.setattr(decimal, "Decimal", no_decimal)
    monkeypatch.setattr(minctrl.matrices, "Decimal", no_decimal, raising=False)
    nines = 10**12000 - 1  # 12,000 digits
    padded = 10**8001 + 7  # inner chunks with leading zeros
    m = RationalMatrix.from_rows(
        [[Fraction(nines, 10**12000 - 3), -nines], [padded, Fraction(-1, padded)]]
    )
    path = tmp_path / "m.json"
    save_matrix(m, path)
    data = json.loads(path.read_text())["data"]
    assert data[2] == "1" + "0" * 8000 + "7"
    assert data[3] == "-1/" + data[2]
    assert load_matrix(path) == m


@pytest.mark.parametrize(
    "data, message",
    [
        (["0", " 1/0", "0", " 1/0"], "bad rational entry ' 1/0': Fraction(1, 0)"),
        (["1/3", "x/2", "0", "x/2"], "bad rational entry 'x/2'"),
        (["x/2", "y", "x/2", "1"], "bad rational entry 'x/2'"),
        (["1", "1_" + "0" * 5000, "0", "1"], "bad rational entry '1_000"),
    ],
    ids=["zero-denominator", "repeated", "first-bad-string", "long-underscore"],
)
def test_parsed_strings_rejected_as_before(data, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        matrix_from_json_dict({"rows": 2, "cols": 2, "data": data})


def test_each_distinct_string_parsed_once(monkeypatch):
    parsed = []
    original = minctrl.matrices._parse_rational

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(minctrl.matrices, "_parse_rational", counting)
    data = ["1_0", "0", "1/2", "0", "2/4", 0.5, "1_0", 1, "0"]
    m = matrix_from_json_dict({"rows": 3, "cols": 3, "data": data})
    # Fraction's own syntax: "1_0" is 10
    assert m.data == tuple(
        tuple(map(Fraction, row))
        for row in [[10, 0, Fraction(1, 2)], [0, Fraction(1, 2), 0.5], [10, 1, 0]]
    )
    assert sorted(parsed) == ["0", "1/2", "1_0", "2/4"]


@pytest.mark.parametrize(
    "tail", ["/x", "/0", "/-3", "/3/4"],
    ids=["letter", "zero-denominator", "signed-denominator", "two-slashes"],
)
def test_long_malformed_rational_entry_rejected(tail):
    with pytest.raises(InvalidInputError, match="bad rational entry"):
        RationalMatrix.from_rows([["9" * 5000 + tail]])


def test_json_dict_shapes():
    m = RationalMatrix.from_rows([["1/3"]])
    obj = matrix_to_json_dict(m)
    assert obj == {"rows": 1, "cols": 1, "data": ["1/3"]}
    assert matrix_from_json_dict(obj) == m


def test_json_data_length_checked():
    with pytest.raises(InvalidInputError):
        matrix_from_json_dict({"rows": 2, "cols": 2, "data": [1, 2, 3]})


@pytest.mark.parametrize(
    "data",
    [[True, False, False, True], [1, 0, 0, True], [1.5, False, 0, 1], ["1", True, "0", "1"]],
    ids=["all-booleans", "int-and-boolean", "float-and-boolean", "rational-and-boolean"],
)
def test_json_boolean_entries_rejected(data):
    with pytest.raises(InvalidInputError):
        matrix_from_json_dict({"rows": 2, "cols": 2, "data": data})


@pytest.mark.parametrize(
    "header",
    [
        {"rows": 2.7, "cols": "2"},
        {"rows": 2, "cols": "2"},
        {"rows": 2.0, "cols": 2},
        {"rows": True, "cols": 4},
        {"rows": None, "cols": 2},
        {"rows": 2, "cols": -2},
        {"rows": 0, "cols": 4},
    ],
    ids=lambda header: json.dumps(header),
)
@pytest.mark.parametrize("data", [[1, 0, 0, 1], ["1", "0", "0", "1"]])
def test_json_header_must_be_positive_integers(header, data):
    with pytest.raises(InvalidInputError, match="positive integers"):
        matrix_from_json_dict({**header, "data": data})


def test_csv_load(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")
    m = load_matrix(path)
    assert isinstance(m, DenseMatrix)
    assert m == DenseMatrix([[1, 2, 3], [4, 5, 6]])


def test_csv_ragged_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(InvalidInputError):
        load_matrix(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{broken")
    with pytest.raises(InvalidInputError):
        load_matrix(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        load_matrix(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read .*nope.json: "),
        (b"{broken", "nope.json: not valid JSON: "),
        (b"\xff\xfe{", "nope.json: not valid JSON: "),
        (b"[1, 2]", "nope.json: expected a JSON instance object$"),
    ],
)
def test_load_json_object_errors(tmp_path, content, message):
    path = tmp_path / "nope.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(InvalidInputError, match=message):
        load_json_object(path, "instance object")


def test_load_json_object_reads_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"n_values": [10], "trials_per_n": 2}')
    assert load_json_object(str(path), "object") == {"n_values": [10], "trials_per_n": 2}


def test_scale_to_integers():
    values = [Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(5)]
    assert scale_to_integers(values) == ([3, -2, 0, 30], 6)
    assert scale_to_integers([Fraction(4), Fraction(-6)]) == ([4, -6], 1)
    assert scale_to_integers([]) == ([], 1)


@pytest.mark.parametrize(
    "vector, primitive",
    [([4, -6, 0], [2, -3, 0]), ([-3, 5], [-3, 5]), ([0, -7], [0, -1])],
)
def test_primitive_vector_of_any_positive_multiple(vector, primitive):
    for k in (1, 2, 3, 12, 2**70):
        assert primitive_vector([k * v for v in vector]) == primitive


def test_primitive_vector_zero_and_empty():
    assert primitive_vector([0, 0, 0]) == [0, 0, 0]
    assert primitive_vector([]) == []


@pytest.mark.parametrize(
    "value",
    [np.eye(2), [[1, 0], [0, 2]], None, left_eigensystem(DenseMatrix.diagonal([1, 2]))],
    ids=["ndarray", "list", "none", "eigensystem"],
)
def test_matrix_conversions_reject_non_matrices(value):
    with pytest.raises(InvalidInputError):
        as_dense(value)
    with pytest.raises(InvalidInputError):
        as_rational(value)


# --- the integer product kernel against a plain Fraction reference --------------

def _naive_product(left, right):
    """Sum of ``Fraction`` products, entry by entry: the reference for ``@``."""
    return [
        [
            sum((left[i][t] * right[t][j] for t in range(len(right))), Fraction(0))
            for j in range(len(right[0]))
        ]
        for i in range(len(left))
    ]


_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**60)),
)


@st.composite
def _factor_pair(draw):
    """Sparse rational factors, with a zero row on the left and a zero column
    on the right half of the time; shapes include 1x1, 1xk and kx1."""
    r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
    zero_weight = draw(st.integers(0, 3))
    entry = st.one_of(*[st.just(Fraction(0))] * zero_weight, _ENTRY)
    left = [[draw(entry) for _ in range(k)] for _ in range(r)]
    right = [[draw(entry) for _ in range(c)] for _ in range(k)]
    if draw(st.booleans()):
        left[draw(st.integers(0, r - 1))] = [Fraction(0)] * k
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in right:
            row[j] = Fraction(0)
    return left, right


def _assert_integer_forms(M):
    """``integer_form`` of ``M``, which ``from_integers`` inverts."""
    U, L = integer_form(M)
    assert L == math.lcm(*(x.denominator for row in M.data for x in row))
    assert RationalMatrix.from_integers(U, L) == M


@settings(max_examples=300, deadline=None)
@given(_factor_pair())
def test_matmul_equals_fraction_reference(pair):
    left, right = pair
    product = RationalMatrix.from_rows(left) @ RationalMatrix.from_rows(right)
    expected = RationalMatrix.from_rows(_naive_product(left, right))
    assert product == expected
    assert matrix_to_json_dict(product) == matrix_to_json_dict(expected)
    for M in (RationalMatrix.from_rows(left), RationalMatrix.from_rows(right), product):
        _assert_integer_forms(M)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 1), (4, 1, 4), (1, 3, 5), (5, 3, 1)])
def test_matmul_edge_shapes(shape):
    r, k, c = shape
    left = [[Fraction((i + 1) * (t - 1), 2**60 - t) for t in range(k)] for i in range(r)]
    right = [[Fraction(t - j, 3 + j) for j in range(c)] for t in range(k)]
    product = RationalMatrix.from_rows(left) @ RationalMatrix.from_rows(right)
    assert (product.rows, product.cols) == (r, c)
    assert product == RationalMatrix.from_rows(_naive_product(left, right))
    _assert_integer_forms(product)


def test_matmul_rejects_dimension_mismatch():
    with pytest.raises(InvalidInputError, match="dimension mismatch"):
        RationalMatrix.identity(2) @ RationalMatrix.identity(3)


def test_from_integers_makes_one_fraction_per_distinct_integer():
    m = RationalMatrix.from_integers([[3, 0, 6], [0, 3, 6], [6, 6, -3]], 4)
    assert m == RationalMatrix.from_rows([["3/4", 0, "3/2"], [0, "3/4", "3/2"], ["3/2", "3/2", "-3/4"]])
    d = m.data
    assert d[0][0] is d[1][1] and d[0][1] is d[1][0]
    assert d[0][2] is d[1][2] is d[2][0] is d[2][1]
    assert len({id(x) for row in d for x in row}) == 4


def test_is_symmetric_compares_values():
    rows = [[Fraction(1, 3), Fraction(2, 5), 0], [Fraction(2, 5), 7, 1], [0, 1, 2]]
    m = RationalMatrix.from_rows(rows)
    assert m.data[0][1] is not m.data[1][0]  # equal values in distinct objects
    assert m.is_symmetric()
    rows[2][1] = Fraction(3, 2)  # one mirrored entry differs
    assert not RationalMatrix.from_rows(rows).is_symmetric()
    assert not RationalMatrix.from_rows([[1, 2]]).is_symmetric()
    assert RationalMatrix.from_rows([[5]]).is_symmetric()
