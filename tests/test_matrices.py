"""Matrix types, invariants, and the JSON/CSV file formats."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from minctrl.errors import InvalidInputError
from minctrl.linalg import left_eigensystem
from minctrl.matrices import (
    DenseMatrix,
    RationalMatrix,
    as_dense,
    as_rational,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    primitive_vector,
    save_matrix,
    scale_to_integers,
)


def test_dense_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        DenseMatrix.from_rows([[1.0, float("nan")]])
    with pytest.raises(InvalidInputError):
        DenseMatrix.from_rows([[math.inf], [0.0]])


def test_dense_shape_and_entries():
    m = DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == [1, 2, 3, 4, 5, 6]
    assert len(m.entries) == m.rows * m.cols


def test_dense_immutable():
    m = DenseMatrix.identity(2)
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0
    with pytest.raises(AttributeError):
        m.array = np.zeros((2, 2))


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
    m = DenseMatrix.from_rows([[0.5, 0.25], [3.0, -7.5]])
    r = m.to_rational()
    assert r.data[0][0] == Fraction(1, 2)
    assert r.data[1][1] == Fraction(-15, 2)
    assert r.to_dense() == m


def test_json_round_trip_dense(tmp_path):
    m = DenseMatrix.from_rows([[1.5, 2.0], [3.0, 4.25]])
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


def test_json_dict_shapes():
    m = RationalMatrix.from_rows([["1/3"]])
    obj = matrix_to_json_dict(m)
    assert obj == {"rows": 1, "cols": 1, "data": ["1/3"]}
    assert matrix_from_json_dict(obj) == m


def test_json_data_length_checked():
    with pytest.raises(InvalidInputError):
        matrix_from_json_dict({"rows": 2, "cols": 2, "data": [1, 2, 3]})


def test_csv_load(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")
    m = load_matrix(path)
    assert isinstance(m, DenseMatrix)
    assert m == DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


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
