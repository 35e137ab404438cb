"""Matrix value types and file formats.

Two matrix families cover everything downstream:

* ``DenseMatrix`` -- real float64 matrices (system matrices, controllability
  matrices, adjacency matrices).
* ``RationalMatrix`` -- exact-fraction matrices for the reduction pipeline,
  exact rank, and exact inverses.

Exact ranks run on integers: ``scale_to_integers`` clears the denominators
of a rational vector (a positive multiple, so no rank changes) and
``primitive_vector`` divides an integer vector by the gcd of its entries,
which keeps the integers the rank kernel sees small.

File formats:

* JSON object ``{"rows": r, "cols": c, "data": [...]}`` with row-major data.
  Numeric entries load as a ``DenseMatrix``; any string entry (``"num/den"``)
  switches the whole matrix to ``RationalMatrix``.
* Headerless CSV, one row per line, for dense real matrices.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from minctrl.errors import InvalidInputError

RationalLike = Union[int, str, Fraction]


class DenseMatrix:
    """Immutable real matrix with explicit dimensions, row-major entries."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidInputError(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInputError(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("matrix entries must be finite (no NaN/Inf)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> list[float]:
        """Row-major flat copy of the entries."""
        return [float(x) for x in self.array.ravel()]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "DenseMatrix":
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "DenseMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.float64)))

    def column(self, j: int) -> np.ndarray:
        return self.array[:, j]

    def to_rational(self) -> "RationalMatrix":
        """Exact conversion: every finite float is a dyadic rational."""
        return RationalMatrix.from_rows(
            [[Fraction(float(x)) for x in row] for row in self.array]
        )

    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.array.shape).encode())
        h.update(np.ascontiguousarray(self.array).tobytes())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.array.shape == other.array.shape and bool(
            np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def _as_fraction(value: RationalLike | float) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError("boolean is not a rational entry")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact: binary floats are rationals
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational entry {value!r}: {exc}") from exc
    raise InvalidInputError(f"cannot interpret {type(value).__name__} as a rational")


class RationalMatrix:
    """Immutable exact-fraction matrix.

    ``Fraction`` keeps every entry normalized (positive denominator, reduced
    to lowest terms), which is exactly the storage invariant we need.
    """

    __slots__ = ("data",)

    def __init__(self, data: tuple[tuple[Fraction, ...], ...]):
        if len(data) < 1 or len(data[0]) < 1:
            raise InvalidInputError("matrix dimensions must be positive")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise InvalidInputError("ragged rows in rational matrix")
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[RationalLike | float]]) -> "RationalMatrix":
        return cls(tuple(tuple(_as_fraction(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def diagonal(cls, values: Sequence[RationalLike]) -> "RationalMatrix":
        n = len(values)
        return cls.from_rows(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.data)))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise InvalidInputError(
                f"dimension mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        cols = other.transpose().data
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(r, c)) for c in cols)
                for r in self.data
            )
        )

    def matvec(self, vec: Sequence[RationalLike | float]) -> tuple[Fraction, ...]:
        v = [_as_fraction(x) for x in vec]
        if len(v) != self.cols:
            raise InvalidInputError("vector length does not match matrix width")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.data)

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by Gauss-Jordan elimination with partial pivoting."""
        if self.rows != self.cols:
            raise InvalidInputError("only square matrices can be inverted")
        n = self.rows
        work = [list(r) for r in self.data]
        aug = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = max(range(col, n), key=lambda i: abs(work[i][col]))
            if work[piv][col] == 0:
                raise InvalidInputError("matrix is singular; no exact inverse")
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                aug[col], aug[piv] = aug[piv], aug[col]
            p = work[col][col]
            work[col] = [x / p for x in work[col]]
            aug[col] = [x / p for x in aug[col]]
            for i in range(n):
                if i == col:
                    continue
                f = work[i][col]
                if f:
                    work[i] = [a - f * b for a, b in zip(work[i], work[col])]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
        return RationalMatrix.from_rows(aug)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def to_dense(self) -> DenseMatrix:
        return DenseMatrix.from_rows([[float(x) for x in r] for r in self.data])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


Matrix = Union[DenseMatrix, RationalMatrix]


def matrix_to_json_dict(mat: Matrix) -> dict:
    if isinstance(mat, DenseMatrix):
        return {"rows": mat.rows, "cols": mat.cols, "data": mat.entries}
    data = [str(x) for row in mat.data for x in row]
    return {"rows": mat.rows, "cols": mat.cols, "data": data}


def matrix_from_json_dict(obj: dict) -> Matrix:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed matrix object: {exc}") from exc
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InvalidInputError(
            f"matrix data length {len(data) if isinstance(data, list) else '?'} "
            f"does not equal rows*cols = {rows * cols}"
        )
    grid = [data[i * cols : (i + 1) * cols] for i in range(rows)]
    if any(isinstance(v, str) for v in data):
        return RationalMatrix.from_rows(grid)
    if not all(isinstance(v, (int, float)) for v in data):
        raise InvalidInputError("matrix data must contain numbers or rational strings")
    return DenseMatrix.from_rows(grid)


def load_matrix(path: str | Path) -> Matrix:
    """Load a matrix from JSON (dense or rational) or headerless CSV."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() != ".csv":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            if text.lstrip().startswith(("{", "[")):
                raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
            obj = None
        if obj is not None:
            if not isinstance(obj, dict):
                raise InvalidInputError(f"{path}: expected a JSON matrix object")
            return matrix_from_json_dict(obj)
    return _parse_csv(text, str(path))


def _parse_csv(text: str, label: str) -> DenseMatrix:
    rows: list[list[float]] = []
    try:
        for record in csv.reader(text.splitlines()):
            if not record or all(not field.strip() for field in record):
                continue
            rows.append([float(field) for field in record])
    except ValueError as exc:
        raise InvalidInputError(f"{label}: not a numeric CSV matrix: {exc}") from exc
    if not rows:
        raise InvalidInputError(f"{label}: empty matrix file")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInputError(f"{label}: ragged CSV rows")
    return DenseMatrix.from_rows(rows)


def save_matrix(mat: Matrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_json_dict(mat)) + "\n")


def as_dense(mat: Matrix) -> DenseMatrix:
    if isinstance(mat, DenseMatrix):
        return mat
    if isinstance(mat, RationalMatrix):
        return mat.to_dense()
    raise InvalidInputError(f"expected a matrix, got {type(mat).__name__}")


def as_rational(mat: Matrix) -> RationalMatrix:
    if isinstance(mat, RationalMatrix):
        return mat
    if isinstance(mat, DenseMatrix):
        return mat.to_rational()
    raise InvalidInputError(f"expected a matrix, got {type(mat).__name__}")


def scale_to_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers ``s * values`` and ``s``, the lcm of the denominators."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def primitive_vector(ints: list[int]) -> list[int]:
    """``ints`` divided by the gcd of its entries; signs are kept.

    A vector that is already primitive, zero or empty is returned as is.
    """
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints
