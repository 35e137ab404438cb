"""Matrix value types and file formats.

Two matrix families cover everything downstream:

* ``DenseMatrix`` -- real float64 matrices (system matrices, controllability
  matrices, adjacency matrices).
* ``RationalMatrix`` -- exact-fraction matrices for the reduction pipeline,
  exact rank, and exact inverses.

Every exact computation runs on integers, and this module holds the one
conversion each way. ``scale_to_integers`` clears the denominators of a
rational vector (a positive multiple, so no rank changes), and
``primitive_vector`` divides an integer vector by the gcd of its entries,
which keeps the integers the rank kernel sees small.
``integer_form`` writes a whole matrix as ``U / L`` over one common
denominator, ``integer_product`` multiplies integer matrices summing only
nonzero products, and ``RationalMatrix.from_integers`` turns ``U / L`` back
into one ``Fraction`` per distinct entry, shared by every position that holds
it. A ``RationalMatrix`` product is these three steps:
``(X / a) @ (Y / b) == (X Y) / (a b)``.

File formats:

* JSON object ``{"rows": r, "cols": c, "data": [...]}`` with row-major data.
  ``r`` and ``c`` must be positive JSON integers (not ``true``, ``2.0`` or
  ``"2"``). Numeric entries (not ``true`` or ``false``) load as a
  ``DenseMatrix``; any string entry (``"num/den"``) switches the whole
  matrix to ``RationalMatrix``; each distinct string is parsed once per
  load, and each distinct entry object written once per save. Entries past
  Python's 4,300-digit ``int``/``str`` conversion limit are written and read
  in chunks of 4,000 digits.
* Headerless CSV, one row per line, for dense real matrices.

Every other JSON input, a hitting-set instance or an experiment config, is
read by ``load_json_object``, so each kind of unreadable, invalid or
non-object file gets one error message.

numpy runs on first use: ``np`` is the package's lazy binding of it (see
``minctrl.__init__``), which this module, ``linalg``, ``greedy`` and
``experiments`` take from the package. A process that makes no numeric call,
such as ``reduce`` or ``oracle`` on exact inputs, never executes numpy.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isfinite, lcm
from pathlib import Path
from typing import Iterable, Sequence, Union

from minctrl import np
from minctrl.errors import InvalidInputError, is_integer, is_real

RationalLike = Union[int, str, Fraction]

_INTEGER_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")
# Integers past Python's 4,300-digit int/str limit are converted in chunks of
# this many digits, each within the limit.
_DIGIT_CHUNK = 4000
_CHUNK_BASE = 10**_DIGIT_CHUNK


class DenseMatrix:
    """Immutable real matrix with explicit dimensions, row-major entries."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        try:
            arr = np.asarray(array, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:  # Overflow: past float64
            raise InvalidInputError(f"matrix entries must be real numbers: {exc}") from exc
        if arr.ndim != 2:
            raise InvalidInputError(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInputError(f"matrix dimensions must be positive, got {arr.shape}")
        _check_entries(array)
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

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "DenseMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.float64)))

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.array.T)

    def sha256(self) -> str:
        import hashlib  # here, not at the top: only error reports digest a matrix

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


def _check_entries(array) -> None:
    """Reject 2-D input that holds anything but real numbers.

    A typed ndarray is checked by dtype only (a boolean one is rejected);
    anything else entry by entry with ``is_real``, which rejects booleans,
    strings and ``None``, though numpy would convert them.
    """
    if isinstance(array, np.ndarray) and array.dtype != object:
        if array.dtype == np.bool_:
            raise InvalidInputError("matrix entries must be real numbers (not booleans)")
        return
    for row in array:
        for x in row:
            if not is_real(x):
                raise InvalidInputError(
                    "matrix entries must be real numbers (not booleans, strings "
                    f"or None), got {x!r}"
                )


def _as_fraction(value: RationalLike | float) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError("boolean is not a rational entry")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise InvalidInputError("matrix entries must be finite (no NaN/Inf)")
        return Fraction(value)  # exact: binary floats are rationals
    if isinstance(value, str):
        try:
            return _parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational entry {value!r}: {exc}") from exc
    raise InvalidInputError(f"cannot interpret {type(value).__name__} as a rational")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        # an "n" or "n/d" past the int-from-str digit limit
        match = _INTEGER_RATIO.fullmatch(text.strip())
        if match is None:
            raise
        num, den = match.groups()
        return Fraction(_parse_integer(num), _parse_integer(den or "1"))


def _parse_integer(text: str) -> int:
    """``int(text)`` for an optionally signed digit string of any length."""
    digits = text.lstrip("+-")
    head = len(digits) % _DIGIT_CHUNK or _DIGIT_CHUNK
    value = int(digits[:head])
    for start in range(head, len(digits), _DIGIT_CHUNK):
        value = value * _CHUNK_BASE + int(digits[start : start + _DIGIT_CHUNK])
    return -value if text.startswith("-") else value


def _integer_text(x: int) -> str:
    """``str(x)`` for an integer of any length."""
    rest, chunks = abs(x), []
    while rest >= _CHUNK_BASE:
        rest, low = divmod(rest, _CHUNK_BASE)
        chunks.append(str(low).zfill(_DIGIT_CHUNK))
    chunks.append(str(rest))
    return ("-" if x < 0 else "") + "".join(reversed(chunks))


def _rational_text(x: Fraction) -> str:
    """``str(x)``, also past the int-to-str digit limit."""
    num = _integer_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_integer_text(x.denominator)}"


@dataclass(frozen=True, slots=True, repr=False)
class RationalMatrix:
    """Immutable exact-fraction matrix.

    ``Fraction`` keeps every entry normalized (positive denominator, reduced
    to lowest terms), which is exactly the storage invariant we need. The
    product ``@`` multiplies the integer forms of its factors (see the module
    docstring); its entries are the same normalized ``Fraction`` values as a
    sum of ``Fraction`` products would give.
    """

    data: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.data) < 1 or len(self.data[0]) < 1:
            raise InvalidInputError("matrix dimensions must be positive")
        width = len(self.data[0])
        if any(len(r) != width for r in self.data):
            raise InvalidInputError("ragged rows in rational matrix")

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
    def from_integers(cls, U: Sequence[Sequence[int]], L: int) -> "RationalMatrix":
        """The matrix ``U / L`` for integer rows ``U`` and a positive integer ``L``.

        Each distinct integer becomes one ``Fraction``, which every entry
        equal to it shares: a symmetric ``U`` gives mirrored entries one
        object, and each ``gcd`` against ``L`` runs once per distinct value.
        """
        shared = {x: Fraction(x, L) for x in set(chain.from_iterable(U))}
        return cls(tuple(tuple(map(shared.__getitem__, row)) for row in U))

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

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.data)))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise InvalidInputError(
                f"dimension mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        X, a = integer_form(self)
        Y, b = integer_form(other)
        return RationalMatrix.from_integers(integer_product(X, Y), a * b)

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
        # tuple equality tries identity first, so a shared mirror costs no Fraction.__eq__
        return self.rows == self.cols and self.data == tuple(zip(*self.data))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


Matrix = Union[DenseMatrix, RationalMatrix]


def matrix_to_json_dict(mat: Matrix) -> dict:
    """The JSON object of a matrix; a rational entry is written as ``str(x)``.

    Each distinct entry object's text is made once per call and shared by
    every position holding that object, as the mirrored entries of a
    symmetric reduction do. An entry past the int-to-str digit limit is
    written by ``_rational_text``, in chunks, and shares its text the same way.
    """
    if isinstance(mat, DenseMatrix):
        return {"rows": mat.rows, "cols": mat.cols, "data": mat.array.ravel().tolist()}
    texts: dict[int, str] = {}  # by id: ``mat`` keeps every entry alive
    data = []
    for row in mat.data:
        for x in row:
            text = texts.get(id(x))
            if text is None:
                try:
                    text = str(x)
                except ValueError:  # past the int-to-str digit limit
                    text = _rational_text(x)
                texts[id(x)] = text
            data.append(text)
    return {"rows": mat.rows, "cols": mat.cols, "data": data}


def matrix_from_json_dict(obj: dict) -> Matrix:
    try:
        rows = obj["rows"]
        cols = obj["cols"]
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed matrix object: {exc}") from exc
    if not (is_integer(rows) and is_integer(cols)) or rows < 1 or cols < 1:
        raise InvalidInputError(
            f'"rows" and "cols" must be positive integers, got {rows!r} and {cols!r}'
        )
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InvalidInputError(
            f"matrix data length {len(data) if isinstance(data, list) else '?'} "
            f"does not equal rows*cols = {rows * cols}"
        )
    if any(isinstance(v, str) for v in data):
        # a reduction's file repeats a few strings ("0" most of all); only
        # strings are cached, since True == 1 == 1.0 as keys
        parsed: dict[str, Fraction] = {}
        entries = []
        for v in data:
            if isinstance(v, str):
                x = parsed.get(v)
                if x is None:
                    x = parsed[v] = _as_fraction(v)
            else:
                x = _as_fraction(v)
            entries.append(x)
        return RationalMatrix(
            tuple(tuple(entries[i * cols : (i + 1) * cols]) for i in range(rows))
        )
    return DenseMatrix([data[i * cols : (i + 1) * cols] for i in range(rows)])


def load_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names it in the error
    raised for any other JSON value."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also undecodable text and a JSON integer past the digit limit
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: expected a JSON {what}")
    return obj


def load_matrix(path: str | Path) -> Matrix:
    """Load a matrix from JSON (dense or rational) or headerless CSV."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() != ".csv":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also a JSON integer past the digit limit
            if text.lstrip().startswith(("{", "[")):
                raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
            obj = None
        if obj is not None:
            if not isinstance(obj, dict):
                raise InvalidInputError(f"{path}: expected a JSON matrix object")
            return matrix_from_json_dict(obj)
    return _parse_csv(text, str(path))


def _parse_csv(text: str, label: str) -> DenseMatrix:
    import csv  # here, not at the top: only a .csv input needs it

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
    return DenseMatrix(rows)


def save_matrix(mat: Matrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_json_dict(mat)) + "\n")


def as_dense(mat: Matrix) -> DenseMatrix:
    if isinstance(mat, DenseMatrix):
        return mat
    if isinstance(mat, RationalMatrix):
        return DenseMatrix(mat.data)  # an entry past float64 is invalid input
    raise InvalidInputError(f"expected a matrix, got {type(mat).__name__}")


def as_rational(mat: Matrix) -> RationalMatrix:
    if isinstance(mat, RationalMatrix):
        return mat
    if isinstance(mat, DenseMatrix):
        # exact: every finite float is a dyadic rational
        return RationalMatrix.from_rows(
            [[Fraction(float(x)) for x in row] for row in mat.array]
        )
    raise InvalidInputError(f"expected a matrix, got {type(mat).__name__}")


def scale_to_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers ``s * values`` and ``s``, the lcm of the denominators."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def integer_form(M: RationalMatrix) -> tuple[list[list[int]], int]:
    """Integer ``U`` and positive ``L``, the lcm of every denominator, with ``M == U / L``."""
    L = lcm(*(x.denominator for row in M.data for x in row))
    return [[x.numerator * (L // x.denominator) for x in row] for row in M.data], L


def integer_product(X: Sequence[Sequence[int]], Y: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two integer matrices given as lists of rows; zeros are skipped.

    A row of ``Y`` is scanned for its nonzeros only when some row of ``X`` is
    nonzero against it, so a sparse ``X`` costs little however large ``Y`` is.
    """
    right: list = [None] * len(Y)
    out = []
    for row in X:
        acc = [0] * len(Y[0])
        for t, a in enumerate(row):
            if a:
                nonzeros = right[t]
                if nonzeros is None:
                    nonzeros = right[t] = [(j, v) for j, v in enumerate(Y[t]) if v]
                for j, v in nonzeros:
                    acc[j] += a * v
        out.append(acc)
    return out


def primitive_vector(ints: list[int]) -> list[int]:
    """``ints`` divided by the gcd of its entries; signs are kept.

    A vector that is already primitive, zero or empty is returned as is.
    """
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints
