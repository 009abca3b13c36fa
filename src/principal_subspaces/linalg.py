"""Exact sparse linear algebra over the rationals.

Everything here is fraction-normalized Gaussian elimination on ``Fraction``
entries: no floating point and no tolerance anywhere.  Determinism matters as
much as exactness (reports are diffed byte for byte), so the pivot choice is a
fixed rule: within the current column take the entry of smallest combined
numerator/denominator bit length, ties broken by lowest row index.  Rows are
kept as ``{col: value}`` dicts throughout elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

Scalar = int | Fraction
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(v: Scalar) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class SparseMatQ:
    """Sparse rational matrix stored as ``{(row, col): nonzero Fraction}``."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        entries: dict[tuple[int, int], Scalar] | None = None,
    ):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < n_rows and 0 <= j < n_cols):
                    raise ValueError(f"entry ({i}, {j}) out of bounds")
                f = _frac(v)
                if f:
                    self.entries[(i, j)] = f

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Scalar]], n_cols: int | None = None
    ) -> "SparseMatQ":
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        entries: dict[tuple[int, int], Scalar] = {}
        for i, row in enumerate(rows):
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(len(rows), n_cols, entries)

    def transpose(self) -> "SparseMatQ":
        return SparseMatQ(
            self.n_cols,
            self.n_rows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

    def matvec(self, vec: Sequence[Scalar]) -> Vector:
        if len(vec) != self.n_cols:
            raise ValueError("vector length does not match column count")
        out = [ZERO] * self.n_rows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * vec[j]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatQ):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatQ({self.n_rows}x{self.n_cols}, nnz={len(self.entries)})"


class RrefResult(NamedTuple):
    matrix: SparseMatQ
    pivot_cols: list[int]


def _score(v: Fraction) -> int:
    return v.numerator.bit_length() + v.denominator.bit_length()


def rref(m: SparseMatQ) -> RrefResult:
    """Reduced row-echelon form with pivot columns."""
    n_rows, n_cols = m.n_rows, m.n_cols
    rows: list[dict[int, Fraction]] = [{} for _ in range(n_rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    pivots: list[int] = []
    piv_r = 0
    for col in range(n_cols):
        if piv_r >= n_rows:
            break
        best = -1
        best_score = 0
        for i in range(piv_r, n_rows):
            v = rows[i].get(col)
            if v:
                s = _score(v)
                if best < 0 or s < best_score:
                    best, best_score = i, s
        if best < 0:
            continue
        rows[best], rows[piv_r] = rows[piv_r], rows[best]
        pivot_row = rows[piv_r]
        pv = pivot_row[col]
        if pv != 1:
            inv = ONE / pv
            pivot_row = rows[piv_r] = {j: w * inv for j, w in pivot_row.items()}
        for i, row in enumerate(rows):
            if i == piv_r:
                continue
            v = row.get(col)
            if not v:
                continue
            c = -v
            for j, w in pivot_row.items():
                new = row.get(j, ZERO) + c * w
                if new:
                    row[j] = new
                else:
                    del row[j]
        pivots.append(col)
        piv_r += 1
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return RrefResult(SparseMatQ(n_rows, n_cols, entries), pivots)


def rank(m: SparseMatQ) -> int:
    return len(rref(m).pivot_cols)


def kernel_basis(m: SparseMatQ) -> list[Vector]:
    """Basis of the right null space; one vector per free column, in column
    order, each with a 1 in its free position."""
    result = rref(m)
    pivot_set = set(result.pivot_cols)
    basis: list[Vector] = []
    for f in range(m.n_cols):
        if f in pivot_set:
            continue
        v = [ZERO] * m.n_cols
        v[f] = ONE
        for i, p in enumerate(result.pivot_cols):
            c = result.matrix.entries.get((i, f))
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def _stack(vectors: Sequence[Sequence[Scalar]], n_cols: int) -> SparseMatQ:
    entries: dict[tuple[int, int], Scalar] = {}
    for i, vec in enumerate(vectors):
        if len(vec) != n_cols:
            raise ValueError("vectors of mixed lengths")
        for j, v in enumerate(vec):
            if v:
                entries[(i, j)] = v
    return SparseMatQ(len(vectors), n_cols, entries)


def span_dim(vectors: Sequence[Sequence[Scalar]], n_cols: int | None = None) -> int:
    """Dimension of the span of the given vectors (0 for an empty family)."""
    if not vectors:
        return 0
    return rank(_stack(vectors, len(vectors[0]) if n_cols is None else n_cols))


def subspace_leq(
    a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]
) -> bool:
    """True iff span(a) is contained in span(b), by rank comparison."""
    if not a:
        return True
    n = len(a[0])
    for vec in list(a) + list(b):
        if len(vec) != n:
            raise ValueError("dimension mismatch between vector families")
    rank_b = rank(_stack(list(b), n))
    rank_ba = rank(_stack(list(b) + list(a), n))
    return rank_b == rank_ba


def span_equal(
    a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]
) -> bool:
    return subspace_leq(a, b) and subspace_leq(b, a)
