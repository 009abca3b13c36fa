"""Exact sparse linear algebra over the rationals.

Everything here is fraction-normalized Gaussian elimination on ``Fraction``
entries: no floating point and no tolerance anywhere.  Determinism matters as
much as exactness (reports are diffed byte for byte), so the pivot choice is a
fixed rule: within the current column take the entry of smallest combined
numerator/denominator bit length, ties broken by lowest row index.

There is one vector type, ``Vector``: a sparse ``{column: value}`` dict
holding only the nonzero entries.  Rows during elimination, kernel vectors,
the families handed to the span helpers and the output of ``matvec`` are all
of this type, so the zero vector is ``{}``.  The span helpers take the column
count explicitly, and a column outside it raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

Scalar = int | Fraction
Vector = dict[int, Fraction]

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
        cls, rows: Sequence[Mapping[int, Scalar]], n_cols: int
    ) -> "SparseMatQ":
        """Stack sparse rows ``{col: value}`` into a len(rows) x n_cols matrix."""
        return cls(
            len(rows),
            n_cols,
            {(i, j): v for i, row in enumerate(rows) for j, v in row.items()},
        )

    def transpose(self) -> "SparseMatQ":
        return SparseMatQ(
            self.n_cols,
            self.n_rows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

    def matvec(self, vec: Mapping[int, Scalar]) -> Vector:
        if any(not 0 <= j < self.n_cols for j in vec):
            raise ValueError("vector column out of bounds")
        out: Vector = {}
        for (i, j), v in self.entries.items():
            c = vec.get(j)
            if c:
                out[i] = out.get(i, ZERO) + v * c
        return {i: v for i, v in out.items() if v}

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
    basis = {f: {f: ONE} for f in range(m.n_cols) if f not in pivot_set}
    for (i, f), c in result.matrix.entries.items():
        if f in basis:
            basis[f][result.pivot_cols[i]] = -c
    return list(basis.values())


def span_dim(vectors: Sequence[Vector], n_cols: int) -> int:
    """Dimension of the span of the given vectors (0 for an empty family)."""
    if not vectors:
        return 0
    return rank(SparseMatQ.from_rows(vectors, n_cols))


def subspace_leq(a: Sequence[Vector], b: Sequence[Vector], n_cols: int) -> bool:
    """True iff span(a) is contained in span(b), by rank comparison."""
    if not a:
        return True
    rank_b = rank(SparseMatQ.from_rows(b, n_cols))
    rank_ba = rank(SparseMatQ.from_rows([*b, *a], n_cols))
    return rank_b == rank_ba


def span_equal(a: Sequence[Vector], b: Sequence[Vector], n_cols: int) -> bool:
    return subspace_leq(a, b, n_cols) and subspace_leq(b, a, n_cols)
