"""Exact sparse linear algebra over the rationals.

There is one elimination routine, ``_echelon`` with the back-substitution
``_reduce``: fraction-normalized Gaussian elimination on ``int``/``Fraction``
entries, with no floating point and no tolerance anywhere.  Determinism
matters as much as exactness (reports are diffed byte for byte), and it
needs no pivot rule: the reduced row-echelon form of a matrix is unique, so
the order in which rows are reduced changes the work done, never the
result.  A rank is the number of echelon rows, and ``kernel_basis`` reads
the kernel off ``rref``.

There is one vector type, ``Vector``: a sparse ``{column: value}`` dict
holding only the nonzero entries, which may be ints or Fractions.  Rows
during elimination, kernel vectors, the families handed to the span helpers
and the output of ``matvec`` are all of this type, so the zero vector is
``{}``.  The span helpers take the column count explicitly, and a column
outside it raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

# the exact scalars of the package: a value stays the int or Fraction it
# was computed as
Scalar = int | Fraction
Vector = dict[int, Scalar]

ONE = Fraction(1)


class SparseMatQ:
    """Sparse rational matrix stored as ``{(row, col): nonzero entry}``;
    entries stay the ``int`` or ``Fraction`` they were given as."""

    __slots__ = ("n_rows", "n_cols", "entries", "_columns")

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
        self.entries: dict[tuple[int, int], Scalar] = {}
        self._columns: dict[int, Vector] | None = None
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < n_rows and 0 <= j < n_cols):
                    raise ValueError(f"entry ({i}, {j}) out of bounds")
                if v:
                    self.entries[(i, j)] = v

    def columns(self) -> dict[int, Vector]:
        """The nonzero columns as ``{col: {row: value}}``, built on the first
        call and kept; the matrix is not to be mutated after that."""
        if self._columns is None:
            self._columns = {}
            for (i, j), v in self.entries.items():
                self._columns.setdefault(j, {})[i] = v
        return self._columns

    def matvec(self, vec: Mapping[int, Scalar]) -> Vector:
        """The product with a sparse column vector; visits only the matrix
        columns that ``vec`` touches."""
        if any(not 0 <= j < self.n_cols for j in vec):
            raise ValueError("vector column out of bounds")
        columns = self.columns()
        out: Vector = {}
        for j, c in vec.items():
            if c and j in columns:
                for i, v in columns[j].items():
                    out[i] = out.get(i, 0) + v * c
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


def _rows(m: SparseMatQ) -> Iterable[Vector]:
    """The nonzero rows of m as sparse vectors."""
    rows: dict[int, Vector] = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    return rows.values()


def _echelon(rows: Iterable[Mapping[int, Scalar]], n_cols: int) -> dict[int, Vector]:
    """Echelon form of sparse rows as {leading column: row scaled to a
    leading 1}.  Each row is reduced against the rows kept so far, so a
    pivot is found by one dict lookup and no row is ever scanned for one."""
    echelon: dict[int, Vector] = {}
    for row in rows:
        vec: Vector = {}
        for j, v in row.items():
            if not 0 <= j < n_cols:
                raise ValueError("row column out of bounds")
            if v:
                vec[j] = v
        while vec:
            lead = min(vec)
            basis = echelon.get(lead)
            if basis is None:
                inv = ONE / vec[lead]
                echelon[lead] = {j: v * inv for j, v in vec.items()}
                break
            c = vec[lead]
            for j, w in basis.items():
                new = vec.get(j, 0) - c * w
                if new:
                    vec[j] = new
                else:
                    del vec[j]
    return echelon


def _reduce(echelon: dict[int, Vector]) -> list[int]:
    """Back-substitution: clears each pivot column of ``_echelon``'s rows in
    place, leaving the reduced row-echelon form, and returns the sorted
    pivot columns.  Rows are cleared from the last pivot up, so each row is
    reduced by rows that are already reduced."""
    leads = sorted(echelon)
    for lead in reversed(leads):
        row = echelon[lead]
        for j in [j for j in row if j != lead and j in echelon]:
            c = row[j]
            for k, w in echelon[j].items():
                new = row.get(k, 0) - c * w
                if new:
                    row[k] = new
                else:
                    del row[k]
    return leads


def rref(m: SparseMatQ) -> RrefResult:
    """Reduced row-echelon form with pivot columns."""
    echelon = _echelon(_rows(m), m.n_cols)
    pivots = _reduce(echelon)
    entries = {(i, j): v for i, lead in enumerate(pivots) for j, v in echelon[lead].items()}
    return RrefResult(SparseMatQ(m.n_rows, m.n_cols, entries), pivots)


def rank(m: SparseMatQ) -> int:
    return len(_echelon(_rows(m), m.n_cols))


def kernel_basis(m: SparseMatQ) -> list[Vector]:
    """Basis of the right null space, read off ``rref``: one vector per free
    column f, in column order, with a 1 at f and minus column f of the
    reduced matrix at the pivots."""
    result = rref(m)
    pivot_set = set(result.pivot_cols)
    basis = {f: {f: ONE} for f in range(m.n_cols) if f not in pivot_set}
    for (i, f), c in result.matrix.entries.items():
        if f in basis:
            basis[f][result.pivot_cols[i]] = -c
    return list(basis.values())


def span_dim(vectors: Sequence[Vector], n_cols: int) -> int:
    """Dimension of the span of the given vectors (0 for an empty family)."""
    return len(_echelon(vectors, n_cols))


def subspace_leq(a: Sequence[Vector], b: Sequence[Vector], n_cols: int) -> bool:
    """True iff span(a) is contained in span(b), by rank comparison."""
    return not a or span_dim([*b, *a], n_cols) == span_dim(b, n_cols)
