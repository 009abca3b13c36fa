"""Exact sparse linear algebra over the rationals, and ranks over F_p.

There is one elimination routine, ``_echelon`` with the back-substitution
``_reduce``, over Q or over F_p.  Over Q it is fraction-normalized Gaussian
elimination on ``int``/``Fraction`` entries: no floating point and no
tolerance anywhere.  Determinism matters as much as exactness (reports are
diffed byte for byte), and it needs no pivot rule: the reduced row-echelon
form of a matrix is unique, so the order in which rows are reduced changes
the work done, never the result.  A rank is the number of echelon rows.

``rank_mod_p`` ranks an integer matrix over the prime field F_P with
P = 2^61 - 1.  Every minor of an integer matrix that vanishes over the
rationals vanishes mod P, so its result is a lower bound on the rational
rank, never more; it is lower exactly when P divides every r x r minor,
r the rational rank.  Callers turn such bounds into exact statements (see
``verify.piece_report``); nothing here decides when a lower bound suffices.
``kernel_basis`` works mod P too, but proves its result: the basis found
mod P is lifted to the rationals and multiplied by the matrix exactly, and
``rref`` runs only when that product is not zero.

There is one vector type, ``Vector``: a sparse ``{column: value}`` dict
holding only the nonzero entries, which may be ints or Fractions.  Rows
during elimination, kernel vectors, the families handed to the span helpers
and the output of ``matvec`` are all of this type, so the zero vector is
``{}``.  The span helpers and ``rank_mod_p`` take the column count
explicitly, and a column outside it raises ``ValueError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

Scalar = int | Fraction
Vector = dict[int, Scalar]
K = TypeVar("K", bound=Hashable)

ONE = Fraction(1)

# the Mersenne prime 2^61 - 1; a large prime rarely divides every r x r
# minor of a rank-r matrix, so rank_mod_p is rarely short
P = (1 << 61) - 1


def integer_form(vec: Mapping[K, Fraction]) -> tuple[int, dict[K, int]]:
    """A sparse rational vector as (d, {key: integer numerator}), where d is
    the least common denominator of its entries, so vec = numerators / d."""
    den = math.lcm(*(c.denominator for c in vec.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in vec.items()}


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


def _echelon(
    rows: Iterable[Mapping[int, Scalar]], n_cols: int, p: int = 0
) -> dict[int, Vector]:
    """Echelon form of sparse rows, over Q if p is 0 and over F_p (of
    integer rows) otherwise, as {leading column: row scaled to a leading 1}.
    Each row is reduced against the rows kept so far, so a pivot is found
    by one dict lookup and no row is ever scanned for one."""
    echelon: dict[int, Vector] = {}
    for row in rows:
        vec: Vector = {}
        for j, v in row.items():
            if not 0 <= j < n_cols:
                raise ValueError("row column out of bounds")
            if p:
                v %= p
            if v:
                vec[j] = v
        while vec:
            lead = min(vec)
            basis = echelon.get(lead)
            if basis is None:
                inv = pow(vec[lead], -1, p) if p else ONE / vec[lead]
                echelon[lead] = {j: v * inv % p if p else v * inv for j, v in vec.items()}
                break
            c = vec[lead]
            for j, w in basis.items():
                new = vec.get(j, 0) - c * w
                if p:
                    new %= p
                if new:
                    vec[j] = new
                else:
                    del vec[j]
    return echelon


def _reduce(echelon: dict[int, Vector], p: int = 0) -> list[int]:
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
                if p:
                    new %= p
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
    """Basis of the right null space; one vector per free column, in column
    order, each with a 1 in its free position.

    The basis is first found mod P and proved exactly (``_kernel_mod_p``);
    ``rref`` runs only when that fails, and both give the same vectors."""
    basis = _kernel_mod_p(m)
    return rref_kernel(m) if basis is None else basis


def rref_kernel(m: SparseMatQ) -> list[Vector]:
    """``kernel_basis`` by rational elimination alone."""
    result = rref(m)
    pivot_set = set(result.pivot_cols)
    basis = {f: {f: ONE} for f in range(m.n_cols) if f not in pivot_set}
    for (i, f), c in result.matrix.entries.items():
        if f in basis:
            basis[f][result.pivot_cols[i]] = -c
    return list(basis.values())


def rank_mod_p(rows: Iterable[Mapping[int, int]], n_cols: int) -> int:
    """Rank over F_P of the integer matrix with the given sparse rows.
    A lower bound on the rational rank (see the module docstring)."""
    return len(_echelon(rows, n_cols, P))


def _rational_mod_p(a: int) -> Fraction | None:
    """The fraction r/s with |r|, s <= sqrt(P/2) that is congruent to a mod
    P, found by the extended Euclidean algorithm; None if there is none."""
    bound = math.isqrt(P // 2)
    r0, r1 = P, a % P
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= bound:
        return None
    return Fraction(r1, s1)


def _kernel_mod_p(m: SparseMatQ) -> list[Vector] | None:
    """``kernel_basis`` by elimination over F_P, or None.

    Each row is scaled to integers, the reduced echelon form is taken mod P,
    and each free column f gives a vector with a 1 at f and the rational
    reconstruction of the reduced column at the pivots before f.  Each
    vector is then multiplied by m exactly.  If all of them are killed, each
    free column f mod P lies in the rational span of the columns before it,
    so it is free over Q too; as the rational rank is at least the rank mod
    P, the free columns are the same, and a kernel vector with a 1 at f and
    0 at the other free columns is unique, so these are exactly the vectors
    ``rref`` gives.  None if a reconstruction or a product fails."""
    echelon = _echelon((integer_form(row)[1] for row in _rows(m)), m.n_cols, P)
    leads = _reduce(echelon, P)
    basis: dict[int, Vector] = {f: {f: ONE} for f in range(m.n_cols) if f not in echelon}
    for lead in leads:
        for f, c in echelon[lead].items():
            if f in basis:
                entry = _rational_mod_p(-c)
                if entry is None:
                    return None
                basis[f][lead] = entry
    columns = m.columns()
    for vec in basis.values():
        image: Vector = {}
        for j, c in integer_form(vec)[1].items():
            for i, v in columns.get(j, {}).items():
                image[i] = image.get(i, 0) + v * c
        if any(image.values()):
            return None
    return list(basis.values())


def span_dim(vectors: Sequence[Vector], n_cols: int) -> int:
    """Dimension of the span of the given vectors (0 for an empty family)."""
    return len(_echelon(vectors, n_cols))


def subspace_leq(a: Sequence[Vector], b: Sequence[Vector], n_cols: int) -> bool:
    """True iff span(a) is contained in span(b), by rank comparison."""
    return not a or span_dim([*b, *a], n_cols) == span_dim(b, n_cols)


def span_equal(a: Sequence[Vector], b: Sequence[Vector], n_cols: int) -> bool:
    return subspace_leq(a, b, n_cols) and subspace_leq(b, a, n_cols)
