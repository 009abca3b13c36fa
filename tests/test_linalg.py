"""Exact linear algebra: frozen examples plus randomized structural laws."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from principal_subspaces import linalg
from principal_subspaces.linalg import (
    SparseMatQ,
    kernel_basis,
    rank,
    rref,
    span_dim,
    subspace_leq,
)


def from_rows(rows, n_cols):
    """Stack sparse rows {col: value} into a len(rows) x n_cols matrix."""
    return SparseMatQ(
        len(rows), n_cols, {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    )


def transpose(m):
    return SparseMatQ(m.n_cols, m.n_rows, {(j, i): v for (i, j), v in m.entries.items()})


def mat(rows):
    """Matrix from dense row literals."""
    sparse = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows]
    return from_rows(sparse, len(rows[0]))


def test_rref_identity():
    m = mat([[1, 0], [0, 1]])
    result = rref(m)
    assert result.matrix == m
    assert result.pivot_cols == [0, 1]


def test_rref_zero_matrix():
    m = SparseMatQ(3, 2)
    result = rref(m)
    assert result.matrix == m
    assert result.pivot_cols == []


def test_rref_rank_one():
    # hand row-reduction: second row is twice the first
    result = rref(mat([[1, 2], [2, 4]]))
    assert result.matrix == mat([[1, 2], [0, 0]])
    assert result.pivot_cols == [0]


def test_kernel_identity_trivial():
    assert kernel_basis(mat([[1, 0], [0, 1]])) == []


def test_kernel_rank_one():
    # solve a + 2b = 0
    basis = kernel_basis(mat([[1, 2], [2, 4]]))
    assert basis == [{0: Fraction(-2), 1: Fraction(1)}]
    assert kernel_basis(mat([[3, 0, 1], [0, 2, 0]])) == [{2: 1, 0: Fraction(-1, 3)}]


def test_kernel_zero_row():
    basis = kernel_basis(SparseMatQ(1, 3))
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_subspace_leq_examples():
    assert subspace_leq([], [{0: 1, 1: 2, 2: 3}], 3)
    # (1,0) = (1,1) - (0,1)
    assert subspace_leq([{0: 1}], [{0: 1, 1: 1}, {1: 1}], 2)
    assert not subspace_leq([{0: 1}], [{1: 1}], 2)


def test_subspace_leq_column_out_of_range():
    with pytest.raises(ValueError):
        subspace_leq([{0: 1}], [{2: 1}], 2)
    with pytest.raises(ValueError):
        subspace_leq([{2: 1}], [{0: 1}], 2)


def test_span_helpers(span_equal):
    assert span_dim([], 2) == 0
    assert span_dim([], 0) == 0
    assert span_dim([{0: 1, 1: 1}, {0: 2, 1: 2}], 2) == 1
    assert span_equal([{0: 1}, {1: 1}], [{0: 1, 1: 1}, {0: 1, 1: -1}], 2)
    # the zero vector is the empty dict and adds nothing to a span
    assert span_dim([{}, {1: 3}], 2) == 1
    with pytest.raises(ValueError):
        span_dim([{2: 1}], 2)


def test_matvec_and_bounds():
    m = mat([[1, 2], [0, 3]])
    assert m.matvec({0: 1, 1: 1}) == {0: Fraction(3), 1: Fraction(3)}
    with pytest.raises(ValueError):
        m.matvec({2: 1})
    with pytest.raises(ValueError):
        SparseMatQ(1, 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        from_rows([{1: 1}], 1)


def test_matvec_nonzero_only_in_row_zero():
    # a dict image is tested by emptiness: its only key here is the falsy 0
    image = mat([[1, 0], [0, 0]]).matvec({0: 5})
    assert image == {0: Fraction(5)}
    assert image and not any(image)


def test_matvec_cancels_to_empty():
    m = mat([[1, 2], [3, 6]])
    assert m.matvec({0: 2, 1: -1}) == {}


small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def sparse_matrices(draw):
    n_rows = draw(st.integers(min_value=0, max_value=5))
    n_cols = draw(st.integers(min_value=0, max_value=5))
    entries = {}
    for i in range(n_rows):
        for j in range(n_cols):
            if draw(st.booleans()):
                entries[(i, j)] = draw(small_fraction)
    return SparseMatQ(n_rows, n_cols, entries)


@settings(deadline=None, max_examples=60)
@given(sparse_matrices())
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(transpose(m))
    assert rank(m) == len(rref(m).pivot_cols)


@settings(deadline=None, max_examples=60)
@given(sparse_matrices())
def test_kernel_vectors_are_annihilated_and_independent(m):
    basis = kernel_basis(m)
    assert len(basis) == m.n_cols - rank(m)
    for v in basis:
        assert m.matvec(v) == {}
    assert span_dim(basis, m.n_cols) == len(basis)


@settings(deadline=None, max_examples=60)
@given(sparse_matrices())
def test_rref_is_idempotent(m):
    once = rref(m).matrix
    assert rref(once).matrix == once
    # the reduced form is unique, so the order the rows come in is no matter
    flipped = {(m.n_rows - 1 - i, j): v for (i, j), v in m.entries.items()}
    assert rref(SparseMatQ(m.n_rows, m.n_cols, flipped)).matrix == once


@settings(deadline=None, max_examples=60)
@given(sparse_matrices(), st.data())
def test_row_scaling_keeps_the_kernel_basis(m, data):
    """Each row times a nonzero integer is an invertible row operation, so
    the reduced form, hence the rank and ``kernel_basis``, stay: the ground
    on which ``verify.fock_matrix`` scales row lambda by z_lambda."""
    nonzero = st.integers(-6, 6).filter(bool)
    scales = data.draw(st.lists(nonzero, min_size=m.n_rows, max_size=m.n_rows))
    scaled = SparseMatQ(
        m.n_rows, m.n_cols, {(i, j): v * scales[i] for (i, j), v in m.entries.items()}
    )
    assert rref(scaled).matrix == rref(m).matrix
    assert rank(scaled) == rank(m)
    assert kernel_basis(scaled) == kernel_basis(m)


def leibniz_det(rows):
    """Determinant by permutation expansion, independent of elimination."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction((-1) ** inversions)
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


@settings(deadline=None, max_examples=60)
@given(sparse_matrices())
def test_rref_is_row_equivalent_to_input(m):
    """m equals its pivot columns C times the first rank rows of R = rref(m),
    R is reduced at its pivots and vanishes past the rank, and C has a
    nonzero maximal minor, so R and m have the same row space exactly."""
    result = rref(m)
    pivots = result.pivot_cols
    r = len(pivots)
    assert pivots == sorted(set(pivots))
    assert all(i < r for i, _ in result.matrix.entries)
    for p, k in enumerate(pivots):
        column = {i: v for (i, j), v in result.matrix.entries.items() if j == k}
        assert column == {p: 1}
    product = {}
    for (i, k), a in m.entries.items():
        if k in pivots:
            for (row, j), b in result.matrix.entries.items():
                if row == pivots.index(k):
                    product[(i, j)] = product.get((i, j), 0) + a * b
    assert SparseMatQ(m.n_rows, m.n_cols, product) == m
    assert any(
        leibniz_det([[m.entries.get((i, k), 0) for k in pivots] for i in rows])
        for rows in itertools.combinations(range(m.n_rows), r)
    )


@st.composite
def sparse_families(draw):
    """A column count and a short family of sparse vectors over it."""
    n_cols = draw(st.integers(min_value=0, max_value=4))
    family = draw(
        st.lists(
            st.dictionaries(
                st.integers(min_value=0, max_value=max(n_cols - 1, 0)),
                small_fraction.filter(bool),
                max_size=n_cols,
            ),
            max_size=4,
        )
    )
    return n_cols, family


def largest_nonzero_minor(vectors, n_cols):
    """Size of the largest square submatrix with nonzero determinant, by
    Leibniz expansion, so independent of elimination."""
    for size in range(min(len(vectors), n_cols), 0, -1):
        for rows in itertools.combinations(vectors, size):
            for cols in itertools.combinations(range(n_cols), size):
                if leibniz_det([[row.get(c, 0) for c in cols] for row in rows]):
                    return size
    return 0


@settings(deadline=None, max_examples=60)
@given(sparse_families())
def test_span_dim_is_largest_nonzero_minor(family):
    n_cols, vectors = family
    assert span_dim(vectors, n_cols) == largest_nonzero_minor(vectors, n_cols)


@settings(deadline=None, max_examples=60)
@given(sparse_families(), st.data())
def test_combinations_lie_in_the_span(family, data):
    n_cols, b = family
    a = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        combo = {}
        for vec in b:
            c = data.draw(small_fraction)
            for j, v in vec.items():
                combo[j] = combo.get(j, 0) + c * v
        a.append({j: v for j, v in combo.items() if v})
    assert subspace_leq(a, b, n_cols)
    assert span_dim(b + a, n_cols) == span_dim(b, n_cols)


def count_rref(monkeypatch):
    calls = []
    real = linalg.rref

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


BIG = 2**61 - 1


@pytest.mark.parametrize(
    "rows, kernel",
    [
        # every maximal minor is a nonzero multiple of BIG (the second
        # determinant is BIG^2): full rank, no kernel
        ([[BIG]], []),
        ([[BIG, 1], [BIG, 1 + BIG]], []),
        # a kernel entry with a big denominator
        ([[2**40, 1]], [{1: 1, 0: Fraction(-1, 2**40)}]),
    ],
)
def test_kernel_basis_falls_back_to_rref(monkeypatch, rows, kernel):
    """Big-integer examples: each kernel is read off exactly one rref."""
    calls = count_rref(monkeypatch)
    assert kernel_basis(mat(rows)) == kernel
    assert len(calls) == 1


def test_rref_deterministic():
    m = mat([[2, 4, 1], [3, 6, 0], [1, 2, 5]])
    first = rref(m)
    second = rref(m)
    assert first.matrix == second.matrix
    assert first.pivot_cols == second.pivot_cols
