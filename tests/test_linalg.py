"""Exact linear algebra: frozen examples plus randomized structural laws."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from principal_subspaces.linalg import (
    SparseMatQ,
    kernel_basis,
    rank,
    rref,
    span_dim,
    span_equal,
    subspace_leq,
)


def mat(rows):
    return SparseMatQ.from_rows([[Fraction(v) for v in row] for row in rows])


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
    assert basis == [[Fraction(-2), Fraction(1)]]


def test_kernel_zero_row():
    basis = kernel_basis(SparseMatQ(1, 3))
    assert len(basis) == 3


def test_subspace_leq_examples():
    assert subspace_leq([], [[1, 2, 3]])
    assert subspace_leq([[1, 0]], [[1, 1], [0, 1]])  # (1,0) = (1,1) - (0,1)
    assert not subspace_leq([[1, 0]], [[0, 1]])


def test_subspace_leq_dimension_mismatch():
    with pytest.raises(ValueError):
        subspace_leq([[1, 0]], [[1, 0, 0]])


def test_span_helpers():
    assert span_dim([]) == 0
    assert span_dim([[1, 1], [2, 2]]) == 1
    assert span_equal([[1, 0], [0, 1]], [[1, 1], [1, -1]])


def test_matvec_and_bounds():
    m = mat([[1, 2], [0, 3]])
    assert m.matvec([1, 1]) == [Fraction(3), Fraction(3)]
    with pytest.raises(ValueError):
        m.matvec([1, 1, 1])
    with pytest.raises(ValueError):
        SparseMatQ(1, 1, {(1, 0): 1})


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
    assert rank(m) == rank(m.transpose())


@settings(deadline=None, max_examples=60)
@given(sparse_matrices())
def test_kernel_vectors_are_annihilated_and_independent(m):
    basis = kernel_basis(m)
    assert len(basis) == m.n_cols - rank(m)
    for v in basis:
        assert all(entry == 0 for entry in m.matvec(v))
    if basis:
        assert span_dim(basis) == len(basis)


@settings(deadline=None, max_examples=60)
@given(sparse_matrices())
def test_rref_is_idempotent(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


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


def test_rref_deterministic():
    m = mat([[2, 4, 1], [3, 6, 0], [1, 2, 5]])
    first = rref(m)
    second = rref(m)
    assert first.matrix == second.matrix
    assert first.pivot_cols == second.pivot_cols
