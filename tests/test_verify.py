"""Evaluation matrices, kernel-ideal comparison and the partition oracle."""

from fractions import Fraction

import pytest

from principal_subspaces.linalg import kernel_basis, span_equal
from principal_subspaces.poly import coordinates, enumerate_monomials
from principal_subspaces.relations import quadratic_relation
from principal_subspaces.verify import (
    TAGS,
    check_ideal_D_stability,
    eval_matrix,
    graded_dims,
    kernel_containment_L0_in_L1,
    oracle_weight_total,
    partition_oracle,
    piece_report,
    verify_presentation,
    weight_totals,
)


def test_eval_matrix_degree_one():
    m0 = eval_matrix("lambda0", 1, 1)
    assert (m0.n_rows, m0.n_cols) == (1, 1)
    assert m0.entries == {(0, 0): Fraction(1)}
    # the same generator kills the half-lattice highest weight vector:
    # the target bidegree there is empty, so the column is zero
    m1 = eval_matrix("lambda1", 1, 1)
    assert (m1.n_rows, m1.n_cols) == (0, 1)
    assert m1.entries == {}


def test_eval_matrix_weight_two_charge_two():
    m = eval_matrix("lambda0", 2, 2)
    assert (m.n_rows, m.n_cols) == (0, 1)
    assert m.entries == {}


def test_piece_report_weight_four_charge_two():
    report = piece_report("lambda0", 4, 2)
    assert report.dim_domain == 2
    assert report.rank_eval == 1
    assert report.dim_kernel == 1
    assert report.dim_ideal_piece == 1
    assert report.containment_ok and report.equality_ok
    # the kernel is spanned by the weight-4 relation itself
    kernel = kernel_basis(eval_matrix("lambda0", 4, 2))
    basis = enumerate_monomials(4, 2, -1)
    assert span_equal(kernel, [coordinates(quadratic_relation(4, -1), basis)])


def test_piece_report_lambda1prime_weight_four():
    report = piece_report("lambda1prime", 4, 2)
    assert report.dim_domain == 1
    assert report.rank_eval == 0
    assert report.dim_kernel == 1
    assert report.dim_ideal_piece == 1
    assert report.equality_ok


def test_presentations_small():
    for tag in TAGS:
        run = verify_presentation(tag, 6)
        assert run.all_pass
        for piece in run.pieces:
            assert piece.dim_kernel == piece.dim_domain - piece.rank_eval
            assert piece.witness is None


def test_presentation_rejects_bad_weight():
    with pytest.raises(ValueError):
        verify_presentation("lambda0", 0)
    with pytest.raises(ValueError):
        verify_presentation("nope", 4)


def test_kernel_containment_small():
    assert kernel_containment_L0_in_L1(6)


def test_rank_matches_partition_oracle():
    for weight in range(0, 9):
        for charge in range(0, weight + 1):
            m0 = eval_matrix("lambda0", weight, charge)
            got0 = m0.n_cols - len(kernel_basis(m0))
            assert got0 == partition_oracle(weight, charge, 1)
        for charge in range(0, weight // 2 + 1):
            m1 = eval_matrix("lambda1prime", weight, charge)
            got1 = m1.n_cols - len(kernel_basis(m1))
            assert got1 == partition_oracle(weight, charge, 2)


def test_partition_oracle_examples():
    assert partition_oracle(4, 2, 1) == 1  # only 3+1
    assert partition_oracle(4, 1, 1) == 1
    assert partition_oracle(6, 2, 2) == 1  # only 4+2
    assert partition_oracle(0, 0, 1) == 1
    assert partition_oracle(3, 2, 2) == 0
    with pytest.raises(ValueError):
        partition_oracle(-1, 0, 1)


def test_graded_dims_weight_totals():
    dims0 = graded_dims("lambda0", 10)
    assert weight_totals(dims0, 10) == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]
    dims1 = graded_dims("lambda1prime", 8)
    assert weight_totals(dims1, 8) == [1, 0, 1, 1, 1, 1, 2, 2, 3]
    assert dims0[(0, 0)] == 1
    assert dims1[(0, 0)] == 1


def test_oracle_weight_totals_match_dims():
    for n in range(0, 11):
        assert oracle_weight_total(n, 1) == sum(
            partition_oracle(n, k, 1) for k in range(n + 1)
        )
    assert [oracle_weight_total(n, 2) for n in range(9)] == [1, 0, 1, 1, 1, 1, 2, 2, 3]


def test_ideal_derivation_stability_small():
    assert check_ideal_D_stability(6)
    with pytest.raises(ValueError):
        check_ideal_D_stability(1)


def test_runs_are_deterministic():
    first = verify_presentation("lambda0", 5)
    second = verify_presentation("lambda0", 5)
    assert first.pieces == second.pieces
