"""Evaluation matrices, kernel-ideal comparison and the partition oracle."""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from principal_subspaces import fock, linalg, relations, verify
from principal_subspaces.cli import main
from principal_subspaces.fock import apply_monomial, partitions
from principal_subspaces.linalg import kernel_basis
from principal_subspaces.poly import PolyQ, coordinates, enumerate_monomials, x
from principal_subspaces.relations import IDEALS, ideal_piece, quadratic_relation
from principal_subspaces.verify import (
    TAGS,
    charge_range,
    eval_matrix,
    fock_matrix,
    graded_dims,
    heisenberg_size,
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


def z_factor(lam):
    return math.prod(p**k * math.factorial(k) for p, k in Counter(lam).items())


def test_fock_matrix_is_the_exact_action(x_by_exponential):
    """Each Fock matrix of each tag, to weight 10, holds integers, and row
    lambda divided by z_lambda is the exact action of each column's
    monomial on the highest weight vector, composed from the exponential
    formula."""
    for tag in TAGS:
        spec = IDEALS[tag]
        for weight in range(11):
            for charge in charge_range(tag, weight):
                m = fock_matrix(tag, weight, charge)
                monos = enumerate_monomials(weight, charge, spec.ambient_floor)
                rows = partitions(heisenberg_size(tag, weight, charge), 1)
                exact = {}
                for j, mono in enumerate(monos):
                    image = {(spec.two_r, ()): 1}
                    for index in reversed(mono):
                        image = x_by_exponential(index, image)
                    for (two_r, lam), c in image.items():
                        assert two_r == spec.two_r + 2 * charge
                        exact[(rows.index(lam), j)] = c
                assert (m.n_rows, m.n_cols) == (len(rows), len(monos))
                assert all(type(c) is int for c in m.entries.values())
                scaled = {
                    (i, j): Fraction(c, z_factor(rows[i]))
                    for (i, j), c in m.entries.items()
                }
                assert scaled == exact, (tag, weight, charge)


# the pieces to weight 8 whose columns were not all over one denominator
# before ``apply_monomial`` divided it out, with the first nonzero column
# whose image carried one above 1, and that denominator
UNEQUAL_DENOMINATORS = {
    ("lambda0", 6, 2): ("x(-3)^2", 2),
    ("lambda0", 7, 2): ("x(-4)*x(-3)", 2),
    ("lambda0", 8, 2): ("x(-5)*x(-3)", 2),
    ("lambda1", 8, 2): ("x(-4)^2", 2),
    ("lambda1prime", 8, 2): ("x(-4)^2", 2),
}


@pytest.mark.parametrize("piece", list(UNEQUAL_DENOMINATORS))
def test_verify_rejects_a_fock_column_without_its_factor(capsys, monkeypatch, piece):
    """``fock_matrix`` on one piece with one column times the denominator
    that its image no longer carries, so that column alone is scaled by a
    wrong factor: verify to weight 8 fails on that piece only, its
    containment holds, and the witness is a kernel vector of E that the
    mutant F does not kill, the disagreement that ``_fock_check``
    returns."""
    tag, weight, charge = piece
    monos = enumerate_monomials(weight, charge, IDEALS[tag].ambient_floor)
    column, den = UNEQUAL_DENOMINATORS[piece]
    j = [str(PolyQ({mono: 1})) for mono in monos].index(column)
    # the denominator is the product of the multiples that the image
    # divides out, read from a spy on fock._unscaled
    scales = []
    unscaled = fock._unscaled
    monkeypatch.setattr(
        fock, "_unscaled", lambda blocks: scales.append(unscaled(blocks)) or scales[-1]
    )
    assert apply_monomial(monos[j], IDEALS[tag].two_r)
    assert math.prod(scale for scale, _ in scales) == den
    monkeypatch.setattr(fock, "_unscaled", unscaled)
    real = fock_matrix
    mutant = real(*piece)
    mutant = linalg.SparseMatQ(
        mutant.n_rows,
        mutant.n_cols,
        {(i, col): c * den if col == j else c for (i, col), c in mutant.entries.items()},
    )
    monkeypatch.setattr(
        verify, "fock_matrix", lambda *args: mutant if args == piece else real(*args)
    )
    assert main(["verify", "--max-weight", "8", "--format", "json"]) == 1
    failed = [p for p in json.loads(capsys.readouterr().out)["pieces"] if not p["equality_ok"]]
    assert [(p["module_tag"], p["idx"]["weight"], p["idx"]["charge"]) for p in failed] == [piece]
    assert failed[0]["containment_ok"] is True
    (escaped,) = [
        vec
        for vec in kernel_basis(eval_matrix(*piece))
        if str(PolyQ({monos[col]: c for col, c in vec.items()})) == failed[0]["witness"]
    ]
    assert mutant.matvec(escaped) and not real(*piece).matvec(escaped)


def test_eval_matrix_weight_four_charge_two():
    # one row, nu = (); the entries are the coefficients of (z1 - z2)^2 at
    # z1^2 and z1 z2, so the kernel is the weight-4 relation
    m = eval_matrix("lambda0", 4, 2)
    assert enumerate_monomials(4, 2, -1) == ((-3, -1), (-2, -2))
    assert (m.n_rows, m.n_cols) == (1, 2)
    assert m.entries == {(0, 0): 1, (0, 1): -2}


def test_vandermonde_squared_table(vandermonde_squared):
    """The Delta^2 table of the monomial-row oracle."""
    assert vandermonde_squared(0) == {(): 1}
    assert vandermonde_squared(2) == {(2, 0): 1, (1, 1): -2, (0, 2): 1}
    delta2 = vandermonde_squared(3)
    assert len(delta2) == 19
    assert all(sum(e) == 6 for e in delta2)
    assert delta2[(2, 2, 2)] == -6 and delta2[(4, 2, 0)] == 1
    # symmetric under a 3-cycle and a transposition, and zero at z = (1, 1, 1)
    assert all(delta2[e[1:] + e[:1]] == c for e, c in delta2.items())
    assert all(delta2[(e[1], e[0], e[2])] == c for e, c in delta2.items())
    assert sum(delta2.values()) == 0


def test_signed_permutations_and_stabilizer_orders():
    """The k! signed permutations, and |Stab f| as the product of the
    factorials of the runs of a sorted tuple."""
    assert verify._signed_permutations(0) == (((), 1),)
    assert verify._signed_permutations(3) == (
        ((0, 1, 2), 1),
        ((0, 2, 1), -1),
        ((1, 0, 2), -1),
        ((1, 2, 0), 1),
        ((2, 0, 1), 1),
        ((2, 1, 0), -1),
    )
    assert [len(verify._signed_permutations(k)) for k in range(6)] == [1, 1, 2, 6, 24, 120]
    assert sum(sign for _, sign in verify._signed_permutations(5)) == 0
    for f, order in [((), 1), ((3,), 1), ((4, 2, 0), 1), ((2, 2, 2), 6), ((5, 5, 3, 1, 1, 1), 12)]:
        assert verify._stabilizer_order(f) == order


def test_row_partitions_are_the_partitions_with_at_most_charge_parts():
    """The rows of ``eval_matrix`` are the partitions of ``fock.partitions``
    with at most charge parts, reversed, padded with zeros to length charge
    and sorted, for every size from -2 to 20 and charge to 10."""
    for size in range(-2, 21):
        for charge in range(11):
            expected = sorted(
                nu[::-1] + (0,) * (charge - len(nu))
                for nu in partitions(size, 1)
                if len(nu) <= charge
            )
            assert list(verify._row_partitions(size, charge)) == expected, (size, charge)


def test_eval_matrix_builds_no_permutations_without_rows(monkeypatch):
    """A piece with d < 0 has no rows, and its charge can reach the weight,
    so the k! signed permutations must never be built for it."""

    def refuse(k):
        raise AssertionError(f"the permutations of {k} built")

    monkeypatch.setattr(verify, "_signed_permutations", refuse)
    m = eval_matrix("lambda0", 22, 22)
    assert (m.n_rows, m.n_cols, m.entries) == (0, 1, {})


def pieces_to(max_weight):
    return [
        (tag, weight, charge)
        for tag in TAGS
        for weight in range(max_weight + 1)
        for charge in charge_range(tag, weight)
    ]


def test_eval_matrix_has_the_rref_of_the_monomial_rows_to_weight_16(
    eval_matrix_by_monomial_rows,
):
    """The Schur rows span the row space of the monomial symmetric rows:
    the two matrices have the same reduced row-echelon form, pivots
    included, on every piece to weight 16."""
    for piece in pieces_to(16):
        assert linalg.rref(eval_matrix(*piece)) == linalg.rref(
            eval_matrix_by_monomial_rows(*piece)
        ), piece


def test_eval_matrix_crosses_the_delta_squared_wall():
    """lambda0 at (49, 7) is the first piece with rows in 7 variables, where
    the monomial rows need Delta^2 expanded in 7 variables.  Its one Schur
    row takes 7! sorted tuples, and both rank statements hold on it."""
    m = eval_matrix("lambda0", 49, 7)
    assert (m.n_rows, m.n_cols) == (1, 8033)
    assert verify._full_row_rank(m)
    assert dt_minor("lambda0", 49, 7, m)


@pytest.mark.parametrize("tag", TAGS)
def test_eval_matrix_reads_the_signs_on_every_call(monkeypatch, tag):
    """After the piece is built once, a patched ``_signed_permutations``
    still reaches the matrix: every sign flipped gives every entry negated.
    A cache of the rows would hide the patch, and with it the bialternant
    mutants of the command-line tests."""
    weight, charge = 12, 3
    real = verify._signed_permutations
    warm = eval_matrix(tag, weight, charge)
    assert warm.entries
    monkeypatch.setattr(
        verify, "_signed_permutations", lambda k: [(rho, -sign) for rho, sign in real(k)]
    )
    flipped = eval_matrix(tag, weight, charge)
    assert flipped.entries == {ij: -v for ij, v in warm.entries.items()}


def domain_index(tag, weight, charge):
    """The index {index tuple: column} of the domain monomials of a piece."""
    monos = enumerate_monomials(weight, charge, IDEALS[tag].ambient_floor)
    return {mono: j for j, mono in enumerate(monos)}


def test_heisenberg_size_and_charge_range_in_integers():
    """The integer forms equal weight + r^2 - (r + charge)^2, with r =
    two_r / 2, and the charges k with k factors of weight at least -floor."""
    for tag in TAGS:
        r = Fraction(IDEALS[tag].two_r, 2)
        floor = IDEALS[tag].ambient_floor
        for weight in range(13):
            charges = [k for k in range(weight + 1) if -floor * k <= weight]
            assert list(charge_range(tag, weight)) == charges
            for charge in range(weight + 1):
                size = weight + r * r - (r + charge) ** 2
                assert heisenberg_size(tag, weight, charge) == size


def test_functional_and_fock_kernels_agree_to_weight_16():
    """The functional matrix has the reduced kernel basis of the Fock
    matrix on every piece to weight 16, and its rows are independent: every
    row tops a column (``_full_row_rank``), and the minor on the DT columns
    is unitriangular (``dt_minor``)."""
    for tag in TAGS:
        for weight in range(17):
            for charge in charge_range(tag, weight):
                m = eval_matrix(tag, weight, charge)
                fock = fock_matrix(tag, weight, charge)
                assert kernel_basis(m) == kernel_basis(fock), (tag, weight, charge)
                assert verify._full_row_rank(m)
                assert dt_minor(tag, weight, charge, m), (tag, weight, charge)


def no_elimination(*args):
    raise AssertionError("rational elimination on a passing piece")


def test_graded_dims_certified_by_the_row_count(monkeypatch):
    """The ranks are the row counts, proved by ``_full_row_rank`` without
    any elimination, and agree with the difference-two partition
    counts."""
    monkeypatch.setattr(linalg, "_echelon", no_elimination)
    dims0 = graded_dims("lambda0", 14)
    dims1 = graded_dims("lambda1prime", 14)
    assert dims0 == {(w, k): partition_oracle(w, k, 1) for (w, k) in dims0}
    assert dims1 == {(w, k): partition_oracle(w, k, 2) for (w, k) in dims1}


def test_graded_dims_fall_back_to_the_rational_rank(monkeypatch, force_certificate_off):
    """With the row-rank check always declining, every rank comes from
    rational elimination, and the dimensions are unchanged."""
    certified = {tag: graded_dims(tag, 10) for tag in TAGS}
    real_rank, calls = linalg.rank, []
    force_certificate_off()
    monkeypatch.setattr(verify, "rank", lambda m: calls.append(m) or real_rank(m))
    assert {tag: graded_dims(tag, 10) for tag in TAGS} == certified
    assert len(calls) == sum(len(dims) for dims in certified.values())


def test_sandwich_closes_on_every_piece_to_weight_24(monkeypatch):
    """The certificate decides every piece to weight 24, and above
    ``FOCK_CHECK_WEIGHT`` no piece runs any elimination."""
    monkeypatch.setattr(verify, "fallbacks", 0)
    for tag in TAGS:
        assert verify_presentation(tag, verify.FOCK_CHECK_WEIGHT).all_pass
    monkeypatch.setattr(linalg, "_echelon", no_elimination)
    for tag in TAGS:
        for weight in range(verify.FOCK_CHECK_WEIGHT + 1, 25):
            for charge in charge_range(tag, weight):
                assert piece_report(tag, weight, charge).equality_ok
    assert verify.fallbacks == 0


def dt_columns(tag, weight, charge):
    """The column of the difference-two monomial of each row of eval_matrix:
    the row's padded partition plus the staircase (2(k-1), ..., 2, 0) is the
    exponent e, and m_j = -e_j - 1 - 2r."""
    two_r = IDEALS[tag].two_r
    size = heisenberg_size(tag, weight, charge)
    domain = domain_index(tag, weight, charge)
    columns = []
    for nu in verify._row_partitions(size, charge):
        assert sum(nu) == size and list(nu) == sorted(nu, reverse=True)
        e = [a + 2 * (charge - 1 - j) for j, a in enumerate(nu)]
        columns.append(domain[tuple(sorted(-ej - 1 - two_r for ej in e))])
    return columns


def dt_column(tag, weight, charge, i):
    return dt_columns(tag, weight, charge)[i]


def dt_minor(tag, weight, charge, m):
    """The DT statement: the DT column of each row i has its least nonzero
    row at i, with the entry 1, so the minor on the DT columns is lower
    unitriangular."""
    columns = m.columns()
    return all(
        j in columns and min(columns[j]) == i and columns[j][i] == 1
        for i, j in enumerate(dt_columns(tag, weight, charge))
    )


def zero_diagonal(tag, weight, charge, m):
    j = dt_column(tag, weight, charge, 1)
    assert m.entries[(1, j)] == 1
    return {k: v for k, v in m.entries.items() if k != (1, j)}


def entry_above_diagonal(tag, weight, charge, m):
    j = dt_column(tag, weight, charge, 1)
    assert (0, j) not in m.entries
    return {**m.entries, (0, j): 1}


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("mutate", [zero_diagonal, entry_above_diagonal])
def test_certificate_declines_on_a_broken_minor(
    monkeypatch, force_certificate_off, tag, mutate
):
    """An evaluation matrix with one diagonal entry of the DT minor set to
    0, or with one entry added in a row before the diagonal, leaves a row
    that tops no column, so ``_full_row_rank`` declines, and the report is
    the one the rational path gives with the certificate forced off."""
    weight, charge = 12, 2
    real = eval_matrix(tag, weight, charge)
    assert real.n_rows >= 2
    assert verify._full_row_rank(real)
    mutant = linalg.SparseMatQ(real.n_rows, real.n_cols, mutate(tag, weight, charge, real))
    assert not verify._full_row_rank(mutant)
    monkeypatch.setattr(verify, "eval_matrix", lambda *piece: mutant)
    monkeypatch.setattr(verify, "fallbacks", 0)
    report = piece_report(tag, weight, charge)
    assert verify.fallbacks == 1
    force_certificate_off()
    assert piece_report(tag, weight, charge) == report


@pytest.mark.parametrize("tag", TAGS)
def test_row_rank_accepts_a_doubled_row_that_the_dt_statement_declines(
    monkeypatch, force_certificate_off, tag
):
    """Row 0 of E on (12, 2) doubled keeps the kernel, but the entry of its
    DT column becomes 2, so the DT statement no longer holds.  Row 0 still
    tops that column, so ``_full_row_rank`` accepts, the certificate
    decides the piece, and the report is the unmutated one and the one of
    the rational path."""
    weight, charge = 12, 2
    real = eval_matrix(tag, weight, charge)
    doubled = linalg.SparseMatQ(
        real.n_rows,
        real.n_cols,
        {(i, j): 2 * v if i == 0 else v for (i, j), v in real.entries.items()},
    )
    assert kernel_basis(doubled) == kernel_basis(real)
    assert dt_minor(tag, weight, charge, real)
    assert not dt_minor(tag, weight, charge, doubled)
    assert verify._full_row_rank(doubled)
    report = piece_report(tag, weight, charge)
    monkeypatch.setattr(verify, "eval_matrix", lambda *piece: doubled)
    monkeypatch.setattr(verify, "fallbacks", 0)
    assert piece_report(tag, weight, charge) == report
    assert verify.fallbacks == 0
    force_certificate_off()
    assert piece_report(tag, weight, charge) == report


def determinant(rows):
    """The determinant of a square integer matrix, by the Leibniz formula."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        product = sign
        for i, j in enumerate(perm):
            product *= rows[i][j]
        total += product
    return total


def test_row_rank_check_is_sound_on_every_small_matrix():
    """On every 2x2, 2x3 and 3x2 matrix with entries in {-1, 0, 1, 2},
    ``_full_row_rank`` holds only where some n_rows x n_rows minor has a
    nonzero determinant, and it holds wherever the columns can be chosen
    and ordered to make a lower triangular minor with a nonzero diagonal,
    pivots of 2 included.  A matrix with no rows has full row rank."""
    assert verify._full_row_rank(linalg.SparseMatQ(0, 0))
    assert verify._full_row_rank(linalg.SparseMatQ(0, 3))
    accepted = declined_at_full_rank = pivot_two = 0
    for n_rows, n_cols in ((2, 2), (2, 3), (3, 2)):
        cells = [(i, j) for i in range(n_rows) for j in range(n_cols)]
        for values in itertools.product((-1, 0, 1, 2), repeat=len(cells)):
            entries = dict(zip(cells, values))
            rows = [[entries[(i, j)] for j in range(n_cols)] for i in range(n_rows)]
            full = any(
                determinant([[row[j] for j in chosen] for row in rows])
                for chosen in itertools.combinations(range(n_cols), n_rows)
            )
            triangular = [
                chosen
                for chosen in itertools.permutations(range(n_cols), n_rows)
                if all(
                    rows[i][j] and not any(rows[r][j] for r in range(i))
                    for i, j in enumerate(chosen)
                )
            ]
            verdict = verify._full_row_rank(linalg.SparseMatQ(n_rows, n_cols, entries))
            assert not verdict or full, rows
            assert verdict or not triangular, rows
            accepted += verdict
            declined_at_full_rank += full and not verdict
            pivot_two += any(
                2 in (rows[i][j] for i, j in enumerate(chosen)) for chosen in triangular
            )
    assert accepted and declined_at_full_rank and pivot_two
    # a pivot of -2
    pivot = linalg.SparseMatQ(2, 2, {(0, 1): -2, (1, 0): -2, (1, 1): 1})
    assert verify._full_row_rank(pivot)


def lead(poly):
    """The least term of a polynomial under (sum of m_i^2, index tuple)."""
    return min(poly.terms, key=lambda mono: (sum(m * m for m in mono), mono))


def without_one_block(tag, weight, charge):
    """The ideal piece, the piece without the block of the first spanning
    element with a lead of its own, the number of cofactors of that block,
    and the number of distinct leads of the whole piece.  The other blocks
    are kept as they are."""
    piece = ideal_piece(tag, weight, charge)
    polys = list(piece)
    leads = [lead(p) for p in polys]
    drop = next(i for i, mono in enumerate(leads) if leads.count(mono) == 1)
    blocks, start = [], 0
    for g, (w, k) in piece.blocks:
        size = len(enumerate_monomials(w, k, piece.floor))
        if start <= drop < start + size:
            first, dropped = start, size
        else:
            blocks.append((g, (w, k)))
        start += size
    kept = relations.IdealPiece(weight, charge, piece.floor, blocks)
    assert list(kept) == polys[:first] + polys[first + dropped :]
    return piece, kept, dropped, len(set(leads))


def scanned(ideal_rows_by_three_passes, tag, piece, matrix):
    """The witness index and the lead count of the three-pass oracle on
    every element of an ideal piece, ``matrix`` being E on its domain."""
    domain = domain_index(tag, piece.weight, piece.charge)
    return ideal_rows_by_three_passes(list(piece), domain, matrix)[2:]


@pytest.mark.parametrize("tag", TAGS)
def test_certificate_declines_without_one_cofactor_multiple(
    monkeypatch, force_certificate_off, ideal_rows_by_three_passes, tag
):
    """Dropping the block of the one spanning element with a given lead of
    the ideal piece (12, 3), the block's only cofactor, leaves fewer
    distinct leads than the kernel dimension.  ``_ideal_side`` counts the
    leads of the other generators, as the three-pass scan does: the lead
    count declines, and the report is the one the rational path gives with
    the certificate forced off."""
    weight, charge = 12, 3
    piece, kept, dropped, distinct = without_one_block(tag, weight, charge)
    matrix = eval_matrix(tag, weight, charge)
    dim_kernel = len(domain_index(tag, weight, charge)) - matrix.n_rows
    assert dropped == 1 and distinct == dim_kernel
    assert scanned(ideal_rows_by_three_passes, tag, piece, matrix) == (None, dim_kernel)
    assert scanned(ideal_rows_by_three_passes, tag, kept, matrix) == (None, dim_kernel - 1)
    assert verify._ideal_side(tag, weight, charge, piece, matrix, {}) == dim_kernel
    assert verify._ideal_side(tag, weight, charge, kept, matrix, {}) == dim_kernel - 1
    monkeypatch.setattr(verify, "ideal_piece", lambda *piece: kept)
    monkeypatch.setattr(verify, "fallbacks", 0)
    report = piece_report(tag, weight, charge)
    assert verify.fallbacks == 1
    force_certificate_off()
    assert piece_report(tag, weight, charge) == report


def warm_verdicts(tag, weight, charge):
    """A verdict store filled by a passing run to the piece (weight,
    charge), with every generator that the run reads."""
    verdicts = {}
    for w in range(weight + 1):
        for k in charge_range(tag, w):
            assert piece_report(tag, w, k, verdicts).equality_ok
    return verdicts


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("weight, charge, several", [(12, 3, False), (12, 4, True)])
def test_warm_code_tables_read_a_dropped_cofactor_anew(
    monkeypatch, ideal_rows_by_three_passes, tag, weight, charge, several
):
    """After a run to the piece has filled a verdict store, the piece
    without the block of ``without_one_block`` is still read anew:
    ``_ideal_side`` counts the leads of the blocks it has, as the three-pass
    scan does, fewer than the kernel dimension, and the certificate
    declines.  On (12, 3) the block is the one of the test above, with one
    cofactor; on (12, 4) it has several."""
    verdicts = warm_verdicts(tag, weight, charge)
    _, kept, dropped, distinct = without_one_block(tag, weight, charge)
    assert (dropped > 1) == several
    matrix = eval_matrix(tag, weight, charge)
    witness, leads = scanned(ideal_rows_by_three_passes, tag, kept, matrix)
    assert witness is None and leads < distinct
    assert distinct == len(domain_index(tag, weight, charge)) - matrix.n_rows
    assert verify._ideal_side(tag, weight, charge, kept, matrix, verdicts) == leads
    monkeypatch.setattr(verify, "ideal_piece", lambda *piece: kept)
    monkeypatch.setattr(verify, "fallbacks", 0)
    piece_report(tag, weight, charge, verdicts)
    assert verify.fallbacks == 1


# doctored ideal pieces of (weight, charge) whose generators all pass: the
# first block's cofactor weight raised by one, off the complement of its
# generator's lead; the floor lowered by one, below the tag's; and the piece
# of the weight below, which carries its own bidegree
DOCTORED = {
    "bidegree": lambda tag, weight, charge: relations.IdealPiece(
        weight,
        charge,
        IDEALS[tag].ambient_floor,
        [
            (g, (w + (i == 0), k))
            for i, (g, (w, k)) in enumerate(ideal_piece(tag, weight, charge).blocks)
        ],
    ),
    "floor": lambda tag, weight, charge: relations.IdealPiece(
        weight, charge, IDEALS[tag].ambient_floor - 1, ideal_piece(tag, weight, charge).blocks
    ),
    "other-piece": lambda tag, weight, charge: ideal_piece(tag, weight - 1, charge),
}


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("doctor", DOCTORED)
def test_a_doctored_bidegree_or_floor_is_read_anew(
    monkeypatch, force_certificate_off, tag, doctor
):
    """The piece (12, 4) with a block whose cofactor bidegree does not
    complement its generator's lead, with a floor that is not the tag's,
    or replaced by the piece (11, 4): with a warm verdict store, in which
    each of its generators passes, ``_ideal_side`` declines it, and
    ``piece_report`` gives the failing report of the rational path with
    the certificate forced off."""
    weight, charge = 12, 4
    verdicts = warm_verdicts(tag, weight, charge)
    doctored = DOCTORED[doctor](tag, weight, charge)
    matrix = eval_matrix(tag, weight, charge)
    piece = ideal_piece(tag, weight, charge)
    assert verify._ideal_side(tag, weight, charge, piece, matrix, verdicts) is not None
    assert verify._ideal_side(tag, weight, charge, doctored, matrix, verdicts) is None
    monkeypatch.setattr(verify, "ideal_piece", lambda *piece: doctored)
    monkeypatch.setattr(verify, "fallbacks", 0)
    report = piece_report(tag, weight, charge, verdicts)
    assert verify.fallbacks == 1 and not report.equality_ok
    force_certificate_off()
    assert piece_report(tag, weight, charge) == report


def rows_by_coordinates(polys, monos):
    """The ideal rows by the general route, as {monomial: coefficient}
    maps: ``coordinates`` over the domain and then the sorted monomials
    outside it."""
    outside = sorted({mono for p in polys for mono in p.terms} - set(monos))
    basis = [*monos, *outside]
    return [{basis[j]: c for j, c in vec.items()} for vec in coordinates(polys, basis)]


def named_rows(vecs, n_cols, polys, monos):
    """The rows of ``coordinate_rows`` as {monomial: coefficient} maps,
    with the outside columns read in order of first appearance."""
    domain = set(monos)
    outside = list(dict.fromkeys(m for p in polys for m in p.terms if m not in domain))
    basis = [*monos, *outside]
    assert n_cols == len(basis)
    return [{basis[j]: c for j, c in vec.items()} for vec in vecs]


# the relation mutants: the weight of the relation changed, at either
# floor, and what it is changed into
RELATION_MUTANTS = {
    "unit": (4, lambda rel: PolyQ({m: 1 for m in rel.terms})),
    "half": (4, lambda rel: PolyQ({m: Fraction(c, 2) for m, c in rel.terms.items()})),
    "zero-6": (6, lambda rel: PolyQ()),
    "wrong-weight": (6, lambda rel: rel + x(-4) * x(-3)),
    "wrong-charge": (6, lambda rel: rel + x(-2) * x(-2) * x(-2)),
    "above-floor": (6, lambda rel: rel + x(-6) * x(0)),
}
TERM_MUTANTS = ("wrong-weight", "wrong-charge", "above-floor")


@pytest.mark.parametrize("mutant", ["none", "floor-1", *RELATION_MUTANTS])
def test_one_pass_ideal_rows_equal_the_coordinates_route(
    monkeypatch, force_certificate_off, floor_minus_one_piece, ideal_rows_by_three_passes,
    patch_relation, mutant,
):
    """On every piece to weight 16, for all tags, with ``_ideal_side``
    forced to decline: ``piece_report`` calls ``coordinate_rows`` once,
    and its rows and column count, and the witness the report reads from
    them, are those of three separate passes over the polynomials
    (``ideal_rows_by_three_passes``).  Where the real ``_ideal_side`` does
    not decline, the oracle finds no witness and the same lead count, and
    to weight 12 the rows are those of ``coordinates``.  The mutants reach
    the other inputs: weight-4 coefficients set to 1 (the one ``test_cli``
    builds; witnesses) or halved to c/2 (Fraction coefficients),
    lambda1prime with floor -1 relations (columns outside the domain), the
    weight-6 relation set to zero (empty rows, and fewer leads than the
    kernel dimension), and one term added to it that fails the generator
    check: of weight 7, of charge 3, or with the index 0 above the floor
    (columns outside the domain)."""
    if mutant == "floor-1":
        monkeypatch.setattr(verify, "ideal_piece", floor_minus_one_piece)
    if mutant in RELATION_MUTANTS:
        patch_relation(*RELATION_MUTANTS[mutant])
    side, coordinate_rows = verify._ideal_side, verify.coordinate_rows
    read = []
    monkeypatch.setattr(
        verify, "coordinate_rows", lambda *args: read.append(coordinate_rows(*args)) or read[-1]
    )
    force_certificate_off(minor=False)
    fractions = outside = witnesses = empty = short = 0
    for tag in TAGS:
        for weight in range(17):
            for charge in charge_range(tag, weight):
                monos = enumerate_monomials(weight, charge, IDEALS[tag].ambient_floor)
                matrix = eval_matrix(tag, weight, charge)
                ideal = verify.ideal_piece(tag, weight, charge)
                polys = list(ideal)
                read.clear()
                report = piece_report(tag, weight, charge)
                ((vecs, n_cols),) = read
                want_vecs, want_cols, witness, leads = ideal_rows_by_three_passes(
                    polys, domain_index(tag, weight, charge), matrix
                )
                assert (vecs, n_cols) == (want_vecs, want_cols)
                assert report.containment_ok == (witness is None)
                if witness is not None:
                    assert report.witness == str(polys[witness])
                counted = side(tag, weight, charge, ideal, matrix, {})
                assert counted is None or (witness, counted) == (None, leads)
                if leads is not None:
                    short += leads < len(monos) - matrix.n_rows
                if weight <= 12:
                    named = named_rows(vecs, n_cols, polys, monos)
                    assert named == rows_by_coordinates(polys, monos)
                fractions += any(c.denominator > 1 for p in polys for c in p.terms.values())
                outside += n_cols > len(monos)
                witnesses += witness is not None
                empty += not all(vecs)
    # each mutant reaches the path it is here for
    assert (fractions > 0) == (mutant == "half")
    assert (outside > 0) == (mutant in ("floor-1", *TERM_MUTANTS))
    assert (witnesses > 0) == (mutant in ("unit", "floor-1", *TERM_MUTANTS))
    assert (empty > 0) == (mutant == "zero-6")
    assert (short > 0) == (mutant == "zero-6")


@pytest.mark.parametrize("half", ["minor", "leads"])
def test_each_half_of_the_certificate_declines_alone(
    monkeypatch, force_certificate_off, half
):
    """With only the row-rank check, or only the lead count, forced to
    decline, every piece of a weight-8 verify falls back to rational
    elimination, and every report is unchanged."""
    certified = [verify_presentation(tag, 8) for tag in TAGS]
    force_certificate_off(minor=half == "minor", leads=half == "leads")
    monkeypatch.setattr(verify, "fallbacks", 0)
    runs = [verify_presentation(tag, 8) for tag in TAGS]
    assert runs == certified
    assert verify.fallbacks == sum(len(run.pieces) for run in runs)


def test_a_passing_run_reads_the_generators_and_agrees_with_the_scan(
    capsys, monkeypatch, ideal_rows_by_three_passes
):
    """On a passing verify of every module to weight 22, ``_ideal_side``
    declines no piece, ``coordinate_rows`` is never called and no piece
    falls back.  On every piece the lead count that ``_ideal_side`` reads
    from the generators and the domain is the one of the three-pass scan
    of every element, which finds no witness."""
    side = verify._ideal_side
    seen = []

    def recorded(tag, weight, charge, piece, matrix, verdicts):
        leads = side(tag, weight, charge, piece, matrix, verdicts)
        seen.append((tag, piece, matrix, leads))
        return leads

    monkeypatch.setattr(verify, "_ideal_side", recorded)
    monkeypatch.setattr(verify, "coordinate_rows", lambda *args: pytest.fail("rows built"))
    monkeypatch.setattr(verify, "fallbacks", 0)
    assert main(["verify", "--module", "all", "--max-weight", "22", "--format", "json"]) == 0
    capsys.readouterr()
    assert verify.fallbacks == 0
    assert len(seen) == sum(len(charge_range(tag, w)) for tag in TAGS for w in range(23))
    for tag, piece, matrix, leads in seen:
        assert scanned(ideal_rows_by_three_passes, tag, piece, matrix) == (None, leads)


def closure_escapes(tag, max_weight):
    """The products x(m) v, for v in the kernel basis of E on a piece (w,
    k), m <= floor and w - m <= max_weight, that E on (w - m, k + 1) does
    not kill, as (w, k, m), and the number of products; E is the
    ``eval_matrix`` that verify reads."""
    floor = IDEALS[tag].ambient_floor
    products, escapes = 0, []
    for weight in range(max_weight + 1):
        for charge in charge_range(tag, weight):
            monos = enumerate_monomials(weight, charge, floor)
            kernel = kernel_basis(verify.eval_matrix(tag, weight, charge))
            for m in range(floor, weight - max_weight - 1, -1):
                target = domain_index(tag, weight - m, charge + 1)
                matrix = verify.eval_matrix(tag, weight - m, charge + 1)
                for vec in kernel:
                    product = {
                        target[tuple(sorted((*monos[j], m)))]: c for j, c in vec.items()
                    }
                    products += 1
                    if matrix.matvec(product):
                        escapes.append((weight, charge, m))
    return products, escapes


@pytest.mark.parametrize("tag", TAGS)
def test_x_m_maps_the_kernel_into_the_kernel(tag):
    """x(m) ker E(w, k) lies in ker E(w - m, k + 1) for every m <= floor, to
    weight 14: the closure that lets the generators alone decide
    containment."""
    products, escapes = closure_escapes(tag, 14)
    assert products > 100 and escapes == []


def changed_entry(real):
    """E on the lambda0 piece (12, 3) with 1 added to its entry (0, 8), -2,
    which keeps every row the top of a column."""

    def matrix(tag, weight, charge):
        m = real(tag, weight, charge)
        if (tag, weight, charge) != ("lambda0", 12, 3):
            return m
        assert m.entries[(0, 8)] == -2
        return linalg.SparseMatQ(m.n_rows, m.n_cols, {**m.entries, (0, 8): -1})

    return matrix


def test_an_e_mutant_above_the_fock_check_breaks_the_closure(
    monkeypatch, ideal_rows_by_three_passes
):
    """One entry of E on the lambda0 piece (12, 3) changed.  The closure
    test rejects it: x(-6) R_6 and x(-3) R_9 leave its kernel.  So does
    the three-pass scan of every element, with a witness.  ``_ideal_side``
    takes the closure as proved and reads only the generators, on their
    own pieces, so it does not decline, and above ``FOCK_CHECK_WEIGHT`` nothing else in
    ``verify`` reads this E against another."""
    mutant = changed_entry(verify.eval_matrix)
    monkeypatch.setattr(verify, "eval_matrix", mutant)
    assert closure_escapes("lambda0", 14)[1] == [(6, 2, -6), (9, 2, -3)]
    matrix = mutant("lambda0", 12, 3)
    assert verify._full_row_rank(matrix)
    piece = ideal_piece("lambda0", 12, 3)
    assert scanned(ideal_rows_by_three_passes, "lambda0", piece, matrix)[0] is not None
    assert verify._ideal_side("lambda0", 12, 3, piece, matrix, {}) is not None


def without_balanced_term(rel):
    """A relation with its balanced term, its lead, set to zero."""
    return PolyQ({mono: c for mono, c in rel.terms.items() if mono != lead(rel)})


@pytest.mark.parametrize("tag", TAGS)
def test_a_moved_lead_declines_and_the_piece_is_scanned(
    monkeypatch, force_certificate_off, patch_relation, tag
):
    """R_10 with its balanced term x(-5)^2 set to zero keeps its bidegree,
    but its lead moves to x(-6)x(-4).  The lead check of
    ``_generator_lead`` declines it even against an E with no rows, which
    passes the real R_10.  Every piece with R_10 is then read from its
    coordinate rows, verify to weight 12 fails on (10, 2), and its report
    is the one of the rational path with the certificate forced off."""
    floor = IDEALS[tag].ambient_floor
    real = quadratic_relation(10, floor)
    patch_relation(10, without_balanced_term)
    moved = relations.quadratic_relation(10, floor)
    assert lead(real) == (-5, -5) and lead(moved) == (-6, -4)
    piece = ideal_piece(tag, 10, 2)
    no_rows = linalg.SparseMatQ(0, len(domain_index(tag, 10, 2)))
    assert verify._generator_lead(tag, real, (10, 2), no_rows) == (-5, -5)
    assert verify._generator_lead(tag, moved, (10, 2), no_rows) is None
    monkeypatch.setattr(verify, "fallbacks", 0)
    report = verify_presentation(tag, 12)
    failed = [(p.weight, p.charge) for p in report.pieces if not p.equality_ok]
    assert failed[0] == (10, 2) and verify.fallbacks >= 1
    force_certificate_off()
    assert verify_presentation(tag, 12) == report


def test_piece_report_weight_four_charge_two(span_equal):
    report = piece_report("lambda0", 4, 2)
    assert report.dim_domain == 2
    assert report.rank_eval == 1
    assert report.dim_kernel == 1
    assert report.dim_ideal_piece == 1
    assert report.containment_ok and report.equality_ok
    # the kernel is spanned by the weight-4 relation itself
    kernel = kernel_basis(eval_matrix("lambda0", 4, 2))
    basis = enumerate_monomials(4, 2, -1)
    expected = coordinates([quadratic_relation(4, -1)], basis)
    assert span_equal(kernel, expected, len(basis))


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


def test_kernel_containment_small(kernel_containment_L0_in_L1):
    assert kernel_containment_L0_in_L1(6)


def test_kernel_containment_fails_with_the_matrices_swapped(
    monkeypatch, kernel_containment_L0_in_L1
):
    """With the lambda0 and lambda1 matrices swapped the check asks whether
    ker E1 lies in ker E0, which fails at once: E1 kills x(-1), E0 does
    not."""
    real = verify.eval_matrix
    swap = {"lambda0": "lambda1", "lambda1": "lambda0"}
    monkeypatch.setattr(verify, "eval_matrix", lambda tag, *bidegree: real(swap[tag], *bidegree))
    assert not kernel_containment_L0_in_L1(1)
    assert not kernel_containment_L0_in_L1(6)


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


def test_graded_dims_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown module tag 'nope'"):
        graded_dims("nope", 4)


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


def test_ideal_derivation_stability_small(ideal_D_stability):
    assert ideal_D_stability(6)
    with pytest.raises(ValueError):
        ideal_D_stability(1)


def derive_without_the_index_factor(p):
    """The derivation with x(m) -> x(m-1), in place of -m * x(m-1)."""
    out = PolyQ()
    for mono, c in p.terms.items():
        for i, m in enumerate(mono):
            # PolyQ sorts the key again
            rest = mono[:i] + (m - 1,) + mono[i + 1 :]
            out = out + PolyQ({rest: c})
    return out


def test_ideal_derivation_stability_fails_without_the_index_factor(ideal_D_stability):
    """Without the factor -m the derivation sends R_3 = 2 x(-2) x(-1) to
    2 x(-3) x(-1) + 2 x(-2)^2, which is not a multiple of R_4."""
    assert derive_without_the_index_factor(quadratic_relation(3, -1)) == 2 * (
        x(-3) * x(-1) + x(-2) * x(-2)
    )
    assert ideal_D_stability(2, derive_without_the_index_factor)
    assert not ideal_D_stability(3, derive_without_the_index_factor)


def test_runs_are_deterministic():
    first = verify_presentation("lambda0", 5)
    second = verify_presentation("lambda0", 5)
    assert first.pieces == second.pieces
