"""Bigraded piece-by-piece verification that evaluation kernels equal ideal
spans, with an independent partition-count cross-check.

For each module tag the evaluation map sends a monomial in the generators to
its action on the highest weight vector e^{r alpha} of the lattice
realization; ``IdealSpec.two_r`` holds 2r, an integer like every exponent
below.  With the cocycle taken to be 1, the exponential formula of ``fock``
composes to the functional realization

    Y(e^alpha, z_1) ... Y(e^alpha, z_k) e^{r alpha}
        = prod_{i<j} (z_i - z_j)^2 prod_i z_i^{2r} Omega(z) e^{(r+k) alpha},

    Omega(z) = exp(sum_n a(-n) p_n(z) / n) = sum_lambda a(-lambda) p_lambda(z) / z_lambda,

and x(m_1)...x(m_k) reads off the coefficient of z^e, e_i = -m_i - 1.  So on
the piece of charge k, with d = ``heisenberg_size``, the coefficient of
a(-lambda) is phi(p_lambda) / z_lambda, where phi(g) is the functional
x(m_1)...x(m_k) -> [z^e] z^{2r} Delta^2 g and Delta^2 = prod_{i<j} (z_i -
z_j)^2.  The integer Fock matrix (``fock_matrix``) scales row lambda by
z_lambda, so that row is phi(p_lambda).  The p_lambda with lambda a
partition of d span the symmetric polynomials of degree d in k variables,
and so do the Schur polynomials s_mu = a_{mu+delta} / a_delta with mu a
partition of d into at most k parts, which are a basis (Macdonald,
Symmetric Functions and Hall Polynomials, I.3).  Here delta =
(k-1, ..., 1, 0), and a_lambda = sum_sigma sgn(sigma) z^{sigma lambda} is
the alternant, so a_delta = Delta.  Hence the rows phi(s_mu) of
``eval_matrix`` span the row space of the Fock matrix: the same kernel,
rank and reduced kernel basis, from p_{<=k}(d) rows instead of p(d).  phi
is injective, since multiplying by z^{2r} Delta^2 is and every exponent of
z^{2r} Delta^2 g, sorted, is that of a domain monomial, so the rows are
independent and the rank is the row count.

A row needs no Delta^2: Delta^2 s_mu = a_delta a_lambda with lambda = mu +
delta, and putting tau = sigma rho in the product of the two alternants,

    a_delta a_lambda = sum_rho sgn(rho) sum_sigma z^{sigma(delta + rho lambda)}.

The product is symmetric, so the entry of a column depends only on its
exponent f = e - 2r sorted decreasingly, and sigma(v) = f for exactly
|Stab f| permutations sigma when v sorts to f, for none otherwise:

    [z^f] a_delta a_lambda = |Stab f| sum_{rho : sort(delta + rho lambda) = f} sgn(rho).

So a row is k! sorted tuples, one per signed permutation of
``_signed_permutations``, and a piece is n_rows k! steps whatever its
column count n.

The rank, the row count, is proved on each matrix by ``_full_row_rank``,
from the matrix alone: every row is the least nonzero row of some column.  Pick one
such column c_i for each row i.  Column c_i is zero above row i, so the
minor on c_0, ..., c_{n-1} is lower triangular with a nonzero diagonal,
hence invertible over Q, and rank E = n_rows, dim ker E = n - n_rows.  A
wrong matrix makes the check decline, never pass.  It always closes on
``eval_matrix`` because of the difference-two (DT) columns.  Pad mu with
zeros to length k and add the staircase 2 delta = (2(k-1), ..., 2, 0): the
exponent e = mu + 2 delta belongs to the column x(m_1)...x(m_k), m_i =
-e_i - 1 - 2r, whose adjacent indices differ by at least two, the DT
column of mu.  In the lexicographic order of exponent tuples a_delta leads
with z^delta and a_lambda with z^lambda, each with coefficient 1, so
a_delta a_{mu+delta} leads with z^{mu + 2 delta}, coefficient 1, and a row
mu' <_lex mu has no monomial as high.  With the rows in lexicographic
order of the padded mu, the DT column of row i has 1 in row i and nothing
above it.

Containment is decided from the generators, as in the presentation by the
ideal that they generate, because x(m), m <= floor, maps ker E into ker E.
A row of E on (w', k + 1) is phi(s), s symmetric in k + 1 variables, and
on x(m) p it reads, for each monomial of p with exponents e in z_1, ...,
z_k, the coefficient of z^e z_{k+1}^{-m-1} of the symmetric z^{2r}
Delta_{k+1}^2 s.  As Delta_{k+1}^2 = Delta_k^2 prod_{i<=k} (z_i -
z_{k+1})^2, the coefficient of z_{k+1}^{-m-1} is z^{2r} Delta_k^2 h, h =
[z_{k+1}^{-m-1-2r}] prod_{i<=k} (z_i - z_{k+1})^2 s symmetric in z_1, ...,
z_k.  So phi(s)(x(m) p) = phi(h)(p), a functional in the row space of E on
(w, k), and every u * g lies in ker E once the generator g does on its own
piece.  A generator (R_t, or x(-1)) passes when its terms share one
bidegree with every index <= floor, its lead (below) is a balanced pair
x(a)x(b), b - a <= 1, or x(-1), and E on its own piece, (t, 2) or (1, 1),
kills it (``_kills``).  Its verdict is read once per run of
``verify_presentation``, from the E that the run builds on that piece, into
the run's ``Verdicts``; a piece reached out of order builds that E.  No verdict outlives its run,
so a patched spec, relation or E reaches the next one.  This takes E as
right: up to weight ``FOCK_CHECK_WEIGHT`` it is checked against the Fock
matrix, and the tests check the closure itself.  The same verdict on R_u
decides the vacuum half of ``fock.check_square_zero``: S_u e^0 is the
lambda0 evaluation of R_u (``square_kills_vacuum``).

The rank of the ideal rows I is bounded by the leads: the lead of a
nonzero row is its least term under the total order (sum of m_i^2, index
tuple), and rows with distinct leads are independent.  With rank E = n_rows,

    #distinct leads <= rank I <= dim ker E = n - n_rows,

the second step by containment, so #distinct leads >= n - n_rows makes
every number of the report exact with no elimination at all.  The leads
are counted, with no monomial built.  The lead of u * g is u * lead(g):
sum m_i^2 adds up, and sorted index tuples of one length compare by the
least index whose multiplicity differs.  A block's cofactors are every
monomial of their bidegree with indices <= the piece's floor
(``IdealPiece``), so when that floor is the ambient one and the bidegree
complements lead(g)'s, the block's leads are the domain monomials that
contain lead(g); a sorted index tuple contains a balanced pair a <= b
exactly when a and b are adjacent in it.  A domain monomial contains a
pair of weight t exactly when t is one of ``relations.pair_weights``, and
each t has one balanced pair, (-ceil(t/2), -floor(t/2)).  So when the
pair leads' weights cover ``pair_weights``, the monomials that carry no
lead are the DT ones, less those with x(-1) when x(-1) is a lead.  The
staircase 2 delta of E's DT columns, taken off, makes a DT monomial any
partition of w - k(k - 1) into k parts, each at least p = -floor, or 2
when x(-1) is a lead, so the count is n minus that partition count, two
``poly.count_monomials`` and never read from n_rows.  When the pair leads
miss a weight of ``pair_weights`` the piece is declined, whatever the
number of its leads: a block with no cofactor, say R_13 on (12, 4),
carries a lead weight but no lead.  With every R_t a generator the count
closes, because every non-DT monomial u is a lead: if u has adjacent
indices a, b with |a - b| <= 1 and u' is the rest of u, u is the unique
term of least sum m_i^2 in u' times the relation of weight -a - b.

A piece with a generator that fails, a block off the complement of its
generator's lead, or a floor other than the tag's is read from its
elements: ``poly.coordinate_rows`` builds each one once, and the witness is
the first whose row has a column outside the domain or a nonzero image
under E.  The piece then falls back to exact rational elimination on
those same rows, as does a piece where either half of the certificate
declines.  Up to weight ``FOCK_CHECK_WEIGHT`` the kernel basis is found in
any case and proved equal to the kernel of the Fock matrix, the direct
evaluation by the vertex operators (``_fock_check``).  ``fallbacks``
counts the pieces the certificate did not decide in this process and is
read by tests only, never by a report.  Failures are data (a report with a
witness), never exceptions.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .fock import apply_monomial, partitions
from .linalg import (
    SparseMatQ,
    Vector,
    kernel_basis,
    rank,
    span_dim,
)
from .poly import PolyQ, coordinate_rows, count_monomials, enumerate_monomials, fits
from .relations import IDEALS, IdealPiece, ideal_piece, pair_weights

TAGS = tuple(IDEALS)

# pieces that the certificate of piece_report did not decide, in this process
fallbacks = 0

# pieces up to this weight also check the kernel of eval_matrix against
# fock_matrix, the direct evaluation that it replaces
FOCK_CHECK_WEIGHT = 8


class PieceReport(NamedTuple):
    """One bidegree of the kernel-equals-ideal statement."""

    module_tag: str
    weight: int
    charge: int
    dim_domain: int
    rank_eval: int
    dim_kernel: int
    dim_ideal_piece: int
    containment_ok: bool
    equality_ok: bool
    witness: str | None = None


class VerificationRun(NamedTuple):
    module_tag: str
    max_weight: int
    pieces: list[PieceReport]

    @property
    def all_pass(self) -> bool:
        return all(p.equality_ok for p in self.pieces)


def charge_range(tag: str, weight: int) -> range:
    """The charges k <= weight / -floor: every factor has weight >= -floor."""
    return range(weight // -IDEALS[tag].ambient_floor + 1)


def heisenberg_size(tag: str, weight: int, charge: int) -> int:
    """|mu| of the target bidegree: weight + r^2 - (r + charge)^2."""
    return weight - charge * (charge + IDEALS[tag].two_r)


def fock_matrix(tag: str, weight: int, charge: int) -> SparseMatQ:
    """Matrix of the evaluation map on one bidegree in the Fock basis, in
    integers: columns are the domain monomials in canonical order, rows the
    partitions lambda of ``heisenberg_size`` in ``partitions`` order.
    Column j is the image of ``apply_monomial`` on the highest weight
    vector, so entry (lambda, j) is phi(p_lambda) of the module docstring,
    the exact coefficient of a(-lambda) e^{(r+k) alpha} times z_lambda.
    Scaling rows by nonzero numbers is an invertible row operation, so the
    kernel, the rank and the reduced row-echelon form, hence
    ``kernel_basis``, are those of the exact coefficients."""
    spec = IDEALS[tag]
    monos = enumerate_monomials(weight, charge, spec.ambient_floor)
    rows = partitions(heisenberg_size(tag, weight, charge), 1)
    entries = {
        (i, j): c
        for j, mono in enumerate(monos)
        for i, c in enumerate(apply_monomial(mono, spec.two_r))
        if c
    }
    return SparseMatQ(len(rows), len(monos), entries)


def _row_partitions(size: int, charge: int) -> tuple[tuple[int, ...], ...]:
    """The partitions mu of size into at most charge parts, padded with zeros
    to length charge, in lexicographic order: the Schur rows of ``eval_matrix``,
    whose DT columns then have nothing above them (see the module docstring).
    They are the floor -1 domain of (size + charge, charge) under mu_i = -m_i - 1,
    read backwards: ascending index tuples m list mu in descending lex order."""
    return tuple(
        tuple([-m - 1 for m in mono])
        for mono in reversed(enumerate_monomials(size + charge, charge))
    )


@functools.cache
def _signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation rho of range(k) with its sign sgn(rho)."""
    return tuple(
        (rho, (-1) ** sum(a > b for a, b in itertools.combinations(rho, 2)))
        for rho in itertools.permutations(range(k))
    )


def _stabilizer_order(f: tuple[int, ...]) -> int:
    """|Stab f|, the number of permutations that fix a sorted tuple f: the
    product of the factorials of its runs of equal entries."""
    order = run = 1
    for a, b in zip(f, f[1:]):
        run = run + 1 if a == b else 1
        order *= run
    return order


def eval_matrix(tag: str, weight: int, charge: int) -> SparseMatQ:
    """Matrix of the evaluation map on one bidegree in the functional
    realization: columns are the domain monomials in canonical order, and
    there is one row per partition mu of d = ``heisenberg_size`` into at
    most k = charge parts, in the order of ``_row_partitions``.  The entry
    of row mu and column x(m_1)...x(m_k) is the integer

        [z^e] z^{2r} Delta^2 s_mu(z_1, ..., z_k) = [z^f] a_delta a_{mu+delta},

    with e_i = -m_i - 1, 2r = two_r the doubled vacuum coordinate, f = e -
    2r sorted decreasingly, s_mu the Schur polynomial and a the alternants
    of the module docstring.  It is |Stab f| (``_stabilizer_order``) times
    the sum of sgn(rho) over the signed permutations rho of
    ``_signed_permutations`` with sort(delta + rho(mu + delta)) = f, so a
    row takes k! sorted tuples and Delta^2 is never expanded.  A tuple that
    is no domain column is skipped; only a wrong ideal spec makes one.  A
    piece with no rows builds no domain: its column count is
    ``count_monomials``.

    It has the row space of ``fock_matrix``, and so the same kernel, rank
    and reduced kernel basis.  Its rows are independent, so its rank is the
    row count, which ``_full_row_rank`` proves from the matrix (see the
    module docstring)."""
    spec = IDEALS[tag]
    # no partition of a negative size: the rows are empty, and neither the
    # domain nor the k! permutations, with k up to the weight, are built
    rows = _row_partitions(heisenberg_size(tag, weight, charge), charge)
    if not rows:
        return SparseMatQ(0, count_monomials(weight, charge, spec.ambient_floor), {})
    monos = enumerate_monomials(weight, charge, spec.ambient_floor)
    shift = 1 + spec.two_r
    column = {tuple([-m - shift for m in mono]): j for j, mono in enumerate(monos)}
    delta = range(charge - 1, -1, -1)
    signed = _signed_permutations(charge)
    entries: dict[tuple[int, int], int] = {}
    for i, mu in enumerate(rows):
        lam = [a + b for a, b in zip(mu, delta)]
        sums: dict[tuple[int, ...], int] = {}
        for rho, sign in signed:
            f = tuple(sorted([d + lam[p] for d, p in zip(delta, rho)], reverse=True))
            sums[f] = sums.get(f, 0) + sign
        for f, total in sums.items():
            j = column.get(f)
            if j is not None and total:
                entries[(i, j)] = total * _stabilizer_order(f)
    return SparseMatQ(len(rows), len(monos), entries)


def _lead_order(mono: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The total order (sum of m_i^2, index tuple) whose least term of a
    row is its lead."""
    return sum([m * m for m in mono]), mono


# The generator verdicts of one run: id(g) -> (g, its lead if g passes, else
# None).  Each entry holds g, so no other object takes its id meanwhile.
Verdicts = dict[int, tuple[PolyQ, tuple[int, ...] | None]]


def _generator_lead(
    tag: str, g: PolyQ, bidegree: tuple[int, int], matrix: SparseMatQ
) -> tuple[int, ...] | None:
    """The index tuple of the lead of a generator g if g passes, else None:
    its lead is x(-1) or a balanced pair x(a)x(b), b - a <= 1, and E on the
    lead's bidegree kills g (``_kills``; see the module docstring).
    ``matrix`` is E on ``bidegree``, and serves when that is g's own."""
    lead = min(g.terms, key=_lead_order, default=())
    charge, weight = len(lead), -sum(lead)
    if not (lead == (-1,) or len(lead) == 2 and lead[1] - lead[0] <= 1):
        return None
    own = (weight, charge) == bidegree
    return lead if _kills(tag, g, weight, charge, matrix if own else None) else None


def _kills(tag: str, g: PolyQ, weight: int, charge: int, matrix: SparseMatQ | None = None) -> bool:
    """Whether g lies in ker E on (weight, charge): its terms share that
    bidegree with every index <= floor, and E, ``matrix`` if given, else
    ``eval_matrix``, kills it.  The one way a generator is decided, so a
    zero g, which E kills, is declined here (``poly.fits``): it is no
    generator."""
    floor = IDEALS[tag].ambient_floor
    if not fits(g, weight, charge, floor):
        return False
    if matrix is None:
        matrix = eval_matrix(tag, weight, charge)
    column = {mono: j for j, mono in enumerate(enumerate_monomials(weight, charge, floor))}
    return not matrix.matvec({column[mono]: c for mono, c in g.terms.items()})


def square_kills_vacuum(u: int) -> bool:
    """S_u e^0 == 0, u >= 2, decided as E(lambda0, u, 2) kills R_u (see
    ``fock.check_square_zero``), with R_u read from the blocks of
    ``ideal_piece("lambda0", u, 2)``, so a patched relation or E reaches it."""
    return all(_kills("lambda0", g, u, 2) for g, _ in ideal_piece("lambda0", u, 2).blocks)


def _ideal_side(
    tag: str, weight: int, charge: int, piece: IdealPiece, matrix: SparseMatQ, verdicts: Verdicts
) -> int | None:
    """The distinct-lead count of ``piece``, given as the ideal piece of
    (weight, charge), if it lies in ker E, ``matrix`` being E on that
    domain, or None when the generators do not decide it.  If the piece's
    floor is the ambient one, every generator passes (``_generator_lead``,
    read once into ``verdicts``) and each block's cofactor bidegree plus
    its lead's bidegree is (weight, charge), whatever bidegree the piece
    carries, the piece lies in ker E.  If also the set of its pair leads'
    weights holds every t of ``pair_weights``, the leads are the domain
    monomials that are not DT, or that hold x(-1) when that is a lead, and
    their number is counted by the staircase (see the module docstring);
    otherwise the piece is declined."""
    floor = IDEALS[tag].ambient_floor
    if piece.floor != floor:
        return None
    leads = set()
    for g, (w, k) in piece.blocks:
        entry = verdicts.get(id(g))
        if entry is None:
            entry = verdicts[id(g)] = (g, _generator_lead(tag, g, (weight, charge), matrix))
        lead = entry[1]
        if lead is None or w - sum(lead) != weight or k + len(lead) != charge:
            return None
        leads.add(lead)
    if not {-sum(lead) for lead in leads if len(lead) == 2}.issuperset(
        pair_weights(weight, charge, floor)
    ):
        return None
    # the DT monomials, with no x(-1) if that is a lead, by the staircase
    dt_floor = -2 if (-1,) in leads else floor
    dt = count_monomials(weight - charge * (charge - 1), charge, dt_floor)
    return count_monomials(weight, charge, floor) - dt


def _full_row_rank(matrix: SparseMatQ) -> bool:
    """Whether every row of ``matrix`` is the least nonzero row of some
    column, which proves that its rank is its row count: one such column
    per row gives a lower triangular minor with a nonzero diagonal.  On
    ``eval_matrix`` the DT columns are such columns, so the check closes on
    every piece (see the module docstring)."""
    least: dict[int, int] = {}
    for i, j in matrix.entries:
        if least.get(j, i) >= i:
            least[j] = i
    return len(set(least.values())) == matrix.n_rows


def _fock_check(
    tag: str, weight: int, charge: int, matrix: SparseMatQ, kernel: list[Vector]
) -> tuple[bool, Vector | None]:
    """Whether ``matrix`` E, from ``eval_matrix``, has the kernel of the
    Fock matrix F, given the exact kernel basis of E.  Also returns a vector
    in one kernel and not the other, if there is one.

    Every basis vector is multiplied by F exactly, which proves ker E in
    ker F, and then equal ranks prove the two kernels equal.  If the rank
    of F is smaller, the kernels are equal exactly when E kills every
    vector of the kernel basis of F, and one it does not kill is returned."""
    fock = fock_matrix(tag, weight, charge)
    for vec in kernel:
        if fock.matvec(vec):
            return False, vec
    if rank(fock) == matrix.n_cols - len(kernel):
        return True, None
    wider = next((vec for vec in kernel_basis(fock) if matrix.matvec(vec)), None)
    return wider is None, wider


def piece_report(
    tag: str, weight: int, charge: int, verdicts: Verdicts | None = None
) -> PieceReport:
    """Compare the kernel of the evaluation map with the ideal piece.

    Containment is checked first, exactly, by ``_ideal_side``, from the
    generators (their verdicts in the run's ``verdicts``, or a new store).
    If it declines, each element is built once, into its coordinate row
    (``coordinate_rows``), and the first with a column outside the domain
    or a nonzero image under E is the witness.  Up to weight ``FOCK_CHECK_WEIGHT`` the kernel
    basis (``kernel_basis``) is checked against the Fock matrix
    (``_fock_check``), and a vector in one of the two kernels and not the
    other is the witness.  Given both, the certificate of the module
    docstring decides the piece: ``_full_row_rank`` gives dim ker E = n -
    n_rows, and the distinct leads of the ideal rows reach it.  It cannot
    close on a real failure, where rank I < dim ker E.  Otherwise the piece
    falls back to exact rational elimination, on the rows already built if
    ``_ideal_side`` declined: the kernel basis gives dim
    ker E unless ``_full_row_rank`` did, ``span_dim`` gives rank I, and a
    kernel vector outside the ideal span is the witness.  n is counted
    (``count_monomials``): the domain is enumerated only where it is read,
    for the coordinate rows and to render a witness."""
    global fallbacks
    floor = IDEALS[tag].ambient_floor
    n = count_monomials(weight, charge, floor)
    matrix = eval_matrix(tag, weight, charge)
    full_rank = _full_row_rank(matrix)
    ideal = ideal_piece(tag, weight, charge)
    leads = _ideal_side(tag, weight, charge, ideal, matrix, {} if verdicts is None else verdicts)
    witness = rows = None
    if leads is None:
        polys = list(ideal)
        rows = coordinate_rows(polys, enumerate_monomials(weight, charge, floor))
        witness = next(
            (
                str(p)
                for p, vec in zip(polys, rows[0])
                if max(vec, default=-1) >= n or matrix.matvec(vec)
            ),
            None,
        )
    containment_ok = witness is None
    kernel = None
    if weight <= FOCK_CHECK_WEIGHT or not full_rank:
        kernel = kernel_basis(matrix)
    dim_kernel = n - matrix.n_rows if kernel is None else len(kernel)
    fock_ok = True
    if weight <= FOCK_CHECK_WEIGHT:
        fock_ok, disagreement = _fock_check(tag, weight, charge, matrix, kernel)
        if disagreement is not None and witness is None:
            witness = _as_poly(disagreement, weight, charge, floor)
    kernel_ok = containment_ok and fock_ok
    equality_ok = kernel_ok and full_rank and leads is not None and leads >= dim_kernel
    dim_ideal = dim_kernel
    if not equality_ok:
        fallbacks += 1
        vecs, n_cols = rows or coordinate_rows(ideal, enumerate_monomials(weight, charge, floor))
        dim_ideal = span_dim(vecs, n_cols)
        equality_ok = kernel_ok and dim_ideal == dim_kernel
        if kernel_ok and not equality_ok:
            # containment makes the ideal span a subspace of the kernel, so
            # a mismatch means some kernel vector escapes the ideal span
            for vec in kernel_basis(matrix) if kernel is None else kernel:
                if span_dim([*vecs, vec], n_cols) > dim_ideal:
                    witness = _as_poly(vec, weight, charge, floor)
                    break
    return PieceReport(
        module_tag=tag,
        weight=weight,
        charge=charge,
        dim_domain=n,
        rank_eval=n - dim_kernel,
        dim_kernel=dim_kernel,
        dim_ideal_piece=dim_ideal,
        containment_ok=containment_ok,
        equality_ok=equality_ok,
        witness=witness,
    )


def _as_poly(vec: Vector, weight: int, charge: int, floor: int) -> str:
    """The rendering of a vector over the domain of (weight, charge)."""
    monos = enumerate_monomials(weight, charge, floor)
    return str(PolyQ({monos[j]: c for j, c in vec.items()}))


def _require_tag(tag: str) -> None:
    if tag not in TAGS:
        raise ValueError(f"unknown module tag {tag!r}")


def verify_presentation(tag: str, max_weight: int) -> VerificationRun:
    """Check kernel == ideal span on every bidegree up to max_weight, in
    order of weight and charge, so that each generator's verdict is read
    from the E of its own piece; the verdicts live for this run only."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    _require_tag(tag)
    verdicts: Verdicts = {}
    pieces = [
        piece_report(tag, weight, charge, verdicts)
        for weight in range(max_weight + 1)
        for charge in charge_range(tag, weight)
    ]
    return VerificationRun(tag, max_weight, pieces)


def graded_dims(tag: str, max_weight: int) -> dict[tuple[int, int], int]:
    """Rank of the evaluation map per bidegree, i.e. the graded dimensions
    of the image module: the row count of ``eval_matrix`` where
    ``_full_row_rank`` proves it, and its rational ``rank`` otherwise."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    _require_tag(tag)
    dims: dict[tuple[int, int], int] = {}
    for weight in range(max_weight + 1):
        for charge in charge_range(tag, weight):
            m = eval_matrix(tag, weight, charge)
            dims[(weight, charge)] = m.n_rows if _full_row_rank(m) else rank(m)
    return dims


def weight_totals(dims: dict[tuple[int, int], int], max_weight: int) -> list[int]:
    totals = [0] * (max_weight + 1)
    for (weight, _), d in dims.items():
        if weight <= max_weight:
            totals[weight] += d
    return totals


def partition_oracle(n: int, k: int, min_part: int = 1) -> int:
    """Number of partitions of n into exactly k parts, each >= min_part,
    pairwise difference >= 2.  Direct recursive enumeration, independent of
    the ideals and of the Fock machinery."""
    if n < 0 or k < 0 or min_part < 1:
        raise ValueError("need n, k >= 0 and min_part >= 1")

    def count(remaining: int, parts_left: int, smallest: int) -> int:
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        total = 0
        for part in range(smallest, remaining + 1):
            total += count(remaining - part, parts_left - 1, part + 2)
        return total

    return count(n, k, min_part)


def oracle_weight_total(n: int, min_part: int = 1) -> int:
    """Total difference-two partition count of n over all lengths."""
    total = 0
    k = 0
    while k * min_part + k * (k - 1) <= n:
        total += partition_oracle(n, k, min_part)
        k += 1
    return total
