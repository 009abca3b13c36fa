"""Fixtures shared by the test modules.  Each returns a function, so a
test can call it partway through."""

import functools
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from principal_subspaces import cli, fock, relations, verify
from principal_subspaces.fock import partitions
from principal_subspaces.linalg import SparseMatQ, kernel_basis, subspace_leq
from principal_subspaces.poly import (
    PolyQ,
    coordinates,
    derive,
    enumerate_monomials,
    has_monomials,
    x,
)


@pytest.fixture
def plain_report():
    """Turn a report's ``cli.Table`` values into their lists of JSON row
    dicts, each row filled into its layout by field name."""

    def fill(layout, fields, row):
        return {
            key: row[fields.index(key)] if leaf is None else fill(leaf, fields, row)
            for key, leaf in layout.items()
        }

    def plain(report):
        return {
            key: [fill(value.layout, value.fields, row) for row in value.rows]
            if isinstance(value, cli.Table)
            else value
            for key, value in report.items()
        }

    return plain


@pytest.fixture
def json_oracle(monkeypatch, plain_report):
    """Compare each report the cli writes as JSON with ``json.dumps(...,
    indent=2)`` of its plain form, the writer's oracle, as it is written;
    the list returned holds the reports compared."""
    compared = []
    dumps = cli._dumps

    def checked(report):
        text = dumps(report)
        assert text == json.dumps(plain_report(report), indent=2)
        compared.append(report)
        return text

    monkeypatch.setattr(cli, "_dumps", checked)
    return compared


@pytest.fixture
def force_certificate_off(monkeypatch):
    """Make the halves of the certificate of ``piece_report`` decline on
    every piece, from the call on: the row-rank check
    ``verify._full_row_rank``, and the lead count of
    ``verify._ideal_side``, which then declines every piece, so each is read
    from its coordinate rows (the witness is still found).  Each half can
    be left on with ``minor=False`` or ``leads=False``."""

    def force(minor=True, leads=True):
        if minor:
            monkeypatch.setattr(verify, "_full_row_rank", lambda *args: False)
        if leads:
            monkeypatch.setattr(verify, "_ideal_side", lambda *args: None)

    return force


@pytest.fixture
def floor_minus_one_piece():
    """The lambda1prime ideal piece with the floor -1 relations: blocks of
    R_t at floor -1, for t from 2, with their floor -2 cofactor bidegree
    (weight - t, charge - 2) where it has a monomial, in the order of
    ``ideal_piece``.  Other tags keep their own pieces."""

    def piece(tag, weight, charge):
        if tag != "lambda1prime":
            return relations.ideal_piece(tag, weight, charge)
        blocks = [
            (relations.quadratic_relation(t, -1), (weight - t, charge - 2))
            for t in range(2, weight + 1)
            if has_monomials(weight - t, charge - 2, -2)
        ]
        return relations.IdealPiece(weight, charge, -2, blocks)

    return piece


@functools.cache
def _vandermonde_squared(k):
    """The coefficients of prod_{i<j} (z_i - z_j)^2 in k variables, keyed
    by exponent tuple."""
    poly = {(0,) * k: 1}
    for i, j in itertools.combinations(range(k), 2):
        for _ in range(2):
            out = {}
            for e, c in poly.items():
                for var, sign in ((i, c), (j, -c)):
                    f = e[:var] + (e[var] + 1,) + e[var + 1 :]
                    out[f] = out.get(f, 0) + sign
            poly = {f: c for f, c in out.items() if c}
    return poly


@pytest.fixture
def vandermonde_squared():
    """The Delta^2 table of ``eval_matrix_by_monomial_rows``, as a function
    of k."""
    return _vandermonde_squared


@pytest.fixture
def eval_matrix_by_monomial_rows():
    """The functional matrix with the monomial symmetric rows m_nu in place
    of the Schur rows of ``verify.eval_matrix``, nu running over
    ``verify._row_partitions``: the entry of row nu and column e is the sum
    of the Delta^2 coefficients at e - 2r - a over the distinct
    permutations a of nu.  The m_nu and the s_mu span the same symmetric
    polynomials, so the two matrices have one row space."""

    def build(tag, weight, charge):
        spec = relations.IDEALS[tag]
        monos = enumerate_monomials(weight, charge, spec.ambient_floor)
        size = verify.heisenberg_size(tag, weight, charge)
        orbits = [
            sorted(set(itertools.permutations(nu)))
            for nu in verify._row_partitions(size, charge)
        ]
        entries = {}
        if orbits:
            delta2 = _vandermonde_squared(charge)
            shift = 1 + spec.two_r
            for j, mono in enumerate(monos):
                e = [-m - shift for m in mono]
                for i, orbit in enumerate(orbits):
                    v = sum(
                        delta2.get(tuple(ei - ai for ei, ai in zip(e, a)), 0)
                        for a in orbit
                    )
                    if v:
                        entries[(i, j)] = v
        return SparseMatQ(len(orbits), len(monos), entries)

    return build


@pytest.fixture
def monomials_by_descent():
    """The index tuples of the monomials of ``poly.enumerate_monomials``
    by a recursive descent over the parts, largest first: each part from
    the largest that the parts before it and the parts still to come allow
    down to the smallest, so the tuples come in ascending order."""

    def monomials(weight, charge, floor):
        min_part = -floor
        out = []

        def descend(remaining, parts_left, cap, prefix):
            if parts_left == 0:
                if remaining == 0:
                    out.append(tuple(prefix))
                return
            hi = min(cap, remaining - (parts_left - 1) * min_part)
            lo = max(min_part, -(-remaining // parts_left))
            for part in range(hi, lo - 1, -1):
                descend(remaining - part, parts_left - 1, part, prefix + [-part])

        descend(weight, charge, weight, [])
        return out

    return monomials


@pytest.fixture
def ideal_rows_by_three_passes():
    """The ideal rows of ``poly.coordinate_rows``, the index of the
    witness that ``verify.piece_report`` reads from them on a piece that
    ``verify._ideal_side`` declines, and the lead count that
    ``_ideal_side`` gives where it does not decline, by three separate passes
    over the polynomials: each one's coordinate row, with its outside
    columns numbered in order of first appearance; then
    ``SparseMatQ.matvec`` on each row until the first one with an outside
    column or a nonzero image, the witness; then a scan of every row for
    its least key sum(m_i^2) * n + j.  The lead count is None when a row
    leaves the domain, where the scan has no key for the column."""

    def rows(polys, domain, matrix):
        n = len(domain)
        outside = {}
        vecs = []
        for p in polys:
            vec = {}
            for mono, c in p.terms.items():
                j = domain.get(mono)
                if j is None:
                    j = outside.setdefault(mono, n + len(outside))
                vec[j] = c
            vecs.append(vec)
        witness = None
        for i, vec in enumerate(vecs):
            if max(vec, default=-1) >= n or matrix.matvec(vec):
                witness = i
                break
        leads = None
        if not outside:
            keys = [sum(m * m for m in indices) * n + j for indices, j in domain.items()]
            leads = len({min(keys[j] for j in vec) for vec in vecs if vec})
        return vecs, n + len(outside), witness, leads

    return rows


@pytest.fixture
def kernel_containment_L0_in_L1():
    """Whether the kernel of the lambda0 evaluation sits inside the lambda1
    kernel, bidegree by bidegree, to max_weight: on their shared floor -1
    domain, E1 kills every vector of the kernel basis of E0.  E is read
    through ``verify``, so a patched ``eval_matrix`` reaches it."""

    def contained(max_weight):
        for weight in range(max_weight + 1):
            for charge in range(weight + 1):
                kernel = kernel_basis(verify.eval_matrix("lambda0", weight, charge))
                e1 = verify.eval_matrix("lambda1", weight, charge)
                if any(map(e1.matvec, kernel)):
                    return False
        return True

    return contained


@pytest.fixture
def patch_relation(monkeypatch):
    """Replace the relation of one weight, at either floor, by change(R_t)
    in ``relations.quadratic_relation``, from the call on."""

    def patch(weight, change):
        original = relations.quadratic_relation
        monkeypatch.setattr(
            relations,
            "quadratic_relation",
            lambda t, floor=-1: change(original(t, floor)) if t == weight else original(t, floor),
        )

    return patch


@pytest.fixture
def ideal_piece_by_products():
    """The spanning set of ``ideal_piece`` as a list, by the general
    ``PolyQ`` product: each cofactor times each R_t at the floor, t
    ascending, then each cofactor times x(-1) if it is a generator.  The
    spec and the relations are read through ``relations``, so a patched
    one reaches it."""

    def piece(tag, weight, charge):
        spec = relations.IDEALS[tag]
        floor = spec.ambient_floor
        generators = []
        if charge >= 2:
            generators += [
                (t, 2, relations.quadratic_relation(t, floor))
                for t in range(-2 * floor, weight + 1)
            ]
        if spec.includes_degree_one_generator:
            generators.append((1, 1, x(-1)))
        return [
            PolyQ({u: 1}) * gen
            for t, k, gen in generators
            for u in enumerate_monomials(weight - t, charge - k, floor)
        ]

    return piece


@pytest.fixture
def span_equal():
    """Whether two families of sparse vectors in n_cols columns span the
    same space: ``linalg.subspace_leq`` both ways."""

    def equal(a, b, n_cols):
        return subspace_leq(a, b, n_cols) and subspace_leq(b, a, n_cols)

    return equal


@pytest.fixture
def drop_minus_one_terms():
    """The projection onto the subalgebra with indices <= -2: every term
    containing x(-1) deleted.  Defined only on input supported on indices
    <= -1, and raises ``ValueError`` otherwise."""

    def drop(p):
        out = {}
        for mono, c in p.terms.items():
            if mono and mono[-1] >= 0:
                raise ValueError("projection requires all generator indices <= -1")
            if not mono or mono[-1] != -1:
                out[mono] = c
        return PolyQ(out)

    return drop


@pytest.fixture
def translate_inclusion_by_pieces():
    """Whether translate of the lambda0 ideal piece at (weight, charge)
    lies in the lambda1 ideal piece at (weight + charge, charge), by
    coordinate rows of every element over the floor -1 domain and rational
    elimination: the piece-by-piece oracle of
    ``relations.translate_ideal_inclusion``.  The spec, the relations and
    ``translate`` are read through ``relations``, so a patched one reaches
    it."""

    def included(weight, charge):
        source = relations.ideal_piece("lambda0", weight, charge)
        if not source:
            return True
        basis = enumerate_monomials(weight + charge, charge, -1)
        shifted = coordinates([relations.translate(p, 1) for p in source], basis)
        target = coordinates(relations.ideal_piece("lambda1", weight + charge, charge), basis)
        return subspace_leq(shifted, target, len(basis))

    return included


@pytest.fixture
def ideal_D_stability():
    """Whether the derivation maps each lambda0 ideal piece of weight 2 to
    max_weight into the piece one weight higher, by coordinate rows and
    rational elimination; ``derive`` may be replaced by a mutant."""

    def stable(max_weight, derive=derive):
        if max_weight < 2:
            raise ValueError("max_weight must be >= 2")
        for weight in range(2, max_weight + 1):
            for charge in range(2, weight + 1):
                piece = relations.ideal_piece("lambda0", weight, charge)
                if not piece:
                    continue
                basis = enumerate_monomials(weight + 1, charge, -1)
                derived = coordinates([derive(p) for p in piece], basis)
                target = coordinates(relations.ideal_piece("lambda0", weight + 1, charge), basis)
                if not subspace_leq(derived, target, len(basis)):
                    return False
        return True

    return stable


# The exponential formula for x(m), the oracle for the recursion that
# defines the x(m) tables of fock: exp(+sum a(-n) x^n / n) exp(-sum a(n)
# x^-n / n) on (mu; r), shifted to r + 1, times x^(2r), read at x^(-m-1).


@functools.cache
def _annihilation_terms(mu):
    """exp(-sum a(n)/n x^-n) on the state with partition mu: triples
    (removed size, remaining parts, integer coefficient)."""
    results = [(0, (), 1)]
    for part, mult in sorted(Counter(mu).items()):
        results = [
            (
                removed + k * part,
                kept + (part,) * (mult - k),
                coeff * (-2) ** k * math.comb(mult, k),
            )
            for removed, kept, coeff in results
            for k in range(mult + 1)
        ]
    return tuple(results)


@functools.cache
def _partitions_with_z(n):
    """(lambda, z_lambda) for every partition lambda of n, with z_lambda
    computed here, not read from fock."""
    return tuple(
        (lam, math.prod(p**k * math.factorial(k) for p, k in Counter(lam).items()))
        for lam in partitions(n, 1)
    )


@functools.cache
def _x_on_state_by_exponential(m, two_r, mu):
    """x(m) on the basis state (mu; two_r/2) as {lambda: Fraction}, the
    coefficients of the states (lambda; two_r/2 + 1) in the basis
    a(-lambda)."""
    degree_max = -m - 1 - two_r + sum(mu)
    if degree_max < 0:
        return {}
    # every z-factor of a created partition divides degree_max!
    scale = math.factorial(degree_max)
    acc = {}
    for removed, kept, ann_coeff in _annihilation_terms(mu):
        degree = -m - 1 - two_r + removed
        for lam, z in _partitions_with_z(degree):
            target = tuple(sorted(kept + lam))
            acc[target] = acc.get(target, 0) + ann_coeff * (scale // z)
    return {lam: Fraction(n, scale) for lam, n in acc.items() if n}


def _x_by_exponential(m, v):
    """x(m) on a Fock vector {(two_r, mu): coefficient}, in the basis
    a(-mu), every image from the exponential formula."""
    out = {}
    for (two_r, mu), c in v.items():
        for lam, q in _x_on_state_by_exponential(m, two_r, mu).items():
            key = (two_r + 2, lam)
            out[key] = out.get(key, 0) + c * q
    return {key: c for key, c in out.items() if c}


@pytest.fixture
def x_by_exponential():
    """x(m) on a Fock vector {(two_r, mu): coefficient}, a dict over the
    states (mu; two_r/2) of the basis a(-mu), with mu non-decreasing:
    the image from the exponential formula, in the same form."""
    return _x_by_exponential


# The vacuum half of the square-zero lemma by the x(m) tables of fock, the
# oracle for its decision in verify by E(lambda0, u, 2) R_u: S_u e^0 from
# x(m) on h_j(a) e^alpha, built by Newton's identity.


class NewtonOracle:
    """S_u e^0 == 0 from the x(m) tables.  The first factor of a pair gives
    x(m1) e^0 = h_j(a) e^alpha, j = -m1 - 1 (the base case of the
    recursion), with h_j(a) = sum_{mu |- j} a(-mu)/z_mu, and ``x_on_h``
    tabulates V(s, j) = j! x(m) h_j(a) e^{r alpha} for every m + 2r = s, on
    the states (lambda; r + 1) in the basis a(-lambda)/z_lambda.  Newton's
    identity (Macdonald I.2), j h_j = sum_{n=1..j} p_n h_{j-n}, and
    x(m) a(-n) = a(-n) x(m) - 2 x(m-n) give

        V(s, j) = sum_n (j-1)!/(j-n)! a(-n) V(s, j-n) - 2 U(s, j),

    from V(s, 0) = ``fock._x_on_state(s, ())``, with a(-n) by
    ``fock._insert_part``.  The shifted half U(s, j) = sum_{n=1..j}
    (j-1)!/(j-n)! V(s-n, j-n) is the table ``x_on_h_shifted``, by
    U(s, 1) = V(s-1, 0) and U(s, j) = V(s-1, j-1) + (j-1) U(s-1, j-1).

    Each table is a cache of this object, so a new oracle starts empty.
    The recursion reads both tables and the Newton weight ``perm`` through
    the object, and ``_PAIRING``, the vacuum images and ``_insert_part``
    through ``fock``, so a mutant of any of them reaches every entry built
    after it."""

    def __init__(self):
        self.perm = math.perm
        self.x_on_h = functools.cache(self._x_on_h)
        self.x_on_h_shifted = functools.cache(self._x_on_h_shifted)

    def _x_on_h(self, s, j):
        if not j:
            return fock._x_on_state(s, ())
        size = j - s - 1
        if size < 0:
            return ()
        shifted = self.x_on_h_shifted(s, j)
        acc = [-fock._PAIRING * c for c in shifted] or [0] * len(partitions(size, 1))
        for n in range(1, j + 1):
            created = self.x_on_h(s, j - n)
            if created:
                weight = self.perm(j - 1, n - 1)
                positions, weights = fock._insert_part(size - n, n)
                for i, w, c in zip(positions, weights, created):
                    acc[i] += weight * w * c
        return tuple(acc) if any(acc) else ()

    def _x_on_h_shifted(self, s, j):
        head = self.x_on_h(s - 1, j - 1)
        tail = self.x_on_h_shifted(s - 1, j - 1) if j > 1 else ()
        if not tail:
            return head
        if not head:
            return tuple((j - 1) * c for c in tail)
        acc = [a + (j - 1) * c for a, c in zip(head, tail)]
        return tuple(acc) if any(acc) else ()

    def vacuum_kills(self, u):
        """S_u e^0 == 0, summed over the pairs m2 <= m1 <= -1, m1 + m2 = -u,
        with the pair factors 2 and 1.  The pair (m1, m2) reads
        V(m2 + 2, j), j = -m1 - 1, from ``x_on_h``.  j runs up from 0 over
        the pairs, and the sum A_j = j A_{j-1} + (pair factor) V(m2 + 2, j)
        carries the pair j times J!/j!, J the last j, so A_J = J! S_u e^0
        in the basis a(-lambda)/z_lambda: every multiplier is a positive
        integer, so the list is zero exactly when S_u e^0 is."""
        acc = []
        for j, m2 in enumerate(range(1 - u, (-u) // 2 + 1)):
            image = self.x_on_h(m2 + 2, j)
            n = 1 if 2 * m2 == -u else 2
            if not acc:
                acc = [n * c for c in image]
            elif image:
                acc = [j * a + n * c for a, c in zip(acc, image)]
            else:
                acc = [j * a for a in acc]
        return not any(acc)


@pytest.fixture
def newton_oracle():
    """``NewtonOracle``, the class: each call builds an oracle with empty
    tables."""
    return NewtonOracle
