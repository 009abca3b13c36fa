"""Quadratic relation families and the graded pieces of the ideals they
generate, plus the polynomial identities the inductive kernel argument
rests on.

The relation R_t of weight t sums x(m1)x(m2) over ordered pairs m1 + m2 =
-t with both indices bounded by a floor (-1 or -2), so as a commutative
polynomial a distinct pair carries coefficient 2 and a repeated index
coefficient 1.  Each ideal is generated by the R_t at the floor of its
subalgebra, for t >= -2 * floor, and for lambda1 also by x(-1).  Ideal
pieces are spanning sets, never pre-reduced; rank reduction is the
caller's job.  A piece (``IdealPiece``) is held as blocks of one generator
and the bidegree of its cofactors, every monomial of that bidegree with
indices <= the floor; each u * g is built only when the piece is iterated,
and its size is counted (``poly.count_monomials``), not enumerated.  The
R_t of a piece are those of ``pair_weights``, whose cofactor bidegree has a
monomial.

The inclusion of the translated lambda0 ideal in the lambda1 ideal is
decided on the generators (``translate_ideal_inclusion``): ``translate`` is
a ring map and sends floor -1 cofactors to floor -1 cofactors, so each
generator's image, one rank comparison on at most three rows, carries every
piece.  A generator is decided as ``verify`` decides one (``poly.fits``),
so a relation with a term off its bidegree fails the inclusion, and the
target rows are read over the domain and any monomial outside it
(``poly.coordinate_rows``).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .linalg import subspace_leq
from .poly import (
    PolyQ,
    coordinate_rows,
    coordinates,
    count_monomials,
    derive,
    enumerate_monomials,
    fits,
    has_monomials,
    translate,
    x,
)


@functools.cache
def quadratic_relation(t: int, floor: int = -1) -> PolyQ:
    """Sum of x(m1)x(m2) over ordered pairs with m1 + m2 = -t, both <= floor.

    Homogeneous of weight t and charge 2; defined for t >= 2*|floor|.  Each
    relation is built once and shared by every caller, which must not
    change its terms.
    """
    if floor not in (-1, -2):
        raise ValueError("floor must be -1 or -2")
    if t < -2 * floor:
        raise ValueError(f"weight {t} below the minimum {-2 * floor} for floor {floor}")
    terms: dict[tuple[int, ...], int] = {}
    m2 = floor
    while 2 * m2 >= -t:
        m1 = -t - m2
        terms[(m1, m2)] = 1 if m1 == m2 else 2
        m2 -= 1
    return PolyQ(terms)


class IdealSpec(NamedTuple):
    """What tells the presentations apart: the floor of the subalgebra, at
    which the R_t with t >= -2 * floor generate the ideal; whether x(-1)
    does too; and 2r for the vacuum e^{r alpha} of the evaluation map."""

    ambient_floor: int
    includes_degree_one_generator: bool
    two_r: int


# the degree-one generator of lambda1, one object shared by every piece
X_MINUS_ONE = x(-1)

IDEALS: dict[str, IdealSpec] = {
    "lambda0": IdealSpec(-1, False, 0),
    "lambda1": IdealSpec(-1, True, 1),
    "lambda1prime": IdealSpec(-2, False, 1),
}


class IdealPiece:
    """The spanning set of one (weight, charge) ideal piece, as blocks.

    ``blocks`` holds, in order, pairs (g, (w, k)): a generator g (an R_t
    or x(-1)) and the bidegree of its cofactors, which are all of
    ``enumerate_monomials(w, k, floor)``; their products u * g, in that
    order, are the piece's elements.  ``len`` is the size of the spanning
    set, counted from the blocks (``count_monomials``) when it is read, so
    no cofactor is enumerated for it.  Iteration enumerates the cofactors
    and builds each element as the ``PolyQ`` product u * g.
    """

    def __init__(
        self, weight: int, charge: int, floor: int, blocks: list[tuple[PolyQ, tuple[int, int]]]
    ):
        self.weight = weight
        self.charge = charge
        self.floor = floor
        self.blocks = tuple(blocks)

    def __len__(self) -> int:
        return sum([count_monomials(w, k, self.floor) for _, (w, k) in self.blocks])

    def __iter__(self):
        for g, (w, k) in self.blocks:
            for u in enumerate_monomials(w, k, self.floor):
                yield PolyQ({u: 1}) * g


def pair_weights(weight: int, charge: int, floor: int) -> range:
    """The weights t of the pairs x(a)x(b), a, b <= floor, that divide some
    monomial of (weight, charge) with indices <= floor: those whose
    cofactor bidegree (weight - t, charge - 2) has a monomial
    (``has_monomials``).  For charge 2 that is t = weight alone, from -2 *
    floor on; above it, every t from -2 * floor to weight + (charge - 2) *
    floor; below it, none."""
    if charge == 2:
        return range(weight, weight + 1) if weight >= -2 * floor else range(0)
    if charge > 2:
        return range(-2 * floor, weight + (charge - 2) * floor + 1)
    return range(0)


def ideal_piece(tag: str, weight: int, charge: int) -> IdealPiece:
    """Spanning set of the (weight, charge) piece of the ideal.

    Every element is bihomogeneous of the requested bidegree; the spanning
    set is deterministic (relation weight ascending, then cofactor order) and
    may be linearly dependent.  Empty pieces have no elements.  The blocks
    are the R_t at the floor for t in ``pair_weights``, ascending, each with
    the cofactor bidegree (weight - t, charge - 2), then x(-1) with (weight
    - 1, charge - 1) if it is a generator and that bidegree has a monomial
    (``has_monomials``).  The spec and the relations are read on every
    call, and the elements are built only when the piece is iterated (see
    ``IdealPiece``).
    """
    spec = IDEALS[tag]
    floor = spec.ambient_floor
    blocks = [
        (quadratic_relation(t, floor), (weight - t, charge - 2))
        for t in pair_weights(weight, charge, floor)
    ]
    if spec.includes_degree_one_generator and has_monomials(weight - 1, charge - 1, floor):
        blocks.append((X_MINUS_ONE, (weight - 1, charge - 1)))
    return IdealPiece(weight, charge, floor, blocks)


def check_translate_relation(t: int) -> bool:
    """Shift of the floor -1 relation of weight t lands two weights higher,
    up to a correction divisible by x(-1).  Exact polynomial identity."""
    lhs = translate(quadratic_relation(t, -1), 1)
    rhs = quadratic_relation(t + 2, -1) - 2 * (x(-t - 1) * x(-1))
    return lhs == rhs


def check_lift_identity(t: int) -> bool:
    """Lifting a floor -2 relation through the half-lattice map, written
    multiplicatively: translate(rel) * x(-1) equals the three-term
    combination of floor -1 relations.  Exact, for t >= 4."""
    lhs = translate(quadratic_relation(t, -2), 1) * x(-1)
    rhs = (
        quadratic_relation(t + 2, -1) * x(-1)
        - x(-t) * quadratic_relation(3, -1)
        - 2 * (x(-t - 1) * quadratic_relation(2, -1))
    )
    return lhs == rhs


def check_derive_relation(t: int) -> bool:
    """derive maps the weight-t relation to (t-1) times the weight-(t+1)
    relation, both at floor -1."""
    return derive(quadratic_relation(t, -1)) == (t - 1) * quadratic_relation(t + 1, -1)


def translate_ideal_inclusion(max_weight: int) -> bool:
    """translate(I0) lies in I1 on every piece: the translate of the lambda0
    ideal piece at (weight, charge) lies in the lambda1 ideal piece at
    (weight + charge, charge), for every weight <= max_weight.

    Decided on the generators, each once: for every generator g of the
    lambda0 ideal of weight <= max_weight, translate(g) lies in the lambda1
    piece of its bidegree, one ``subspace_leq`` on at most three rows (for
    R_t: translate(R_t), R_{t+2} and x(-1) x(-t-1)).  The generators are
    read from the blocks of ``ideal_piece("lambda0", t, 2)``, 2 <= t <=
    max_weight, and of ``("lambda0", 1, 1)``, so a patched spec or
    relation reaches the check.

    That proves every piece.  An element of a lambda0 piece is a sum of
    u * g, u a floor -1 cofactor, and ``translate`` is a ring map, so
    translate(u * g) = translate(u) * translate(g).  translate(u) has every
    index <= -2, so it is again a cofactor of either floor, and the lambda1
    piece spans every cofactor times every element of the piece of
    translate(g).  Conversely the piece of g's own bidegree holds 1 * g, so a
    failing generator fails that piece: the statement is the same."""
    bidegrees = [(t, 2) for t in range(2, max_weight + 1)]
    if max_weight >= 1:
        bidegrees.append((1, 1))
    generators: list[PolyQ] = []
    for weight, charge in bidegrees:
        for g, _ in ideal_piece("lambda0", weight, charge).blocks:
            if g not in generators:
                generators.append(g)
    for g in generators:
        shifted = translate(g, 1)
        # a generator has one bidegree, so any of its terms gives it
        mono = next(iter(shifted.terms), ())
        weight, charge = -sum(mono), len(mono)
        if not fits(shifted, weight, charge, -1):
            return False
        basis = enumerate_monomials(weight, charge, -1)
        target, n_cols = coordinate_rows(ideal_piece("lambda1", weight, charge), basis)
        if not subspace_leq(coordinates([shifted], basis), target, n_cols):
            return False
    return True
