"""Quadratic relation families and the graded pieces of the ideals they
generate, plus the polynomial identities the inductive kernel argument
rests on.

The relation of weight t sums x(m1)x(m2) over ordered pairs m1 + m2 = -t
with both indices bounded by a floor (-1 or -2), so as a commutative
polynomial a distinct pair carries coefficient 2 and a repeated index
coefficient 1.  Ideal pieces are returned as spanning sets, never
pre-reduced; rank reduction is the caller's job.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import subspace_leq
from .poly import (
    Monomial,
    PolyQ,
    coordinates,
    derive,
    enumerate_monomials,
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
    terms: dict[Monomial, int] = {}
    m2 = floor
    while 2 * m2 >= -t:
        m1 = -t - m2
        terms[Monomial((m1, m2))] = 1 if m1 == m2 else 2
        m2 -= 1
    return PolyQ(terms)


@dataclass(frozen=True)
class IdealSpec:
    """Which relations generate the ideal, inside which subalgebra, and the
    lattice coordinate r of the highest weight vector e^{r alpha} that the
    evaluation map acts on."""

    tag: str
    ambient_floor: int
    relation_floor: int
    relation_weight_min: int
    includes_degree_one_generator: bool
    vacuum_r: Fraction


IDEALS: dict[str, IdealSpec] = {
    "lambda0": IdealSpec("lambda0", -1, -1, 2, False, Fraction(0)),
    "lambda1": IdealSpec("lambda1", -1, -1, 2, True, Fraction(1, 2)),
    "lambda1prime": IdealSpec("lambda1prime", -2, -2, 4, False, Fraction(1, 2)),
}


def ideal_piece(tag: str, weight: int, charge: int) -> list[PolyQ]:
    """Spanning set of the (weight, charge) piece of the ideal.

    Every returned element is bihomogeneous of the requested bidegree; the
    list is deterministic (relation weight ascending, then cofactor order)
    and may be linearly dependent.  Empty pieces give [].
    """
    spec = IDEALS[tag]
    out: list[PolyQ] = []
    if weight < 0 or charge < 1:
        return out
    if charge >= 2:
        for t in range(spec.relation_weight_min, weight + 1):
            rel = quadratic_relation(t, spec.relation_floor)
            for u in enumerate_monomials(weight - t, charge - 2, spec.ambient_floor):
                out.append(_monomial_times(u, rel))
    if spec.includes_degree_one_generator:
        gen = x(-1)
        for u in enumerate_monomials(weight - 1, charge - 1, spec.ambient_floor):
            out.append(_monomial_times(u, gen))
    return out


def _monomial_times(u: Monomial, p: PolyQ) -> PolyQ:
    """u * p without the general product: multiplying distinct monomials by
    one monomial gives distinct monomials, so no coefficients combine."""
    return PolyQ._from_terms({u * m: c for m, c in p.terms.items()})


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


def check_translate_ideal_inclusion(weight: int, charge: int) -> bool:
    """The translate of the lambda0 ideal piece at (weight, charge) lies in
    the lambda1 ideal piece at (weight + charge, charge)."""
    source = ideal_piece("lambda0", weight, charge)
    if not source:
        return True
    basis = enumerate_monomials(weight + charge, charge, -1)
    shifted = coordinates([translate(p, 1) for p in source], basis)
    target = coordinates(ideal_piece("lambda1", weight + charge, charge), basis)
    return subspace_leq(shifted, target, len(basis))
