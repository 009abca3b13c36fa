"""The commutative polynomial algebra on generators x(m), m in Z, with its
weight/charge bigrading.

A generator x(m) has weight -m and charge 1.  A monomial is the multiset of
its generator indices, and is held as the plain non-decreasing tuple of
them: weight -sum(m), charge len(m).  A coefficient is an ``int`` or a
``Fraction`` and stays the one it was computed as, so the relations and the
ideal pieces built from them hold ints; any other type, float included,
raises ``TypeError``.  Term and basis orderings are graded-lexicographic
on the index tuple, so every matrix built downstream has a reproducible
column order.  Indices range over all of Z: membership in the
subalgebras with indices <= -1 or <= -2 is a property of an element, not a
separate type, because the translation map genuinely produces indices >= 0.

Domains (``enumerate_monomials``) are tuples shared by every caller, one
per (weight, charge, floor), each built once per process from two smaller
ones.  A domain D(w, k, p) is the partitions of w into exactly k parts, each
at least p = -floor, and p(w, k) = p(w - k, k) + p(w - 1, k - 1) splits it:
for p > 1 it is D(w - k, k, p - 1) with every index lowered by one, and
D(w, k, 1) is D(w, k, 2), the monomials without x(-1), merged with the
monomials u * x(-1), u in D(w - 1, k - 1, 1).  The two halves are disjoint
and each is sorted, so merging them gives the canonical order.

``PolyQ`` is the finite exact linear combination of monomials: sum,
scalar multiple, product, equality, rendering and ``bidegree``.  It is the
one linear combination type of the package; Fock vectors are the integer
tuples of ``fock``.  Its constructor sorts every key, so an index tuple
given in any order names its monomial.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import Scalar


class PolyQ:
    """Finite linear combination of monomials with ``Scalar`` coefficients,
    each kept as the int or Fraction it was given as.  ``terms`` maps each
    sorted index tuple to its nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(
        self, terms: dict | Iterable[tuple[Iterable[int], Scalar]] | None = None
    ):
        acc: dict[tuple[int, ...], Scalar] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, c in items:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
                if not c:
                    continue
                mono = tuple(sorted(mono))
                prev = acc.get(mono)
                new = c if prev is None else prev + c
                if new:
                    acc[mono] = new
                elif prev is not None:
                    del acc[mono]
        self.terms = acc

    @classmethod
    def _from_terms(cls, terms: dict[tuple[int, ...], Scalar]) -> "PolyQ":
        """Wrap an already normalised dict (sorted keys, no zero
        coefficients)."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    def bidegree(self) -> tuple[int, int]:
        """(weight, charge) of a nonzero bihomogeneous polynomial."""
        if not self.terms:
            raise ValueError("the zero PolyQ has no bidegree")
        degrees = {(-sum(mono), len(mono)) for mono in self.terms}
        if len(degrees) > 1:
            raise ValueError("PolyQ mixes bidegrees")
        return degrees.pop()

    def __add__(self, other: "PolyQ") -> "PolyQ":
        if type(other) is not PolyQ:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            new = out.get(mono, 0) + c
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return PolyQ._from_terms(out)

    def __neg__(self) -> "PolyQ":
        return PolyQ._from_terms({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other: "PolyQ | Scalar") -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            if not other:
                return PolyQ._from_terms({})
            return PolyQ._from_terms({mono: c * other for mono, c in self.terms.items()})
        if type(other) is not PolyQ:
            return NotImplemented
        out: dict[tuple[int, ...], Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return PolyQ._from_terms(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if type(other) is not PolyQ:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"PolyQ({str(self)!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        terms = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), len(t[0]), t[0]))
        for i, (mono, c) in enumerate(terms):
            mag = abs(c)
            if not mono:
                # the constant term renders as its coefficient alone
                body = str(mag)
            elif mag == 1:
                body = _render(mono)
            else:
                body = f"{mag}*{_render(mono)}"
            if i == 0:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _render(mono: tuple[int, ...]) -> str:
    """A sorted index tuple as its factors x(m)^k, in index order; 1 for ()."""
    return "*".join(
        f"x({m})" if k == 1 else f"x({m})^{k}" for m, k in Counter(mono).items()
    ) or "1"


def x(m: int) -> PolyQ:
    """The generator x(m) as a polynomial."""
    return PolyQ({(m,): 1})


def translate(p: PolyQ, s: int = 1) -> PolyQ:
    """Translation automorphism: every generator index shifted by -s.

    Charge is preserved and the weight of a charge-k homogeneous element
    moves by k*s; the inverse is ``translate(p, -s)``.
    """
    if s == 0:
        return p
    # a shift keeps each index tuple sorted and distinct keys distinct
    return PolyQ._from_terms(
        {tuple([m - s for m in mono]): c for mono, c in p.terms.items()}
    )


def derive(p: PolyQ) -> PolyQ:
    """The derivation with derive(x(m)) = -m * x(m-1).

    Linear, satisfies the Leibniz rule, raises weight by one and preserves
    charge.
    """
    acc: list[tuple[list[int], Scalar]] = []
    for mono, c in p.terms.items():
        for m, mult in Counter(mono).items():
            if m == 0:
                continue
            rest = list(mono)
            rest.remove(m)
            rest.append(m - 1)
            # the constructor sorts rest again
            acc.append((rest, c * mult * (-m)))
    return PolyQ(acc)


def enumerate_monomials(
    weight: int, charge: int, floor: int = -1
) -> tuple[tuple[int, ...], ...]:
    """All monomials of the given weight and charge with every index <= floor,
    in graded-lexicographic (index-tuple ascending) order.

    Equivalently: partitions of ``weight`` into exactly ``charge`` parts, each
    part at least ``-floor``.  Returns () exactly when ``has_monomials`` is
    false.  The tuple is the one held by the shared table ``_monomials``, so
    each domain is built once per process, from two smaller domains.
    """
    if floor > -1:
        raise ValueError("floor must be <= -1")
    return _monomials(weight, charge, -floor)


def has_monomials(weight: int, charge: int, floor: int) -> bool:
    """Whether some monomial has the bidegree (weight, charge) and every
    index <= floor: the empty monomial when the charge is 0, else a
    partition of weight into charge parts, each at least -floor."""
    return charge >= 0 and (weight == 0 if charge == 0 else weight >= charge * -floor)


@functools.cache
def _monomials(weight: int, charge: int, min_part: int) -> tuple[tuple[int, ...], ...]:
    """The table behind ``enumerate_monomials``, D(w, k, p) for weight w,
    charge k and parts >= p: unbounded, kept for the life of the process,
    and it reports ``cache_info()``.

    Each domain is built from two smaller ones, by the recursion on parts
    p(w, k) = p(w - k, k) + p(w - 1, k - 1):

    - for p > 1, D(w, k, p) is D(w - k, k, p - 1) with every index lowered
      by one (every part raised by one), which keeps the order of the index
      tuples;
    - D(w, k, 1) is D(w, k, 2), the monomials without x(-1), merged with
      u * x(-1) for u in D(w - 1, k - 1, 1), the monomials with it.  Both
      sorted, -1 is the largest index so u * x(-1) is u with -1 appended,
      and no monomial lies in both, so merging them gives the canonical
      order with each monomial once.
    """
    if not has_monomials(weight, charge, -min_part):
        return ()
    if charge == 0:
        return ((),)
    if min_part > 1:
        return tuple(
            [tuple([m - 1 for m in u]) for u in _monomials(weight - charge, charge, min_part - 1)]
        )
    with_minus_one = [u + (-1,) for u in _monomials(weight - 1, charge - 1, 1)]
    return tuple(heapq.merge(_monomials(weight, charge, 2), with_minus_one))


def coordinates(
    polys: Iterable[PolyQ], basis: Sequence[tuple[int, ...]]
) -> list[dict[int, Scalar]]:
    """Sparse coordinate vectors ``{basis position: coefficient}`` of the
    given polynomials over an ordered monomial basis, one per polynomial."""
    index = {mono: i for i, mono in enumerate(basis)}
    vecs = []
    for p in polys:
        vec = {}
        for mono, c in p.terms.items():
            i = index.get(mono)
            if i is None:
                raise ValueError(f"monomial {_render(mono)} outside the given basis")
            vec[i] = c
        vecs.append(vec)
    return vecs


def coordinate_rows(
    polys: Iterable[PolyQ], basis: Sequence[tuple[int, ...]]
) -> tuple[list[dict[int, Scalar]], int]:
    """The sparse coordinate rows of the polynomials, coefficients as they
    are, and their column count: a monomial outside ``basis`` gets a new
    column, numbered after the basis in order of first appearance, where
    ``coordinates`` would raise.  A rank does not depend on the order of the
    columns."""
    columns = {mono: j for j, mono in enumerate(basis)}
    vecs = [
        {columns.setdefault(mono, len(columns)): c for mono, c in p.terms.items()}
        for p in polys
    ]
    return vecs, len(columns)


def fits(p: PolyQ, weight: int, charge: int, floor: int) -> bool:
    """Whether p is nonzero and each of its monomials has the bidegree
    (weight, charge) and every index <= floor: how a generator of an ideal
    is told from a polynomial that cannot be one."""
    return bool(p.terms) and all(
        len(mono) == charge and -sum(mono) == weight and (not mono or mono[-1] <= floor)
        for mono in p.terms
    )
