"""Polynomial algebra, bigrading and the structural maps."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from principal_subspaces.poly import (
    PolyQ,
    coordinate_rows,
    coordinates,
    derive,
    enumerate_monomials,
    fits,
    has_monomials,
    translate,
    x,
)

# a monomial is its non-decreasing index tuple
monomials = st.lists(st.integers(min_value=-6, max_value=4), max_size=4).map(
    lambda indices: tuple(sorted(indices))
)
polys = st.builds(
    PolyQ,
    st.lists(
        st.tuples(monomials, st.integers(min_value=-4, max_value=4)), max_size=4
    ),
)


def test_unit_is_identity():
    p = x(-1) + 2 * x(-2)
    assert PolyQ({(): 1}) * p == p


def test_square_of_generator():
    assert x(-1) * x(-1) == PolyQ({(-1, -1): 1})


def test_product_distributes():
    # (x(-1) + x(-2)) * x(-1), distributed by hand
    lhs = (x(-1) + x(-2)) * x(-1)
    rhs = PolyQ({(-1, -1): 1, (-2, -1): 1})
    assert lhs == rhs


def bidegree(mono):
    """(weight, charge) of one monomial, read through ``PolyQ.bidegree``."""
    return PolyQ({mono: 1}).bidegree()


def test_monomial_gradings():
    assert bidegree((-3, -1, -1)) == (5, 3)
    assert bidegree(()) == (0, 0)


@settings(deadline=None, max_examples=60)
@given(monomials, monomials)
def test_bigrading_additive_under_product(a, b):
    (prod,) = (PolyQ({a: 1}) * PolyQ({b: 1})).terms
    assert prod == tuple(sorted(a + b))
    (wa, ca), (wb, cb) = bidegree(a), bidegree(b)
    assert bidegree(prod) == (wa + wb, ca + cb)


def test_translate_examples():
    assert translate(x(-1) * x(-1), 1) == x(-2) * x(-2)
    p = x(-1) + 3 * x(-4)
    assert translate(p, 0) == p
    assert translate(x(-2) * x(-3), -1) == x(-1) * x(-2)


@settings(deadline=None, max_examples=60)
@given(polys, st.integers(-3, 3), st.integers(-3, 3))
def test_translate_composes(p, s, t):
    assert translate(translate(p, s), t) == translate(p, s + t)


@settings(deadline=None, max_examples=60)
@given(monomials, st.integers(-3, 3))
def test_translate_weight_shift(mono, s):
    shifted = translate(PolyQ({mono: 1}), s)
    (target,) = shifted.terms
    assert target == tuple(sorted(target))
    (weight, charge), (target_weight, target_charge) = bidegree(mono), bidegree(target)
    assert target_charge == charge
    assert target_weight == weight + charge * s
    if charge == 0:
        assert target == mono
    elif s > 0:
        assert target_weight > weight


def test_projection_kills_minus_one_terms(drop_minus_one_terms):
    assert drop_minus_one_terms(x(-1) * x(-1)) == PolyQ()
    r40 = 2 * (x(-3) * x(-1)) + x(-2) * x(-2)
    assert drop_minus_one_terms(r40) == x(-2) * x(-2)
    fixed = x(-2) * x(-3)
    assert drop_minus_one_terms(fixed) == fixed


def test_projection_is_idempotent(drop_minus_one_terms):
    p = 2 * (x(-3) * x(-1)) + x(-2) * x(-2) + 5 * x(-1)
    once = drop_minus_one_terms(p)
    assert drop_minus_one_terms(once) == once


def test_projection_rejects_nonnegative_indices(drop_minus_one_terms):
    with pytest.raises(ValueError):
        drop_minus_one_terms(x(0) * x(-2))


def test_derive_examples():
    assert derive(x(-1)) == x(-2)
    assert derive(PolyQ({(): 1})) == PolyQ()
    assert derive(x(-1) * x(-1)) == 2 * (x(-2) * x(-1))


@settings(deadline=None, max_examples=60)
@given(polys, polys)
def test_derive_satisfies_leibniz(a, b):
    assert derive(a * b) == derive(a) * b + a * derive(b)


@settings(deadline=None, max_examples=60)
@given(monomials)
def test_derive_raises_weight_preserves_charge(mono):
    image = derive(PolyQ({mono: 1}))
    weight, charge = bidegree(mono)
    for target in image.terms:
        assert target == tuple(sorted(target))
        assert bidegree(target) == (weight + 1, charge)


def test_enumerate_monomials_examples():
    assert enumerate_monomials(4, 2, -1) == ((-3, -1), (-2, -2))
    assert enumerate_monomials(2, 2, -2) == ()
    assert enumerate_monomials(0, 0, -1) == ((),)
    assert enumerate_monomials(0, 0, -5) == ((),)
    # every call returns the one immutable tuple of the table behind the
    # enumeration, so no call copies it and no caller can change it
    assert enumerate_monomials(4, 2, -1) is enumerate_monomials(4, 2, -1)


def test_enumeration_equals_the_descent_in_order(monomials_by_descent):
    """The domains built from smaller ones hold the monomials of the
    recursive descent, one by one and in its order, and every call returns
    the one tuple of the table."""
    for floor in (-1, -2, -3):
        for weight in range(21):
            for charge in range(weight + 1):
                monos = enumerate_monomials(weight, charge, floor)
                assert list(monos) == monomials_by_descent(weight, charge, floor)
                assert enumerate_monomials(weight, charge, floor) is monos


def test_enumerate_monomials_rejects_bad_floor():
    with pytest.raises(ValueError):
        enumerate_monomials(3, 1, 0)


def test_has_monomials_is_a_nonempty_domain():
    """The arithmetic emptiness rule agrees with the enumeration, negative
    weights and charges included."""
    for floor in (-1, -2, -3):
        for weight in range(-2, 31):
            for charge in range(-1, 13):
                want = bool(enumerate_monomials(weight, charge, floor))
                assert has_monomials(weight, charge, floor) == want


def count_partitions_exact(n, k, min_part):
    """Independent recursive counter: partitions of n into exactly k parts,
    each >= min_part."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k * min_part:
        return 0
    # smallest part equals min_part, or all parts exceed it (shift each down 1)
    return count_partitions_exact(n - min_part, k - 1, min_part) + count_partitions_exact(
        n - k, k, min_part
    )


def test_enumeration_count_matches_recursive_counter():
    for floor in (-1, -2, -3):
        for weight in range(0, 13):
            for charge in range(0, 7):
                got = len(enumerate_monomials(weight, charge, floor))
                assert got == count_partitions_exact(weight, charge, -floor)


def test_enumeration_is_canonically_ordered_and_on_degree():
    """Strictly increasing, so no monomial repeats, and every monomial of
    the bidegree with indices <= floor.  With the count test this proves
    that each domain holds every monomial of its bidegree with indices <=
    floor, which the ideal rows of ``verify`` rely on."""
    for floor in (-1, -2):
        for weight in range(0, 13):
            for charge in range(0, 7):
                monos = enumerate_monomials(weight, charge, floor)
                assert all(a < b for a, b in zip(monos, monos[1:]))
                for mono in monos:
                    assert mono == tuple(sorted(mono))
                    assert bidegree(mono) == (weight, charge)
                    assert all(idx <= floor for idx in mono)


def test_unsorted_keys_are_made_canonical():
    """The constructor sorts every key: an index tuple in any order names
    one monomial, keys equal once sorted merge, and they cancel to zero
    when their coefficients sum to zero."""
    assert PolyQ({(-1, -3): 1}) == PolyQ({(-3, -1): 1})
    assert PolyQ({(-1, -3): 1}).terms == {(-3, -1): 1}
    assert PolyQ([((-1, -3), 2), ((-3, -1), 3)]) == PolyQ({(-3, -1): 5})
    assert PolyQ([((-1, -3), 2), ((-3, -1), -2)]) == PolyQ()
    assert PolyQ({(-1, -3): 1}) == x(-3) * x(-1)
    # a product renders by weight, then charge, then sorted index tuple
    prod = PolyQ({(-1, -2): 1, (-1,): 2}) * PolyQ({(-1, -3): 1})
    assert str(prod) == "2*x(-3)*x(-1)^2 + x(-3)*x(-2)*x(-1)^2"


def test_rendering():
    r40 = 2 * (x(-3) * x(-1)) + x(-2) * x(-2)
    assert str(r40) == "2*x(-3)*x(-1) + x(-2)^2"
    assert str(PolyQ()) == "0"
    assert str(x(-2) * x(-2) - 2 * (x(-3) * x(-1))) == "-2*x(-3)*x(-1) + x(-2)^2"
    assert str(Fraction(1, 2) * x(-1)) == "1/2*x(-1)"
    assert str(PolyQ({(): 1}) * 3) == "3"


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", Decimal("0.5")])
def test_coefficients_must_be_int_or_fraction(bad):
    mono = (-1,)
    with pytest.raises(TypeError):
        PolyQ({mono: bad})
    with pytest.raises(TypeError):
        PolyQ([(mono, 1), (mono, bad)])
    with pytest.raises(TypeError):
        bad * x(-1)


def test_int_coefficients_stay_int():
    p = 2 * (x(-3) * x(-1)) + x(-2) * x(-2)
    q = x(-4) - 3 * x(-1)
    for r in (p, p + x(-2) * x(-2), p - 2 * (x(-3) * x(-1)), -p, 3 * p, p * 5, p * q):
        assert r.terms
        assert all(type(c) is int for c in r.terms.values())
    half = Fraction(1, 2) * p
    assert all(type(c) is Fraction for c in half.terms.values())


def test_int_and_fraction_twins_are_equal_and_render_alike():
    for c in (1, -1, 2, -3):
        ints = PolyQ({(-3, -1): c, (): c})
        fractions = PolyQ({(-3, -1): Fraction(c), (): Fraction(c)})
        assert ints == fractions
        assert str(ints) == str(fractions)


def test_coordinates_roundtrip():
    basis = enumerate_monomials(4, 2, -1)
    r40 = 2 * (x(-3) * x(-1)) + x(-2) * x(-2)
    assert coordinates([r40, PolyQ(), x(-2) * x(-2)], basis) == [
        {0: Fraction(2), 1: Fraction(1)},
        {},
        {1: Fraction(1)},
    ]
    assert coordinates([], basis) == []
    with pytest.raises(ValueError):
        coordinates([r40, x(-4)], basis)


def test_coordinate_rows_extend_the_basis():
    """A monomial outside the basis gets a column after it, numbered in
    order of first appearance, where ``coordinates`` raises."""
    basis = enumerate_monomials(4, 2, -1)
    r40 = 2 * (x(-3) * x(-1)) + x(-2) * x(-2)
    polys = [r40, x(-4), PolyQ(), x(-5) + x(-4) + x(-2) * x(-2)]
    assert coordinate_rows(polys, basis) == ([{0: 2, 1: 1}, {2: 1}, {}, {3: 1, 2: 1, 1: 1}], 4)
    assert coordinate_rows([r40], basis) == (coordinates([r40], basis), 2)
    assert coordinate_rows([], basis) == ([], 2)


def test_fits_decides_a_generator():
    """Nonzero, every term of the bidegree, every index <= floor."""
    r40 = 2 * (x(-3) * x(-1)) + x(-2) * x(-2)
    assert fits(r40, 4, 2, -1)
    assert not fits(r40, 4, 2, -2)
    assert not fits(r40, 5, 2, -1)
    assert not fits(r40, 4, 1, -1)
    assert not fits(r40 + x(-3), 4, 2, -1)
    assert not fits(PolyQ(), 0, 0, -1)
    assert fits(x(-1), 1, 1, -1)
    assert fits(PolyQ({(): 1}), 0, 0, -1)


def test_bidegree():
    assert (x(-3) * x(-1)).bidegree() == (4, 2)
    with pytest.raises(ValueError):
        PolyQ().bidegree()
    with pytest.raises(ValueError):
        (x(-1) + x(-2)).bidegree()
