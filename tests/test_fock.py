"""Lattice Fock realization: frozen mode actions and operator identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from principal_subspaces.fock import (
    FockState,
    FockVector,
    apply_monomial,
    basis_states,
    check_square_zero,
    half_shift,
    heis_act,
    partitions,
    weight_charge,
    x_act,
)
from principal_subspaces.poly import Monomial, PolyQ, x

HALF = Fraction(1, 2)
VAC0 = FockState((), 0)
VAC1 = FockState((), HALF)


def vec(*pairs):
    return FockVector(list(pairs))


def all_states(max_weight, half_lattice):
    out = []
    start = 1 if half_lattice else 0
    for two_r in range(start, 100, 2):
        for sign in (two_r, -two_r) if two_r else (0,):
            if Fraction(sign * sign, 4) > max_weight:
                continue
            limit = (4 * max_weight - sign * sign) // 4
            for size in range(limit + 1):
                for mu in partitions(size):
                    out.append(FockState(mu, Fraction(sign, 2)))
        if Fraction(two_r * two_r, 4) > max_weight:
            break
    return out


def test_heisenberg_creation():
    assert heis_act(-3, VAC0) == vec((FockState((3,), 0), 1))


def test_heisenberg_annihilation():
    state = FockState((2,), 1)
    assert heis_act(2, state) == vec((FockState((), 1), 4))


def test_heisenberg_kills_vacuum_part():
    assert heis_act(1, VAC1).is_zero()


def test_heisenberg_zero_mode_rejected():
    with pytest.raises(ValueError):
        heis_act(0, VAC0)


def test_heisenberg_bracket_relation():
    for m in range(1, 7):
        for state in (VAC0, FockState((1, 3), -1), FockState((m,), HALF)):
            lhs = heis_act(m, heis_act(-m, state)) - heis_act(-m, heis_act(m, state))
            assert lhs == 2 * m * FockVector({state: 1})


def test_x_action_frozen_values():
    assert x_act(-1, VAC0) == vec((FockState((), 1), 1))
    assert x_act(-1, VAC1).is_zero()
    assert x_act(-2, VAC0) == vec((FockState((1,), 1), 1))
    assert x_act(-3, VAC0) == vec(
        (FockState((1, 1), 1), HALF), (FockState((2,), 1), HALF)
    )


def test_x_action_annihilation_bound():
    # x(m) s = 0 once m > |mu| - 1 - 2r
    state = FockState((1, 2), 1)
    bound = 3 - 1 - 2
    assert not x_act(bound, state).is_zero()
    assert x_act(bound + 1, state).is_zero()


def test_grading_covariance():
    for state in all_states(4, half_lattice=False) + all_states(4, half_lattice=True):
        w, c = state.weight, state.charge
        for m in range(-4, 4):
            image = x_act(m, state)
            if image.is_zero():
                continue
            assert weight_charge(image) == (w - m, c + 1)


def test_components_commute():
    states = all_states(4, half_lattice=False) + all_states(4, half_lattice=True)
    for state in states:
        for m in range(-4, 3):
            for n in range(m, 3):
                assert x_act(m, x_act(n, state)) == x_act(n, x_act(m, state))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(-5, 4),
    st.integers(-5, 4),
    st.lists(st.integers(1, 4), max_size=3),
    st.integers(-2, 2),
)
def test_components_commute_random(m, n, mu, two_r):
    state = FockState(mu, Fraction(two_r, 2))
    assert x_act(m, x_act(n, state)) == x_act(n, x_act(m, state))


def test_half_shift_examples():
    assert half_shift(VAC0) == vec((VAC1, 1))
    assert half_shift(FockState((2,), -1)) == vec((FockState((2,), -HALF), 1))


def test_half_shift_intertwines_modes():
    # half_shift x(m) = x(m-1) half_shift, exactly
    both = half_shift(x_act(-1, VAC0)), x_act(-2, half_shift(VAC0))
    assert both[0] == both[1]
    assert weight_charge(both[0]) == (Fraction(9, 4), Fraction(3, 2))
    for state in all_states(6, half_lattice=False) + all_states(6, half_lattice=True):
        for m in range(-6, 7):
            assert half_shift(x_act(m, state)) == x_act(m - 1, half_shift(state))


def test_weight_charge_values():
    assert weight_charge(VAC1) == (Fraction(1, 4), HALF)
    assert weight_charge(VAC0) == (0, 0)
    image = apply_monomial(Monomial((-4, -2)), VAC0)
    assert weight_charge(image) == (6, 2)


def test_weight_charge_errors():
    with pytest.raises(ValueError):
        weight_charge(FockVector())
    mixed = vec((VAC0, 1), (FockState((1,), 0), 1))
    with pytest.raises(ValueError):
        weight_charge(mixed)


def test_state_validation():
    with pytest.raises(ValueError):
        FockState((0, 1), 0)
    with pytest.raises(ValueError):
        FockState((), Fraction(1, 3))


def test_apply_monomial_matches_composition():
    mono = Monomial((-3, -1))
    assert apply_monomial(mono, VAC0) == x_act(-3, x_act(-1, VAC0))
    assert apply_monomial(Monomial(()), VAC0) == vec((VAC0, 1))


def test_basis_states_order():
    states = basis_states(3, 1)
    assert [s.mu for s in states] == [(1, 1, 1), (1, 2), (3,)]
    assert basis_states(-1, 0) == []


def test_rendering():
    v = x_act(-3, VAC0)
    assert str(v) == "1/2*a(-1)^2 e{1} + 1/2*a(-2) e{1}"
    assert str(VAC1) == "e{1/2}"
    assert str(FockVector()) == "0"
    assert str(FockState((1, 1, 2), -1)) == "a(-1)^2*a(-2) e{-1}"


def test_square_zero_small_bound():
    assert check_square_zero(3)


def test_square_zero_rejects_bad_bound():
    with pytest.raises(ValueError):
        check_square_zero(0)


def test_odd_component_sum_annihilates_highest_weight_vector():
    # weight-3 sum applied to the half-lattice vacuum, assembled by hand
    total = FockVector()
    for m2 in range(-4, 1):
        total = total + x_act(-3 - m2, x_act(m2, VAC1))
    assert total.is_zero()


def test_vectors_and_polynomials_do_not_mix():
    # both are exact linear combinations, but of different basis types
    v = vec((VAC0, 1))
    p = x(-1)
    for a, b in ((p, v), (v, p)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        assert not a == b
        assert a != b
    # empty combinations of the two types stay distinct as well
    assert FockVector() != PolyQ()
