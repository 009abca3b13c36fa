"""Lattice Fock realization: frozen mode actions and operator identities."""

import functools
import json
import math
import types
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from principal_subspaces import fock
from principal_subspaces.cli import main
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


@settings(deadline=None, max_examples=40)
@given(
    st.integers(-6, 3),
    st.lists(st.integers(1, 4), max_size=3),
    st.integers(-2, 2),
    st.lists(st.integers(1, 4), max_size=3),
    st.integers(-2, 2),
)
# x(-1) sends e^0 and a(-1) e^0 to images of sizes 0 and 1, both one slot long
@example(-1, [], 0, [1], 0)
def test_x_action_is_additive_across_sizes_and_cosets(m, mu_v, two_r_v, mu_w, two_r_w):
    if sum(mu_v) == sum(mu_w):
        mu_w = mu_w + [1]
    v = FockState(mu_v, Fraction(two_r_v, 2))
    w = FockState(mu_w, Fraction(two_r_w, 2))
    assert x_act(m, vec((v, 1), (w, 1))) == x_act(m, v) + x_act(m, w)


def test_insert_part_positions():
    for size in range(13):
        for n in range(1, 13):
            positions, _ = fock._insert_part(size, n)
            targets = partitions(size + n, 1)
            assert len(set(positions)) == len(positions) == len(partitions(size, 1))
            assert set(positions) == {i for i, lam in enumerate(targets) if n in lam}
            for lam, i in zip(partitions(size, 1), positions):
                assert targets[i] == tuple(sorted(lam + (n,)))


def test_insert_part_weights_are_z_ratios():
    # a(-n) a(-lambda) / z_lambda = (z_{lambda+n} / z_lambda) a(-lambda-n) / z_{lambda+n}
    for size in range(13):
        for n in range(1, 13):
            _, weights = fock._insert_part(size, n)
            assert len(weights) == len(partitions(size, 1))
            for lam, weight in zip(partitions(size, 1), weights):
                z_after = fock._z_factor(tuple(sorted(lam + (n,))))
                assert z_after % fock._z_factor(lam) == 0
                assert weight == z_after // fock._z_factor(lam)


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


@pytest.mark.parametrize("bad", [0.5, "1", Decimal("0.5")])
def test_fock_vector_rejects_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        FockVector({VAC0: bad})
    with pytest.raises(TypeError):
        vec((VAC0, 1), (VAC1, bad))


def test_state_validation():
    with pytest.raises(ValueError):
        FockState((0, 1), 0)
    with pytest.raises(ValueError):
        FockState((), Fraction(1, 3))


def test_apply_monomial_matches_composition():
    mono = Monomial((-3, -1))
    assert apply_monomial(mono, VAC0) == x_act(-3, x_act(-1, VAC0))
    assert apply_monomial(Monomial(()), VAC0) == vec((VAC0, 1))
    # both cosets, sizes 0 to 6, coefficients with unlike denominators
    v = vec(
        (VAC0, Fraction(1, 3)),
        (FockState((1, 1), 0), Fraction(-5, 6)),
        (FockState((2,), HALF), Fraction(7, 4)),
        (FockState((1, 2, 3), -1), Fraction(2, 9)),
        (FockState((1, 1, 2), -HALF), Fraction(-3, 10)),
        (FockState((3, 3), 1), Fraction(11, 12)),
    )
    for indices in ((-3, -1), (-4, -2, -2), (-2, 0, 1)):
        image = apply_monomial(Monomial(indices), v)
        composed = v
        by_formula = v
        for m in reversed(indices):
            composed = x_act(m, composed)
            by_formula = x_act_by_exponential(m, by_formula)
        assert not image.is_zero()
        assert image == composed == by_formula


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


# The exponential formula for x(m), kept as an oracle for the recursion that
# defines the tables: exp(+sum a(-n) x^n / n) exp(-sum a(n) x^-n / n) on
# (mu; r), shifted to r + 1, times x^(2r), read at x^(-m-1).


@functools.cache
def annihilation_terms(mu):
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
def partitions_with_z(n):
    """(lambda, z_lambda) for every partition lambda of n."""
    return tuple(
        (lam, math.prod(p**k * math.factorial(k) for p, k in Counter(lam).items()))
        for lam in partitions(n, 1)
    )


def x_by_exponential(m, state):
    """x(m) on a basis state as {partition: Fraction}, the coefficients of
    the states (lambda; r + 1) in the basis a(-lambda)."""
    two_r = state.two_r
    degree_max = -m - 1 - two_r + sum(state.mu)
    if degree_max < 0:
        return {}
    # every z-factor of a created partition divides degree_max!
    scale = math.factorial(degree_max)
    acc = {}
    for removed, kept, ann_coeff in annihilation_terms(state.mu):
        degree = -m - 1 - two_r + removed
        for lam, z in partitions_with_z(degree):
            target = tuple(sorted(kept + lam))
            acc[target] = acc.get(target, 0) + ann_coeff * (scale // z)
    return {mu: Fraction(n, scale) for mu, n in acc.items() if n}


def x_act_by_exponential(m, v):
    """x(m) on a vector, every image from the exponential formula."""
    return sum(
        (
            c * vec(*((FockState(lam, _two_r=state.two_r + 2), q) for lam, q in image.items()))
            for state, c in v.terms.items()
            if (image := x_by_exponential(m, state))
        ),
        FockVector(),
    )


def recursion_mismatches(size_max, two_r_range, m_min, m_over):
    """(m, state) pairs where the table differs from the exponential formula,
    over |mu| <= size_max, 2r in two_r_range, m_min <= m <= |mu| + m_over;
    and the number of pairs compared.  The table is keyed by m + 2r and the
    formula is evaluated at each 2r as given, so this compares every lattice
    point of the range with the one image it shares."""
    bad, compared = [], 0
    for two_r in two_r_range:
        for size in range(size_max + 1):
            for mu in partitions(size, 1):
                state = FockState(mu, _two_r=two_r)
                for m in range(m_min, size + m_over + 1):
                    coords = fock._x_on_state(m + two_r, mu)
                    # one coordinate per partition lambda of the target size,
                    # or none, in the basis a(-lambda)/z_lambda
                    targets = partitions_with_z(size - m - 1 - two_r) if coords else ()
                    image = {
                        lam: Fraction(c, z)
                        for (lam, z), c in zip(targets, coords, strict=True)
                        if c
                    }
                    compared += 1
                    if image != x_by_exponential(m, state):
                        bad.append((m, state))
    return bad, compared


def test_recursion_equals_exponential_formula():
    # the same images, each coordinate over its z_lambda, on 9774 pairs, one
    # 2r at a time over both cosets; the zero images past the annihilation
    # bound are compared too
    bad, compared = recursion_mismatches(8, range(-4, 5), -4, 5)
    assert compared == 9774
    assert bad == []


REAL_X_ON_STATE = fock._x_on_state
REAL_X_ON_H = fock._x_on_h
REAL_INSERT_PART = fock._insert_part
# every functools.cache table of fock, as the module defines them
FOCK_TABLES = {
    name: table for name, table in vars(fock).items() if hasattr(table, "cache_clear")
}


@pytest.fixture
def fresh_tables():
    """Empty every fock table before and after, so a mutant neither reads
    real images, z-factors or a(-n) weights nor leaves its own behind.  This
    is the one reset for the tables: a new ``functools.cache`` in fock is
    emptied here too.  Returns the function that empties them, so a test can
    also reset warm tables partway through."""

    def clear():
        for table in FOCK_TABLES.values():
            table.cache_clear()

    clear()
    yield clear
    clear()


def test_fresh_tables_empties_every_fock_table(fresh_tables):
    assert set(FOCK_TABLES) == {
        "partitions",
        "_partitions_with_z",
        "_partition_index",
        "_insert_part",
        "_x_on_state",
        "_x_on_h",
        "_x_on_h_shifted",
    }
    assert check_square_zero(3)
    assert apply_monomial(Monomial((-2, -1)), FockState((1, 1), HALF))
    assert all(table.cache_info().currsize for table in FOCK_TABLES.values())
    fresh_tables()
    assert not any(table.cache_info().currsize for table in FOCK_TABLES.values())


def perturb_one_image(monkeypatch):
    """x(m) on a(-1) e^{r alpha} for m + 2r = -3, x(-3) on a(-1) e^0 among
    them, with one integer of the image in the basis a(-lambda)/z_lambda off
    by one; the recursion reads the perturbed image through the module
    name."""

    @functools.cache
    def perturbed(s, mu):
        coords = REAL_X_ON_STATE(s, mu)
        if s == -3 and mu == (1,):
            # the first coordinate is that of partitions(3, 1)[0] = (1, 1, 1)
            first, *rest = coords
            return (first + 1, *rest)
        return coords

    monkeypatch.setattr(fock, "_x_on_state", perturbed)


def drop_multiplicity(monkeypatch):
    """a(-n) weighted by n in place of z_{lambda+n} / z_lambda =
    n (mult_n(lambda) + 1), wrong wherever lambda already has the part n."""

    def unweighted(size, n):
        positions, weights = REAL_INSERT_PART(size, n)
        return positions, (n,) * len(weights)

    monkeypatch.setattr(fock, "_insert_part", unweighted)


def newton_weight_one(monkeypatch):
    """V(s, j) = j! x(m) h_j e^alpha with every Newton weight (j-1)!/(j-n)!,
    ``math.perm(j - 1, n - 1)`` in ``_x_on_h``, replaced by 1: fock reads
    ``math.perm`` there only."""
    patched = types.SimpleNamespace(**vars(math))
    patched.perm = lambda n, k: 1
    monkeypatch.setattr(fock, "math", patched)


def perturb_one_newton_image(monkeypatch):
    """V(-4, 2) = 2! x(m) h_2(a) e^{r alpha} for m + 2r = -4, with its first
    integer, that of partitions(5, 1)[0] = (1, 1, 1, 1, 1), off by one; the
    recursion and the vacuum check read it through the module name."""

    @functools.cache
    def perturbed(s, j):
        coords = REAL_X_ON_H(s, j)
        if (s, j) == (-4, 2):
            first, *rest = coords
            return (first + 1, *rest)
        return coords

    monkeypatch.setattr(fock, "_x_on_h", perturbed)


def shifted_factor_j(monkeypatch):
    """U(s, j) = V(s-1, j-1) + j U(s-1, j-1), the factor j - 1 of
    ``_x_on_h_shifted`` raised to j; ``_x_on_h`` and the recursion read U
    through the module name."""

    @functools.cache
    def wrong(s, j):
        head = fock._x_on_h(s - 1, j - 1)
        tail = wrong(s - 1, j - 1) if j > 1 else ()
        if not tail:
            return head
        return tuple(a + j * c for a, c in zip(head or [0] * len(tail), tail))

    monkeypatch.setattr(fock, "_x_on_h_shifted", wrong)


RECURSION_MUTANTS = {
    # x(m)(mu; r) = a(-n) x(m)(mu \ n; r) + 2 x(m-n)(mu \ n; r)
    "plus_two": lambda mp: mp.setattr(fock, "_PAIRING", -2),
    # z_lambda without its mult! factor, wrong on every repeated part
    "z_without_factorial": lambda mp: mp.setattr(fock, "_z_factor", math.prod),
    "one_image": perturb_one_image,
    # the a(-n) weight of the recursion without mult_n(lambda) + 1
    "weight_without_multiplicity": drop_multiplicity,
}
# mutants of the Newton table that the vacuum half reads, x(m) on h_j e^alpha
NEWTON_MUTANTS = {
    "newton_weight_one": newton_weight_one,
    "one_newton_image": perturb_one_newton_image,
    "shifted_factor_j": shifted_factor_j,
}
MUTANTS = RECURSION_MUTANTS | NEWTON_MUTANTS


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_recursion_mutants_fail_lemmas(capsys, monkeypatch, fresh_tables, mutant):
    MUTANTS[mutant](monkeypatch)
    code = main(["lemmas", "--max-weight", "4", "--format", "json"])
    lemmas = json.loads(capsys.readouterr().out)["lemmas"]
    assert code == 1
    assert lemmas["square_zero"] is False
    assert [name for name, ok in lemmas.items() if not ok] == ["square_zero"]


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_recursion_mutants_reach_warm_tables_once_reset(
    capsys, monkeypatch, fresh_tables, mutant
):
    # the real images are in the tables, then the reset empties them
    assert check_square_zero(4)
    fresh_tables()
    MUTANTS[mutant](monkeypatch)
    assert main(["lemmas", "--max-weight", "4", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["lemmas"]["square_zero"] is False


# the brute half reads the tables of states and the z-factors of _unscaled;
# the vacuum half reads the Newton table, built from the vacuum images with
# _PAIRING and _insert_part, and neither per-partition images nor z-factors
# (the partition-sum cross-check below rejects those two mutants)
HALF_MUTANTS = [(mutant, "_brute_sweep") for mutant in RECURSION_MUTANTS] + [
    (mutant, "_vacuum_check")
    for mutant in ("plus_two", "weight_without_multiplicity", *NEWTON_MUTANTS)
]


@pytest.mark.parametrize(("mutant", "half"), HALF_MUTANTS)
def test_each_square_zero_half_rejects_recursion_mutants(
    monkeypatch, fresh_tables, mutant, half
):
    MUTANTS[mutant](monkeypatch)
    assert getattr(fock, half)(4) is False


def newton_keys(monkeypatch, weight_bound, table="_x_on_h"):
    """Every (s, j) that ``_vacuum_check(weight_bound)`` reads from cold
    tables, from ``_x_on_h`` or from the table named: the recursion reads
    both through the module name, so the spy sees each key it builds."""
    keys = set()
    real = getattr(fock, table)

    def spy(s, j):
        keys.add((s, j))
        return real(s, j)

    monkeypatch.setattr(fock, table, spy)
    assert fock._vacuum_check(weight_bound)
    monkeypatch.setattr(fock, table, real)
    return keys


def partition_sum_mismatches(keys):
    """The (s, j) in keys where V(s, j) = ``_x_on_h(s, j)`` is not
    j! sum_{mu |- j} ``_x_on_state(s, mu)`` / z_mu, with the z_mu of
    ``_partitions_with_z``: the sum that ``_component_kills(u, ())`` adds
    up over the first images in the basis a(-mid)/z_mid, one partition mid
    at a time.  Exact: integers over the lcm of the z_mu, then
    ``Fraction``s."""
    bad = []
    for s, j in keys:
        with_z = fock._partitions_with_z(j)
        common = math.lcm(*(z for _, z in with_z))
        total = []
        for mu, z in with_z:
            image = fock._x_on_state(s, mu)
            f = math.factorial(j) * (common // z)
            if image:
                total = [a + f * c for a, c in zip(total or [0] * len(image), image)]
        expected = [Fraction(c, common) for c in total] if any(total) else []
        if list(fock._x_on_h(s, j)) != expected:
            bad.append((s, j))
    return bad


def test_newton_table_equals_the_partition_sum(monkeypatch, fresh_tables):
    keys = newton_keys(monkeypatch, 6)
    assert len(keys) == 121
    assert partition_sum_mismatches(keys) == []


def test_shifted_table_equals_the_direct_sum(monkeypatch, fresh_tables):
    # U(s, j) = sum_{n=1..j} (j-1)!/(j-n)! V(s-n, j-n), exactly, on every
    # (s, j) that the vacuum check reads
    keys = newton_keys(monkeypatch, 6, "_x_on_h_shifted")
    assert len(keys) == 100
    bad = []
    for s, j in keys:
        size = j - s - 1
        total = [0] * len(fock.partitions(size, 1))
        for n in range(1, j + 1):
            image = fock._x_on_h(s - n, j - n)
            f = math.perm(j - 1, n - 1)
            total = [a + f * c for a, c in zip(total, image or [0] * len(total))]
        if list(fock._x_on_h_shifted(s, j)) != (total if any(total) else []):
            bad.append((s, j))
    assert bad == []


@pytest.mark.parametrize("mutant", list(NEWTON_MUTANTS))
def test_the_partition_sum_rejects_the_newton_mutants(monkeypatch, fresh_tables, mutant):
    keys = newton_keys(monkeypatch, 6)
    fresh_tables()
    MUTANTS[mutant](monkeypatch)
    assert partition_sum_mismatches(keys)


def test_vacuum_kills_weighs_the_pair_j_by_the_last_j_factorial_over_j_factorial(monkeypatch):
    # S_8 e^0 has the pairs m2 = -7..-4, that is j = 0..3 and s = m2 + 2,
    # with pair factors 2, 2, 2, 1: the sum 2 3!/0! V_0 + 2 3!/1! V_1 +
    # 2 3!/2! V_2 + V_3, zero images too, is zero here and then is not
    images = {(-5, 0): (1, 2), (-4, 1): (1, 0), (-3, 2): (), (-2, 3): (-24, -24)}
    monkeypatch.setattr(fock, "_x_on_h", lambda s, j: images[(s, j)])
    assert fock._vacuum_kills(8)
    images[(-2, 3)] = (-24, -23)
    assert not fock._vacuum_kills(8)


@pytest.mark.parametrize("mutant", ["one_image", "z_without_factorial"])
def test_the_partition_sum_rejects_the_mutants_the_vacuum_half_cannot_read(
    monkeypatch, fresh_tables, mutant
):
    MUTANTS[mutant](monkeypatch)
    # the vacuum half passes: it reads neither mutated table
    keys = newton_keys(monkeypatch, 6)
    assert partition_sum_mismatches(keys)


def test_square_zero_halves_and_bounds(monkeypatch):
    calls = []
    for half in ("_brute_sweep", "_vacuum_check"):
        real = getattr(fock, half)
        monkeypatch.setattr(
            fock, half, lambda w, half=half, real=real: calls.append((half, w)) or real(w)
        )
    assert check_square_zero(5)
    assert calls == [("_brute_sweep", fock.BRUTE_SWEEP_WEIGHT), ("_vacuum_check", 5)]
    calls.clear()
    assert check_square_zero(2)
    assert calls == [("_brute_sweep", 2), ("_vacuum_check", 2)]


@pytest.mark.parametrize("half", ["_brute_sweep", "_vacuum_check"])
def test_square_zero_fails_when_either_half_fails(monkeypatch, half):
    monkeypatch.setattr(fock, half, lambda weight_bound: False)
    assert check_square_zero(3) is False


# The ranges each half of check_square_zero documents, as (t, state) pairs,
# for the bound the half is given: every basis state of weight <= w with
# |t| <= 2w; the vacua with r^2 <= w and -2w <= t <= 3w - r^2.


def brute_sweep_range(w):
    states = all_states(w, half_lattice=False) + all_states(w, half_lattice=True)
    return [(t, state) for state in states for t in range(-2 * w, 2 * w + 1)]


def vacuum_check_range(w):
    vacua = [FockState((), Fraction(two_r, 2)) for two_r in range(-2 * w, 2 * w + 1)]
    return [
        (t, vacuum)
        for vacuum in vacua
        if vacuum.weight <= w
        for t in range(-2 * w, 3 * w + 1)
        if t <= 3 * w - vacuum.weight
    ]


def spy_on_decisions(monkeypatch):
    """{half: [(u, mu) for each decision]}, filled from the call on, with
    each ``_component_kills(u, mu)`` and each ``_vacuum_kills(u)``, as
    (u, ()), filed under the half that made it."""
    decided = {}
    for half in ("_brute_sweep", "_vacuum_check"):
        real = getattr(fock, half)

        def run(w, half=half, real=real):
            decided[half] = []
            return real(w)

        monkeypatch.setattr(fock, half, run)
    real_kills = fock._component_kills
    real_vacuum_kills = fock._vacuum_kills

    def kills(u, mu):
        decided[list(decided)[-1]].append((u, mu))
        return real_kills(u, mu)

    def vacuum_kills(u):
        decided[list(decided)[-1]].append((u, ()))
        return real_vacuum_kills(u)

    monkeypatch.setattr(fock, "_component_kills", kills)
    monkeypatch.setattr(fock, "_vacuum_kills", vacuum_kills)
    return decided


def test_square_zero_decides_each_translated_key_once_per_half(monkeypatch):
    # S_t (mu; r) = h^{2r} S_{t-4r} (mu; 0): each half decides the distinct
    # keys (t - 2 * two_r, mu) of its range, each one once
    decided = spy_on_decisions(monkeypatch)
    for w in range(1, 7):
        decided.clear()
        assert check_square_zero(w)
        expected = {
            "_brute_sweep": brute_sweep_range(min(w, fock.BRUTE_SWEEP_WEIGHT)),
            "_vacuum_check": vacuum_check_range(w),
        }
        assert list(decided) == list(expected)
        for half, pairs in expected.items():
            keys = {(t - 2 * state.two_r, state.mu) for t, state in pairs}
            assert len(decided[half]) == len(set(decided[half]))
            assert set(decided[half]) == keys


def test_square_zero_counts_from_cold_tables(monkeypatch, fresh_tables):
    # one table per lattice point built 3385 images and decided 1043 sums
    decided = spy_on_decisions(monkeypatch)
    assert check_square_zero(6)
    assert fock._x_on_state.cache_info().currsize == 414
    assert fock._x_on_h.cache_info().currsize == 121
    assert fock._x_on_h_shifted.cache_info().currsize == 100
    assert sum(len(keys) for keys in decided.values()) == 315


def square_by_exponential(t, state):
    """S_t on a basis state as {partition: Fraction} on the states of charge
    r + 2, with every x(m) from the exponential formula and 2r as given:
    x(m1) x(m2) in both orders for each pair m1 >= m2, m1 + m2 = -t, with
    m1 within the annihilation bound of the state.  Also whether any one
    composite was nonzero."""
    two_r = state.two_r
    m_top = sum(state.mu) - 1 - two_r
    total = {}
    any_nonzero = False
    for m1 in range(-(t // 2), m_top + 1):
        m2 = -t - m1
        for first, second in {(m1, m2), (m2, m1)}:
            for mid, c in x_by_exponential(first, state).items():
                ends = x_by_exponential(second, FockState(mid, _two_r=two_r + 2))
                for end, c2 in ends.items():
                    any_nonzero = True
                    total[end] = total.get(end, 0) + c * c2
    return {end: c for end, c in total.items() if c}, any_nonzero


def test_square_zero_ranges_by_exponential_formula_on_every_lattice_point():
    # no table and no translation: S_t on every (t, 2r, mu) of both halves
    # at bound 2, with r as given, cancels to zero
    pairs = brute_sweep_range(2) + vacuum_check_range(2)
    assert len(pairs) == 108 + 51
    results = [square_by_exponential(t, state) for t, state in pairs]
    assert all(total == {} for total, _ in results)
    # the cancellation is not vacuous: on 40 of them some composite is not zero
    assert sum(any_nonzero for _, any_nonzero in results) == 40
