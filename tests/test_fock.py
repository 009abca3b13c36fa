"""Lattice Fock realization: the x(m) tables and the operator identities
they carry.

A Fock vector here is a plain dict {(two_r, mu): coefficient} over the
states (mu; two_r/2) of the basis a(-mu), mu non-decreasing, and ``x_on``
acts on it through the tables, by ``fock._x_sum``."""

import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from principal_subspaces import fock, relations, verify
from principal_subspaces.cli import main
from principal_subspaces.fock import apply_monomial, check_square_zero, partitions
from principal_subspaces.linalg import SparseMatQ
from principal_subspaces.poly import x

HALF = Fraction(1, 2)
VAC0 = {(0, ()): 1}
VAC1 = {(1, ()): 1}


def x_on(m, v):
    """x(m) on a Fock vector, from the tables: the coefficients over their
    common denominator into ``fock._x_sum``, and each coordinate of the
    image, in the basis a(-lambda)/z_lambda, back over den z_lambda."""
    den = math.lcm(*(Fraction(c).denominator for c in v.values()))
    out = fock._x_sum(
        (m + two_r, mu, two_r, int(c * den)) for (two_r, mu), c in v.items()
    )
    return {
        (two_r, lam): Fraction(c, den * z)
        for (two_r, size), acc in out.items()
        for (lam, z), c in zip(fock._partitions_with_z(size), acc)
        if c
    }


def add(v, w):
    out = dict(v)
    for key, c in w.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def scale(c, v):
    return {key: c * d for key, d in v.items() if c * d}


def create(n, v):
    """a(-n) on a Fock vector, through ``fock._insert_part``: each
    coefficient of a(-mu) into the basis a(-lambda)/z_lambda, moved to the
    position of mu + n with its weight, and back over z_{mu+n}."""
    out = {}
    for (two_r, mu), c in v.items():
        size = sum(mu)
        i = fock._partition_index(size)[mu]
        positions, weights = fock._insert_part(size, n)
        lam, z = fock._partitions_with_z(size + n)[positions[i]]
        out = add(out, {(two_r, lam): Fraction(c * fock._z_factor(mu) * weights[i], z)})
    return out


def annihilate(n, v):
    """a(n), n > 0, on a Fock vector: a(n) kills every lattice vacuum and
    [a(n), a(-n)] = 2n, so it takes one part n of mu away, times 2n for
    each copy of n in mu."""
    out = {}
    for (two_r, mu), c in v.items():
        if n in mu:
            i = mu.index(n)
            out = add(out, {(two_r, mu[:i] + mu[i + 1 :]): c * 2 * n * mu.count(n)})
    return out


def bidegree(state):
    """(weight, charge) of the state (mu; r): (|mu| + r^2, r)."""
    two_r, mu = state
    return sum(mu) + Fraction(two_r * two_r, 4), Fraction(two_r, 2)


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
                    out.append((sign, mu))
        if Fraction(two_r * two_r, 4) > max_weight:
            break
    return out


def test_x_action_frozen_values():
    assert x_on(-1, VAC0) == {(2, ()): 1}
    assert x_on(-1, VAC1) == {}
    assert x_on(-2, VAC0) == {(2, (1,)): 1}
    assert x_on(-3, VAC0) == {(2, (1, 1)): HALF, (2, (2,)): HALF}


def test_x_action_annihilation_bound():
    # x(m) s = 0 once m > |mu| - 1 - 2r
    state = {(2, (1, 2)): 1}
    bound = 3 - 1 - 2
    assert x_on(bound, state)
    assert x_on(bound + 1, state) == {}


def test_grading_covariance():
    for state in all_states(4, half_lattice=False) + all_states(4, half_lattice=True):
        w, c = bidegree(state)
        for m in range(-4, 4):
            for target in x_on(m, {state: 1}):
                assert bidegree(target) == (w - m, c + 1)


def test_components_commute():
    states = all_states(4, half_lattice=False) + all_states(4, half_lattice=True)
    for state in states:
        v = {state: 1}
        for m in range(-4, 3):
            for n in range(m, 3):
                assert x_on(m, x_on(n, v)) == x_on(n, x_on(m, v))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(-5, 4),
    st.integers(-5, 4),
    st.lists(st.integers(1, 4), max_size=3),
    st.integers(-2, 2),
)
def test_components_commute_random(m, n, mu, two_r):
    v = {(two_r, tuple(sorted(mu))): 1}
    assert x_on(m, x_on(n, v)) == x_on(n, x_on(m, v))


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
    v = (two_r_v, tuple(sorted(mu_v)))
    w = (two_r_w, tuple(sorted(mu_w)))
    assert x_on(m, {v: 1, w: 1}) == add(x_on(m, {v: 1}), x_on(m, {w: 1}))


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


def test_heisenberg_creation():
    # a(-3) e^0 = 3 a(-3)/z_(3) e^0: the last position of the partitions of
    # 3, with the weight z_(3)/z_() = 3
    assert fock._insert_part(0, 3) == ((2,), (3,))
    assert create(3, VAC0) == {(0, (3,)): 1}
    assert create(1, {(2, (1, 2)): HALF}) == {(2, (1, 1, 2)): HALF}
    assert create(2, {(1, (2,)): 1, (1, (1, 1)): 3}) == {(1, (2, 2)): 1, (1, (1, 1, 2)): 3}


def test_heisenberg_bracket_relation():
    """[a(-n), x(m)] = 2 x(m-n) on every state of both cosets to weight 4,
    for every n: the recursion of the tables removes the largest part of
    mu only, and the module docstring claims any part gives the same
    image."""
    for state in all_states(4, half_lattice=False) + all_states(4, half_lattice=True):
        v = {state: 1}
        for n in range(1, 5):
            for m in range(-5, 4):
                bracket = add(create(n, x_on(m, v)), scale(-1, x_on(m, create(n, v))))
                assert bracket == scale(2, x_on(m - n, v)), (state, n, m)


def test_heisenberg_annihilation():
    """[a(n), x(m)] = 2 x(m+n), n > 0, on every state of both cosets to
    weight 4: the tables are built from the creation bracket alone, and
    this is the annihilation half of the exponential formula."""
    assert annihilate(2, {(2, (2,)): 1}) == {(2, ()): 4}
    assert annihilate(1, {(0, (1, 1, 3)): HALF}) == {(0, (1, 3)): 2}
    for state in all_states(4, half_lattice=False) + all_states(4, half_lattice=True):
        v = {state: 1}
        for n in range(1, 5):
            for m in range(-5, 4):
                bracket = add(annihilate(n, x_on(m, v)), scale(-1, x_on(m, annihilate(n, v))))
                assert bracket == scale(2, x_on(m + n, v)), (state, n, m)


def test_heisenberg_kills_vacuum_part():
    """a(n), n > 0, kills every lattice vacuum, so on a vacuum the bracket
    reads a(n) x(m) e^{r alpha} = 2 x(m+n) e^{r alpha}; and the vacuum
    images of the tables are the creation half of the exponential formula
    alone, all ones in the basis a(-lambda)/z_lambda."""
    for two_r in range(-4, 5):
        vacuum = {(two_r, ()): 1}
        for m in range(-8, 2):
            for n in range(1, 6):
                assert annihilate(n, x_on(m, vacuum)) == scale(2, x_on(m + n, vacuum))
    for s in range(-9, 2):
        assert fock._x_on_state(s, ()) == (1,) * len(partitions(-s - 1, 1))
    assert fock._x_on_state(0, ()) == ()


def test_unscaled_takes_a_sum_back_to_the_basis_a_lambda():
    # coordinates c_lambda in the basis a(-lambda)/z_lambda, partitions of 2
    # with z 2 and 2, of 3 with z 6, 2 and 3: c_lambda Z / z_lambda in the
    # basis a(-lambda), Z the lcm of the z_lambda of the nonzero c_lambda
    blocks = [("a", 2, (1, 3)), ("b", 3, (2, 0, 5))]
    assert fock._unscaled(blocks) == (
        6,
        [("a", (1, 1), 3), ("a", (2,), 9), ("b", (1, 1, 1), 2), ("b", (3,), 10)],
    )
    assert fock._unscaled([("b", 3, (0, 4, 0))]) == (2, [("b", (1, 2), 4)])
    assert fock._unscaled([("b", 3, (0, 0, 0))]) == (1, [])


def half_relabel(v):
    """The relabelling h, (mu; r) -> (mu; r + 1/2), that the key m + 2r of
    the tables carries."""
    return {(two_r + 1, mu): c for (two_r, mu), c in v.items()}


def test_half_shift_examples():
    """x(m) on (mu; r) and x(m - 1) on (mu; r + 1/2) read one table entry,
    the one keyed by m + 2r, and ``fock._x_sum`` files the two images one
    coset apart."""
    assert half_relabel(VAC0) == VAC1
    assert fock._x_sum([(-1, (), 0, 1)]) == {(2, 0): [1]}
    assert fock._x_sum([(-1, (), 1, 1)]) == {(3, 0): [1]}
    # x(0) a(-2) e^{-alpha} and x(-1) a(-2) e^{-alpha/2}
    assert fock._x_sum([(-2, (2,), -2, 1)]) == {(0, 3): [-2, 0, -2]}
    assert fock._x_sum([(-2, (2,), -1, 1)]) == {(1, 3): [-2, 0, -2]}
    image = {(0, (1, 1, 1)): Fraction(-1, 3), (0, (3,)): Fraction(-2, 3)}
    assert x_on(0, {(-2, (2,)): 1}) == image
    assert x_on(-1, half_relabel({(-2, (2,)): 1})) == half_relabel(image)


def test_half_shift_intertwines_modes():
    # h x(m) = x(m-1) h, exactly
    both = half_relabel(x_on(-1, VAC0)), x_on(-2, half_relabel(VAC0))
    assert both[0] == both[1] == {(3, ()): 1}
    assert bidegree((3, ())) == (Fraction(9, 4), Fraction(3, 2))
    for state in all_states(6, half_lattice=False) + all_states(6, half_lattice=True):
        v = {state: 1}
        for m in range(-6, 7):
            assert half_relabel(x_on(m, v)) == x_on(m - 1, half_relabel(v))


def apply_monomial_as_vector(indices, two_r):
    """``apply_monomial`` on the vacuum of 2r = two_r as a Fock vector: each
    coordinate over its z_lambda, on the states of 2r + 2k and size
    -sum(m) - k 2r - k^2, k the number of factors."""
    coords = apply_monomial(indices, two_r)
    k = len(indices)
    size = -sum(indices) - k * two_r - k * k
    with_z = fock._partitions_with_z(size) if coords else ()
    return {
        (two_r + 2 * k, lam): Fraction(c, z)
        for (lam, z), c in zip(with_z, coords, strict=True)
        if c
    }


def test_apply_monomial_matches_composition(monkeypatch, x_by_exponential):
    assert apply_monomial((), 0) == (1,)
    assert apply_monomial((-3,), 0) == (1, 1)
    assert apply_monomial((-1,), 1) == ()
    # on the vacua of both cosets, images that divide a common multiple
    # above 1 back out, read from a spy on _unscaled
    scales = set()
    real = fock._unscaled

    def spy(blocks):
        scale, states = real(blocks)
        scales.add(scale)
        return scale, states

    monkeypatch.setattr(fock, "_unscaled", spy)
    for two_r in range(-2, 3):
        for indices in ((-3, -1), (-5, -3), (-7, -4), (-4, -2, -2), (-6, -3, -1), (-2, 0, 1)):
            composed = by_formula = {(two_r, ()): 1}
            for m in reversed(indices):
                composed = x_on(m, composed)
                by_formula = x_by_exponential(m, by_formula)
            assert apply_monomial_as_vector(indices, two_r) == composed == by_formula
    assert scales - {1}
    # both cosets, sizes 0 to 6, coefficients with unlike denominators
    v = {
        (0, ()): Fraction(1, 3),
        (0, (1, 1)): Fraction(-5, 6),
        (1, (2,)): Fraction(7, 4),
        (-2, (1, 2, 3)): Fraction(2, 9),
        (-1, (1, 1, 2)): Fraction(-3, 10),
        (2, (3, 3)): Fraction(11, 12),
    }
    for indices in ((-3, -1), (-4, -2, -2), (-2, 0, 1)):
        composed = by_formula = v
        for m in reversed(indices):
            composed = x_on(m, composed)
            by_formula = x_by_exponential(m, by_formula)
        assert composed
        assert composed == by_formula


def test_weight_charge_values(x_by_exponential):
    """The image of x(m1)...x(mk) on e^{r alpha} has weight r^2 - sum m_i
    and charge r + k, so the coordinates of ``apply_monomial`` run over
    the partitions of weight - charge^2."""
    assert apply_monomial((-4, -2), 0) == (0, -2)
    assert apply_monomial_as_vector((-4, -2), 0) == {(4, (2,)): -1}
    assert bidegree((4, (2,))) == (6, 2)
    for two_r in range(-3, 4):
        for indices in ((-3,), (-3, -1), (-5, -3), (-4, -2, -2), (-6, -3, -1)):
            weight = Fraction(two_r * two_r, 4) - sum(indices)
            charge = Fraction(two_r, 2) + len(indices)
            coords = apply_monomial(indices, two_r)
            composed = {(two_r, ()): 1}
            for m in reversed(indices):
                composed = x_by_exponential(m, composed)
            assert all(bidegree(state) == (weight, charge) for state in composed)
            if composed:
                assert len(coords) == len(partitions(weight - charge * charge, 1))
            else:
                assert coords == ()


def test_basis_states_order(x_by_exponential):
    """The coordinates of the tables and of ``apply_monomial`` run over
    ``partitions(size, 1)``: non-decreasing tuples in lexicographic order,
    and none for a negative size."""
    assert partitions(3, 1) == ((1, 1, 1), (1, 2), (3,))
    assert partitions(-1, 1) == ()
    assert fock._partition_index(3) == {(1, 1, 1): 0, (1, 2): 1, (3,): 2}
    # x(-6) x(-2) e^0 has a distinct coordinate in almost every place
    assert apply_monomial((-6, -2), 0) == (2, 0, -1, -2, -2)
    image = {
        (4, (1, 1, 1, 1)): Fraction(1, 12),
        (4, (1, 3)): Fraction(-1, 3),
        (4, (2, 2)): Fraction(-1, 4),
        (4, (4,)): Fraction(-1, 2),
    }
    assert apply_monomial_as_vector((-6, -2), 0) == image
    assert x_by_exponential(-6, x_by_exponential(-2, VAC0)) == image


def test_square_zero_small_bound():
    assert check_square_zero(3)


def test_square_zero_rejects_bad_bound():
    with pytest.raises(ValueError):
        check_square_zero(0)


def test_odd_component_sum_annihilates_highest_weight_vector():
    # weight-3 sum applied to the half-lattice vacuum, assembled by hand
    total = {}
    for m2 in range(-4, 1):
        total = add(total, x_on(-3 - m2, x_on(m2, VAC1)))
    assert total == {}


def recursion_mismatches(x_by_exponential, size_max, two_r_range, m_min, m_over):
    """(m, state) pairs where the table differs from the exponential formula,
    over |mu| <= size_max, 2r in two_r_range, m_min <= m <= |mu| + m_over;
    and the number of pairs compared.  The table is keyed by m + 2r and the
    formula is evaluated at each 2r as given, so this compares every lattice
    point of the range with the one image it shares."""
    bad, compared = [], 0
    for two_r in two_r_range:
        for size in range(size_max + 1):
            for mu in partitions(size, 1):
                for m in range(m_min, size + m_over + 1):
                    coords = fock._x_on_state(m + two_r, mu)
                    # one coordinate per partition lambda of the target size,
                    # or none, in the basis a(-lambda)/z_lambda
                    targets = fock._partitions_with_z(size - m - 1 - two_r) if coords else ()
                    image = {
                        (two_r + 2, lam): Fraction(c, z)
                        for (lam, z), c in zip(targets, coords, strict=True)
                        if c
                    }
                    compared += 1
                    if image != x_by_exponential(m, {(two_r, mu): 1}):
                        bad.append((m, (two_r, mu)))
    return bad, compared


def test_recursion_equals_exponential_formula(x_by_exponential):
    # the same images, each coordinate over its z_lambda, on 9774 pairs, one
    # 2r at a time over both cosets; the zero images past the annihilation
    # bound are compared too
    bad, compared = recursion_mismatches(x_by_exponential, 8, range(-4, 5), -4, 5)
    assert compared == 9774
    assert bad == []


REAL_X_ON_STATE = fock._x_on_state
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
    }
    assert check_square_zero(3)
    assert apply_monomial((-3, -2), -1)
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


def test_apply_monomial_rejects_a_remainder(monkeypatch, fresh_tables):
    """x(-3)^2 e^0 takes x(-3) e^0 = (a(-1)^2/2 + a(-2)/2) e^alpha back to
    the basis a(-lambda) times Z = 2, and divides the second images by 2
    again.  One integer of x(-1) on a(-1)^2 e^alpha off by one leaves a
    remainder, which is a bug, not data."""
    assert apply_monomial((-3, -3), 0) == (-2, 2)

    @functools.cache
    def perturbed(s, mu):
        coords = REAL_X_ON_STATE(s, mu)
        return (coords[0] + 1, *coords[1:]) if (s, mu) == (-1, (1, 1)) else coords

    fresh_tables()
    monkeypatch.setattr(fock, "_x_on_state", perturbed)
    with pytest.raises(ArithmeticError):
        apply_monomial((-3, -3), 0)


RECURSION_MUTANTS = {
    # x(m)(mu; r) = a(-n) x(m)(mu \ n; r) + 2 x(m-n)(mu \ n; r)
    "plus_two": lambda mp: mp.setattr(fock, "_PAIRING", -2),
    # z_lambda without its mult! factor, wrong on every repeated part
    "z_without_factorial": lambda mp: mp.setattr(fock, "_z_factor", math.prod),
    "one_image": perturb_one_image,
    # the a(-n) weight of the recursion without mult_n(lambda) + 1
    "weight_without_multiplicity": drop_multiplicity,
}


def halve_one_coefficient(monkeypatch):
    """R_10 at floor -1 with the coefficient of x(-5)^2 halved, read by
    ``relations.ideal_piece`` through the module name.  Every other lemma
    of ``lemmas --t-max 6`` reads only the R_t with t <= 8."""
    real = relations.quadratic_relation

    def patched(t, floor=-1):
        rel = real(t, floor)
        return rel - x(-5) * x(-5) * Fraction(1, 2) if (t, floor) == (10, -1) else rel

    monkeypatch.setattr(relations, "quadratic_relation", patched)


def change_one_entry(monkeypatch):
    """E(lambda0, 10, 2) with one more at its first entry; every column is
    a term of R_10, so E no longer kills it."""
    real = verify.eval_matrix

    def patched(*piece):
        m = real(*piece)
        if piece != ("lambda0", 10, 2):
            return m
        first = min(m.entries)
        entries = {**m.entries, first: m.entries[first] + 1}
        return SparseMatQ(m.n_rows, m.n_cols, entries)

    monkeypatch.setattr(verify, "eval_matrix", patched)


# mutants of what the vacuum half reads: R_u and E(lambda0, u, 2)
VACUUM_MUTANTS = {
    "halved_relation": halve_one_coefficient,
    "changed_entry": change_one_entry,
}


@pytest.mark.parametrize("mutant", list(RECURSION_MUTANTS))
def test_recursion_mutants_fail_lemmas(capsys, monkeypatch, fresh_tables, mutant):
    RECURSION_MUTANTS[mutant](monkeypatch)
    code = main(["lemmas", "--max-weight", "4", "--format", "json"])
    lemmas = json.loads(capsys.readouterr().out)["lemmas"]
    assert code == 1
    assert lemmas["square_zero"] is False
    assert [name for name, ok in lemmas.items() if not ok] == ["square_zero"]


@pytest.mark.parametrize("mutant", list(RECURSION_MUTANTS))
def test_recursion_mutants_reach_warm_tables_once_reset(
    capsys, monkeypatch, fresh_tables, mutant
):
    # the real images are in the tables, then the reset empties them
    assert check_square_zero(4)
    fresh_tables()
    RECURSION_MUTANTS[mutant](monkeypatch)
    assert main(["lemmas", "--max-weight", "4", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["lemmas"]["square_zero"] is False


@pytest.mark.parametrize("mutant", list(VACUUM_MUTANTS))
def test_vacuum_mutants_fail_lemmas(capsys, monkeypatch, mutant):
    VACUUM_MUTANTS[mutant](monkeypatch)
    code = main(["lemmas", "--max-weight", "4", "--t-max", "6", "--format", "json"])
    lemmas = json.loads(capsys.readouterr().out)["lemmas"]
    assert code == 1
    assert [name for name, ok in lemmas.items() if not ok] == ["square_zero"]


# the brute half reads the tables of states and the z-factors of _unscaled;
# the vacuum half reads R_u and E(lambda0, u, 2), and no table of fock
HALF_MUTANTS = [(mutant, "_brute_sweep") for mutant in RECURSION_MUTANTS] + [
    (mutant, "_vacuum_check") for mutant in VACUUM_MUTANTS
]


@pytest.mark.parametrize(("mutant", "half"), HALF_MUTANTS)
def test_each_square_zero_half_rejects_recursion_mutants(
    monkeypatch, fresh_tables, mutant, half
):
    (RECURSION_MUTANTS | VACUUM_MUTANTS)[mutant](monkeypatch)
    assert getattr(fock, half)(4) is False


def vacuum_keys(monkeypatch, weight_bound):
    """Every u that ``fock._vacuum_check(weight_bound)`` decides, in order,
    from a spy on ``verify.square_kills_vacuum``, which it reads at call
    time."""
    keys = []
    real = verify.square_kills_vacuum
    monkeypatch.setattr(verify, "square_kills_vacuum", lambda u: keys.append(u) or real(u))
    assert fock._vacuum_check(weight_bound)
    monkeypatch.setattr(verify, "square_kills_vacuum", real)
    return keys


def newton_keys(monkeypatch, oracle, weight_bound, table="x_on_h"):
    """Every (s, j) that the Newton oracle reads from its table named, from
    cold, on the keys of ``_vacuum_check(weight_bound)``: its recursion
    reads both tables through the oracle, so the spy sees each key it
    builds.  The oracle passes on every key."""
    keys = set()
    real = getattr(oracle, table)

    def spy(s, j):
        keys.add((s, j))
        return real(s, j)

    monkeypatch.setattr(oracle, table, spy)
    assert all(map(oracle.vacuum_kills, vacuum_keys(monkeypatch, weight_bound)))
    monkeypatch.setattr(oracle, table, real)
    return keys


def test_the_newton_oracle_agrees_with_the_e_route_to_weight_10(monkeypatch, newton_oracle):
    # every u = t - 4r of the vacuum range at weight 10; the key sets nest
    # as the bound grows, so this covers every bound up to 10.  The vacuum
    # half decides the 33 keys u >= 2; below, no pair acts, the oracle sums
    # nothing and the lambda0 piece (u, 2) has no block.
    keys = sorted({t - 2 * two_r for t, (two_r, _) in vacuum_check_range(10)})
    assert len(keys) == 67
    assert {t - 2 * two_r for t, (two_r, _) in vacuum_check_range(9)} < set(keys)
    assert vacuum_keys(monkeypatch, 10) == [u for u in keys if u >= 2]
    oracle = newton_oracle()
    assert [oracle.vacuum_kills(u) for u in keys] == list(map(verify.square_kills_vacuum, keys))


def newton_weight_one(monkeypatch, oracle):
    """V(s, j) with every Newton weight (j-1)!/(j-n)! replaced by 1."""
    monkeypatch.setattr(oracle, "perm", lambda n, k: 1)


def perturb_one_newton_image(monkeypatch, oracle):
    """V(-4, 2) = 2! x(m) h_2(a) e^{r alpha} for m + 2r = -4, with its first
    integer, that of partitions(5, 1)[0] = (1, 1, 1, 1, 1), off by one; the
    recursion and ``vacuum_kills`` read it through the oracle."""
    real = oracle.x_on_h

    @functools.cache
    def perturbed(s, j):
        coords = real(s, j)
        if (s, j) == (-4, 2):
            first, *rest = coords
            return (first + 1, *rest)
        return coords

    monkeypatch.setattr(oracle, "x_on_h", perturbed)


def shifted_factor_j(monkeypatch, oracle):
    """U(s, j) = V(s-1, j-1) + j U(s-1, j-1), the factor j - 1 of
    ``x_on_h_shifted`` raised to j; V and the recursion read U through the
    oracle."""

    @functools.cache
    def wrong(s, j):
        head = oracle.x_on_h(s - 1, j - 1)
        tail = wrong(s - 1, j - 1) if j > 1 else ()
        if not tail:
            return head
        return tuple(a + j * c for a, c in zip(head or [0] * len(tail), tail))

    monkeypatch.setattr(oracle, "x_on_h_shifted", wrong)


# mutants of the Newton tables of the oracle, x(m) on h_j e^alpha
NEWTON_MUTANTS = {
    "newton_weight_one": newton_weight_one,
    "one_newton_image": perturb_one_newton_image,
    "shifted_factor_j": shifted_factor_j,
}


@pytest.mark.parametrize("mutant", ["plus_two", "weight_without_multiplicity", *NEWTON_MUTANTS])
def test_table_mutants_fail_the_newton_oracle_and_spare_the_e_route(
    monkeypatch, fresh_tables, newton_oracle, mutant
):
    # the oracle reads _PAIRING and _insert_part of fock and its own
    # tables; the vacuum half reads none of them
    keys = vacuum_keys(monkeypatch, 6)
    oracle = newton_oracle()
    if mutant in NEWTON_MUTANTS:
        NEWTON_MUTANTS[mutant](monkeypatch, oracle)
    else:
        RECURSION_MUTANTS[mutant](monkeypatch)
    assert not all(map(oracle.vacuum_kills, keys))
    assert fock._vacuum_check(6)


def partition_sum_mismatches(oracle, keys):
    """The (s, j) in keys where V(s, j) = ``oracle.x_on_h(s, j)`` is not
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
        if list(oracle.x_on_h(s, j)) != expected:
            bad.append((s, j))
    return bad


def test_newton_table_equals_the_partition_sum(monkeypatch, fresh_tables, newton_oracle):
    oracle = newton_oracle()
    keys = newton_keys(monkeypatch, oracle, 6)
    assert len(keys) == 121
    assert partition_sum_mismatches(oracle, keys) == []


def test_shifted_table_equals_the_direct_sum(monkeypatch, fresh_tables, newton_oracle):
    # U(s, j) = sum_{n=1..j} (j-1)!/(j-n)! V(s-n, j-n), exactly, on every
    # (s, j) that the oracle reads on the vacuum keys
    oracle = newton_oracle()
    keys = newton_keys(monkeypatch, oracle, 6, "x_on_h_shifted")
    assert len(keys) == 100
    bad = []
    for s, j in keys:
        size = j - s - 1
        total = [0] * len(fock.partitions(size, 1))
        for n in range(1, j + 1):
            image = oracle.x_on_h(s - n, j - n)
            f = math.perm(j - 1, n - 1)
            total = [a + f * c for a, c in zip(total, image or [0] * len(total))]
        if list(oracle.x_on_h_shifted(s, j)) != (total if any(total) else []):
            bad.append((s, j))
    assert bad == []


@pytest.mark.parametrize("mutant", list(NEWTON_MUTANTS))
def test_the_partition_sum_rejects_the_newton_mutants(
    monkeypatch, fresh_tables, newton_oracle, mutant
):
    keys = newton_keys(monkeypatch, newton_oracle(), 6)
    oracle = newton_oracle()
    NEWTON_MUTANTS[mutant](monkeypatch, oracle)
    assert partition_sum_mismatches(oracle, keys)


def test_vacuum_kills_weighs_the_pair_j_by_the_last_j_factorial_over_j_factorial(
    monkeypatch, newton_oracle
):
    # S_8 e^0 has the pairs m2 = -7..-4, that is j = 0..3 and s = m2 + 2,
    # with pair factors 2, 2, 2, 1: the sum 2 3!/0! V_0 + 2 3!/1! V_1 +
    # 2 3!/2! V_2 + V_3, zero images too, is zero here and then is not
    images = {(-5, 0): (1, 2), (-4, 1): (1, 0), (-3, 2): (), (-2, 3): (-24, -24)}
    oracle = newton_oracle()
    monkeypatch.setattr(oracle, "x_on_h", lambda s, j: images[(s, j)])
    assert oracle.vacuum_kills(8)
    images[(-2, 3)] = (-24, -23)
    assert not oracle.vacuum_kills(8)


@pytest.mark.parametrize("mutant", ["one_image", "z_without_factorial"])
def test_the_partition_sum_rejects_the_mutants_the_vacuum_half_cannot_read(
    monkeypatch, fresh_tables, newton_oracle, mutant
):
    RECURSION_MUTANTS[mutant](monkeypatch)
    # the Newton oracle of the vacuum half passes: it reads neither mutated
    # table, and the vacuum half reads no table at all
    oracle = newton_oracle()
    keys = newton_keys(monkeypatch, oracle, 6)
    assert partition_sum_mismatches(oracle, keys)


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
    vacua = [(two_r, ()) for two_r in range(-2 * w, 2 * w + 1)]
    return [
        (t, vacuum)
        for vacuum in vacua
        if bidegree(vacuum)[0] <= w
        for t in range(-2 * w, 3 * w + 1)
        if t <= 3 * w - bidegree(vacuum)[0]
    ]


def spy_on_decisions(monkeypatch):
    """{half: [(u, mu) for each decision]}, filled from the call on, with
    each ``_component_kills(u, mu)`` and each ``verify.square_kills_vacuum(u)``,
    as (u, ()), filed under the half that made it."""
    decided = {}
    for half in ("_brute_sweep", "_vacuum_check"):
        real = getattr(fock, half)

        def run(w, half=half, real=real):
            decided[half] = []
            return real(w)

        monkeypatch.setattr(fock, half, run)
    real_kills = fock._component_kills
    real_vacuum_kills = verify.square_kills_vacuum

    def kills(u, mu):
        decided[list(decided)[-1]].append((u, mu))
        return real_kills(u, mu)

    def vacuum_kills(u):
        decided[list(decided)[-1]].append((u, ()))
        return real_vacuum_kills(u)

    monkeypatch.setattr(fock, "_component_kills", kills)
    monkeypatch.setattr(verify, "square_kills_vacuum", vacuum_kills)
    return decided


def test_square_zero_decides_each_translated_key_once_per_half(monkeypatch):
    # S_t (mu; r) = h^{2r} S_{t-4r} (mu; 0): each half decides the distinct
    # keys (t - 2 * two_r, mu) of its range, each one once; the vacuum half
    # only those with t - 2 * two_r >= 2, since no pair acts below
    decided = spy_on_decisions(monkeypatch)
    for w in range(1, 7):
        decided.clear()
        assert check_square_zero(w)
        expected = {
            "_brute_sweep": brute_sweep_range(min(w, fock.BRUTE_SWEEP_WEIGHT)),
            "_vacuum_check": [
                (t, vacuum) for t, vacuum in vacuum_check_range(w) if t - 2 * vacuum[0] >= 2
            ],
        }
        assert list(decided) == list(expected)
        for half, pairs in expected.items():
            keys = {(t - 2 * two_r, mu) for t, (two_r, mu) in pairs}
            assert len(decided[half]) == len(set(decided[half]))
            assert set(decided[half]) == keys


def test_square_zero_counts_from_cold_tables(monkeypatch, fresh_tables):
    # the vacuum half builds no fock table; the sweep then builds 408
    # images in the one table of states, and the halves decide 272 and 21
    # sums
    decided = spy_on_decisions(monkeypatch)
    assert fock._vacuum_check(6)
    assert not any(table.cache_info().currsize for table in FOCK_TABLES.values())
    decided.clear()
    assert check_square_zero(6)
    assert fock._x_on_state.cache_info().currsize == 408
    assert {half: len(keys) for half, keys in decided.items()} == {
        "_brute_sweep": 272,
        "_vacuum_check": 21,
    }


def square_by_exponential(x_by_exponential, t, state):
    """S_t on a basis state (two_r, mu), with every x(m) from the
    exponential formula and 2r as given: x(m1) x(m2) in both orders for
    each pair m1 >= m2, m1 + m2 = -t, with m1 within the annihilation bound
    of the state.  Also whether any one composite was nonzero on some
    intermediate state."""
    two_r, mu = state
    m_top = sum(mu) - 1 - two_r
    total = {}
    any_nonzero = False
    for m1 in range(-(t // 2), m_top + 1):
        m2 = -t - m1
        for first, second in {(m1, m2), (m2, m1)}:
            for mid, c in x_by_exponential(first, {state: 1}).items():
                ends = x_by_exponential(second, {mid: c})
                any_nonzero = any_nonzero or bool(ends)
                total = add(total, ends)
    return total, any_nonzero


def test_square_zero_ranges_by_exponential_formula_on_every_lattice_point(x_by_exponential):
    # no table and no translation: S_t on every (t, 2r, mu) of both halves
    # at bound 2, with r as given, cancels to zero
    pairs = brute_sweep_range(2) + vacuum_check_range(2)
    assert len(pairs) == 108 + 51
    results = [square_by_exponential(x_by_exponential, t, state) for t, state in pairs]
    assert all(total == {} for total, _ in results)
    # the cancellation is not vacuous: on 40 of them some composite is not zero
    assert sum(any_nonzero for _, any_nonzero in results) == 40
