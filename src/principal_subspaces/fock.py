r"""Exact lattice Fock realization of the two level-one highest weight modules.

A basis state is a pair (mu; r): mu a partition listing Heisenberg creation
factors a(-n), and r the lattice coordinate, integral for one module and
half-integral for the other.  The state has weight |mu| + r^2 and charge r.

The vertex operator attached to the root vector, with the lattice cocycle
taken identically 1, acts through its components x(m): x(m) raises charge
by 1 and weight by -m.  They are built by a recursion on |mu|:

    x(m) e^{r alpha} = sum over lambda |- -m-1-2r of a(-lambda) e^{(r+1) alpha} / z_lambda,
    x(m)(mu; r)      = a(-n) x(m)(mu \ n; r) - 2 x(m-n)(mu \ n; r),

with n the largest part of mu and z_lambda = prod part^mult * mult!.  The
base case is the x^(-m-1) coefficient of exp(sum_{n>0} a(-n) x^n / n) x^(2r)
on the shifted vacuum.  The step is the commutator
[a(-n), x(m)] = 2 x(m-n), which the pairing <alpha, alpha> = 2 gives, along
with a(n) a(-n) - a(-n) a(n) = 2n.  Removing any other part of mu gives
the same image.  By induction on |mu|, expanding by two parts n1 and n2 in
either order gives the same four terms on mu \ {n1, n2}:

    a(-n1) a(-n2) x(m) - 2 a(-n1) x(m-n2) - 2 a(-n2) x(m-n1) + 4 x(m-n1-n2).

So the bracket holds for every n on every state.  The exponential formula

    exp(+sum_{n>0} a(-n) x^n / n) * exp(-sum_{n>0} a(n) x^-n / n)
        * (lattice shift r -> r+1) * x^(2r)

has the same base case and the same bracket, so it gives the same
operators; the tests keep it as an exact oracle for the tables.  x(m)
kills a state once m > |mu| - 1 - 2r, so every action is a finite exact
sum, and all the component operators commute.

Both lines of the recursion see m and r only through s = m + 2r: the base
case sums over the partitions of -s-1, and the step keeps s in its first
term and lowers it to s - n in its second.  So the relabelling h, (mu; r)
-> (mu; r + 1/2), intertwines x(m) h = h x(m+1), and x(m) (mu; r) =
h^{2r} x(m + 2r) (mu; 0): the images on every lattice point, in both
cosets, are one image relabelled, and the key m + 2r carries h.

x(m) on the basis states (mu; r) is computed once for each value of m + 2r
and tabulated, keyed by the plain tuple (m + 2r, mu), in the basis
a(-lambda)/z_lambda: a dense tuple with one integer for each partition
lambda of the target size, in ``partitions`` order.  In that basis the
base case is all ones (Macdonald I.2: h_n = sum p_lambda / z_lambda), and
a(-n) moves the coordinate of lambda to lambda + n with the weight
z_{lambda+n} / z_lambda = n (mult_n(lambda) + 1), so every image is an
integer tuple with no denominator.  These tables are the one
representation of Fock vectors.  The action of a monomial x(m_1)...x(m_k),
given as its sorted index tuple (m_1, ..., m_k), and the state-by-state
half of the square-zero check sum images through one accumulator,
``_x_sum``, which adds them position by position in one dense list per
(coset, size).  The tables are keyed by the states (lambda; r) of the
basis a(-lambda), so between two x(m) a sum goes back to that basis
through ``_unscaled``: each coordinate over its z_lambda, all times one
common multiple, the lcm of the z_lambda present.  Every z_lambda is read
from ``_partitions_with_z``.  ``apply_monomial`` returns a vacuum image
as one such integer tuple, and divides that multiple out exactly after
each x(m).  The tables (x(m) images on states, partitions with their
z-factors and their positions, and ``_insert_part``, the positions and
weights of a(-n) in the basis a(-lambda)/z_lambda) are ``functools.cache``
functions: unbounded, kept for the life of the process, and each reports
``cache_info()``.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from typing import Iterable, Sequence

# <alpha, alpha>: a(n) a(-n) - a(-n) a(n) = _PAIRING * n and
# [a(-n), x(m)] = _PAIRING * x(m-n)
_PAIRING = 2

# check_square_zero runs its state-by-state sweep to this weight
BRUTE_SWEEP_WEIGHT = 4


@functools.cache
def partitions(n: int, min_part: int = 1) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts >= min_part, as non-decreasing tuples
    in lexicographic order.  The cache keys on the arguments as passed, so
    callers in this module always pass min_part."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min_part, n + 1)
        for rest in partitions(n - first, first)
    )


def _z_factor(lam: tuple[int, ...]) -> int:
    z = 1
    for part, mult in Counter(lam).items():
        z *= part**mult * math.factorial(mult)
    return z


@functools.cache
def _partitions_with_z(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple((lam, _z_factor(lam)) for lam in partitions(n, 1))


# x(m) on a basis state (mu; r) in the basis a(-lambda)/z_lambda: one integer
# coordinate for each partition lambda of the target size |mu| - m - 1 - 2r,
# in partitions(size, 1) order, on the states (lambda; r + 1).  A zero image
# is ().
_XImage = tuple[int, ...]


@functools.cache
def _x_on_state(s: int, mu: tuple[int, ...]) -> _XImage:
    """x(m) on (mu; r) for every m + 2r = s, by the recursion of the module
    docstring, in the basis a(-lambda)/z_lambda.  The base case
    sum_lambda a(-lambda)/z_lambda is all ones (Macdonald I.2: h_n =
    sum_lambda p_lambda/z_lambda), and a(-n) moves each coordinate by
    ``_insert_part``, so every image is an integer tuple."""
    size = sum(mu) - s - 1
    if size < 0:
        return ()
    if not mu:
        return (1,) * len(partitions(size, 1))
    n = mu[-1]
    rest = mu[:-1]
    created = _x_on_state(s, rest)
    shifted = _x_on_state(s - n, rest)
    # the shifted image has the target size; the created one has size - n
    acc = [-_PAIRING * c for c in shifted] or [0] * len(partitions(size, 1))
    positions, weights = _insert_part(size - n, n)
    for i, w, c in zip(positions, weights, created):
        acc[i] += w * c
    return tuple(acc) if any(acc) else ()


@functools.cache
def _partition_index(size: int) -> dict[tuple[int, ...], int]:
    """The position of each partition of size in partitions(size, 1)."""
    return {lam: i for i, lam in enumerate(partitions(size, 1))}


@functools.cache
def _insert_part(size: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """a(-n) in the basis a(-lambda)/z_lambda, for each partition lambda of
    size in partitions(size, 1) order: (positions, weights).  The position is
    that of lambda + n in partitions(size + n, 1), read from
    ``_partition_index``; a(-n) maps distinct states to distinct states, so
    the positions are distinct.  The weight is z_{lambda+n} / z_lambda =
    n (mult_n(lambda) + 1), since a(-n) a(-lambda) / z_lambda =
    (z_{lambda+n} / z_lambda) a(-lambda-n) / z_{lambda+n}."""
    index = _partition_index(size + n)
    positions, weights = [], []
    for lam in partitions(size, 1):
        i = bisect.bisect_right(lam, n)
        positions.append(index[lam[:i] + (n,) + lam[i:]])
        weights.append(n * (i - bisect.bisect_left(lam, n, 0, i) + 1))
    return tuple(positions), tuple(weights)


# a sum of x(m) images in the basis a(-lambda)/z_lambda: {(two_r, size):
# coordinates}, one dense list over partitions(size, 1) for the states
# (lambda; two_r/2) with |lambda| = size
_XSum = dict[tuple[int, int], list[int]]


def _x_sum(terms: Iterable[tuple[int, tuple[int, ...], int, int]]) -> _XSum:
    """The sum of n x(m) (mu; two_r/2) over the (m + two_r, mu, two_r, n) in
    terms, in the basis a(-lambda)/z_lambda.  The lists are keyed by size,
    not by length: p(0) = p(1) = 1."""
    out: _XSum = {}
    for s, mu, two_r, n in terms:
        image = _x_on_state(s, mu)
        if not image:
            continue
        key = (two_r + 2, sum(mu) - s - 1)
        acc = out.get(key)
        out[key] = (
            [n * c for c in image]
            if acc is None
            else [a + n * c for a, c in zip(acc, image)]
        )
    return out


def _unscaled(
    blocks: Iterable[tuple[object, int, Sequence[int]]],
) -> tuple[int, list[tuple[object, tuple[int, ...], int]]]:
    """Blocks (key, size, coordinates in the basis a(-lambda)/z_lambda) in
    the basis a(-lambda), times one common multiple of the z_lambda present:
    (that multiple Z, [(key, lambda, c_lambda Z / z_lambda)] over the nonzero
    c_lambda).  Z is the lcm of those z_lambda, read from
    ``_partitions_with_z``."""
    entries = [
        (key, lam, z, c)
        for key, size, coords in blocks
        for (lam, z), c in zip(_partitions_with_z(size), coords)
        if c
    ]
    common = math.lcm(*(z for _, _, z, _ in entries))
    return common, [(key, lam, c * (common // z)) for key, lam, z, c in entries]


def apply_monomial(indices: tuple[int, ...], two_r: int) -> _XImage:
    """The monomial x(m1)...x(mk), given as its sorted index tuple, on the
    lattice vacuum e^{r alpha}, 2r = two_r, rightmost (largest) index
    first; the components commute, so the order is a convention, not a
    choice.  Returns the image sum_lambda
    coords_lambda a(-lambda)/z_lambda e^{(r+k) alpha}: coords a dense
    integer tuple over partitions(size, 1), or () for a zero image.

    Between two x(m) the sum goes back to the basis a(-lambda) through
    ``_unscaled``, times its common multiple Z, and the images that follow
    are divided by Z again.  Each division is exact: the partial product
    x(mi)...x(mk) e^{r alpha} is again a vacuum image, whose coordinate at
    a(-lambda)/z_lambda is the integer [z^e] z^{2r} Delta^2 p_lambda of the
    functional realization (the ``verify`` module docstring).  A remainder
    is a bug in the tables, not data, and raises ``ArithmeticError``."""
    out: _XSum = {(two_r, 0): [1]}
    for m in reversed(indices):
        scale, states = _unscaled((t, size, acc) for (t, size), acc in out.items())
        out = _x_sum((m + t, mu, t, n) for t, mu, n in states)
        for acc in out.values():
            for i, c in enumerate(acc):
                acc[i], rem = divmod(c, scale)
                if rem:
                    raise ArithmeticError(f"x{indices} on e^({two_r}/2 alpha) is not integral")
    # one bidegree, so at most one list
    acc = next(iter(out.values()), ())
    return tuple(acc) if any(acc) else ()


def check_square_zero(weight_bound: int) -> bool:
    """Verify that the weight-t component sums S_t of the squared vertex
    operator annihilate every basis state of weight <= weight_bound, over
    both lattice cosets, for all |t| <= 2*weight_bound.

    S_t sums x(m1)x(m2) over m1 + m2 = -t.  Two checks must both pass: the
    state-by-state sweep to weight min(weight_bound, BRUTE_SWEEP_WEIGHT),
    and S_t e^{r alpha} = 0 on the lattice vacua alone to weight_bound.

    The vacua carry the whole statement.  The x(m) are defined by the
    commutator recursion, so [a(-n), x(m)] = 2 x(m-n) for every n (module
    docstring), hence [a(-n), S_t] = 4 S_{t+n} and

        S_t a(-n) u = a(-n) S_t u - 4 S_{t+n} u.

    Induction on |mu| with t + weight fixed carries S_t u = 0 from
    (mu; r) down to the vacuum e^{r alpha}, at indices t' with
    t <= t' <= t + |mu|.  For a state of weight w <= W = weight_bound and
    |t| <= 2W this needs r^2 <= W and -2W <= t' <= 3W - r^2, the range
    ``_vacuum_check`` covers.

    Each sum is truncated to the finitely many pairs with both indices
    within the annihilation bound of the state; all omitted pairs act as
    zero termwise because the components commute.  Commutativity (a tested
    invariant: ``test_components_commute*``) is also used, in both checks,
    to fold the two orderings of a distinct pair into a factor 2, and in
    the sweep to evaluate each composite with the more annihilating index
    applied first, which keeps the intermediate vectors small.

    Both checks decide each lattice point through the integral one.  The
    relabelling h, (mu; r) -> (mu; r + 1/2), that the key m + 2r of the
    tables carries intertwines x(m) h = h x(m+1) (module docstring), so
    x(m1) x(m2) h^{2r} = h^{2r} x(m1 + 2r) x(m2 + 2r), and with m1 + m2 = -t

        S_t (mu; r) = h^{2r} S_{t - 4r} (mu; 0).

    h is bijective, so S_t kills (mu; r) exactly when S_{t-4r} kills
    (mu; 0).  The annihilation bound of (mu; r) is that of (mu; 0) lowered
    by 2r, so the truncated pairs, and which of them fold, correspond one
    to one.  Each check therefore decides every distinct (t - 4r, mu) of its
    range once, the sweep with ``_component_kills`` and the vacuum check with
    ``verify.square_kills_vacuum``; the keys are collected afresh on every
    call, and no verdict is kept between calls.

    The vacuum check is a generator verdict of ``verify``.  x(m) e^0 = 0
    for m >= 0, so only the pairs m1, m2 <= -1 act on e^0, with the pair
    factors 2 and 1 of R_u: S_u e^0 = F R_u, F the lambda0 Fock matrix of
    (u, 2) (``verify.fock_matrix``).  F and E = ``verify.eval_matrix`` have
    one kernel (the ``verify`` module docstring: s_mu and p_lambda span the
    same symmetric polynomials, Macdonald I.3), so S_u e^0 = 0 exactly when
    E(lambda0, u, 2) kills R_u; below u = 2 no pair acts.  So above
    ``BRUTE_SWEEP_WEIGHT`` the lemma reads no x(m) table at a vacuum: it
    rests on the recursion equalling the exponential formula (module
    docstring), which gives the functional realization that E evaluates,
    and on ker F = ker E.  The tests keep the route by the tables, x(m) on
    h_j(a) e^alpha by Newton's identity, as the oracle of this one.

    The zero test of the sweep is exact although no image carries a
    denominator.  ``_component_kills`` takes the first images in the basis
    a(-mid)/z_mid, multiplies each coordinate by Z / z_mid, with Z one
    common positive multiple of the z_mid present, and sums the second
    images in the basis a(-lambda)/z_lambda.  So it holds Z S_u (mu; 0)
    with the coefficient of each a(-lambda) multiplied by z_lambda.
    Multiplying every term by the same positive integer Z, and every
    coordinate by z_lambda > 0, cannot turn a nonzero vector into zero, so
    the integer lists are zero exactly when S_u (mu; 0) is.
    """
    if weight_bound < 1:
        raise ValueError("weight_bound must be >= 1")
    return _brute_sweep(min(weight_bound, BRUTE_SWEEP_WEIGHT)) and _vacuum_check(
        weight_bound
    )


def _brute_sweep(weight_bound: int) -> bool:
    """S_t kills every basis state of weight <= weight_bound, |t| <= 2*weight_bound."""
    two_r_limit = math.isqrt(4 * weight_bound)
    keys = dict.fromkeys(
        (t - 2 * two_r, mu)
        for two_r in range(-two_r_limit, two_r_limit + 1)
        for size in range((4 * weight_bound - two_r * two_r) // 4 + 1)
        for mu in partitions(size, 1)
        for t in range(-2 * weight_bound, 2 * weight_bound + 1)
    )
    return all(_component_kills(u, mu) for u, mu in keys)


def _vacuum_check(weight_bound: int) -> bool:
    """S_t kills e^{r alpha} for r^2 <= weight_bound and
    -2*weight_bound <= t <= 3*weight_bound - r^2, each u = t - 4r >= 2 by
    E(lambda0, u, 2) R_u (see check_square_zero)."""
    # verify imports this module, so this module reads verify at call time
    from .verify import square_kills_vacuum

    two_r_limit = math.isqrt(4 * weight_bound)
    keys = dict.fromkeys(
        t - 2 * two_r
        for two_r in range(-two_r_limit, two_r_limit + 1)
        for t in range(-2 * weight_bound, (12 * weight_bound - two_r * two_r) // 4 + 1)
    )
    return all(square_kills_vacuum(u) for u in keys if u >= 2)


def _component_kills(u: int, mu: tuple[int, ...]) -> bool:
    """S_u (mu; 0) == 0, with the pairs truncated and folded as described in
    check_square_zero; it decides S_t (mu; r) for every t - 4r = u."""
    m_top = sum(mu) - 1
    # the first images, with the size of each and the pair factor
    firsts = (
        ((m2, 1 if -u - m2 == m2 else 2), m_top + u + m2, _x_on_state(-u - m2, mu))
        for m2 in range(-u - m_top, (-u) // 2 + 1)
    )
    # the second x(m2) acts on the charge-1 states (mid; 1) of the basis
    # a(-mid), so the first images leave the basis a(-mid)/z_mid
    _, mids = _unscaled(firsts)
    terms = [
        (m2 + 2, mid, 2, pair_factor * n1) for (m2, pair_factor), mid, n1 in mids
    ]
    return not any(any(acc) for acc in _x_sum(terms).values())
