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
term and lowers it to s - n in its second.  This is the half-lattice
translation h = ``half_shift``, (mu; r) -> (mu; r + 1/2), which intertwines
x(m) h = h x(m+1).  So x(m) (mu; r) = h^{2r} x(m + 2r) (mu; 0): the images on
every lattice point, in both cosets, are one image relabelled.

Vectors are ``FockVector``s, the exact linear combinations of ``poly``
over Fock states.  x(m) on the basis states (mu; r) is computed once for
each value of m + 2r and tabulated, keyed by the plain tuple (m + 2r, mu),
as integer numerators over their least common denominator: a dense tuple
with one numerator for each partition of the target size, in
``partitions`` order.  No ``FockState`` is built inside the tables.
Monomial actions and the square-zero check both sum such images through
one accumulator, ``_x_sum``, which brings them to a common denominator and
adds them position by position in one dense list per (coset, size).  ``apply_monomial``, which ``x_act`` calls with one
generator, carries plain (mu, 2r, numerator) triples from one x(m) to the
next and builds the ``FockState`` keys and ``Fraction`` coefficients of its
result once, at the end.  The tables (x(m) images, partitions with
their z-factors, and ``_insert_part``, the positions a created part moves a
partition to) are ``functools.cache`` functions: unbounded, kept for the
life of the process, and each reports ``cache_info()``.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .poly import LinearCombination, Monomial, Scalar

# <alpha, alpha>: a(n) a(-n) - a(-n) a(n) = _PAIRING * n and
# [a(-n), x(m)] = _PAIRING * x(m-n)
_PAIRING = 2

# check_square_zero runs its state-by-state sweep to this weight
BRUTE_SWEEP_WEIGHT = 4


class FockState:
    """Basis state (mu; r): partition mu (non-decreasing tuple of positive
    integers) over the lattice point r*alpha, with r a half-integer.

    The coordinate is stored doubled as an int (``two_r``) so that state
    hashing and comparison stay integer-only in the hot paths.
    """

    __slots__ = ("mu", "two_r", "_hash")

    def __init__(self, mu: Iterable[int] = (), r: Scalar = 0, *, _two_r: int | None = None):
        mu = tuple(sorted(mu))
        if mu and mu[0] < 1:
            raise ValueError("Heisenberg parts must be positive integers")
        if _two_r is None:
            rf = Fraction(r)
            if rf.denominator not in (1, 2):
                raise ValueError("lattice coordinate must be a half-integer")
            _two_r = rf.numerator if rf.denominator == 2 else 2 * rf.numerator
        self.mu = mu
        self.two_r = _two_r
        self._hash = hash((mu, _two_r))

    @property
    def r(self) -> Fraction:
        return Fraction(self.two_r, 2)

    @property
    def weight(self) -> Fraction:
        return sum(self.mu) + Fraction(self.two_r * self.two_r, 4)

    @property
    def charge(self) -> Fraction:
        return Fraction(self.two_r, 2)

    def sort_key(self) -> tuple:
        return (self.two_r, sum(self.mu), self.mu)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self.mu == other.mu and self.two_r == other.two_r

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "FockState") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"FockState({self.mu!r}, {str(self.r)!r})"

    def __str__(self) -> str:
        factors = [
            f"a(-{part})" if mult == 1 else f"a(-{part})^{mult}"
            for part, mult in sorted(Counter(self.mu).items())
        ]
        head = "*".join(factors)
        tail = f"e{{{self.r}}}"
        return f"{head} {tail}" if head else tail


class FockVector(LinearCombination):
    """Finite exact combination of Fock states, with ``Scalar`` coefficients."""

    __slots__ = ()


def _as_vector(v: FockVector | FockState) -> FockVector:
    if isinstance(v, FockState):
        return FockVector({v: 1})
    return v


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


def heis_act(n: int, v: FockVector | FockState) -> FockVector:
    """Heisenberg mode a(n): creation for n < 0 (adds the part |n|),
    annihilation for n > 0 with a(n) a(-n) - a(-n) a(n) = 2n.  n = 0 is
    rejected; its eigenvalue is available through weight_charge."""
    if n == 0:
        raise ValueError("a(0) is diagonal; use weight_charge for its eigenvalue")
    out: dict[FockState, Scalar] = {}
    for s, c in _as_vector(v).terms.items():
        if n < 0:
            target = FockState(s.mu + (-n,), _two_r=s.two_r)
            coeff = c
        else:
            mult = s.mu.count(n)
            if not mult:
                continue
            rest = list(s.mu)
            rest.remove(n)
            target = FockState(rest, _two_r=s.two_r)
            coeff = c * _PAIRING * n * mult
        new = out.get(target, 0) + coeff
        if new:
            out[target] = new
        else:
            out.pop(target, None)
    return FockVector(out)


# x(m) on a basis state (mu; r), as integer numerators over their least
# common denominator: (denominator, numerators), one numerator for each
# partition lambda of the target size |mu| - m - 1 - 2r, in partitions(size, 1)
# order, on the states (lambda; r + 1).  A zero image is (1, ()).
_XImage = tuple[int, tuple[int, ...]]


@functools.cache
def _x_on_state(s: int, mu: tuple[int, ...]) -> _XImage:
    """x(m) on (mu; r) for every m + 2r = s, by the recursion of the module
    docstring."""
    size = sum(mu) - s - 1
    if size < 0:
        return (1, ())
    if not mu:
        # numerators over size!, which every z-factor divides
        scale = math.factorial(size)
        return _reduced(scale, [scale // z for _, z in _partitions_with_z(size)])
    n = mu[-1]
    rest = mu[:-1]
    den_created, created = _x_on_state(s, rest)
    den_shifted, shifted = _x_on_state(s - n, rest)
    den = math.lcm(den_created, den_shifted)
    # the shifted image has the target size; the created one has size - n
    scale = _PAIRING * (den // den_shifted)
    acc = [-scale * num for num in shifted] or [0] * len(partitions(size, 1))
    scale = den // den_created
    for i, num in zip(_insert_part(size - n, n), created):
        acc[i] += scale * num
    return _reduced(den, acc)


@functools.cache
def _insert_part(size: int, n: int) -> tuple[int, ...]:
    """For each partition of size, in partitions(size, 1) order, the position
    in partitions(size + n, 1) of the partition with the part n added; a(-n)
    maps distinct states to distinct states, so the positions are distinct."""
    index = {lam: i for i, lam in enumerate(partitions(size + n, 1))}
    positions = []
    for lam in partitions(size, 1):
        i = bisect.bisect_right(lam, n)
        positions.append(index[lam[:i] + (n,) + lam[i:]])
    return tuple(positions)


def _reduced(den: int, nums: list[int]) -> _XImage:
    """nums/den with the common factor removed."""
    if not any(nums):
        return (1, ())
    g = math.gcd(den, *nums)
    return (den // g, tuple([n // g for n in nums]))


# a sum of x(m) images: {(two_r, size): numerators}, one dense list over
# partitions(size, 1) for the states (lambda; two_r/2) with |lambda| = size
_XSum = dict[tuple[int, int], list[int]]


def _x_sum(
    den: int, terms: Iterable[tuple[int, tuple[int, ...], int, int]]
) -> tuple[int, _XSum]:
    """The sum of n x(m) (mu; two_r/2) over the (m + two_r, mu, two_r, n) in
    terms, divided by den, in integer form: (common denominator, dense
    numerators).  The lists are keyed by size, not by length: p(0) = p(1) = 1."""
    images = [
        (two_r + 2, sum(mu) - s - 1, n, _x_on_state(s, mu))
        for s, mu, two_r, n in terms
    ]
    step = math.lcm(*(d for _, _, _, (d, _) in images))
    out: _XSum = {}
    for two_r, size, n, (d, nums) in images:
        if not nums:
            continue
        scale = n * (step // d)
        acc = out.get((two_r, size))
        out[(two_r, size)] = (
            [scale * t for t in nums]
            if acc is None
            else [a + scale * t for a, t in zip(acc, nums)]
        )
    return den * step, out


def x_act(m: int, v: FockVector | FockState) -> FockVector:
    """Vertex operator component x(m): raises charge by 1 and weight by -m;
    annihilates any state once m exceeds |mu| - 1 - 2r."""
    return apply_monomial(Monomial((m,)), v)


def half_shift(v: FockVector | FockState) -> FockVector:
    """The half-lattice translation operator: relabels (mu; r) to
    (mu; r + 1/2).  Bijective, and intertwines x(m) with x(m-1)."""
    return FockVector(
        {
            FockState(s.mu, _two_r=s.two_r + 1): c
            for s, c in _as_vector(v).terms.items()
        }
    )


def weight_charge(v: FockVector | FockState) -> tuple[Fraction, Fraction]:
    """(weight, charge) of a nonzero bihomogeneous vector; weight lies in
    (1/4)Z and charge in (1/2)Z."""
    return _as_vector(v).bidegree()


def apply_monomial(mono: Monomial, v: FockVector | FockState) -> FockVector:
    """Act by the monomial x(m1)...x(mk), rightmost (largest) index first.
    The components commute, so the order is a convention, not a choice."""
    # v as integer numerators over the least common denominator den
    terms = _as_vector(v).terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    states = [(s.mu, s.two_r, c.numerator * (den // c.denominator)) for s, c in terms.items()]
    for m in reversed(mono.indices):
        if not states:
            break
        den, out = _x_sum(den, ((m + two_r, mu, two_r, n) for mu, two_r, n in states))
        states = [
            (lam, two_r, t)
            for (two_r, size), acc in out.items()
            for lam, t in zip(partitions(size, 1), acc)
            if t
        ]
    return FockVector._from_terms(
        {FockState(mu, _two_r=two_r): Fraction(n, den) for mu, two_r, n in states}
    )


def basis_states(n: int, r: Scalar) -> list[FockState]:
    """The canonical ordered basis of states (mu; r) with |mu| = n."""
    if n < 0:
        return []
    return [FockState(p, r) for p in partitions(n, 1)]


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
    to evaluate each composite with the more annihilating index applied
    first and to fold the two orderings of a distinct pair into a factor 2,
    which keeps the intermediate vectors small.

    Both checks decide each lattice point through the integral one.  The
    half-lattice translation h = ``half_shift`` intertwines x(m) h =
    h x(m+1) (module docstring), so x(m1) x(m2) h^{2r} = h^{2r} x(m1 + 2r)
    x(m2 + 2r), and with m1 + m2 = -t

        S_t (mu; r) = h^{2r} S_{t - 4r} (mu; 0).

    h is bijective, so S_t kills (mu; r) exactly when S_{t-4r} kills
    (mu; 0).  The annihilation bound of (mu; r) is that of (mu; 0) lowered
    by 2r, so the truncated pairs, and which of them fold, correspond one
    to one.  Each check therefore decides every distinct (t - 4r, mu) of its
    range once, with ``_component_kills``; the keys are collected afresh on
    every call, and no verdict is kept between calls.
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
    -2*weight_bound <= t <= 3*weight_bound - r^2."""
    two_r_limit = math.isqrt(4 * weight_bound)
    keys = dict.fromkeys(
        t - 2 * two_r
        for two_r in range(-two_r_limit, two_r_limit + 1)
        for t in range(-2 * weight_bound, (12 * weight_bound - two_r * two_r) // 4 + 1)
    )
    return all(_component_kills(u, ()) for u in keys)


def _component_kills(u: int, mu: tuple[int, ...]) -> bool:
    """S_u (mu; 0) == 0, with the pairs truncated and folded as described in
    check_square_zero; it decides S_t (mu; r) for every t - 4r = u."""
    m_top = sum(mu) - 1
    firsts = []
    for m2 in range(-u - m_top, (-u) // 2 + 1):
        m1 = -u - m2
        pair_factor = 1 if m1 == m2 else 2
        # the first image has size m_top - m1
        firsts.append((m2, m_top - m1, pair_factor, _x_on_state(m1, mu)))
    # the first images over one common denominator; the zero test is then
    # literal integer cancellation
    common = math.lcm(*(den for _, _, _, (den, _) in firsts))
    # the second x(m2) acts on the charge-1 states (mid; 1)
    terms = [
        (m2 + 2, mid, 2, pair_factor * (common // den) * n1)
        for m2, size, pair_factor, (den, first) in firsts
        for mid, n1 in zip(partitions(size, 1), first)
        if n1
    ]
    return not any(any(acc) for acc in _x_sum(common, terms)[1].values())
