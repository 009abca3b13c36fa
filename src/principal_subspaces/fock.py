"""Exact lattice Fock realization of the two level-one highest weight modules.

A basis state is a pair (mu; r): mu a partition listing Heisenberg creation
factors a(-n), and r the lattice coordinate, integral for one module and
half-integral for the other.  The state has weight |mu| + r^2 and charge r.

The vertex operator attached to the root vector acts by the exponential
formula

    exp(+sum_{n>0} a(-n) x^n / n) * exp(-sum_{n>0} a(n) x^-n / n)
        * (lattice shift r -> r+1) * x^(2r),

with the lattice cocycle taken identically 1; the component x(m) reads off
the x^(-m-1) coefficient.  With the pairing <alpha, alpha> = 2 this makes
a(n) a(-n) - a(-n) a(n) = 2n, kills x(m) v for m large (so every action is a
finite exact sum), and makes all the component operators commute.

Each x(m) on a basis state is computed once and tabulated as integer
numerators over their least common denominator.  Monomial actions and the
square-zero sweep run on that integer form and cancel terms by integer
arithmetic; ``Fraction`` coefficients appear only in the returned vectors.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Union

from .poly import Monomial

Scalar = Union[int, Fraction]

HALF = Fraction(1, 2)


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


class FockVector:
    """Finite rational combination of Fock states."""

    __slots__ = ("terms",)

    def __init__(
        self,
        terms: dict[FockState, Scalar] | Iterable[tuple[FockState, Scalar]] | None = None,
    ):
        acc: dict[FockState, Fraction] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for state, c in items:
                f = c if isinstance(c, Fraction) else Fraction(c)
                if not f:
                    continue
                prev = acc.get(state)
                new = f if prev is None else prev + f
                if new:
                    acc[state] = new
                elif prev is not None:
                    del acc[state]
        self.terms = acc

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[FockState, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        out = dict(self.terms)
        for state, c in other.terms.items():
            new = out.get(state, 0) + c
            if new:
                out[state] = new
            else:
                out.pop(state, None)
        res = FockVector()
        res.terms = out
        return res

    def __neg__(self) -> "FockVector":
        res = FockVector()
        res.terms = {s: -c for s, c in self.terms.items()}
        return res

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __mul__(self, other: Scalar) -> "FockVector":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return FockVector()
        res = FockVector()
        res.terms = {s: c * other for s, c in self.terms.items()}
        return res

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"FockVector({str(self)!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for i, (state, c) in enumerate(self.sorted_terms()):
            mag = abs(c)
            body = str(state) if mag == 1 else f"{mag}*{state}"
            if i == 0:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _as_vector(v: FockVector | FockState) -> FockVector:
    if isinstance(v, FockState):
        return FockVector({v: 1})
    return v


_PARTITIONS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def partitions(n: int, min_part: int = 1) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts >= min_part, as non-decreasing tuples
    in lexicographic order."""
    if n < 0:
        return ()
    key = (n, min_part)
    cached = _PARTITIONS.get(key)
    if cached is not None:
        return cached
    if n == 0:
        result: tuple[tuple[int, ...], ...] = ((),)
    else:
        acc: list[tuple[int, ...]] = []
        for first in range(min_part, n + 1):
            for rest in partitions(n - first, first):
                acc.append((first,) + rest)
        result = tuple(acc)
    _PARTITIONS[key] = result
    return result


_Z_FACTORS: dict[tuple[int, ...], int] = {}


def _z_factor(lam: tuple[int, ...]) -> int:
    z = _Z_FACTORS.get(lam)
    if z is None:
        z = 1
        for part, mult in Counter(lam).items():
            z *= part**mult * math.factorial(mult)
        _Z_FACTORS[lam] = z
    return z


_PARTITIONS_WITH_Z: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}


def _partitions_with_z(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    got = _PARTITIONS_WITH_Z.get(n)
    if got is None:
        got = tuple((lam, _z_factor(lam)) for lam in partitions(n))
        _PARTITIONS_WITH_Z[n] = got
    return got


_STATE_INTERN: dict[tuple[tuple[int, ...], int], FockState] = {}


def _interned_state(mu_sorted: tuple[int, ...], two_r: int) -> FockState:
    key = (mu_sorted, two_r)
    state = _STATE_INTERN.get(key)
    if state is None:
        state = FockState(mu_sorted, _two_r=two_r)
        _STATE_INTERN[key] = state
    return state


_ANNIHILATIONS: dict[tuple[int, ...], tuple[tuple[int, tuple[int, ...], int], ...]] = {}


def _annihilation_terms(mu: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Expansion of exp(-sum a(n)/n x^-n) on the state with partition mu:
    triples (removed_size, remaining_parts, integer coefficient)."""
    cached = _ANNIHILATIONS.get(mu)
    if cached is not None:
        return cached
    results: list[tuple[int, tuple[int, ...], int]] = [(0, (), 1)]
    for part, mult in sorted(Counter(mu).items()):
        new: list[tuple[int, tuple[int, ...], int]] = []
        for removed, kept, coeff in results:
            for k in range(mult + 1):
                new.append(
                    (
                        removed + k * part,
                        kept + (part,) * (mult - k),
                        coeff * (-2) ** k * math.comb(mult, k),
                    )
                )
        results = new
    frozen = tuple(results)
    _ANNIHILATIONS[mu] = frozen
    return frozen


def heis_act(n: int, v: FockVector | FockState) -> FockVector:
    """Heisenberg mode a(n): creation for n < 0 (adds the part |n|),
    annihilation for n > 0 with a(n) a(-n) - a(-n) a(n) = 2n.  n = 0 is
    rejected; its eigenvalue is available through weight_charge."""
    if n == 0:
        raise ValueError("a(0) is diagonal; use weight_charge for its eigenvalue")
    out: dict[FockState, Fraction] = {}
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
            coeff = c * 2 * n * mult
        new = out.get(target, 0) + coeff
        if new:
            out[target] = new
        else:
            out.pop(target, None)
    return FockVector(out)


# x(m) on a basis state, as integer numerators over their least common
# denominator: (denominator, ((target state, numerator), ...))
_XImage = tuple[int, tuple[tuple[FockState, int], ...]]

_X_TABLE: dict[tuple[int, FockState], _XImage] = {}


def _x_on_state(m: int, s: FockState) -> _XImage:
    key = (m, s)
    cached = _X_TABLE.get(key)
    if cached is not None:
        return cached
    two_r = s.two_r
    result: _XImage = (1, ())
    degree_max = -m - 1 - two_r + sum(s.mu)
    if degree_max >= 0:
        # accumulate integer numerators over degree_max!, which every
        # z-factor of a created partition divides
        scale = math.factorial(degree_max)
        acc: dict[tuple[int, ...], int] = {}
        for removed, kept, ann_coeff in _annihilation_terms(s.mu):
            degree_needed = -m - 1 - two_r + removed
            if degree_needed < 0:
                continue
            for lam, z in _partitions_with_z(degree_needed):
                numerator = ann_coeff * (scale // z)
                target = tuple(sorted(kept + lam))
                new = acc.get(target, 0) + numerator
                if new:
                    acc[target] = new
                else:
                    del acc[target]
        if acc:
            g = math.gcd(scale, *acc.values())
            result = (
                scale // g,
                tuple((_interned_state(mu, two_r + 2), n // g) for mu, n in acc.items()),
            )
    _X_TABLE[key] = result
    return result


def _integer_form(v: FockVector | FockState) -> tuple[int, dict[FockState, int]]:
    """A vector as (common denominator, {state: integer numerator})."""
    terms = _as_vector(v).terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {s: c.numerator * (den // c.denominator) for s, c in terms.items()}


def _x_step(m: int, den: int, nums: dict[FockState, int]) -> tuple[int, dict[FockState, int]]:
    """x(m) on the vector nums/den, in the same integer form."""
    images = [(n, _x_on_state(m, s)) for s, n in nums.items()]
    step = math.lcm(*(d for _, (d, _) in images))
    out: dict[FockState, int] = {}
    for n, (d, terms) in images:
        scale = n * (step // d)
        for target, t in terms:
            new = out.get(target, 0) + scale * t
            if new:
                out[target] = new
            else:
                del out[target]
    return den * step, out


def _fraction_vector(den: int, nums: dict[FockState, int]) -> FockVector:
    res = FockVector()
    res.terms = {s: Fraction(n, den) for s, n in nums.items()}
    return res


def x_act(m: int, v: FockVector | FockState) -> FockVector:
    """Vertex operator component x(m): raises charge by 1 and weight by -m;
    annihilates any state once m exceeds |mu| - 1 - 2r."""
    return _fraction_vector(*_x_step(m, *_integer_form(v)))


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
    vec = _as_vector(v)
    if vec.is_zero():
        raise ValueError("the zero vector has no bidegree")
    degrees = {(s.weight, s.charge) for s in vec.terms}
    if len(degrees) > 1:
        raise ValueError("vector mixes bidegrees")
    return degrees.pop()


def apply_monomial(mono: Monomial, v: FockVector | FockState) -> FockVector:
    """Act by the monomial x(m1)...x(mk), rightmost (largest) index first.
    The components commute, so the order is a convention, not a choice."""
    den, nums = _integer_form(v)
    for m in reversed(mono.indices):
        if not nums:
            break
        den, nums = _x_step(m, den, nums)
    return _fraction_vector(den, nums)


def basis_states(n: int, r: Scalar) -> list[FockState]:
    """The canonical ordered basis of states (mu; r) with |mu| = n."""
    if n < 0:
        return []
    return [FockState(p, r) for p in partitions(n)]


def check_square_zero(weight_bound: int) -> bool:
    """Verify that the weight-t component sums of the squared vertex
    operator annihilate every basis state of weight <= weight_bound, over
    both lattice cosets, for all |t| <= 2*weight_bound.

    Each sum over x(m1)x(m2), m1 + m2 = -t, is truncated to the finitely
    many pairs with both indices within the annihilation bound of the state;
    all omitted pairs act as zero termwise because the components commute.
    Commutativity (itself a tested invariant) is also used to evaluate each
    composite with the more annihilating index applied first and to fold the
    two orderings of a distinct pair into a factor 2, which keeps the
    intermediate vectors small.
    """
    if weight_bound < 1:
        raise ValueError("weight_bound must be >= 1")
    two_r_limit = math.isqrt(4 * weight_bound)
    for two_r in range(-two_r_limit, two_r_limit + 1):
        size_limit = (4 * weight_bound - two_r * two_r) // 4
        for size in range(size_limit + 1):
            for mu in partitions(size):
                state = FockState(mu, _two_r=two_r)
                m_top = size - 1 - two_r
                for t in range(-2 * weight_bound, 2 * weight_bound + 1):
                    if -t - m_top > m_top:
                        continue
                    # integer numerators over a running common denominator;
                    # the zero test is then literal integer cancellation
                    total: dict[FockState, int] = {}
                    common = 1
                    for m2 in range(-t - m_top, (-t) // 2 + 1):
                        m1 = -t - m2
                        den1, first = _x_on_state(m1, state)
                        if not first:
                            continue
                        pair_factor = 1 if m1 == m2 else 2
                        for mid, n1 in first:
                            den2, second = _x_on_state(m2, mid)
                            if not second:
                                continue
                            den = den1 * den2
                            lcm = den // math.gcd(common, den) * common
                            if lcm != common:
                                factor = lcm // common
                                for key in total:
                                    total[key] *= factor
                                common = lcm
                            scale = (common // den) * pair_factor * n1
                            for target, n2 in second:
                                new = total.get(target, 0) + scale * n2
                                if new:
                                    total[target] = new
                                else:
                                    del total[target]
                    if total:
                        return False
    return True
