"""Bigraded piece-by-piece verification that evaluation kernels equal ideal
spans, with an independent partition-count cross-check.

For each module tag the evaluation map sends a monomial in the generators to
its action on the highest weight vector of the lattice realization.  Per
(weight, charge) piece this is a finite matrix, scaled to integer entries,
whose kernel is compared against the spanning set of the corresponding ideal
piece: containment exactly over Z, the kernel exactly (``kernel_basis``
finds it mod p and proves it), and the dimension of the ideal span by its
rank over F_p, a lower bound that is exact whenever it reaches the kernel
dimension (``piece_report``).  When it does not, the ideal span is ranked
again by exact rational elimination, which also finds the witness;
``fallbacks`` counts those pieces in this process and is read by tests
only, never by a report.  Failures are data (a report with a witness),
never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import FockState, apply_monomial, basis_states
from .linalg import (
    SparseMatQ,
    integer_form,
    kernel_basis,
    rank,
    rank_mod_p,
    span_dim,
    subspace_leq,
)
from .poly import PolyQ, coordinates, derive, enumerate_monomials
from .relations import IDEALS, ideal_piece

TAGS = tuple(IDEALS)

# pieces that piece_report decided by rational elimination, in this process
fallbacks = 0


@dataclass(frozen=True)
class PieceReport:
    """One bidegree of the kernel-equals-ideal statement."""

    module_tag: str
    weight: int
    charge: int
    dim_domain: int
    rank_eval: int
    dim_kernel: int
    dim_ideal_piece: int
    containment_ok: bool
    equality_ok: bool
    witness: str | None = None

    def to_json(self) -> dict:
        return {
            "idx": {"weight": self.weight, "charge": self.charge},
            "module_tag": self.module_tag,
            "dim_domain": self.dim_domain,
            "rank_eval": self.rank_eval,
            "dim_kernel": self.dim_kernel,
            "dim_ideal_piece": self.dim_ideal_piece,
            "containment_ok": self.containment_ok,
            "equality_ok": self.equality_ok,
            "witness": self.witness,
        }


@dataclass
class VerificationRun:
    module_tag: str
    max_weight: int
    pieces: list[PieceReport]

    @property
    def all_pass(self) -> bool:
        return all(p.equality_ok for p in self.pieces)


def charge_range(tag: str, weight: int) -> range:
    """Charges addressing potentially nonzero domain pieces at this weight."""
    if IDEALS[tag].ambient_floor == -2:
        return range(0, weight // 2 + 1)
    return range(0, weight + 1)


def heisenberg_size(tag: str, weight: int, charge: int) -> int:
    """|mu| of the target bidegree: weight + wt(vacuum) - (r0 + charge)^2."""
    r0 = IDEALS[tag].vacuum_r
    size = weight + r0 * r0 - (r0 + charge) ** 2
    return int(size)


def eval_matrix(tag: str, weight: int, charge: int) -> SparseMatQ:
    """Matrix of the evaluation map on one bidegree: columns are the domain
    monomials in canonical order, rows the Fock states of the target
    bidegree, entries the exact coefficients of each monomial's action on
    the highest weight vector, all multiplied by one positive integer L, the
    least common multiple of the column denominators.  Every entry is then
    an integer, and the kernel, the rank and the RREF are those of the
    unscaled matrix."""
    spec = IDEALS[tag]
    monos = enumerate_monomials(weight, charge, spec.ambient_floor)
    size = heisenberg_size(tag, weight, charge)
    rows = basis_states(size, spec.vacuum_r + charge)
    row_index = {s: i for i, s in enumerate(rows)}
    vacuum = FockState((), spec.vacuum_r)
    columns = [integer_form(apply_monomial(mono, vacuum).terms) for mono in monos]
    scale = math.lcm(*(den for den, _ in columns))
    entries: dict[tuple[int, int], int] = {}
    for j, (den, nums) in enumerate(columns):
        factor = scale // den
        for state, n in nums.items():
            entries[(row_index[state], j)] = n * factor
    return SparseMatQ(len(rows), len(monos), entries)


def piece_report(tag: str, weight: int, charge: int) -> PieceReport:
    """Compare the kernel of the evaluation map with the ideal piece.

    Containment is checked first, exactly over Z, each ideal polynomial in
    turn, and the first one with a nonzero image is the witness.  The kernel
    basis is exact (``kernel_basis``).  Given containment, with I the ideal
    coordinates with each vector scaled to integers, the rank of I over F_p
    (``rank_mod_p``) bounds the rational one from below, so

        rank_p(I) <= rank_Q(I) <= dim ker E.

    The second step is containment.  If rank_p(I) = dim ker E the two ends
    meet, both steps are equalities, and the report's numbers and
    ``equality_ok`` are exact.  A real failure (rank_Q(I) < dim ker E) keeps
    the second step strict, so it can never close the sandwich.  Otherwise
    (a failure, or a prime dividing every maximal minor of I) the ideal is
    ranked again by rational elimination, which also finds the witness."""
    global fallbacks
    floor = IDEALS[tag].ambient_floor
    monos = enumerate_monomials(weight, charge, floor)
    n = len(monos)
    matrix = eval_matrix(tag, weight, charge)
    ideal_polys = ideal_piece(tag, weight, charge)
    ideal_vecs = [integer_form(v)[1] for v in coordinates(ideal_polys, monos)]

    witness: str | None = None
    for p, vec in zip(ideal_polys, ideal_vecs):
        if matrix.matvec(vec):
            witness = str(p)
            break
    containment_ok = witness is None
    kernel = kernel_basis(matrix)
    equality_ok = containment_ok and rank_mod_p(ideal_vecs, n) == len(kernel)
    dim_ideal = len(kernel)
    if not equality_ok:
        fallbacks += 1
        dim_ideal = span_dim(ideal_vecs, n)
        equality_ok = containment_ok and dim_ideal == len(kernel)
        if containment_ok and not equality_ok:
            # containment makes the ideal span a subspace of the kernel, so
            # a mismatch means some kernel vector escapes the ideal span
            for vec in kernel:
                if not subspace_leq([vec], ideal_vecs, n):
                    witness = str(PolyQ({monos[j]: c for j, c in vec.items()}))
                    break
    return PieceReport(
        module_tag=tag,
        weight=weight,
        charge=charge,
        dim_domain=n,
        rank_eval=n - len(kernel),
        dim_kernel=len(kernel),
        dim_ideal_piece=dim_ideal,
        containment_ok=containment_ok,
        equality_ok=equality_ok,
        witness=witness,
    )


def _require_tag(tag: str) -> None:
    if tag not in TAGS:
        raise ValueError(f"unknown module tag {tag!r}")


def verify_presentation(tag: str, max_weight: int) -> VerificationRun:
    """Check kernel == ideal span on every bidegree up to max_weight."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    _require_tag(tag)
    pieces = [
        piece_report(tag, weight, charge)
        for weight in range(max_weight + 1)
        for charge in charge_range(tag, weight)
    ]
    return VerificationRun(tag, max_weight, pieces)


def kernel_containment_L0_in_L1(max_weight: int) -> bool:
    """Kernel of the lambda0 evaluation sits inside the lambda1 kernel,
    bidegree by bidegree."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    for weight in range(max_weight + 1):
        for charge in range(weight + 1):
            m0 = eval_matrix("lambda0", weight, charge)
            k0 = kernel_basis(m0)
            if not k0:
                continue
            k1 = kernel_basis(eval_matrix("lambda1", weight, charge))
            if not subspace_leq(k0, k1, m0.n_cols):
                return False
    return True


def graded_dims(tag: str, max_weight: int) -> dict[tuple[int, int], int]:
    """Rank of the evaluation map per bidegree, i.e. the graded dimensions
    of the image module."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    _require_tag(tag)
    dims: dict[tuple[int, int], int] = {}
    for weight in range(max_weight + 1):
        for charge in charge_range(tag, weight):
            dims[(weight, charge)] = rank(eval_matrix(tag, weight, charge))
    return dims


def weight_totals(dims: dict[tuple[int, int], int], max_weight: int) -> list[int]:
    totals = [0] * (max_weight + 1)
    for (weight, _), d in dims.items():
        if weight <= max_weight:
            totals[weight] += d
    return totals


def partition_oracle(n: int, k: int, min_part: int = 1) -> int:
    """Number of partitions of n into exactly k parts, each >= min_part,
    pairwise difference >= 2.  Direct recursive enumeration, independent of
    the ideals and of the Fock machinery."""
    if n < 0 or k < 0 or min_part < 1:
        raise ValueError("need n, k >= 0 and min_part >= 1")

    def count(remaining: int, parts_left: int, smallest: int) -> int:
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        total = 0
        for part in range(smallest, remaining + 1):
            total += count(remaining - part, parts_left - 1, part + 2)
        return total

    return count(n, k, min_part)


def oracle_weight_total(n: int, min_part: int = 1) -> int:
    """Total difference-two partition count of n over all lengths."""
    total = 0
    k = 0
    while k * min_part + k * (k - 1) <= n:
        total += partition_oracle(n, k, min_part)
        k += 1
    return total


def check_ideal_D_stability(max_weight: int) -> bool:
    """The derivation maps each lambda0 ideal piece into the piece one
    weight higher."""
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    for weight in range(2, max_weight + 1):
        for charge in range(2, weight + 1):
            piece = ideal_piece("lambda0", weight, charge)
            if not piece:
                continue
            basis = enumerate_monomials(weight + 1, charge, -1)
            derived = coordinates([derive(p) for p in piece], basis)
            target = coordinates(ideal_piece("lambda0", weight + 1, charge), basis)
            if not subspace_leq(derived, target, len(basis)):
                return False
    return True
