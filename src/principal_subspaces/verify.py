"""Bigraded piece-by-piece verification that evaluation kernels equal ideal
spans, with an independent partition-count cross-check.

For each module tag the evaluation map sends a monomial in the generators to
its action on the highest weight vector of the lattice realization.  Per
(weight, charge) piece this is a finite rational matrix whose kernel is
compared, both by containment and by dimension, against the spanning set of
the corresponding ideal piece.  Failures are data (a report with a witness),
never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fock import FockState, apply_monomial, basis_states
from .linalg import SparseMatQ, kernel_basis, rank, span_dim, subspace_leq
from .poly import Monomial, PolyQ, coordinates, derive, enumerate_monomials
from .relations import IDEALS, ideal_piece

TAGS = ("lambda0", "lambda1", "lambda1prime")

_VACUUM_R = {
    "lambda0": Fraction(0),
    "lambda1": Fraction(1, 2),
    "lambda1prime": Fraction(1, 2),
}


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
    r0 = _VACUUM_R[tag]
    size = weight + r0 * r0 - (r0 + charge) ** 2
    return int(size)


def eval_matrix(tag: str, weight: int, charge: int) -> SparseMatQ:
    """Matrix of the evaluation map on one bidegree: columns are the domain
    monomials in canonical order, rows the Fock states of the target
    bidegree, entries the exact coefficients of each monomial's action on
    the highest weight vector."""
    floor = IDEALS[tag].ambient_floor
    monos = enumerate_monomials(weight, charge, floor)
    size = heisenberg_size(tag, weight, charge)
    rows = basis_states(size, _VACUUM_R[tag] + charge)
    row_index = {s: i for i, s in enumerate(rows)}
    vacuum = FockState((), _VACUUM_R[tag])
    entries: dict[tuple[int, int], Fraction] = {}
    for j, mono in enumerate(monos):
        image = apply_monomial(mono, vacuum)
        for state, c in image.terms.items():
            entries[(row_index[state], j)] = c
    return SparseMatQ(len(rows), len(monos), entries)


def _vector_as_poly(vec: list[Fraction], monos: list[Monomial]) -> PolyQ:
    return PolyQ({m: c for m, c in zip(monos, vec)})


def piece_report(tag: str, weight: int, charge: int) -> PieceReport:
    floor = IDEALS[tag].ambient_floor
    monos = enumerate_monomials(weight, charge, floor)
    matrix = eval_matrix(tag, weight, charge)
    kernel = kernel_basis(matrix)
    rank_eval = len(monos) - len(kernel)
    ideal_polys = ideal_piece(tag, weight, charge)
    ideal_vecs = [coordinates(p, monos) for p in ideal_polys]
    dim_ideal = span_dim(ideal_vecs, len(monos))

    containment_ok = True
    witness: str | None = None
    for p, vec in zip(ideal_polys, ideal_vecs):
        if any(matrix.matvec(vec)):
            containment_ok = False
            witness = str(p)
            break
    equality_ok = containment_ok and dim_ideal == len(kernel)
    if containment_ok and not equality_ok:
        # containment makes the ideal span a subspace of the kernel, so a
        # mismatch means some kernel vector escapes the ideal span
        for vec in kernel:
            if not subspace_leq([vec], ideal_vecs):
                witness = str(_vector_as_poly(vec, monos))
                break
    return PieceReport(
        module_tag=tag,
        weight=weight,
        charge=charge,
        dim_domain=len(monos),
        rank_eval=rank_eval,
        dim_kernel=len(kernel),
        dim_ideal_piece=dim_ideal,
        containment_ok=containment_ok,
        equality_ok=equality_ok,
        witness=witness,
    )


def verify_presentation(tag: str, max_weight: int) -> VerificationRun:
    """Check kernel == ideal span on every bidegree up to max_weight."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if tag not in TAGS:
        raise ValueError(f"unknown module tag {tag!r}")
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
            k0 = kernel_basis(eval_matrix("lambda0", weight, charge))
            if not k0:
                continue
            k1 = kernel_basis(eval_matrix("lambda1", weight, charge))
            if not subspace_leq(k0, k1):
                return False
    return True


def graded_dims(tag: str, max_weight: int) -> dict[tuple[int, int], int]:
    """Rank of the evaluation map per bidegree, i.e. the graded dimensions
    of the image module."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
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
            derived = [coordinates(derive(p), basis) for p in piece]
            target = [
                coordinates(q, basis)
                for q in ideal_piece("lambda0", weight + 1, charge)
            ]
            if not subspace_leq(derived, target):
                return False
    return True
