"""Exact computer algebra for the principal subspaces of the level-one
sl2-hat standard modules.

The package realizes the commutative algebra on the generators x(m) with its
weight/charge bigrading, the quadratic relation ideals, and a lattice Fock
model of the two modules, then verifies degree by degree, with exact rational
linear algebra, that each evaluation kernel equals the corresponding ideal.
"""

from .fock import (
    FockState,
    FockVector,
    apply_monomial,
    basis_states,
    check_square_zero,
    half_shift,
    heis_act,
    weight_charge,
    x_act,
)
from .linalg import (
    SparseMatQ,
    kernel_basis,
    rank,
    rref,
    span_dim,
    span_equal,
    subspace_leq,
)
from .poly import (
    Monomial,
    PolyQ,
    coordinates,
    derive,
    drop_minus_one_terms,
    enumerate_monomials,
    translate,
    x,
)
from .relations import (
    IDEALS,
    IdealPiece,
    IdealSpec,
    check_derive_relation,
    check_lift_identity,
    check_translate_ideal_inclusion,
    check_translate_relation,
    ideal_piece,
    quadratic_relation,
)
from .verify import (
    PieceReport,
    VerificationRun,
    check_ideal_D_stability,
    eval_matrix,
    graded_dims,
    kernel_containment_L0_in_L1,
    oracle_weight_total,
    partition_oracle,
    verify_presentation,
    weight_totals,
)

__version__ = "0.1.0"

__all__ = [
    "FockState",
    "FockVector",
    "IDEALS",
    "IdealPiece",
    "IdealSpec",
    "Monomial",
    "PieceReport",
    "PolyQ",
    "SparseMatQ",
    "VerificationRun",
    "apply_monomial",
    "basis_states",
    "check_derive_relation",
    "check_ideal_D_stability",
    "check_lift_identity",
    "check_square_zero",
    "check_translate_ideal_inclusion",
    "check_translate_relation",
    "coordinates",
    "derive",
    "drop_minus_one_terms",
    "enumerate_monomials",
    "eval_matrix",
    "graded_dims",
    "half_shift",
    "heis_act",
    "ideal_piece",
    "kernel_basis",
    "kernel_containment_L0_in_L1",
    "oracle_weight_total",
    "partition_oracle",
    "quadratic_relation",
    "rank",
    "rref",
    "span_dim",
    "span_equal",
    "subspace_leq",
    "translate",
    "verify_presentation",
    "weight_charge",
    "weight_totals",
    "x",
    "x_act",
]
