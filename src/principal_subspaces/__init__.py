"""Exact computer algebra for the principal subspaces of the level-one
sl2-hat standard modules.

The package realizes the commutative algebra on the generators x(m) with its
weight/charge bigrading, the quadratic relation ideals, and a lattice Fock
model of the two modules, then verifies degree by degree, with exact rational
linear algebra, that each evaluation kernel equals the corresponding ideal.
The package root exports only ``__version__``: import each name from the
module that defines it.
"""

__version__ = "0.1.0"
