"""Exact-arithmetic Lie-Yamaguti algebras, representations, cohomology and
sampled-atlas algebra bundles."""

from .algebra import (
    AxiomReport,
    LYAlgebra,
    check_axioms,
    derivations,
    example_3dim,
    from_leibniz,
    from_lie,
    from_lie_triple,
    from_reductive_pair,
    from_sparse,
    from_tensors,
    inner_derivation,
    is_automorphism,
    is_derivation,
    is_homomorphism,
    is_valid,
    meson,
    zero_algebra,
)
from .cohomology import (
    Cochain,
    CochainPair,
    cochain_dim,
    delta,
    delta_star,
    delta_zero,
    h1,
    h23,
    h_upper,
)
from .linalg import Matrix, SubspaceBasis, quotient_dim
from .representation import (
    Representation,
    RepReport,
    adjoint,
    check_representation,
    check_rlyb7,
    is_representation,
    semidirect,
    trivial_rep,
    twisted_semidirect,
)

__version__ = "0.1.0"
