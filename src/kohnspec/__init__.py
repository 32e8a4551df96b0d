"""Spectra of the Kohn Laplacian on quotients of odd spheres by finite
unitary groups: exact group catalogs, invariant dimensions, eigenvalue
counting with Weyl-law verification, generating functions, Sobolev
constants, and a brute-force linear-algebra oracle."""

from .errors import (
    ClosureMismatch,
    ConstraintError,
    Int64Limit,
    KohnspecError,
    NonFreeAction,
    NonIntegralDimension,
    ParseError,
    SizeLimit,
    TruncationError,
    UnsupportedFamily,
    UserError,
)
from .genfun import dim_h0_polynomial, fg_coefficients, h0_coefficients, pg_polynomial, reconstruct_dims
from .group_catalog import (
    ConjugacyClass,
    QuotientGroup,
    check_free_action,
    from_classes,
    make_binary_dihedral,
    make_binary_icosahedral,
    make_binary_octahedral,
    make_binary_tetrahedral,
    make_cyclic,
    make_cyclic_semidirect,
    make_lens,
    make_product_with_center,
    make_q_semidirect,
    make_trivial,
    parse_group_spec,
)
from .invariant_dims import dim_closed_form, dim_invariant, reconcile
from .oracle import matrix_closure, oracle_check
from .sobolev import c_group, c_pq, c_pq_squared, greens_lower_witness
from .spectrum import (
    box_eigenvalue,
    compare_spectra,
    counting_function,
    multiplicity,
    weyl_constant,
    weyl_report,
    xi_bound,
)

__version__ = "0.1.0"
