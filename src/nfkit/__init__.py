"""Exact analysis of polynomial vector fields at a nondegenerate stationary point."""

from .centralizer import (
    CentralizerResult,
    CommutantBasis,
    NormalizerResult,
    centralizer_exact,
    centralizer_truncated,
    linear_commutant,
    normalizer_reduce,
    normalizer_truncated,
)
from .fields import (
    PolySeries,
    PolyVectorField,
    determinant_multiplier,
    divergence,
    is_pdnf,
    lie_bracket,
    lie_derivative,
    pdnf_basis,
)
from .invariants import (
    InvariantAlgebra,
    ReducedField,
    check_free_module,
    check_onediv,
    decompose_eta,
    invariant_generators,
    reduce_vectorfield,
    triviality_certificate,
)
from .jacobi import (
    MultiplierLadder,
    divergence_integral_check,
    multiplier_support,
    reduced_multiplier_obstruction,
    solve_multiplier,
    transfer_reduced,
)
from .resonance import (
    ResonanceSet,
    commuting_degree_ladder,
    resonance_degree_bound,
    resonance_set,
    resonant_multiindices,
    semiinvariant_degree_ladder,
)
from .spectrum import (
    EigenSpectrum,
    HilbertBasis,
    build_spectrum,
    c_matrix_basis,
    classify_dim3,
    has_positive_relation,
    hilbert_basis,
    is_finite_linear_centralizer,
    uw_decomposition,
    zero_spectrum,
)

__version__ = "0.1.0"
