"""Ritz-value fibre coordinates on complex matrices.

The package computes the eigenvalue lists of all leading principal submatrices
(Ritz values), classifies their disjointness, constructs the unique unit upper
Hessenberg representative of each fibre, converts generic matrices to and from
the complementary bordering coordinates, runs the commuting trace-function
flows that preserve the fibres, certifies their Poisson commutativity
symbolically, and provides the observability/controllability diagnostics that
govern unique bordering completions.
"""

from .arrow import (
    ArrowFactorization,
    ArrowMatrix,
    arrow_factorize,
    bc_product,
    cauchy_matrix,
    pi_matrix,
    sigma_matrix,
)
from .control import (
    JordanSpec,
    SISOSystem,
    controllable,
    is_regular,
    jordan_observable_row,
    markov_hankel,
    observable,
    solve_unique_completion,
)
from .coords import (
    ArrowCoordsPair,
    CoordsExtraction,
    FiberCoords,
    complement_c_from_b,
    diagonal_similarity_coords,
    diagonalizer,
    extract_coords,
    reconstruct,
    s_coordinates,
    transpose_coords,
)
from .errors import (
    CompletionError,
    GenericityError,
    NotRegularError,
    NumericalError,
    RitzFiberError,
    SpectralCollisionError,
)
from .fiber import (
    FiberDescriptor,
    GenericityReport,
    RitzData,
    diagonal_from_ritz,
    genericity_report,
    hessenberg_representative,
    ritz_values,
    strong_regularity_check,
)
from .gzflow import (
    FlowParam,
    SparsePoly,
    centralizer_basis,
    eigen_flow,
    expm,
    gz_flow,
    gz_generator,
    gz_generator_indices,
    gz_vector_field,
    level_flow,
    poisson_bracket,
)
from .numcore import (
    DEFAULT_TOL,
    MonicPoly,
    Tolerances,
    charpoly_from_eigs,
    eigenvalues,
    leading_submatrix,
    numeric_rank,
    poly_derivative,
    poly_eval,
    poly_quotient_in_basis,
)

__version__ = "0.1.0"
