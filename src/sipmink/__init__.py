"""Numerics for semi-inner-product and generalized Minkowski spaces:
indefinite products, orthogonality relations, the imaginary unit sphere
with its Finsler-type distance, and isometry verification."""

from .errors import (
    ConstantSignError,
    ConvergenceError,
    DegenerateError,
    DimensionError,
    DomainError,
    NeutralPivotError,
    NumericalError,
    PathError,
    SingularMapError,
    SipminkError,
    TangentError,
    UnsupportedError,
    UsageError,
)
from .numerics import (
    AxiomReport,
    Check,
    Seed,
    Tolerances,
    central_diff,
    integrate,
    minimize,
    sample_vectors,
    second_diff,
)
from .norms import (
    NormSpec,
    derivative_identity_residual,
    nath_product,
    norm,
    norm_first_derivative,
    norm_second_derivative,
    sip,
    sip_axiom_report,
    sip_second_arg_derivative,
    product_axiom_report,
)
from .siip import (
    SiipSpace,
    cauchy_schwarz_witness,
    normsquare_check,
    polarization_neutral_check,
    siip,
    siip_axiom_report,
)
from .minkowski import (
    ConePart,
    GeneralizedMinkowskiSpace,
    VectorClass,
    classify,
    cone_convexity_check,
    cone_part,
    j_operator,
    max_norm_spacetime,
    product_minus,
    product_plus,
    split,
)
from .ortho import (
    OrthoRelation,
    auerbach_basis_2d,
    birkhoff_margin,
    gram_determinant,
    gram_matrix,
    is_orthogonal,
    minkowski_auerbach,
    orthogonal_companion_basis,
    pythagorean_subspace_scan,
    regular_orthogonalization,
)
from .hyperboloid import (
    HPoint,
    Path,
    TangentFrame,
    cosh_residual,
    ds2,
    f_directional,
    geodesic_distance,
    geodesic_path,
    lift,
    linear_path,
    path_length,
    path_to_csv,
    tangent_frame,
)
from .isometry import (
    IsometryReport,
    distance_preservation_check,
    isometry_report,
    load_matrix_csv,
    lorentz_boost,
    sip_preservation_residual,
    strict_convexity_witness,
)

__version__ = "0.1.0"
