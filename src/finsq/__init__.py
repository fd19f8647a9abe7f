"""finsq: numerical verification engine for Finsler square metrics.

Exact higher-order differentiation by truncated Taylor jets drives sprays,
Riemann/Ricci/flag curvature and Douglas tensors of (alpha, beta)-metrics,
with the square metric F = (alpha + beta)^2 / alpha as the central case:
its two metric deformations, the Einstein characterization checks, and the
warped-product constructions of verified Einstein examples.
"""

from .jets import (
    Jet,
    JetDomainError,
    TruncationError,
    backend_name,
    fd_partial,
    partials,
    seed,
    seed_pair,
)

__version__ = "0.1.0"

from .construct import (
    ConstructedMetric,
    ConstructionError,
    WarpedProductSpec,
    berwald_family,
    build_warped,
    construct_einstein_square,
    flat_factor,
    sphere_factor,
    warped_trace_residual,
)
from .finsler import (
    DegenerateFlagError,
    DouglasTensor,
    GeneralABMetric,
    PhiFunction,
    StrongConvexityError,
    curvature_data,
    douglas_tensor,
    f_value,
    riemann_fd,
    spray_closed_form,
    spray_jets,
)
from .geometry import (
    OneFormField,
    RiemannMetric,
    beta_derivatives,
    berwald_data,
    euclidean,
    geodesic_spray,
    ricci_tensor,
    sphere,
    validate_chart,
)
from .registry import MetricBundle, builtin_names, resolve_metric
from .sampling import SampleTable
from .square import (
    EinsteinCertificate,
    check_closedness,
    check_conformal_pair,
    check_einstein_scale_system,
    check_einstein_square,
    check_reduced_pair,
    deformed_spray_residual,
    f_square_three_ways,
    from_conformal_pair,
    from_reduced_pair,
    phi_library,
    phi_pde_residual,
    randers_phi,
    square_metric,
    to_conformal_pair,
    to_reduced_pair,
)

__all__ = [
    "Jet", "seed", "seed_pair", "partials", "fd_partial", "backend_name",
    "TruncationError", "JetDomainError",
    "RiemannMetric", "OneFormField", "euclidean", "sphere", "berwald_data",
    "geodesic_spray", "ricci_tensor", "beta_derivatives", "validate_chart",
    "PhiFunction", "GeneralABMetric", "f_value", "spray_jets", "spray_closed_form",
    "riemann_fd", "douglas_tensor",
    "DouglasTensor", "curvature_data", "StrongConvexityError", "DegenerateFlagError",
    "phi_library", "randers_phi", "square_metric", "phi_pde_residual",
    "to_conformal_pair", "from_conformal_pair", "to_reduced_pair", "from_reduced_pair",
    "f_square_three_ways", "check_einstein_square", "check_einstein_scale_system",
    "check_closedness", "check_conformal_pair", "check_reduced_pair",
    "deformed_spray_residual", "EinsteinCertificate",
    "WarpedProductSpec", "ConstructedMetric", "ConstructionError",
    "sphere_factor", "flat_factor", "build_warped", "construct_einstein_square",
    "berwald_family", "warped_trace_residual",
    "MetricBundle", "resolve_metric", "builtin_names", "SampleTable",
    "__version__",
]
