"""fraclat: the discrete fractional Laplace operator on the integer lattice.

Arbitrary real order s > 0, three cross-validating evaluation paths (kernel
series, binomial stencil, heat-semigroup quadrature), and an Anderson-
localization experiment harness built on top.
"""

from .kernel import (
    KernelTable,
    NearIntegerOrderError,
    asymptotic_decay_constant,
    build_table,
    decay_certificate,
    kernel_extended,
    kernel_limit_at_integer,
    kernel_row,
    kernel_sum,
    kernel_value,
    kernel_value_reference,
    partial_sum_identity_check,
)
from .lattice import (
    Sequence,
    axpy,
    delta,
    format_sequence,
    inner,
    norm,
    parse_sequence,
    semi_inner_fd,
    sup_dist,
)
from .localization import (
    DisorderRealization,
    EnsembleReport,
    HamiltonianConfig,
    OrbitBasis,
    StabilityError,
    SupportOverflowError,
    apply_hamiltonian,
    evolve,
    krylov_residual,
    monte_carlo,
    orbit_basis,
    sample_disorder,
    trajectory,
)
from .operators import (
    BudgetExceededError,
    OperatorSpec,
    QuadratureConvergenceError,
    apply,
    apply_fractional,
    apply_integer_power,
    apply_quadrature_oracle,
    heat_semigroup,
)
from .special import (
    PoleError,
    bessel_i_scaled,
    bessel_i_scaled_row,
    binomial,
    gamma,
    log_gamma,
    log_gamma_ratio,
    reciprocal_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "PoleError",
    "gamma",
    "reciprocal_gamma",
    "log_gamma",
    "log_gamma_ratio",
    "bessel_i_scaled",
    "bessel_i_scaled_row",
    "binomial",
    # lattice
    "Sequence",
    "delta",
    "inner",
    "norm",
    "semi_inner_fd",
    "axpy",
    "sup_dist",
    "format_sequence",
    "parse_sequence",
    # kernel
    "NearIntegerOrderError",
    "KernelTable",
    "kernel_value",
    "kernel_value_reference",
    "kernel_limit_at_integer",
    "kernel_extended",
    "kernel_sum",
    "kernel_row",
    "asymptotic_decay_constant",
    "build_table",
    "decay_certificate",
    "partial_sum_identity_check",
    # operators
    "BudgetExceededError",
    "QuadratureConvergenceError",
    "OperatorSpec",
    "apply",
    "apply_integer_power",
    "apply_fractional",
    "heat_semigroup",
    "apply_quadrature_oracle",
    # localization
    "SupportOverflowError",
    "StabilityError",
    "DisorderRealization",
    "sample_disorder",
    "HamiltonianConfig",
    "apply_hamiltonian",
    "OrbitBasis",
    "orbit_basis",
    "krylov_residual",
    "trajectory",
    "evolve",
    "EnsembleReport",
    "monte_carlo",
]
