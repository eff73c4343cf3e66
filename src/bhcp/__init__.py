"""Backward heat reconstruction with quasi-boundary value regularization.

Recovers the initial state of a Dirichlet heat problem from noisy final
data. Four regularized final conditions are implemented; two of them give
the all-at-once space-time system an omega-circulant time coupling that an
FFT diagonalization solves directly in quasi-linear time. A generic sparse
LU baseline, a per-mode closed-form oracle, continuum series analysis, and
a benchmark CLI round out the package.
"""

from .analysis import (
    NoisyData,
    ProblemSpec,
    SpectralCoefficients,
    add_noise,
    error_bound,
    exact_solution_ex1,
    exact_solution_ex2,
    get_problem,
    regularized_series,
    stability_bound,
    theorem1_bound,
)
from .baseline import NNZ_BUDGET, solve_sparse_lu, solve_spectral_oracle
from .bench import (
    ExperimentConfig,
    SolveReport,
    emit_csv,
    emit_profile,
    parse_csv,
    resolve_alpha,
    run_experiment,
)
from .circulant import (
    CirculantDiagonalization,
    TimeGrid,
    diagonalize,
    from_eigenspace,
)
from .methods import (
    AllAtOnceSystem,
    MethodKind,
    MethodSpec,
    SolveResult,
    assemble,
)
from .pint import BLOCK_BUDGET, solve_pint
from .space import (
    SingularShiftError,
    SpatialGrid,
    SpatialSpectrum,
    apply_laplacian,
    build_grid,
    grid_norm,
    laplacian_eigenvalues,
    laplacian_matrix,
    shifted_solve,
)

__version__ = "0.1.0"
