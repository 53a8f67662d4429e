"""Two-level algebraic Schwarz preconditioning for sparse linear systems.

The package builds overlapping-subdomain preconditioners directly from the
sparsity pattern and entries of a matrix — no mesh or geometry — including a
spectrally chosen coarse space, and verifies the attendant condition-number
bound on desk-scale problems.
"""

from .sparsemat import (
    SparseMat,
    MatrixMarketError,
    symmetrized_graph,
    read_matrix_market,
    write_matrix_market,
    load_matrix_market,
    save_matrix_market,
    read_vector,
    write_vector,
    load_vector,
)
from .partition import (
    Partition,
    SubdomainMap,
    partition_graph,
    extend_overlap,
    color_subdomains,
)
from .subdomain import (
    LocalBlocks,
    SubdomainSetupError,
    extract_local_blocks,
    build_harmonic,
)
from .spectral import (
    SpectralBasis,
    sym_gevp,
    select_pou_modes,
    select_harmonic_modes,
    svd_harmonic_modes,
)
from .coarse import (
    CoarseSetupError,
    CoarseSpace,
    subdomain_coarse_columns,
    assemble_coarse_basis,
    galerkin_operator,
    galerkin_coarse,
)
from .precond import Preconditioner, SetupReport, setup
from .krylov import BreakdownError, SolveReport, pcg, gmres, estimate_condition
from .harness import (
    ProblemSpec,
    BoundInputs,
    ExperimentConfig,
    generate,
    lambda_star,
    theoretical_bound,
    derive_bound_inputs,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
