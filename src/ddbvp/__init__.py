"""Exact analysis and solution of second-order differential-difference BVPs.

The package studies the boundary value problem

    -(R v)''(t) + a(t) v(t) = f0(t)   on (0, N+1),
    v = f1 on [-N, 0],  v = f2 on [N+1, 2N+1],

where (R v)(t) = sum_j b_j v(t + j) is an integer-shift difference operator,
in the regime where the full shift matrix R1 is invertible but its leading
principal minor R2 is singular.  All structure data, solvability constraints
and solutions are computed in exact rational arithmetic; a double-precision
finite-difference oracle cross-checks spectra, convergence and index claims
(and is the only component that handles a nonzero a).

Modules:

* ``structure``   - shift matrices, regime classification, node relations,
  end-column data, index tables;
* ``piecewise``   - exact piecewise polynomial calculus and the difference
  operator machinery;
* ``functionals`` - node functionals characterizing images and domains, with
  exact rank and elimination;
* ``solver``      - the exact boundary value solver and its certificates;
* ``grid``        - the finite-difference oracle;
* ``problem_io``  - JSON problem files, reports, CSV output;
* ``verification``- the acceptance battery behind ``ddbvp verify``;
* ``cli``         - the ``ddbvp`` command line tool.
"""

from .exactla import to_fraction
from .functionals import (
    DataConstraints,
    NodeFunctional,
    eliminate_constants,
    image_functionals,
    membership_functionals,
    rank_of_functionals,
    solvability_constraints,
)
from .grid import (
    ConvergenceStudy,
    GridOperator,
    GridOperators,
    GridSolution,
    IndexEstimate,
    SpectrumCheck,
    assemble,
    convergence_study,
    grid_samples,
    index_estimate,
    solve_grid,
    spectrum_check,
)
from .piecewise import (
    PiecewisePoly,
    apply_difference,
    apply_difference_inverse,
    apply_shifted_sum,
    smoothness_defects,
    trace_defects,
)
from .problem_io import (
    ParsedProblem,
    ProblemFileError,
    canonical_problem_text,
    extract_problem_text,
    load_problem,
    parse_problem,
    solution_csv,
    solve_report,
)
from .solver import (
    BVPProblem,
    IndexReport,
    KernelCertificate,
    SmoothnessReport,
    SolutionFamily,
    SolveStatus,
    boundary_matrix,
    hermite_extension,
    index_report,
    kernel_certificate,
    solve_homogeneous,
    solve_nonhomogeneous,
)
from .structure import (
    EndColumnData,
    GammaData,
    IndexTable,
    Regime,
    RegimeReport,
    ShiftMatrix,
    Stencil,
    StructureError,
    StructureReport,
    UnsupportedRegimeError,
    analyze,
    build_shift_matrix,
    classify_regime,
    cofactor,
    spectrum,
)
from .verification import CheckResult, run_battery

__version__ = "0.1.0"

__all__ = [
    "BVPProblem",
    "CheckResult",
    "ConvergenceStudy",
    "DataConstraints",
    "EndColumnData",
    "GammaData",
    "GridOperator",
    "GridOperators",
    "GridSolution",
    "IndexEstimate",
    "IndexReport",
    "IndexTable",
    "KernelCertificate",
    "NodeFunctional",
    "ParsedProblem",
    "PiecewisePoly",
    "ProblemFileError",
    "Regime",
    "RegimeReport",
    "ShiftMatrix",
    "SmoothnessReport",
    "SolutionFamily",
    "SolveStatus",
    "SpectrumCheck",
    "Stencil",
    "StructureError",
    "StructureReport",
    "UnsupportedRegimeError",
    "analyze",
    "apply_difference",
    "apply_difference_inverse",
    "apply_shifted_sum",
    "assemble",
    "boundary_matrix",
    "build_shift_matrix",
    "canonical_problem_text",
    "extract_problem_text",
    "classify_regime",
    "cofactor",
    "convergence_study",
    "eliminate_constants",
    "grid_samples",
    "hermite_extension",
    "image_functionals",
    "index_estimate",
    "index_report",
    "kernel_certificate",
    "load_problem",
    "membership_functionals",
    "parse_problem",
    "rank_of_functionals",
    "run_battery",
    "smoothness_defects",
    "solution_csv",
    "solvability_constraints",
    "solve_grid",
    "solve_homogeneous",
    "solve_nonhomogeneous",
    "solve_report",
    "spectrum",
    "spectrum_check",
    "to_fraction",
    "trace_defects",
]
