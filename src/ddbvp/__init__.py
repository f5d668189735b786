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

The package root re-exports only ``solve_nonhomogeneous`` and the types
needed to call it; everything else is imported from its module.
"""

from .piecewise import PiecewisePoly
from .solver import BVPProblem, solve_nonhomogeneous
from .structure import Stencil

__version__ = "0.1.0"

__all__ = ["BVPProblem", "PiecewisePoly", "Stencil", "solve_nonhomogeneous"]
