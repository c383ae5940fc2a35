"""Boundary-only Steklov eigenvalue solver for smooth planar domains.

The Dirichlet-to-Neumann operator of a smooth simply connected domain
is discretized on an equidistant boundary grid as ρ D E, where D is
spectral differentiation, E the (generalized) harmonic-conjugation
matrix built from a boundary integral equation, and ρ = 1/|η'| the
arclength weight.  Its low eigenvalues are the Steklov spectrum; the
solver finds them from the symmetric-definite pencil D E x = λ |η'| x
in Fourier coordinates, where D E is diag|p| plus one block on the
smooth kernels' Fourier band: one O(m³) factorization, with the band m
independent of n, and one symmetric eigensolve on the trigonometric
polynomials of a derived degree P <= n/2.
Eigenfunctions extend into the domain by the Cauchy integral.
"""

from .curves import (
    BoundaryCurve,
    CurveError,
    DomainKind,
    Grid,
    area,
    build_grid,
    builtin_families,
    curve_from_spec,
    make_builtin,
    perimeter,
    scale_to_perimeter,
)
from .densela import lu_factor, smallest_magnitude_eigs
from .extension import (
    BoundaryFunction,
    FieldSample,
    cauchy_eval,
    eigenmode_field,
    mode_boundary_function,
    raster_field,
)
from .operators import (
    DiscretizationError,
    DtnDiscretization,
    apply_diff_fast,
    build_dtn,
    fourier_diff_matrix,
    kernel_values,
    nystrom_matrices,
    wittich_matrix,
)
from .spectrum import SteklovSpectrum, UnderResolvedWarning, assemble_q, solve_spectrum
from .studies import (
    ConvergenceRecord,
    CrossingResult,
    GapRecord,
    InequalityRecord,
    SweepRecord,
    asymptotic_gaps,
    check_inequalities,
    convergence_study,
    find_crossing,
    parameter_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve",
    "BoundaryFunction",
    "ConvergenceRecord",
    "CrossingResult",
    "CurveError",
    "DiscretizationError",
    "DomainKind",
    "DtnDiscretization",
    "FieldSample",
    "GapRecord",
    "Grid",
    "InequalityRecord",
    "SteklovSpectrum",
    "SweepRecord",
    "UnderResolvedWarning",
    "apply_diff_fast",
    "area",
    "assemble_q",
    "asymptotic_gaps",
    "build_dtn",
    "build_grid",
    "builtin_families",
    "cauchy_eval",
    "check_inequalities",
    "convergence_study",
    "curve_from_spec",
    "eigenmode_field",
    "find_crossing",
    "fourier_diff_matrix",
    "kernel_values",
    "lu_factor",
    "make_builtin",
    "mode_boundary_function",
    "nystrom_matrices",
    "parameter_sweep",
    "perimeter",
    "raster_field",
    "scale_to_perimeter",
    "smallest_magnitude_eigs",
    "solve_spectrum",
    "wittich_matrix",
]
