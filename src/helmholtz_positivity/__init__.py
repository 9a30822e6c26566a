"""Construct and certify entire 2D Helmholtz solutions positive on a set.

The library builds real entire solutions of (lap + k^2) u = 0 in the plane
as finite plane-wave superpositions, fits them to be (close to) a positive
constant on the boundary of a planar domain or on a compact target set,
and certifies the positivity with a sampled minimum plus a rigorous
Lipschitz margin. Necessary-condition checkers (eigenvalue obstruction on
disks, sign changes on scaled Bessel-zero circles, the zero-in-every-ball
bound, an area-based first-eigenvalue gate) ward the constructions.
"""

from .certify import (
    PositivityCertificate,
    SignChangeReport,
    ZeroScan,
    certify_positive,
    certify_positive_on_set,
    scan_for_zero,
    sign_change_on_circle,
)
from .dirichlet import (
    DirichletProblem,
    DiskSolution,
    GateError,
    MFSSolution,
    NearEigenvalueError,
    SpectralGate,
    StrongPositivityError,
    check_strong_positivity,
    disk_solution,
    evaluate_interior,
    faber_krahn_gate,
    halton_interior,
    mean_value_check,
    solve_dirichlet_mfs,
)
from .geometry import (
    BoundarySampling,
    Disk,
    GeometryError,
    Polygon,
    TargetSet,
    Tube,
    area,
    boundary_distance,
    centroid,
    disk,
    domain_from_json,
    domain_to_json,
    load_domain,
    perimeter,
    polygon,
    sample_boundary,
    target_set,
    tube_of,
)
from .herglotz import (
    FitFailedError,
    FitReport,
    FourierBesselWave,
    HerglotzDensity,
    eval_quadrature,
    eval_series,
    far_field,
    fit_boundary,
    fit_interior,
    load_wave,
    random_wave,
    save_wave,
    to_density,
)

__version__ = "0.1.0"
