"""Interior Dirichlet solves for (lap + k^2) v = 0, v = c0 on the boundary.

The workhorse is a fundamental-solution collocation solver (charges on an
outward offset of the boundary, truncated-SVD least squares, accuracy
certified a posteriori on an independent validation sampling). A disk
closed form c0 J0(kr)/J0(kR) serves as an exact oracle. The area-based
first-eigenvalue gate (isoperimetric lower bound lambda_1(D) >= lambda_1
of the equal-area disk) decides when the solve is safely below the first
Dirichlet eigenvalue, and two verifiers witness the qualitative facts the
pipelines rely on: strict interior positivity for c0 > 0, and the circle
mean-value identity avg_{|y-x|=r} u = u(x) J0(kr).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, linalg, specfun
from scipy import special  # after .linalg: loading scipy.linalg first imports faster

__all__ = [
    "GateError",
    "NearEigenvalueError",
    "StrongPositivityError",
    "SpectralGate",
    "DirichletProblem",
    "MFSSolution",
    "DiskSolution",
    "faber_krahn_gate",
    "solve_dirichlet_mfs",
    "disk_solution",
    "evaluate_interior",
    "evaluate_interior_with_diagnostic",
    "check_strong_positivity",
    "PositivityScan",
    "halton_interior",
    "mean_value_check",
]


class GateError(RuntimeError):
    """Spectral gate failed and no override was requested."""

    def __init__(self, message, gate=None):
        super().__init__(message)
        self.gate = gate


class NearEigenvalueError(RuntimeError):
    """Collocation residual failed to converge: ill-resolved or near-eigenvalue."""

    def __init__(self, message, residual=None, effective_rank=None):
        super().__init__(message)
        self.residual = residual
        self.effective_rank = effective_rank


class StrongPositivityError(RuntimeError):
    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan


@dataclass(frozen=True)
class SpectralGate:
    """Area comparison against the equal-measure disk of radius j01/k.

    passes  <=>  |D| <= pi (j01/k)^2  <=>  lambda1_lower_bound >= k^2,
    with equality only in the equal-measure disk case.
    """

    k: float
    area_d: float
    r_star: float
    lambda1_lower_bound: float
    passes: bool


@dataclass(frozen=True)
class DirichletProblem:
    domain: object
    k: float
    c0: float = 1.0


@dataclass(eq=False)
class MFSSolution:
    domain: object
    k: float
    c0: float
    charge_points: np.ndarray  # (n, 2), strictly outside the closed domain
    charges: np.ndarray        # (n,) complex
    boundary_residual: float   # max |v - c0| on a fresh validation sampling
    effective_rank: int
    n_collocation: int


@dataclass(eq=False)
class DiskSolution:
    """Closed form v(x) = c0 J0(k|x - center|) / J0(kR) on a disk."""

    center: np.ndarray
    radius: float
    k: float
    c0: float
    boundary_residual: float = 0.0

    @property
    def domain(self) -> geometry.Disk:
        return geometry.Disk(center=self.center, radius=self.radius)


@dataclass(frozen=True)
class PositivityScan:
    min_value: float
    min_point: tuple
    max_abs: float
    n_samples: int
    branch: str  # "positive" or "zero"


def faber_krahn_gate(domain, k: float) -> SpectralGate:
    """Gate k^2 against the isoperimetric lower bound for lambda_1(D)."""
    if not (k > 0.0):
        raise ValueError("wavenumber k must be positive")
    j01 = specfun.bessel_zero(0, 1)
    area_d = geometry.area(domain)
    r_star = j01 / k
    rho = math.sqrt(area_d / math.pi)  # radius of the equal-area disk
    lam_lb = (j01 / rho) ** 2
    return SpectralGate(k=float(k), area_d=area_d, r_star=r_star,
                        lambda1_lower_bound=lam_lb,
                        passes=bool(area_d <= math.pi * r_star ** 2))


def _mfs_collocation(domain, n_col: int) -> np.ndarray:
    """Collocation points with refinement where the boundary loses smoothness.

    Density is doubled within 10% of the perimeter around every boundary
    piece junction (polygon vertices, tube segment/arc joints) and doubled
    again within 2%: the solution regularity drops there and the
    least-squares weight should follow.
    """
    base = geometry.sample_boundary(domain, n_col)
    pieces = geometry.boundary_pieces(domain)
    if len(pieces) < 2:
        return base.points
    P = geometry.perimeter(domain)
    joint_s = np.concatenate([[0.0], np.cumsum([p.length for p in pieces])])[:-1]

    def near(s_vals, window):
        d = np.abs((s_vals[:, None] - joint_s[None, :] + 0.5 * P) % P - 0.5 * P)
        return np.min(d, axis=1) <= window

    s = base.arclengths
    mids = 0.5 * (s + np.concatenate([s[1:], [P]]))
    extra = mids[near(mids, 0.05 * P)]
    fine = np.sort(np.concatenate([s, extra]))
    mids2 = 0.5 * (fine + np.concatenate([fine[1:], [P]]))
    extra2 = mids2[near(mids2, 0.01 * P)]
    pts, _ = geometry.boundary_points_at(domain, np.concatenate([fine, extra2]))
    return pts


def _charge_points(domain, n_src: int, dist: float) -> np.ndarray:
    """Sources on the outward boundary offset, graded toward junctions.

    The base layer is a uniform sampling pushed out by `dist` along the
    outward normal. Where boundary pieces join (polygon vertices, tube
    joints) the interior solution loses regularity, so extra sources are
    added at geometrically shrinking arclength distances from each joint,
    pushed out proportionally to that distance (capped at `dist`).
    """
    bs = geometry.sample_boundary(domain, n_src, offset=0.5)
    pts = [bs.points + dist * bs.normals]
    offs = [np.full(n_src, dist)]
    pieces = geometry.boundary_pieces(domain)
    if len(pieces) >= 2:
        P = geometry.perimeter(domain)
        joints = np.concatenate([[0.0], np.cumsum([p.length for p in pieces])])[:-1]
        levels = 0.04 * P * 0.5 ** np.arange(1, 9)
        s_extra = (joints[:, None, None]
                   + np.array([-1.0, 1.0])[None, :, None] * levels[None, None, :])
        s_extra = np.mod(s_extra.ravel(), P)
        d_extra = np.minimum(dist, 3.0 * np.tile(levels, 2 * len(joints)))
        p2, n2 = geometry.boundary_points_at(domain, s_extra)
        pts.append(p2 + d_extra[:, None] * n2)
        offs.append(d_extra)
    allpts = np.concatenate(pts, axis=0)
    alloffs = np.concatenate(offs)
    codes = geometry.locate_points(domain, allpts)
    if np.any(codes != geometry.OUTSIDE):
        raise geometry.GeometryError(
            "charge offset produced points not strictly outside the domain; "
            "reduce the dilation"
        )
    if np.any(geometry.boundary_distance(domain, allpts) < 0.2 * alloffs):
        raise geometry.GeometryError(
            "charge points crowd the boundary (reentrant geometry); "
            "reduce the dilation"
        )
    return allpts


def _phi_matrix(k: float, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Fundamental solution between every target (row) and source (column)."""
    return specfun.fundamental_solution(k, targets[:, None, :] - sources[None, :, :])


def solve_dirichlet_mfs(problem: DirichletProblem, n_src: int = 128,
                        n_col: int | None = None, dilation: float = 0.15,
                        mode="tsvd:1e-12", residual_tol: float = 1e-6,
                        override_gate: bool = False) -> MFSSolution:
    """Charge-collocation solve of the constant-data Dirichlet problem.

    Charges sit on the outward offset of the boundary at distance
    dilation * diam(D). The returned boundary_residual is the max misfit
    on an independent validation sampling four times denser than the
    collocation; if it misses residual_tol * |c0| the solve is rejected as
    ill-resolved or near-eigenvalue (carrying the residual and the
    truncated-SVD effective rank).
    """
    domain, k, c0 = problem.domain, float(problem.k), float(problem.c0)
    gate = faber_krahn_gate(domain, k)
    if not gate.passes and not override_gate:
        raise GateError(
            f"area {gate.area_d:.6g} exceeds the gate threshold "
            f"{math.pi * gate.r_star ** 2:.6g}; pass override_gate=True to force "
            "a residual-checked solve", gate=gate)
    if n_col is None:
        n_col = 2 * n_src
    if not (n_col >= 2 * n_src >= 32):
        raise ValueError("need n_col >= 2*n_src >= 32")
    if not (dilation > 0.0):
        raise ValueError("dilation must be positive")

    offset = dilation * geometry.diameter(domain)
    sources = _charge_points(domain, n_src, offset)
    col = _mfs_collocation(domain, n_col)
    A = _phi_matrix(k, col, sources)
    b = np.full(len(col), c0, dtype=complex)
    sol = linalg.lstsq(A, b, mode=mode)
    charges = sol.coefficients

    val = geometry.sample_boundary(domain, 4 * n_col, offset=0.37)
    resid = np.abs(_phi_matrix(k, val.points, sources) @ charges - c0)
    boundary_residual = float(np.max(resid))
    if boundary_residual > residual_tol * abs(c0):
        raise NearEigenvalueError(
            f"validation residual {boundary_residual:.3e} exceeds "
            f"{residual_tol:g}*|c0|: ill-resolved or near-eigenvalue",
            residual=boundary_residual, effective_rank=sol.effective_rank)
    return MFSSolution(domain=domain, k=k, c0=c0, charge_points=sources,
                       charges=charges, boundary_residual=boundary_residual,
                       effective_rank=sol.effective_rank, n_collocation=len(col))


def disk_solution(d: geometry.Disk, k: float, c0: float,
                  eigen_tol: float = 1e-8) -> DiskSolution:
    """Exact disk solution; rejects kR within eigen_tol of a zero of J0."""
    denom = special.jv(0, k * d.radius)
    if abs(denom) <= eigen_tol:
        raise NearEigenvalueError(
            f"J0(kR) = {denom:.3e}: k^2 is (numerically) a Dirichlet eigenvalue")
    return DiskSolution(center=d.center.copy(), radius=d.radius, k=float(k),
                        c0=float(c0))


def evaluate_interior_with_diagnostic(solution, pts):
    """Interior values (real part) plus the max imaginary residue.

    For a real boundary constant the true solution is real, so the
    imaginary part of the charge sum is a solver diagnostic.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    codes = geometry.locate_points(solution.domain, pts)
    if np.any(codes != geometry.INSIDE):
        bad = int(np.argmax(codes != geometry.INSIDE))
        raise ValueError(f"point {pts[bad]} is not strictly inside the domain")
    if isinstance(solution, DiskSolution):
        r = np.hypot(pts[:, 0] - solution.center[0], pts[:, 1] - solution.center[1])
        vals = solution.c0 * special.jv(0, solution.k * r) \
            / special.jv(0, solution.k * solution.radius)
        return np.asarray(vals, dtype=float), 0.0
    field_vals = _phi_matrix(solution.k, pts, solution.charge_points) @ solution.charges
    return field_vals.real, float(np.max(np.abs(field_vals.imag)))


def evaluate_interior(solution, pts) -> np.ndarray:
    vals, _ = evaluate_interior_with_diagnostic(solution, pts)
    return vals


_HALTON_BASES = (2, 3)


def _halton_permutations(seed) -> list:
    """Owen's random digit permutations: per base, one row for each digit
    level that can change a double (base**-level > 2**-54).

    They are drawn in the order scipy.stats.qmc.Halton(d=2, scramble=True,
    seed=seed) draws them, so the sequence below equals scipy's.
    """
    rng = np.random.default_rng(seed)
    perms = []
    for base in _HALTON_BASES:
        rows = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        perms.append(rng.permuted(rows, axis=1, out=rows).astype(float))
    return perms


def _scrambled_halton(perms, start: int, n: int) -> np.ndarray:
    """Points start .. start + n - 1 of the scrambled Halton sequence, (n, 2) in [0, 1)^2.

    Coordinate d of point i is sum_j perms[d][j][digit_j(i)] * base**-(j+1).
    The terms are added in increasing j with the scale divided by the base
    once per level; this is scipy's order, and other orders (reversed,
    Horner) can differ from it in the last bit.
    """
    out = np.zeros((2, n))
    for acc, base, rows in zip(out, _HALTON_BASES, perms):
        idx = np.arange(start, start + n)
        top = start + n - 1
        scale = 1.0
        for row in rows:
            scale /= base
            if top:
                acc += row[idx % base] * scale
                idx //= base
                top //= base
            else:  # every index has run out of digits: all remaining digits are 0
                acc += row[0] * scale
    return out.T


def halton_interior(domain, n: int, seed: int = 42) -> np.ndarray:
    """n quasi-random points strictly inside the domain.

    Candidates run through a scrambled Halton sequence (bases 2 and 3,
    Owen's random digit permutations, arXiv:1706.02808) over the bounding
    box and are kept when inside. The sequence equals
    scipy.stats.qmc.Halton(d=2, scramble=True, seed=seed) point for point.
    """
    if n < 1:
        raise ValueError(f"need at least one interior point, got n={n}")
    pieces = geometry.sample_boundary(domain, 256).points
    lo = pieces.min(axis=0)
    hi = pieces.max(axis=0)
    perms = _halton_permutations(seed)
    out = []
    start, need = 0, n
    while need > 0:
        batch = max(4 * need, 64)
        cand = lo + _scrambled_halton(perms, start, batch) * (hi - lo)
        start += batch
        keep = cand[geometry.inside_mask(domain, cand)]
        out.append(keep[:need])
        need -= len(keep[:need])
    return np.concatenate(out, axis=0)


def check_strong_positivity(solution, gate: SpectralGate,
                            n_interior_samples: int = 512,
                            seed: int = 42) -> PositivityScan:
    """Witness the interior dichotomy: v identically ~0 or v > 0 everywhere.

    Requires a passing gate and c0 >= 0. Mixed or negative samples raise
    StrongPositivityError with the offending point (solver inaccuracy or a
    gate violation).
    """
    if not gate.passes:
        raise GateError("strong positivity check requires a passing gate", gate=gate)
    if solution.c0 < 0.0:
        raise ValueError("strong positivity check requires c0 >= 0")
    pts = halton_interior(solution.domain, n_interior_samples, seed=seed)
    vals = evaluate_interior(solution, pts)
    i_min = int(np.argmin(vals))
    scan = PositivityScan(min_value=float(vals[i_min]),
                          min_point=tuple(pts[i_min]),
                          max_abs=float(np.max(np.abs(vals))),
                          n_samples=len(pts), branch="")
    zero_tol = 1e-9 * max(abs(solution.c0), 1.0)
    if scan.max_abs <= zero_tol:
        return dataclasses.replace(scan, branch="zero")
    if scan.min_value > 0.0:
        return dataclasses.replace(scan, branch="positive")
    raise StrongPositivityError(
        f"nonpositive interior sample {scan.min_value:.3e} at {scan.min_point}",
        scan=scan)


def mean_value_check(evaluate, center, radius: float, k: float,
                     n_quad: int = 256) -> float:
    """|circle average of u - u(center) J0(k radius)|, trapezoid quadrature.

    `evaluate` maps an (n, 2) array to values. Zero for exact Helmholtz
    solutions up to (spectrally small) quadrature error; constants are not
    solutions for k > 0 and show a residual |c| |1 - J0(kr)|.
    """
    c = np.asarray(center, dtype=float).reshape(2)
    if not (radius > 0.0 and n_quad >= 4):
        raise ValueError("need radius > 0 and n_quad >= 4")
    theta = 2.0 * math.pi * np.arange(n_quad) / n_quad
    circle = c + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    avg = complex(np.mean(np.asarray(evaluate(circle), dtype=complex)))
    u0 = complex(np.asarray(evaluate(c.reshape(1, 2)), dtype=complex)[0])
    return abs(avg - u0 * special.jv(0, k * radius))
