"""Interior Dirichlet problems for (lap + k^2) v = 0, v = c0 on the boundary.

The commands use three things from here: the area-based first-eigenvalue
gate (lambda_1(D) >= lambda_1 of the equal-area disk), which they report and
no command enforces; the disk closed form c0 J0(kr)/J0(kR), selftest's oracle
for the boundary fit; and the checks' Halton interior sampler and circle
mean-value identity avg_{|y-x|=r} u = u(x) J0(kr). The fundamental-solution
(MFS) collocation solver and its strict-positivity scan are library code that
no command calls.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, linalg, specfun

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
    """Spectral gate failed."""

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
    with equality only in the equal-measure disk case. It is decided on
    radii, sqrt(|D| / pi) <= r_star (a disk's own radius for a disk), so it
    stays right where both areas overflow to inf.
    """

    k: float
    area_d: float
    r_star: float
    area_threshold: float  # pi r_star^2, the largest area that passes
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
    # inf once r_star^2 overflows (k -> 0) or the area underflows to 0
    with np.errstate(over="ignore", divide="ignore"):
        lam_lb = (j01 / rho) ** 2
        threshold = float(math.pi * r_star ** 2)
    if isinstance(domain, geometry.Disk):  # its radius is exact, its area may be inf
        rho = domain.radius
    return SpectralGate(k=float(k), area_d=area_d, r_star=r_star,
                        area_threshold=threshold, lambda1_lower_bound=lam_lb,
                        passes=bool(rho <= r_star))


def _mfs_collocation(domain, n_col: int) -> np.ndarray:
    """Collocation points with refinement where the boundary loses smoothness.

    Density is doubled within 10% of the perimeter around every boundary
    piece junction (polygon vertices, tube segment/arc joints) and doubled
    again within 2%: the solution regularity drops there and the
    least-squares weight should follow.
    """
    base = geometry.sample_boundary(domain, n_col)
    joint_s = geometry.joint_arclengths(domain)
    if len(joint_s) < 2:
        return base.points
    P = geometry.perimeter(domain)

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


#: Charge offset from the boundary, as a fraction of the domain's diameter.
_DILATION = 0.15


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
    joints = geometry.joint_arclengths(domain)
    if len(joints) >= 2:
        P = geometry.perimeter(domain)
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
        raise NearEigenvalueError(
            "charge offset produced points not strictly outside the domain: "
            "the solve is ill-resolved")
    if np.any(geometry.boundary_distance(domain, allpts) < 0.2 * alloffs):
        raise NearEigenvalueError(
            "charge points crowd the boundary (reentrant geometry): "
            "the solve is ill-resolved")
    return allpts


def _phi_matrix(k: float, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Fundamental solution between every target (row) and source (column)."""
    return specfun.fundamental_solution(k, targets[:, None, :] - sources[None, :, :])


def solve_dirichlet_mfs(problem: DirichletProblem, n_src: int = 128,
                        n_col: int | None = None,
                        residual_tol: float = 1e-6) -> MFSSolution:
    """Charge-collocation solve of the constant-data Dirichlet problem.

    A failing spectral gate raises GateError. Charges sit on the outward
    offset of the boundary at distance _DILATION * diam(D), and the system
    is solved by the truncated SVD at 1e-12. The returned boundary_residual
    is the max misfit on an independent validation sampling four times
    denser than the collocation; if it misses residual_tol * |c0| the solve
    is rejected as ill-resolved or near-eigenvalue (carrying the residual
    and the truncated-SVD effective rank). Charges that leave or crowd the
    boundary (reentrant corners) are rejected the same way.
    """
    domain, k, c0 = problem.domain, float(problem.k), float(problem.c0)
    gate = faber_krahn_gate(domain, k)
    if not gate.passes:
        raise GateError(f"area {gate.area_d:.6g} exceeds the gate threshold "
                        f"{gate.area_threshold:.6g}", gate=gate)
    if n_col is None:
        n_col = 2 * n_src
    if not (n_col >= 2 * n_src >= 32):
        raise ValueError("need n_col >= 2*n_src >= 32")

    offset = _DILATION * geometry.diameter(domain)
    sources = _charge_points(domain, n_src, offset)
    col = _mfs_collocation(domain, n_col)
    A = _phi_matrix(k, col, sources)
    b = np.full(len(col), c0, dtype=complex)
    sol = linalg.lstsq(A, b, thresholds=(1e-12,))
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


def disk_solution(d: geometry.Disk, k: float, c0: float) -> DiskSolution:
    """Exact disk solution; rejects kR where |J0(kR)| <= 1e-8, near a zero of J0."""
    denom = specfun.bessel_j_table(0, [k * d.radius])[0, 0]
    if abs(denom) <= 1e-8:
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
        J0 = specfun.bessel_j_table(0, solution.k * np.append(r, solution.radius))[0]
        return solution.c0 * J0[:-1] / J0[-1], 0.0
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


#: halton_interior tries at most this many candidates.
_MAX_CANDIDATES = 1 << 18


def halton_interior(domain, n: int, seed: int = 42) -> np.ndarray:
    """n quasi-random points strictly inside the domain.

    Candidates run through a scrambled Halton sequence (bases 2 and 3,
    Owen's random digit permutations, arXiv:1706.02808) over the bounding
    box and are kept when inside. The sequence equals
    scipy.stats.qmc.Halton(d=2, scramble=True, seed=seed) point for point.
    A domain that keeps fewer than n of the first _MAX_CANDIDATES raises
    GeometryError: no point of a strip thinner than twice BOUNDARY_TOL is
    inside it, a width relative to the domain on the commands' unit copy.
    """
    if n < 1:
        raise ValueError(f"need at least one interior point, got n={n}")
    lo, hi = geometry.bounding_box(domain)
    perms = _halton_permutations(seed)
    out = []
    start, need = 0, n
    while need > 0:
        if start >= _MAX_CANDIDATES:
            raise geometry.GeometryError(
                f"fewer than {n} of {start} quasi-random points in the bounding box lie "
                "inside the domain (it may be thinner than the boundary tolerance)")
        batch = min(max(4 * need, 64, start), 4096)  # doubles while few are kept
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


def mean_value_check(evaluate, centers, radii, k: float,
                     n_quad: int = 256) -> float:
    """Worst |circle average of u - u(center) J0(k radius)| over the circles.

    `centers` is one (2,) centre or a (c, 2) stack and `radii` a scalar or
    the (c,) radii to match; the averages are trapezoid sums. `evaluate`
    maps an (n, 2) array to values and is called once, on every circle's
    n_quad points followed by the centres. Zero for exact Helmholtz
    solutions up to (spectrally small) quadrature error; constants are not
    solutions for k > 0 and show a residual |c| |1 - J0(kr)|.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    r = np.asarray(radii, dtype=float).reshape(-1)
    if not (len(r) == len(c) and np.all(r > 0.0) and n_quad >= 4):
        raise ValueError("need one radius > 0 per centre and n_quad >= 4")
    theta = 2.0 * math.pi * np.arange(n_quad) / n_quad
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    circles = c[:, None, :] + r[:, None, None] * unit
    vals = np.asarray(evaluate(np.concatenate([circles.reshape(-1, 2), c])), dtype=complex)
    avg = np.mean(vals[:-len(c)].reshape(len(c), n_quad), axis=1)
    return float(np.max(np.abs(avg - vals[-len(c):] * specfun.bessel_j_table(0, k * r)[0])))
