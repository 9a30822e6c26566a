import math

import numpy as np
import pytest
from scipy import special

from helmholtz_positivity import dirichlet as dr
from helmholtz_positivity import geometry as g
from helmholtz_positivity import herglotz as hg
from helmholtz_positivity import specfun as sf

UNIT_DISK = g.disk([0.0, 0.0], 1.0)
SQUARE = g.polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
J01 = sf.bessel_zero(0, 1)


# --- spectral gate -------------------------------------------------------------

def test_gate_unit_square_k1_passes():
    gate = dr.faber_krahn_gate(SQUARE, 1.0)
    assert gate.passes
    assert math.pi * gate.r_star ** 2 == pytest.approx(math.pi * J01 ** 2)
    assert gate.lambda1_lower_bound >= 1.0


def test_gate_unit_square_k10_fails():
    gate = dr.faber_krahn_gate(SQUARE, 10.0)
    assert not gate.passes
    assert math.pi * gate.r_star ** 2 == pytest.approx(math.pi * (J01 / 10.0) ** 2)


def test_gate_equality_disk():
    gate = dr.faber_krahn_gate(g.disk([0, 0], J01), 1.0)
    assert gate.passes
    assert gate.lambda1_lower_bound == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_gate_scale_covariance_exact(t):
    for k in (1.0, 10.0, 2.5):
        base = dr.faber_krahn_gate(SQUARE, k)
        scaled_domain = g.polygon(SQUARE.vertices * t)
        scaled = dr.faber_krahn_gate(scaled_domain, k / t)
        assert scaled.passes == base.passes


def test_gate_decided_on_radii_when_areas_overflow():
    # pi R^2 and pi (j01/k)^2 both overflow to inf, yet k R = 120 > j01
    gate = dr.faber_krahn_gate(g.disk([0, 0], 1.2e302), 1e-300)
    assert gate.area_d == gate.area_threshold == math.inf
    assert not gate.passes
    # the eigenvalue-radius disk sits on the threshold at every scale: R == r_star
    for k in (1.0, 0.37, 3.3, 1e-300, 1e300):
        gate = dr.faber_krahn_gate(g.disk([0, 0], J01 / k), k)
        assert gate.passes


def test_gate_invariant_fields():
    gate = dr.faber_krahn_gate(UNIT_DISK, 2.0)
    assert gate.r_star == pytest.approx(J01 / 2.0)
    rho = math.sqrt(gate.area_d / math.pi)
    assert gate.lambda1_lower_bound == pytest.approx((J01 / rho) ** 2)
    assert gate.passes == (gate.area_d <= math.pi * gate.r_star ** 2)
    assert gate.passes == (gate.lambda1_lower_bound >= gate.k ** 2)


# --- MFS solve ------------------------------------------------------------------

def test_mfs_matches_disk_closed_form():
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(UNIT_DISK, 1.0, 1.0))
    assert sol.boundary_residual <= 1e-10
    oracle = dr.disk_solution(UNIT_DISK, 1.0, 1.0)
    radii = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.6], [0.9, 0.0]])
    diff = np.abs(dr.evaluate_interior(sol, radii)
                  - dr.evaluate_interior(oracle, radii))
    assert np.max(diff) <= 1e-8
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.9, 0.9, (300, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.95][:100]
    diff = np.abs(dr.evaluate_interior(sol, pts) - dr.evaluate_interior(oracle, pts))
    assert np.max(diff) <= 1e-8


def test_disk_closed_form_center_value():
    oracle = dr.disk_solution(UNIT_DISK, 1.0, 2.0)
    val = dr.evaluate_interior(oracle, [[0.0, 0.0]])[0]
    assert val == pytest.approx(2.0 / special.jv(0, 1.0), rel=1e-14)


def test_mfs_near_eigenvalue_detected():
    with pytest.raises(dr.NearEigenvalueError) as info:
        dr.solve_dirichlet_mfs(dr.DirichletProblem(g.disk([0, 0], J01), 1.0, 1.0))
    assert info.value.residual > 0.1
    assert info.value.effective_rank > 0
    with pytest.raises(dr.NearEigenvalueError):
        dr.disk_solution(g.disk([0, 0], J01), 1.0, 1.0)


def test_mfs_zero_boundary_constant():
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(SQUARE, 1.0, 0.0))
    assert sol.boundary_residual == pytest.approx(0.0, abs=1e-300)
    assert np.max(np.abs(sol.charges)) == pytest.approx(0.0, abs=1e-300)
    vals = dr.evaluate_interior(sol, [[0.0, 0.0], [0.2, 0.1]])
    assert np.max(np.abs(vals)) == 0.0


def test_mfs_gate_enforced_without_override():
    with pytest.raises(dr.GateError):
        dr.solve_dirichlet_mfs(dr.DirichletProblem(SQUARE, 10.0, 1.0))


def test_mfs_charges_strictly_outside():
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(SQUARE, 1.0, 1.0))
    codes = g.locate_points(SQUARE, sol.charge_points)
    assert np.all(codes == g.OUTSIDE)


def test_mfs_residual_improves_with_sources_on_disk():
    # residual decreases (or stays within 2x) as n_src doubles, down to 1e-10
    prev = None
    for n_src in (16, 32, 64, 128):
        sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(UNIT_DISK, 1.0, 1.0),
                                     n_src=n_src, residual_tol=10.0)
        res = max(sol.boundary_residual, 1e-10)
        if prev is not None:
            assert res <= 2.0 * prev
        prev = res
    assert prev <= 1e-10


def test_mfs_imaginary_part_diagnostic():
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(UNIT_DISK, 1.0, 1.0))
    pts = dr.halton_interior(g.disk([0, 0], 0.9), 50, seed=3)
    _, imag_max = dr.evaluate_interior_with_diagnostic(sol, pts)
    assert imag_max <= 1e-6 * abs(sol.c0)


def test_mfs_field_solves_helmholtz_fd():
    k = 1.0
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(UNIT_DISK, k, 1.0))
    pts = dr.halton_interior(g.disk([0, 0], 0.85), 40, seed=9)
    evaluate = lambda p: dr.evaluate_interior(sol, p)
    res = hg.helmholtz_fd_residual(evaluate, pts, k)
    vmax = float(np.max(np.abs(evaluate(pts))))
    assert np.max(res) <= 1e-4 * k * k * vmax


def test_evaluate_interior_rejects_outside_points():
    sol = dr.disk_solution(UNIT_DISK, 1.0, 1.0)
    with pytest.raises(ValueError):
        dr.evaluate_interior(sol, [[2.0, 0.0]])
    with pytest.raises(ValueError):
        dr.evaluate_interior(sol, [[1.0, 0.0]])  # boundary is not inside


# --- strong positivity -----------------------------------------------------------

def test_strong_positivity_disk_min_near_one():
    # closed form J0(r)/J0(1) >= 1 in the unit disk; min approaches the
    # boundary value 1
    gate = dr.faber_krahn_gate(UNIT_DISK, 1.0)
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(UNIT_DISK, 1.0, 1.0))
    scan = dr.check_strong_positivity(sol, gate, 1024)
    assert scan.branch == "positive"
    assert scan.min_value >= 1.0 - 1e-8


def test_strong_positivity_zero_branch():
    gate = dr.faber_krahn_gate(SQUARE, 1.0)
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(SQUARE, 1.0, 0.0))
    scan = dr.check_strong_positivity(sol, gate, 256)
    assert scan.branch == "zero"


def test_strong_positivity_square_positive():
    gate = dr.faber_krahn_gate(SQUARE, 1.0)
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(SQUARE, 1.0, 1.0))
    scan = dr.check_strong_positivity(sol, gate, 512)
    assert scan.branch == "positive"
    assert scan.min_value > 0.0


def test_strong_positivity_requires_gate():
    gate = dr.faber_krahn_gate(SQUARE, 10.0)
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(SQUARE, 1.0, 1.0))
    with pytest.raises(dr.GateError):
        dr.check_strong_positivity(sol, gate, 64)


# --- mean value -------------------------------------------------------------------

def test_mean_value_radial_wave():
    k = 1.0
    wave = hg.FourierBesselWave(k=k, a0=2.0 * math.pi, cos_coeffs=[], sin_coeffs=[])
    evaluate = lambda p: hg.eval_series(wave, p)
    for r in (0.5, 1.7, 3.0):
        assert dr.mean_value_check(evaluate, (0.0, 0.0), r, k, n_quad=64) <= 1e-10


def test_mean_value_detects_constants():
    c, k, r = 2.0, 1.0, 0.7
    evaluate = lambda p: np.full(len(np.atleast_2d(p)), c)
    res = dr.mean_value_check(evaluate, (0.0, 0.0), r, k)
    assert res == pytest.approx(abs(c) * abs(1.0 - special.jv(0, k * r)), rel=1e-12)


def test_mean_value_many_circles_match_single_circles():
    # n_quad = 8 leaves a quadrature error well above rounding to compare
    rng = np.random.default_rng(21)
    wave = hg.random_wave(10, 1.0, rng)
    calls = []

    def evaluate(p):
        calls.append(len(p))
        return hg.eval_series(wave, p)

    centers = rng.uniform(-2.0, 2.0, (6, 2))
    radii = rng.uniform(0.3, 2.0, 6)
    worst = dr.mean_value_check(evaluate, centers, radii, 1.0, n_quad=8)
    assert calls == [6 * 8 + 6]
    single = max(dr.mean_value_check(evaluate, c, r, 1.0, n_quad=8)
                 for c, r in zip(centers, radii))
    assert single > 1e-6
    assert worst == pytest.approx(single, rel=1e-12)


def test_mean_value_constant_over_several_radii():
    c, k = -1.5, 1.0
    radii = np.array([0.3, 0.7, 1.5, 2.2])
    centers = np.random.default_rng(22).uniform(-1.0, 1.0, (len(radii), 2))
    evaluate = lambda p: np.full(len(np.atleast_2d(p)), c)
    res = dr.mean_value_check(evaluate, centers, radii, k)
    expected = np.max(abs(c) * np.abs(1.0 - special.jv(0, k * radii)))
    assert res == pytest.approx(expected, rel=1e-12)


def test_mean_value_needs_one_positive_radius_per_centre():
    evaluate = lambda p: np.ones(len(p))
    with pytest.raises(ValueError):
        dr.mean_value_check(evaluate, np.zeros((3, 2)), [0.5, 0.5], 1.0)
    with pytest.raises(ValueError):
        dr.mean_value_check(evaluate, np.zeros((2, 2)), [0.5, 0.0], 1.0)


def test_mean_value_mfs_field():
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(UNIT_DISK, 1.0, 1.0))
    evaluate = lambda p: dr.evaluate_interior(sol, p)
    res = dr.mean_value_check(evaluate, (0.2, 0.1), 0.3, 1.0)
    assert res <= 1e-7


# --- quasi-random interior sampling -----------------------------------------------

def test_halton_interior_inside_and_deterministic():
    pts1 = dr.halton_interior(SQUARE, 200, seed=4)
    pts2 = dr.halton_interior(SQUARE, 200, seed=4)
    assert np.array_equal(pts1, pts2)
    assert len(pts1) == 200
    assert np.all(g.inside_mask(SQUARE, pts1))
    assert not np.array_equal(pts1, dr.halton_interior(SQUARE, 200, seed=5))


@pytest.mark.parametrize("n", [0, -3])
def test_halton_interior_rejects_empty_request(n):
    with pytest.raises(ValueError):
        dr.halton_interior(SQUARE, n)


def test_halton_interior_gives_up_on_a_strip_thinner_than_the_tolerance():
    # every point of a 1e-13 strip lies within BOUNDARY_TOL = 1e-12 of its
    # boundary: the candidate search stops with GeometryError
    with pytest.raises(g.GeometryError, match="boundary tolerance"):
        dr.halton_interior(g.polygon([[0, 0], [1, 0], [1, 1e-13], [0, 1e-13]]), 10)
    strip = g.polygon([[0, 0], [1, 0], [1, 1e-11], [0, 1e-11]])
    assert np.all(g.inside_mask(strip, dr.halton_interior(strip, 10)))
