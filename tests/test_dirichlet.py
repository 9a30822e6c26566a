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
