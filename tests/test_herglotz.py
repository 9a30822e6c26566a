import math

import numpy as np
import pytest
from scipy import special

from helmholtz_positivity import certify as cf
from helmholtz_positivity import dirichlet as dr
from helmholtz_positivity import geometry as g
from helmholtz_positivity import herglotz as hg
from helmholtz_positivity import specfun as sf

UNIT_DISK = g.disk([0.0, 0.0], 1.0)
SQUARE = g.polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
J01 = sf.bessel_zero(0, 1)


def constant_density(k=1.0, value=1.0):
    return hg.HerglotzDensity(k=k, coeffs=np.array([value + 0j]))


# --- quadrature evaluation -----------------------------------------------------

def test_constant_density_at_origin_gives_circumference():
    q = hg.eval_quadrature(constant_density(), [[0.0, 0.0]])
    assert q[0] == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_constant_density_radial_values():
    k = 1.0
    pts = np.array([[0.5, 0.0], [0.0, 2.0], [3.0, 4.0]])
    q = hg.eval_quadrature(constant_density(k), pts)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(q - 2.0 * math.pi * special.jv(0, k * r))) <= 1e-10
    assert np.max(np.abs(q.imag)) <= 1e-12


def test_quadrature_linearity():
    rng = np.random.default_rng(0)
    k = 1.0
    f = hg.HerglotzDensity(k=k, coeffs=rng.standard_normal(7)
                           + 1j * rng.standard_normal(7))
    h = hg.HerglotzDensity(k=k, coeffs=rng.standard_normal(7)
                           + 1j * rng.standard_normal(7))
    both = hg.HerglotzDensity(k=k, coeffs=f.coeffs + h.coeffs)
    pts = rng.uniform(-2, 2, (20, 2))
    n = 512
    lhs = hg.eval_quadrature(both, pts, n)
    rhs = hg.eval_quadrature(f, pts, n) + hg.eval_quadrature(h, pts, n)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- series evaluation ------------------------------------------------------------

def test_series_radial_mode():
    w = hg.FourierBesselWave(k=2.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.3, -0.4]])
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.allclose(hg.eval_series(w, pts), special.jv(0, 2.0 * r), atol=1e-15)


def test_series_value_at_center_is_a0():
    w = hg.FourierBesselWave(k=1.0, a0=3.5, cos_coeffs=[1.0, 2.0],
                             sin_coeffs=[0.5, -1.0], center=(0.4, -0.2))
    assert hg.eval_series(w, [[0.4, -0.2]])[0] == pytest.approx(3.5)


def test_series_real_output():
    w = hg.random_wave(10, 1.0, np.random.default_rng(1))
    vals = hg.eval_series(w, np.random.default_rng(2).uniform(-3, 3, (50, 2)))
    assert vals.dtype.kind == "f"


# --- density mapping ------------------------------------------------------------

def test_to_density_radial_coefficient():
    w = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    d = hg.to_density(w)
    assert d.coeffs.shape == (1,)
    assert d.coeffs[0] == pytest.approx(1.0 / (2.0 * math.pi))


def test_to_density_round_trip_single_cos_mode():
    w = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[1.0], sin_coeffs=[0.0])
    d = hg.to_density(w)
    pts = np.random.default_rng(3).uniform(-4, 4, (40, 2))
    q = hg.eval_quadrature(d, pts)
    s = hg.eval_series(w, pts)
    assert np.max(np.abs(q - s)) <= 1e-10
    assert np.max(np.abs(q.imag)) <= 1e-10


def test_plane_wave_consistency_centered():
    # series and quadrature-of-density agree for k |x| up to 30, M up to 40
    rng = np.random.default_rng(42)
    for M in (5, 20, 40):
        w = hg.random_wave(M, 1.0, rng)
        pts = rng.uniform(-21.0, 21.0, (60, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 30.0]
        d = hg.to_density(w)
        dev = np.abs(hg.eval_series(w, pts) - hg.eval_quadrature(d, pts))
        assert np.max(dev) <= 1e-9


def test_plane_wave_consistency_off_center():
    rng = np.random.default_rng(6)
    w = hg.random_wave(8, 1.5, rng, center=(1.2, -0.7))
    pts = rng.uniform(-5, 5, (50, 2))
    d = hg.to_density(w)
    dev = np.abs(hg.eval_series(w, pts) - hg.eval_quadrature(d, pts))
    assert np.max(dev) <= 1e-10


def test_reality_of_quadrature_through_density():
    rng = np.random.default_rng(8)
    w = hg.random_wave(12, 1.0, rng)
    pts = rng.uniform(-6, 6, (80, 2))
    q = hg.eval_quadrature(hg.to_density(w), pts)
    assert np.max(np.abs(q.imag)) <= 1e-9 * np.max(np.abs(q.real))


def test_density_l1_bound_closed_form():
    rng = np.random.default_rng(10)
    w = hg.random_wave(9, 1.0, rng)
    d = hg.to_density(w)
    assert hg.density_l1_bound(w) == pytest.approx(d.l1_bound(), rel=1e-12)
    # Cauchy-Schwarz: true L1 norm is below the bound
    theta = 2 * math.pi * np.arange(4096) / 4096
    l1 = np.mean(np.abs(d.eval(theta))) * 2 * math.pi
    assert l1 <= d.l1_bound() * (1 + 1e-9)


# --- boundary fit ------------------------------------------------------------------

def test_disk_fit_radial_oracle():
    wave, report = hg.fit_boundary(UNIT_DISK, 1.0, 1.0, M=0)
    assert wave.a0 == pytest.approx(1.0 / special.jv(0, 1.0), abs=1e-12)
    assert report.residual_max <= 1e-12


def test_disk_fit_default_order_keeps_radial_solution():
    wave, report = hg.fit_boundary(UNIT_DISK, 1.0, 1.0)
    assert wave.a0 == pytest.approx(1.0 / special.jv(0, 1.0), abs=1e-10)
    assert report.residual_max <= 1e-10
    assert max(np.max(np.abs(wave.cos_coeffs), initial=0.0),
               np.max(np.abs(wave.sin_coeffs), initial=0.0)) <= 1e-10


def test_eigenvalue_disk_fit_fails():
    with pytest.raises(hg.FitFailedError) as info:
        hg.fit_boundary(g.disk([0, 0], J01), 1.0, 1.0, M=20)
    assert info.value.report.residual_max >= 0.5


def test_square_fit_succeeds():
    wave, report = hg.fit_boundary(SQUARE, 1.0, 1.0, M=20)
    assert report.residual_max <= 5e-3
    assert wave.M == 20


# --- interior fit ------------------------------------------------------------------

def test_interior_fit_recovers_basis_element():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.9, 0.9, (200, 2))
    vals = special.jv(0, np.hypot(pts[:, 0], pts[:, 1]))
    wave, report = hg.fit_interior(pts, vals, 1.0, M=5, center=(0.0, 0.0))
    assert wave.a0 == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(wave.cos_coeffs)) <= 1e-10
    assert np.max(np.abs(wave.sin_coeffs)) <= 1e-10
    assert report.residual_max <= 1e-10


def test_interior_fit_matches_disk_closed_form():
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(UNIT_DISK, 1.0, 1.0))
    pts = dr.halton_interior(g.disk([0, 0], 0.9), 500, seed=7)
    vals = dr.evaluate_interior(sol, pts)
    wave, report = hg.fit_interior(pts, vals, 1.0)
    rng = np.random.default_rng(13)
    probe = rng.uniform(-0.6, 0.6, (100, 2))
    r = np.hypot(probe[:, 0], probe[:, 1])
    exact = special.jv(0, r) / special.jv(0, 1.0)
    assert np.max(np.abs(hg.eval_series(wave, probe) - exact)) <= 1e-7
    assert report.residual_max <= 1e-7


def test_interior_fit_underdetermined_raises():
    pts = np.random.default_rng(14).uniform(-1, 1, (10, 2))
    with pytest.raises(ValueError):
        hg.fit_interior(pts, np.ones(10), 1.0, M=10)


# --- far field ---------------------------------------------------------------------

def test_far_field_halving_ratio():
    # envelope deviation ratio across an octave approaches 2^(-3/2)
    dens = constant_density()
    r0 = 200.0
    lo = np.linspace(0.45 * r0, 0.55 * r0, 64)
    hi = np.linspace(0.9 * r0, 1.1 * r0, 64)
    ff_lo = hg.far_field(dens, (1.0, 0.0), lo)
    ff_hi = hg.far_field(dens, (1.0, 0.0), hi)
    ratio = np.max(ff_hi.deviations) / np.max(ff_lo.deviations)
    assert 0.8 * 2 ** -1.5 <= ratio <= 1.25 * 2 ** -1.5


def test_far_field_decay_exponent_constant_density():
    radii = np.geomspace(50.0, 400.0, 160)
    ff = hg.far_field(constant_density(), (0.0, 1.0), radii)
    assert 1.2 <= ff.decay_exponent <= 1.8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_far_field_decay_exponent_random_densities(seed):
    rng = np.random.default_rng(seed)
    k = 1.0
    w = hg.random_wave(8, k, rng)
    radii = np.geomspace(50.0 / k, 400.0 / k, 160)
    ff = hg.far_field(w, (0.6, 0.8), radii)
    assert 1.2 <= ff.decay_exponent <= 1.8


def test_far_field_leading_term_close_at_moderate_radius():
    k = 1.0
    radii = np.array([100.0 / k])
    ff = hg.far_field(constant_density(k), (1.0, 0.0), radii)
    assert ff.leading_rel_err[0] <= 0.10


def test_far_field_radius_precondition():
    with pytest.raises(ValueError):
        hg.far_field(constant_density(), (1.0, 0.0), [5.0])


# --- PDE residual property ------------------------------------------------------

def test_series_satisfies_helmholtz_fd():
    rng = np.random.default_rng(15)
    k = 1.0
    w = hg.random_wave(10, k, rng)
    pts = rng.uniform(-3, 3, (100, 2))
    evaluate = lambda p: hg.eval_series(w, p)
    res = hg.helmholtz_fd_residual(evaluate, pts, k)
    umax = np.max(np.abs(evaluate(pts)))
    assert np.max(res) <= 1e-5 * k * k * umax


def test_fd_residual_evaluates_once():
    rng = np.random.default_rng(17)
    w = hg.random_wave(10, 1.0, rng)
    pts = rng.uniform(-3, 3, (20, 2))
    calls = []

    def evaluate(p):
        calls.append(len(p))
        return hg.eval_series(w, p)

    res = hg.helmholtz_fd_residual(evaluate, pts, 1.0)
    assert calls == [5 * len(pts)]
    assert res.shape == (len(pts),)


# --- zero-ball property -----------------------------------------------------------

def test_zero_ball_small_sample():
    from helmholtz_positivity import certify as cf
    rng = np.random.default_rng(16)
    for _ in range(10):
        w = hg.random_wave(10, 1.0, rng)
        for c in rng.uniform(-3, 3, (2, 2)):
            assert cf.scan_for_zero(w, c, J01 * 1.001).found


# --- serialization -----------------------------------------------------------------

def test_wave_json_round_trip(tmp_path):
    w = hg.random_wave(6, 1.5, np.random.default_rng(17), center=(0.3, 0.1))
    path = tmp_path / "wave.json"
    hg.save_wave(w, path)
    again = hg.load_wave(path)
    pts = np.random.default_rng(18).uniform(-2, 2, (20, 2))
    assert np.allclose(hg.eval_series(w, pts), hg.eval_series(again, pts))


def test_wave_json_key_validation():
    with pytest.raises(ValueError):
        hg.wave_from_json({"k": 1.0, "M": 0, "a0": 1.0, "ac": [], "as": [],
                           "bogus": 1})
    with pytest.raises(ValueError):
        hg.wave_from_json({"k": 1.0, "M": 1, "a0": 1.0, "ac": [], "as": []})


def table_then_sum(wave, pts):
    """eval_series as the J table then a loop over m: the order the fold replaces."""
    rel = np.atleast_2d(np.asarray(pts, dtype=float)) - wave.center
    r = np.hypot(rel[:, 0], rel[:, 1])
    z = rel[:, 0] + 1j * rel[:, 1]
    unit = np.divide(z, r, out=np.ones_like(z), where=r > 0.0)
    J = sf.bessel_j_table(wave.M, wave.k * r)
    out = wave.a0 * J[0]
    power = np.ones_like(unit)
    for m, (ac, as_) in enumerate(zip(wave.cos_coeffs, wave.sin_coeffs), start=1):
        power *= unit
        out += J[m] * (ac * power.real + as_ * power.imag)
    return out


@pytest.mark.parametrize("M", [0, 1, 13, 40, 200])
def test_eval_series_agrees_with_table_then_sum(M):
    rng = np.random.default_rng(300 + M)
    wave = hg.random_wave(M, 1.3, rng, center=(0.25, -0.5))
    radius = np.concatenate([[0.0, 1e-31, 1e-3], rng.uniform(0.0, (M + 5) / 1.3, 200)])
    angle = rng.uniform(0.0, 2.0 * math.pi, len(radius))
    pts = wave.center + radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    got = hg.eval_series(wave, pts)
    rounding = cf.certify_positive_on_set(wave, g.target_set(pts)).rounding
    assert np.all(np.abs(got - table_then_sum(wave, pts)) <= rounding)
    assert got[0] == wave.a0  # r = 0: the series values, J_0 = 1 and J_m = 0


def test_eval_series_agrees_with_table_then_sum_where_the_recurrence_rescales():
    # kr down to 1e-25 at M = 200: the bound passes 1e250 every few orders,
    # and the columns at small kr grow past 1, so the sum is rescaled with them
    rng = np.random.default_rng(7)
    wave = hg.random_wave(200, 1.0, rng)
    radius = np.array([1e-25, 1e-18, 1e-12, 1e-6, 1e-3, 0.5, 2.0])
    angle = rng.uniform(0.0, 2.0 * math.pi, len(radius))
    pts = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    got = hg.eval_series(wave, pts)
    rounding = cf.certify_positive_on_set(wave, g.target_set(pts)).rounding
    assert np.all(np.abs(got - table_then_sum(wave, pts)) <= rounding)
    # J_1(kr) = kr/2 to double precision at kr <= 1e-12
    lead = wave.a0 + 0.5 * radius * (wave.cos_coeffs[0] * np.cos(angle)
                                      + wave.sin_coeffs[0] * np.sin(angle))
    assert np.all(np.abs(got[:3] - lead[:3]) <= 1e-15 * abs(wave.a0))
