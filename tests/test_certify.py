import math

import numpy as np
import pytest
from scipy import special

from helmholtz_positivity import certify as cf
from helmholtz_positivity import geometry as g
from helmholtz_positivity import herglotz as hg
from helmholtz_positivity import specfun as sf

UNIT_DISK = g.disk([0.0, 0.0], 1.0)
SQUARE = g.polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
J01 = sf.bessel_zero(0, 1)


def radial_unit_boundary_wave():
    """a0 = 1/J0(1): equals 1 on the unit circle, >= 1 inside."""
    return hg.FourierBesselWave(k=1.0, a0=1.0 / special.jv(0, 1.0),
                                cos_coeffs=[], sin_coeffs=[])


# --- boundary certificates -----------------------------------------------------

def test_certificate_radial_wave_on_unit_disk():
    wave = radial_unit_boundary_wave()
    sampling = g.sample_boundary(UNIT_DISK, 512)
    cert = cf.certify_positive(wave, sampling)
    assert cert.min_sample == pytest.approx(1.0, abs=1e-10)
    # Lipschitz bound k ||f||_1 <= 2 pi k sqrt(sum |c|^2) = a0 here
    assert cert.lipschitz_bound == pytest.approx(wave.a0, rel=1e-12)
    gap_term = cert.lipschitz_bound * cert.max_gap / 2.0
    assert gap_term == pytest.approx(0.008, abs=2e-3)
    assert cert.certified
    assert cert.certified_margin == pytest.approx(cert.min_sample - gap_term)


def test_certificate_zero_wave_not_certified():
    wave = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[0.0], sin_coeffs=[0.0])
    cert = cf.certify_positive(wave, g.sample_boundary(UNIT_DISK, 64))
    assert cert.min_sample == 0.0
    assert not cert.certified


def test_certificate_fitted_square_wave():
    wave, _ = hg.fit_boundary(SQUARE, 1.0, 1.0, M=20)
    cert = cf.certify_positive(wave, g.sample_boundary(SQUARE, 4096))
    assert cert.certified
    assert cert.certified_margin >= 0.5


def test_certificate_soundness_under_refinement():
    # certified=true must survive a 4x finer sampling with no negative value
    wave, _ = hg.fit_boundary(SQUARE, 1.0, 1.0, M=20)
    cert = cf.certify_positive(wave, g.sample_boundary(SQUARE, 1024))
    assert cert.certified
    fine = g.sample_boundary(SQUARE, 4096)
    values = hg.eval_series(wave, fine.points)
    assert np.min(values) > 0.0
    assert np.min(values) >= cert.certified_margin - 1e-12


def test_empirical_slopes_below_lipschitz_bound():
    wave, _ = hg.fit_boundary(SQUARE, 1.0, 1.0, M=20)
    sampling = g.sample_boundary(SQUARE, 4096)
    values = hg.eval_series(wave, sampling.points)
    steps = np.hypot(*np.diff(sampling.points, axis=0).T)
    slope = float(np.max(np.abs(np.diff(values)) / steps))
    bound = wave.k * hg.density_l1_bound(wave)
    assert slope <= bound * (1.0 + 1e-6)


# --- set certificates ------------------------------------------------------------

def test_finite_set_margin_equals_min():
    wave = radial_unit_boundary_wave()
    targets = g.target_set([[0.0, 0.0], [0.5, 0.0], [0.0, -0.25]])
    cert = cf.certify_positive_on_set(wave, targets)
    assert cert.max_gap == 0.0
    assert cert.certified
    assert cert.certified_margin == pytest.approx(cert.min_sample)
    assert cert.min_sample == pytest.approx(
        float(np.min(hg.eval_series(wave, targets.points))))


def test_rounding_term_enters_margin():
    wave = hg.random_wave(12, 1.0, np.random.default_rng(9))
    sampling = g.sample_boundary(SQUARE, 256)
    cert = cf.certify_positive(wave, sampling)
    c1 = abs(wave.a0) + np.sum(np.abs(wave.cos_coeffs)) + np.sum(np.abs(wave.sin_coeffs))
    reach = np.max(np.hypot(sampling.points[:, 0], sampling.points[:, 1]))  # k = 1
    assert reach == pytest.approx(math.sqrt(0.5))
    expected = (2e-15 + (7 * 12 + 4 + 3 * reach) * np.finfo(float).eps) * c1
    assert cert.rounding == pytest.approx(expected, rel=1e-12)
    assert cert.certified_margin == (cert.min_sample - cert.lipschitz_bound * cert.max_gap / 2.0
                                     - cert.rounding)


@pytest.mark.parametrize("e", [-300, -1000])
def test_small_wave_certificate_is_the_scaled_certificate(e):
    # ||c||_1 < 1: the certificate runs on a copy with ||c||_1 in [1, 2), where
    # the terms c_m J~_m do not underflow, so the wave times 2^e has the
    # certificate times 2^e; evaluated as given, its samples were off by
    # their own size and the margin read -0.027 (times 2^-300) for 0.970
    square = g.polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    sampling = g.sample_boundary(square, 4096)
    wave, _ = hg.fit_boundary(square, 1.0, 1.0)
    cert = cf.certify_positive(wave, sampling)
    small = cf.certify_positive(hg.scaled_wave(wave, e), sampling)
    assert cert.certified and cert.certified_margin > 0.97
    for key in ("min_sample", "lipschitz_bound", "rounding", "certified_margin"):
        assert getattr(small, key) == math.ldexp(getattr(cert, key), e)
    for key in ("max_gap", "certified", "n_samples", "min_point"):
        assert getattr(small, key) == getattr(cert, key)


@pytest.mark.parametrize("M", [14, 40, 100, 200])
def test_rounding_bounds_the_evaluation_error(M):
    # eval_series against the same sum at 40 digits, at points with kr from
    # 0 to M: the error stays within the certificate's rounding term
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(M)
    wave = hg.random_wave(M, 1.3, rng, center=(0.25, -0.5))
    radius = np.concatenate([[0.0, 1e-3], rng.uniform(0.0, M / 1.3, 5), [M / 1.3]])
    angle = rng.uniform(0.0, 2.0 * math.pi, len(radius))
    pts = wave.center + radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    got = hg.eval_series(wave, pts)
    rounding = cf.certify_positive_on_set(wave, g.target_set(pts)).rounding
    with mpmath.workdps(40):
        for p, value in zip(pts, got):
            dx, dy = mpmath.mpf(p[0]) - wave.center[0], mpmath.mpf(p[1]) - wave.center[1]
            x, phi = wave.k * mpmath.hypot(dx, dy), mpmath.atan2(dy, dx)
            exact = wave.a0 * mpmath.besselj(0, x) + mpmath.fsum(
                mpmath.besselj(m, x) * (wave.cos_coeffs[m - 1] * mpmath.cos(m * phi)
                                        + wave.sin_coeffs[m - 1] * mpmath.sin(m * phi))
                for m in range(1, M + 1))
            assert abs(value - float(exact)) <= rounding


def test_set_on_zero_circle_not_certified():
    wave = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    theta = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
    ring = J01 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cert = cf.certify_positive_on_set(wave, g.target_set(ring))
    assert abs(cert.min_sample) <= 1e-10
    assert not cert.certified


# --- sign change on eigen-circles ---------------------------------------------

def test_random_waves_change_sign_with_zero_flux():
    rng = np.random.default_rng(42)
    for _ in range(20):
        wave = hg.random_wave(10, 1.0, rng)
        rep = cf.sign_change_on_circle(wave, 1, n_samples=1024)
        assert rep.changes_sign
        assert not rep.degenerate
        assert abs(rep.flux_integral) <= 1e-8 * hg.coefficient_norm(wave)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_flux_vanishes_for_all_zero_indices(m):
    rng = np.random.default_rng(100 + m)
    wave = hg.random_wave(10, 1.0, rng)
    rep = cf.sign_change_on_circle(wave, m, n_samples=2048)
    assert rep.circle_radius == pytest.approx(sf.bessel_zero(0, m))
    assert abs(rep.flux_integral) <= 1e-8 * hg.coefficient_norm(wave)


def test_radial_wave_degenerate_on_its_zero_circle():
    wave = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    rep = cf.sign_change_on_circle(wave, 1, n_samples=512)
    assert rep.degenerate
    assert not rep.changes_sign
    assert abs(rep.min_on_circle) <= 1e-10
    assert abs(rep.max_on_circle) <= 1e-10


def test_pure_first_mode_on_circle():
    # values on the circle are J1(j01) cos(theta): odd, min = -max
    wave = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[1.0], sin_coeffs=[0.0])
    rep = cf.sign_change_on_circle(wave, 1, n_samples=512)
    assert rep.changes_sign
    assert rep.min_on_circle == pytest.approx(-rep.max_on_circle, rel=1e-12)
    assert rep.max_on_circle == pytest.approx(special.jv(1, J01), rel=1e-10)


def test_sign_change_rejects_zero_wave():
    wave = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[], sin_coeffs=[])
    with pytest.raises(ValueError):
        cf.sign_change_on_circle(wave, 1)


def test_scale_covariant_obstruction():
    # same report shape for (k, m) and the rescaled (2k, m) problem
    rng = np.random.default_rng(77)
    w1 = hg.random_wave(6, 1.0, rng)
    w2 = hg.FourierBesselWave(k=2.0, a0=w1.a0, cos_coeffs=w1.cos_coeffs,
                              sin_coeffs=w1.sin_coeffs)
    r1 = cf.sign_change_on_circle(w1, 1, n_samples=1024)
    r2 = cf.sign_change_on_circle(w2, 1, n_samples=1024)
    assert r2.circle_radius == pytest.approx(r1.circle_radius / 2.0)
    assert r1.changes_sign and r2.changes_sign
    assert r2.min_on_circle == pytest.approx(r1.min_on_circle, rel=1e-10)
    assert r2.max_on_circle == pytest.approx(r1.max_on_circle, rel=1e-10)


# --- zero-ball scan --------------------------------------------------------------

def test_radial_wave_rim_crossing():
    wave = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    scan = cf.scan_for_zero(wave, (0.0, 0.0), J01 * 1.001)
    assert scan.found
    vp = hg.eval_series(wave, [scan.positive_point])[0]
    vn = hg.eval_series(wave, [scan.negative_point])[0]
    assert vp > 0.0 > vn


def test_zero_wave_scan_flagged():
    wave = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[0.0], sin_coeffs=[0.0])
    scan = cf.scan_for_zero(wave, (0.0, 0.0), J01)
    assert not scan.found
    assert scan.identically_small


def test_positive_wave_in_small_ball_not_found():
    # radius below j01/k: the guarantee does not apply; J0 is positive there
    wave = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    scan = cf.scan_for_zero(wave, (0.0, 0.0), 1.0)
    assert not scan.found


def test_fitted_waves_have_zero_in_every_ball():
    wave, _ = hg.fit_boundary(SQUARE, 1.0, 1.0, M=20)
    for center in ((0.0, 0.0), (1.0, 2.0), (-2.0, 0.5)):
        assert cf.scan_for_zero(wave, center, J01 * 1.001).found


def full_grid_scan(wave, center, radius):
    """(found, identically_small, n_grid) of scan_for_zero as one pass over the full grid."""
    c = np.asarray(center, dtype=float)
    step = 0.05 / wave.k
    ticks = np.arange(-radius, radius + 0.5 * step, step)
    gx, gy = np.meshgrid(c[0] + ticks, c[1] + ticks)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) <= radius]
    vals = hg.eval_series(wave, pts)
    if np.max(np.abs(vals)) <= 1e-12 * max(hg.coefficient_norm(wave), 1e-300):
        return False, True, len(pts)
    return bool(vals.min() < 0.0 < vals.max()), False, len(pts)


def _scan_cases():
    rng = np.random.default_rng(2024)
    for i in range(240):
        k = float(rng.uniform(0.3, 3.0))
        wave = hg.random_wave(int(rng.integers(0, 16)), k, rng,
                              center=rng.uniform(-1.0, 1.0, 2))
        radius = J01 / k * float(rng.choice([0.3, 0.7, 1.001, 1.5]))
        yield wave, rng.uniform(-2.0, 2.0, 2), radius
    radial = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    yield radial, (0.0, 0.0), J01                  # its zero circle is the ball's edge
    yield radial, (0.0, 0.0), J01 * 1.001
    yield radial, (0.0, 0.0), 1.0                  # smaller than j01/k: positive
    yield radial, (0.3, 0.1), 0.5
    yield radial, (0.3, 0.1), 0.03                 # one point, on the full grid only
    zero = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[0.0], sin_coeffs=[0.0])
    yield zero, (0.0, 0.0), J01
    # J_15 cos(15 phi) changes sign in the unit ball but stays below 1e-16:
    # identically small, not a witness
    high = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[0.0] * 14 + [1.0],
                                sin_coeffs=[0.0] * 15)
    yield high, (0.0, 0.0), 1.0
    tiny = hg.FourierBesselWave(k=2.0, a0=1e-200, cos_coeffs=[1e-200], sin_coeffs=[0.0])
    yield tiny, (1.0, -1.0), J01 / 2.0 * 1.001


def test_scan_for_zero_decides_as_the_full_grid():
    # the stride-4 pass may decide, but the verdicts are the full grid's
    decided_early = 0
    for wave, center, radius in _scan_cases():
        scan = cf.scan_for_zero(wave, center, radius)
        found, small, n_full = full_grid_scan(wave, center, radius)
        assert (scan.found, scan.identically_small) == (found, small)
        assert scan.n_grid <= n_full
        decided_early += scan.n_grid < n_full
        if scan.found:
            assert scan.positive_point is not None and scan.negative_point is not None
            vp = hg.eval_series(wave, [scan.positive_point])[0]
            vn = hg.eval_series(wave, [scan.negative_point])[0]
            assert vp > 0.0 > vn
    assert decided_early >= 100


def test_scan_for_zero_stride_pass_counts_its_points():
    # a random wave's sign change shows on the coarse grid: 447 of 7,276 points
    wave = hg.random_wave(10, 1.0, np.random.default_rng(3))
    scan = cf.scan_for_zero(wave, (0.0, 0.0), J01 * 1.001)
    assert scan.found and scan.n_grid == 447
    assert full_grid_scan(wave, (0.0, 0.0), J01 * 1.001)[2] == 7276
    # a positive wave leaves the decision to the full grid
    radial = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    scan = cf.scan_for_zero(radial, (0.0, 0.0), 1.0)
    assert scan.n_grid == full_grid_scan(radial, (0.0, 0.0), 1.0)[2]


@pytest.mark.parametrize("k, radius", [(1.0, 0.01), (1.0, 0.02), (4.0, 0.005)])
def test_scan_for_zero_ball_without_grid_points_is_a_value_error(k, radius):
    # the one tick -radius gives the corner (-radius, -radius), outside the ball
    wave = hg.random_wave(3, k, np.random.default_rng(5))
    with pytest.raises(ValueError, match=f"step {0.05 / k:g}.*radius {radius:g}"):
        cf.scan_for_zero(wave, (0.0, 0.0), radius)
