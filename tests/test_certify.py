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


def test_set_on_zero_circle_not_certified():
    wave = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    theta = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
    ring = J01 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cert = cf.certify_positive_on_set(wave, g.target_set(ring))
    assert abs(cert.min_sample) <= 1e-10
    assert not cert.certified


def test_covering_radius_enters_margin():
    wave = radial_unit_boundary_wave()
    targets = g.target_set([[0.0, 0.0]])
    loose = cf.certify_positive_on_set(wave, targets, lipschitz_radius=0.1)
    tight = cf.certify_positive_on_set(wave, targets)
    assert loose.certified_margin == pytest.approx(
        tight.certified_margin - wave.a0 * 0.1, rel=1e-10)


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
    scan = cf.scan_for_zero(wave, (0.0, 0.0), J01 * 1.001, 0.05)
    assert scan.found
    vp = hg.eval_series(wave, [scan.positive_point])[0]
    vn = hg.eval_series(wave, [scan.negative_point])[0]
    assert vp > 0.0 > vn


def test_zero_wave_scan_flagged():
    wave = hg.FourierBesselWave(k=1.0, a0=0.0, cos_coeffs=[0.0], sin_coeffs=[0.0])
    scan = cf.scan_for_zero(wave, (0.0, 0.0), J01, 0.05)
    assert not scan.found
    assert scan.identically_small


def test_positive_wave_in_small_ball_not_found():
    # radius below j01/k: the guarantee does not apply; J0 is positive there
    wave = hg.FourierBesselWave(k=1.0, a0=1.0, cos_coeffs=[], sin_coeffs=[])
    scan = cf.scan_for_zero(wave, (0.0, 0.0), 1.0, 0.05)
    assert not scan.found


def test_fitted_waves_have_zero_in_every_ball():
    wave, _ = hg.fit_boundary(SQUARE, 1.0, 1.0, M=20)
    for center in ((0.0, 0.0), (1.0, 2.0), (-2.0, 0.5)):
        assert cf.scan_for_zero(wave, center, J01 * 1.001).found
