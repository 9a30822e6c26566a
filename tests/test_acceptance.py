"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import special

from helmholtz_positivity import certify as cf
from helmholtz_positivity import dirichlet as dr
from helmholtz_positivity import geometry as g
from helmholtz_positivity import herglotz as hg
from helmholtz_positivity import specfun as sf

UNIT_DISK = g.disk([0.0, 0.0], 1.0)
UNIT_SQUARE = g.polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
# 6-vertex nonconvex L: bounding box 1 x 1, reentrant corner at the origin
L_SHAPE = g.polygon(0.5 * np.array([[-1, -1], [1, -1], [1, 0],
                                    [0, 0], [0, 1], [-1, 1]], dtype=float))
J01 = sf.bessel_zero(0, 1)


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed <= budget_s, f"runtime {elapsed:.2f}s over {budget_s}s budget"


def test_criterion_01_disk_oracle():
    with criterion(1, "disk closed-form fit", budget_s=1.0):
        wave, report = hg.fit_boundary(UNIT_DISK, 1.0, 1.0)
        assert abs(wave.a0 - 1.0 / special.jv(0, 1.0)) <= 1e-10
        assert report.residual_max <= 1e-10
        cert = cf.certify_positive(wave, g.sample_boundary(UNIT_DISK, 512))
        assert cert.certified


def test_criterion_02_eigenvalue_obstruction():
    with criterion(2, "eigenvalue-radius disk obstruction", budget_s=10.0):
        rng = np.random.default_rng(42)
        for k in (1.0, 2.0):
            disk = g.disk([0.0, 0.0], J01 / k)
            with pytest.raises(hg.FitFailedError) as info:
                hg.fit_boundary(disk, k, 1.0, M=20)
            assert info.value.report.residual_max >= 0.5 * 1.0
            for _ in range(25):
                wave = hg.random_wave(10, k, rng)
                rep = cf.sign_change_on_circle(wave, 1, n_samples=1024)
                assert rep.changes_sign
                assert abs(rep.flux_integral) <= 1e-8 * hg.coefficient_norm(wave)


@pytest.mark.parametrize("domain,label", [(UNIT_SQUARE, "unit square"),
                                          (L_SHAPE, "L-shaped polygon")])
def test_criterion_03_lipschitz_positivity(domain, label):
    with criterion(3, f"boundary positivity on {label}", budget_s=30.0):
        wave, report = hg.fit_boundary(domain, 1.0, 1.0, M=20)
        cert = cf.certify_positive(wave, g.sample_boundary(domain, 4096))
        assert cert.certified
        assert cert.certified_margin >= 0.5


def test_criterion_04_compact_set_pipeline():
    with criterion(4, "tube pipeline certifies a segment set", budget_s=30.0):
        tube = g.tube_of([[-1.0, 0.0], [1.0, 0.0]], 0.2)
        assert g.area(tube) == pytest.approx(0.9256637061435917, abs=1e-12)
        gate = dr.faber_krahn_gate(tube, 1.0)
        assert gate.passes
        sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(tube, 1.0, 1.0))
        scan = dr.check_strong_positivity(sol, gate, 512)
        assert scan.branch == "positive"
        inner = g.tube_of(tube.spine, 0.1)  # the tube shrunk by 0.1
        pts = dr.halton_interior(inner, 600, seed=42)
        vals = dr.evaluate_interior(sol, pts)
        wave, _ = hg.fit_interior(pts, vals, 1.0, mode="qr")
        targets = g.target_set([[-1, 0], [-0.5, 0], [0, 0], [0.5, 0], [1, 0]])
        cert = cf.certify_positive_on_set(wave, targets)
        assert cert.certified
        assert cert.min_sample > 1.0  # interior values exceed the boundary constant


def test_criterion_05_gate_arithmetic_and_scaling():
    with criterion(5, "area gate arithmetic and scale covariance"):
        assert dr.faber_krahn_gate(UNIT_SQUARE, 1.0).passes
        gate10 = dr.faber_krahn_gate(UNIT_SQUARE, 10.0)
        assert not gate10.passes
        assert math.pi * gate10.r_star ** 2 == pytest.approx(
            math.pi * (J01 / 10.0) ** 2)
        for t in (0.5, 2.0):
            for k in (1.0, 10.0):
                base = dr.faber_krahn_gate(UNIT_SQUARE, k).passes
                scaled = dr.faber_krahn_gate(
                    g.polygon(UNIT_SQUARE.vertices * t), k / t).passes
                assert scaled == base


def test_criterion_06_zero_in_every_ball():
    with criterion(6, "zero found in 500/500 balls", budget_s=60.0):
        rng = np.random.default_rng(42)
        radius = J01 * 1.001
        hits = 0
        for _ in range(100):
            wave = hg.random_wave(10, 1.0, rng)
            centers = rng.uniform(-3.0, 3.0, (5, 2))
            for c in centers:
                hits += int(cf.scan_for_zero(wave, c, radius).found)
        assert hits == 500


def _fitted_acceptance_waves():
    waves = []
    wave, _ = hg.fit_boundary(UNIT_DISK, 1.0, 1.0)
    waves.append((wave, UNIT_DISK))
    for domain in (UNIT_SQUARE, L_SHAPE):
        wave, _ = hg.fit_boundary(domain, 1.0, 1.0, M=20)
        waves.append((wave, domain))
    tube = g.tube_of([[-1.0, 0.0], [1.0, 0.0]], 0.2)
    sol = dr.solve_dirichlet_mfs(dr.DirichletProblem(tube, 1.0, 1.0))
    pts = dr.halton_interior(g.tube_of(tube.spine, 0.1), 600, seed=42)
    wave, _ = hg.fit_interior(pts, dr.evaluate_interior(sol, pts), 1.0, mode="qr")
    waves.append((wave, tube))
    return waves


def test_criterion_07_mean_value_identity():
    with criterion(7, "circle mean-value identity on fitted waves"):
        rng = np.random.default_rng(42)
        for wave, domain in _fitted_acceptance_waves():
            evaluate = lambda p: hg.eval_series(wave, p)
            bpts = g.sample_boundary(domain, 256).points
            lo, hi = bpts.min(axis=0), bpts.max(axis=0)
            scale = float(np.max(np.abs(evaluate(bpts))))
            done = 0
            while done < 10:
                c = rng.uniform(lo, hi)
                if not g.inside_mask(domain, c)[0]:
                    continue
                room = float(g.boundary_distance(domain, c.reshape(1, 2))[0])
                if room <= 1e-6:
                    continue
                r = 0.5 * room
                res = dr.mean_value_check(evaluate, c, r, wave.k, n_quad=256)
                assert res <= 1e-6 * scale
                done += 1


def test_acceptance_waves_certificate_soundness_and_zero_ball():
    # refining a certified sampling 4x never yields a negative sample, and
    # every fitted wave still has a zero in any ball of radius j01/k
    rng = np.random.default_rng(7)
    for wave, domain in _fitted_acceptance_waves():
        base = g.sample_boundary(domain, 1024)
        cert = cf.certify_positive(wave, base)
        if cert.certified:
            fine = g.sample_boundary(domain, 4096)
            assert float(np.min(hg.eval_series(wave, fine.points))) > 0.0
        for center in rng.uniform(-2.0, 2.0, (3, 2)):
            assert cf.scan_for_zero(wave, center, J01 * 1.001 / wave.k).found


def test_criterion_08_plane_wave_consistency():
    with criterion(8, "series vs circle-integral agreement"):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            M = int(rng.integers(0, 41))
            wave = hg.random_wave(M, 1.0, rng)
            pts = rng.uniform(-30.0, 30.0, (8, 2))
            pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 30.0]
            if not len(pts):
                continue
            dev = np.abs(hg.eval_series(wave, pts)
                         - hg.eval_quadrature(hg.to_density(wave), pts))
            assert np.max(dev) <= 1e-9
            checked += len(pts)


def test_criterion_09_far_field_decay():
    with criterion(9, "far-field remainder decay exponent"):
        k = 1.0
        radii = np.geomspace(50.0 / k, 400.0 / k, 160)
        ff = hg.far_field(hg.HerglotzDensity(k=k, coeffs=np.array([1.0 + 0j])),
                          (1.0, 0.0), radii)
        assert 1.2 <= ff.decay_exponent <= 1.8
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            wave = hg.random_wave(8, k, rng)
            ff = hg.far_field(wave, (0.6, 0.8), radii)
            assert 1.2 <= ff.decay_exponent <= 1.8


def test_criterion_10_special_functions():
    with criterion(10, "Bessel zeros and Wronskian identity"):
        for m in range(1, 21):
            assert abs(special.jv(0, sf.bessel_zero(0, m))) <= 1e-10
        for n in (0, 1):
            got = np.array([sf.bessel_zero(n, m) for m in range(1, 21)])
            assert np.max(np.abs(got - special.jn_zeros(n, 20))) <= 1e-12
        rng = np.random.default_rng(42)
        x = rng.uniform(0.05, 150.0, 100)
        w = special.jv(1, x) * special.yvp(1, x) \
            - special.jvp(1, x) * special.yv(1, x)
        assert np.max(np.abs(w - 2.0 / (math.pi * x))) <= 1e-9
