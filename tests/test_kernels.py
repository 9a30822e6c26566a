"""The bulk special-function and least-squares kernels against references.

Each kernel replaced a slower direct evaluation or a scipy routine; the
references here are those forms: scipy.special.jv per order,
scipy.special.hankel1, one linalg.lstsq call per threshold of the auto
ladder, LAPACK's pivoted QR through scipy.linalg.qr, scipy.special.jn_zeros,
and scipy.stats.qmc.Halton. The package itself must not import
scipy.stats or scipy.optimize (they cost most of a cold CLI call) nor
scipy.linalg (a second BLAS), so the references are imported here only.
Every Bessel value and zero a command needs comes from the package's own
table, so no command loads scipy at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import special
from scipy.stats import qmc

import helmholtz_positivity

from helmholtz_positivity import certify as cf
from helmholtz_positivity import dirichlet as dr
from helmholtz_positivity import geometry as g
from helmholtz_positivity import herglotz as hg
from helmholtz_positivity import linalg as la
from helmholtz_positivity import specfun as sf

UNIT_SQUARE = g.polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
L_SHAPE = g.polygon(0.5 * np.array([[-1, -1], [1, -1], [1, 0],
                                    [0, 0], [0, 1], [-1, 1]], dtype=float))


@pytest.mark.parametrize("M", [0, 1, 10, 40])
def test_bessel_table_matches_jv(M):
    # x > M is covered for every M, as are x = 0 and tiny arguments
    x = np.concatenate([[0.0, 1e-12, 1e-3], np.linspace(0.0, 60.0, 1201)])
    table = sf.bessel_j_table(M, x)
    ref = special.jv(np.arange(M + 1)[:, None], x[None, :])
    assert table.shape == (M + 1, len(x))
    assert np.max(np.abs(table - ref)) <= 5e-15


def test_bessel_table_rejects_bad_input():
    with pytest.raises(ValueError):
        sf.bessel_j_table(-1, [1.0])
    with pytest.raises(ValueError):
        sf.bessel_j_table(3, [-1.0])
    with pytest.raises(ValueError):
        sf.bessel_j_table(3, [np.nan])


def test_basis_matrix_matches_direct_columns():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3.0, 3.0, (200, 2))
    pts[0] = 0.0
    k, M = 1.7, 12
    r = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    cols = [special.jv(0, k * r)]
    for m in range(1, M + 1):
        cols += [special.jv(m, k * r) * np.cos(m * phi),
                 special.jv(m, k * r) * np.sin(m * phi)]
    assert np.max(np.abs(hg._basis_matrix(pts, k, M) - np.stack(cols, axis=1))) <= 5e-15


def test_eval_series_matches_the_basis_matrix_product():
    # eval_series adds the terms of the fits' basis times the coefficients
    # without building the matrix; only the order of the sums differs
    rng = np.random.default_rng(5)
    wave = hg.random_wave(20, 1.7, rng, center=(0.3, -0.2))
    pts = rng.uniform(-4.0, 4.0, (300, 2))
    pts[0] = wave.center
    coef = np.concatenate([[wave.a0], np.stack([wave.cos_coeffs, wave.sin_coeffs], 1).ravel()])
    ref = hg._basis_matrix(pts - wave.center, wave.k, wave.M) @ coef
    tol = 4 * (2 * wave.M + 1) * np.finfo(float).eps * np.sum(np.abs(coef))
    assert np.max(np.abs(hg.eval_series(wave, pts) - ref)) <= tol


def test_fundamental_kernel_matches_hankel1():
    rng = np.random.default_rng(8)
    targets = rng.uniform(-1.0, 1.0, (60, 2))
    sources = rng.uniform(1.5, 4.0, (40, 2))
    k = 1.3
    diff = targets[:, None, :] - sources[None, :, :]
    ref = 0.25j * special.hankel1(0, k * np.hypot(diff[..., 0], diff[..., 1]))
    got = dr._phi_matrix(k, targets, sources)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
    one = sf.fundamental_solution(k, diff[3, 5])
    assert abs(one - ref[3, 5]) <= 1e-13 * abs(ref[3, 5])


@pytest.mark.parametrize("domain", [UNIT_SQUARE, L_SHAPE], ids=["square", "L"])
def test_one_svd_ladder_matches_separate_solves(domain):
    # the system fit_boundary(domain, 1, 1, M=20) solves; the reference solves
    # each threshold on its own with numpy's pseudo-inverse (same s > t s_1 rule)
    k, M = 1.0, 20
    col = g.sample_boundary(domain, 4 * (2 * M + 1))
    A = hg._basis_matrix(col.points - g.centroid(domain), k, M)
    b = np.ones(len(A))
    refs = [np.linalg.pinv(A, rcond=t) @ b for t in la.AUTO_TSVD_LADDER]
    colmax = [np.max(np.abs(A @ x - b)) for x in refs]
    accept = max(2.0 * min(colmax), 0.02)
    i = next(i for i, c in enumerate(colmax) if c <= accept)

    t = la.AUTO_TSVD_LADDER[i]
    sol = la.lstsq(A, b, mode="auto")
    assert sol.mode == f"auto(tsvd:{t:g})"
    # a solve truncated at t s_1 is conditioned up to 1/t
    err = np.max(np.abs(sol.coefficients - refs[i]))
    assert err <= 10 * np.finfo(float).eps / t * np.linalg.norm(refs[i])


@pytest.mark.parametrize("mode", ["qr", "tsvd:1e-12"])
def test_complex_lstsq_reports_complex_rank(mode):
    rng = np.random.default_rng(31)
    left = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
    right = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    sol = la.lstsq(left @ right, b, mode=mode)
    assert sol.effective_rank == 3
    assert np.iscomplexobj(sol.coefficients)


def _random(rng, shape, cplx):
    A = rng.standard_normal(shape)
    return A + 1j * rng.standard_normal(shape) if cplx else A


def _zero_column(rng, cplx):
    A = _random(rng, (25, 8), cplx)
    A[:, 3] = 0.0
    return A


def _near_tie(rng, cplx):
    # unit columns; column 5 is longer by 1e-9 relative, a near tie for the
    # first pivot of the reference QR
    A = _random(rng, (40, 8), cplx)
    A /= np.linalg.norm(A, axis=0)
    A[:, 5] *= 1.0 + 1e-9
    return A


def _dependent(rng, cplx):
    # column j is a mix of columns 0..j-1 plus 10^-e_j of a new direction;
    # columns 7-11 keep 1e-12..1e-8 of their norm, in the reverse of their
    # order, so the reference QR orders those pivots only with recomputed norms
    A = _random(rng, (40, 12), cplx)
    e = [0, 1, 2, 3, 4, 5, 6, 12, 11, 10, 9, 8]
    for j in range(1, 12):
        A[:, j] = A[:, :j] @ _random(rng, (j,), cplx) / j + 10.0 ** -e[j] * A[:, j]
    return A


def _underflowing(rng, cplx):
    # columns 6-11 at 1e-160..1e-300 of the rest, like high Bessel orders on
    # a small disk: their squares underflow, far below the rank cutoff
    return _random(rng, (60, 12), cplx) * np.r_[np.ones(6), 10.0 ** -np.linspace(160, 300, 6)]


QR_CASES = {
    "tall": lambda rng, cplx: _random(rng, (60, 12), cplx),
    "tiny": lambda rng, cplx: 1e-170 * _random(rng, (60, 12), cplx),  # every square underflows
    "underflowing-columns": _underflowing,
    "wide": lambda rng, cplx: _random(rng, (12, 40), cplx),
    "rank3": lambda rng, cplx: _random(rng, (30, 3), cplx) @ _random(rng, (3, 10), cplx),
    "zero-column": _zero_column,
    "near-tie": _near_tie,
    "dependent": _dependent,
}


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("case", list(QR_CASES))
def test_pivoted_qr_matches_lapack(case, cplx):
    # mode "qr" keeps s > max(m, n) eps s_1; its rank is the one LAPACK's
    # pivoted QR gives at the same cutoff on |R_ii|
    rng = np.random.default_rng([0, cplx])
    A = QR_CASES[case](rng, cplx)
    b = _random(rng, (A.shape[0],), cplx)
    d_ref = np.abs(np.diag(scipy.linalg.qr(A, mode="economic", pivoting=True)[1]))
    rank = int(np.count_nonzero(d_ref > max(A.shape) * np.finfo(float).eps * d_ref[0]))
    assert la.lstsq(A, b, mode="qr").effective_rank == rank


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_qr_mode_is_minimum_norm(cplx):
    # on a rank-deficient system the filter gives the pseudo-inverse solution,
    # not a basic one with zeros in the dropped pivots
    rng = np.random.default_rng([0, cplx])
    A = QR_CASES["rank3"](rng, cplx)
    b = _random(rng, (A.shape[0],), cplx)
    sol = la.lstsq(A, b, mode="qr")
    ref = np.linalg.pinv(A) @ b
    assert sol.effective_rank == 3
    assert np.max(np.abs(sol.coefficients - ref)) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("nu", [0, 1, 2, 30, 60])
def test_bessel_zeros_match_jn_zeros(nu):
    ref = special.jn_zeros(nu, 20)
    got = np.array([sf.bessel_zero(nu, m) for m in range(1, 21)])
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))


@pytest.mark.parametrize("seed", [0, 3, 7, 42, 1234, 12345])
def test_scrambled_halton_equals_scipy(seed):
    ref = qmc.Halton(d=2, scramble=True, seed=seed)
    perms = dr._halton_permutations(seed)
    assert np.array_equal(dr._scrambled_halton(perms, 0, 100), ref.random(100))
    assert np.array_equal(dr._scrambled_halton(perms, 100, 2000), ref.random(2000))


def scipy_halton_interior(domain, n, seed):
    """halton_interior as it was written on top of scipy's sampler, over the
    domain's exact bounding box."""
    lo, hi = g.bounding_box(domain)
    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    out, need = [], n
    while need > 0:
        cand = lo + sampler.random(max(4 * need, 64)) * (hi - lo)
        keep = cand[g.inside_mask(domain, cand)]
        out.append(keep[:need])
        need -= len(keep[:need])
    return np.concatenate(out, axis=0)


@pytest.mark.parametrize("domain", [
    UNIT_SQUARE, L_SHAPE, g.disk([0.2, -0.1], 0.9),
    g.tube_of([[0, 0], [1, 1]], 0.02),  # fills ~5% of its box: several rounds
], ids=["square", "L", "disk", "thin-tube"])
@pytest.mark.parametrize("n, seed", [(1, 5), (40, 3), (600, 42), (1000, 99)])
def test_halton_interior_equals_scipy_sampler(domain, n, seed):
    assert np.array_equal(dr.halton_interior(domain, n, seed=seed),
                          scipy_halton_interior(domain, n, seed))


def test_cli_imports_neither_scipy_stats_nor_optimize():
    code = ("import sys\n"
            "from helmholtz_positivity import cli\n"
            "assert cli.main(['selftest']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.stats', 'scipy.optimize'))))\n")
    src = str(Path(helmholtz_positivity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"


def test_set_pipeline_runs_on_one_blas(tmp_path):
    # scipy.linalg bundles a second OpenBLAS; the package factorises on numpy's
    targets = tmp_path / "targets.json"
    targets.write_text('{"points": [[-1, 0], [-0.5, 0], [0, 0], [0.5, 0], [1, 0]]}')
    code = ("import sys\n"
            "from helmholtz_positivity import cli\n"
            f"argv = ['positive-set', '--target', {str(targets)!r}, '--epsilon', '0.2',\n"
            f"        '--out', {str(tmp_path / 'report.json')!r}]\n"
            "assert cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n")
    src = str(Path(helmholtz_positivity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"


# (60, 64): near the first zeros of a large order the spacing exceeds pi
@pytest.mark.parametrize("nu, count", [(0, 60), (1, 20), (5, 20), (30, 20), (60, 20), (60, 64)])
def test_integer_bessel_zeros_within_two_ulp(monkeypatch, nu, count):
    monkeypatch.setattr(sf, "_ZEROS", {})
    ref = special.jn_zeros(nu, count)
    got = np.array([sf.bessel_zero(nu, m) for m in range(1, count + 1)])
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))
    assert all(type(z) is np.float64 for z in got)


def test_zero_loop_scans_logarithmically(monkeypatch):
    monkeypatch.setattr(sf, "_ZEROS", {})
    scans = []
    scan = sf._scan_zeros
    monkeypatch.setattr(sf, "_scan_zeros", lambda *a: scans.append(a) or scan(*a))
    first = [sf.bessel_zero(0, m) for m in range(1, 61)]
    assert len(scans) <= 8
    # every zero is the same whatever was asked before it
    monkeypatch.setattr(sf, "_ZEROS", {})
    assert [sf.bessel_zero(0, m) for m in range(60, 0, -1)] == first[::-1]


def test_disk_solution_matches_jv():
    d = g.disk([0.3, -0.2], 1.0)
    k, c0 = 3.5, 1.7  # J0 changes sign inside
    pts = dr.halton_interior(d, 200, seed=1)
    r = np.hypot(pts[:, 0] - 0.3, pts[:, 1] + 0.2)
    ref = c0 * special.jv(0, k * r) / special.jv(0, k)
    got = dr.evaluate_interior(dr.disk_solution(d, k, c0), pts)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("m", [1, 4])
def test_sign_change_flux_matches_jv(m):
    wave = hg.random_wave(8, 1.3, np.random.default_rng(m))
    rep = cf.sign_change_on_circle(wave, m, n_samples=256)
    theta = 2.0 * np.pi * np.arange(256) / 256
    pts = rep.circle_radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ref = (-wave.k * special.jv(1, wave.k * rep.circle_radius) * rep.circle_radius
           * (2.0 * np.pi / 256) * float(np.sum(hg.eval_series(wave, pts))))
    assert abs(rep.flux_integral - ref) <= 1e-14 * abs(ref)


def test_no_command_loads_scipy(tmp_path):
    # the README's examples, all five commands in one fresh interpreter
    square = tmp_path / "square.json"
    square.write_text('{"type": "polygon", "vertices": '
                      '[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}')
    points = tmp_path / "points.json"
    points.write_text('{"points": [[-1, 0], [-0.5, 0], [0, 0], [0.5, 0], [1, 0]]}')
    out = lambda name: str(tmp_path / name)
    commands = [
        ["positive-boundary", "--domain", str(square), "--k", "1", "--c0", "1",
         "--out", out("report.json"), "--wave", out("wave.json"),
         "--csv", out("boundary_values.csv")],
        ["positive-set", "--target", str(points), "--epsilon", "0.2", "--k", "1",
         "--out", out("report.json")],
        ["counterexample", "--k", "1", "--m", "1", "--out", out("report.json")],
        ["scan-k", "--domain", str(square), "--k-min", "0.5", "--k-max", "3",
         "--steps", "26", "--csv", out("scan.csv")],
        ["selftest"],
    ]
    code = ("import sys\n"
            "from helmholtz_positivity import cli\n"
            "assert 'scipy' not in sys.modules\n"
            f"for argv in {commands!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert 'scipy' not in sys.modules, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(helmholtz_positivity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
