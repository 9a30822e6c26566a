import numpy as np
import pytest

from helmholtz_positivity import linalg as la


def power_iteration_norm(A, iters=500, seed=0):
    """Independent spectral-norm estimate for the SVD cross-check."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        v = w / nw
    return float(np.sqrt(nw))


def test_parse_mode():
    assert la.parse_mode("qr") == ("qr", 0.0)
    assert la.parse_mode("qr_pivot") == ("qr", 0.0)
    assert la.parse_mode("tsvd") == ("tsvd", 1e-12)
    assert la.parse_mode("tsvd:1e-8") == ("tsvd", 1e-8)
    assert la.parse_mode("tikhonov:0.5") == ("tikhonov", 0.5)
    assert la.parse_mode(("tsvd", 1e-6)) == ("tsvd", 1e-6)
    with pytest.raises(ValueError):
        la.parse_mode("cholesky")


def test_identity_system():
    b = np.array([3.0, -1.0, 2.0])
    sol = la.lstsq(np.eye(3), b, mode="qr")
    assert np.allclose(sol.coefficients, b)
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-14)
    assert sol.effective_rank == 3


def test_column_of_ones_mean():
    A = np.array([[1.0], [1.0]])
    sol = la.lstsq(A, np.array([0.0, 2.0]), mode="qr")
    assert sol.coefficients[0] == pytest.approx(1.0)
    assert sol.residual_norm == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("mode", ["qr", "tsvd:1e-12", "tikhonov:0"])
def test_well_conditioned_modes_agree(mode):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((50, 20))
    b = rng.standard_normal(50)
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    sol = la.lstsq(A, b, mode=mode)
    assert np.max(np.abs(sol.coefficients - x_ref)) < 1e-8


def test_qr_vs_tsvd_cross_method():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 20))
    b = rng.standard_normal(50)
    xq = la.lstsq(A, b, mode="qr").coefficients
    xs = la.lstsq(A, b, mode="tsvd:1e-12").coefficients
    assert np.max(np.abs(xq - xs)) < 1e-8


def test_zero_matrix():
    sol = la.lstsq(np.zeros((4, 3)), np.array([1.0, 2.0, 2.0, 0.0]))
    assert np.allclose(sol.coefficients, 0.0)
    assert sol.residual_norm == pytest.approx(3.0)
    assert sol.effective_rank == 0


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        la.lstsq(np.array([[np.nan, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        la.lstsq(np.eye(2), np.array([np.inf, 0.0]))


def test_svd_diagonal_and_rank_one():
    U, s, V = la._svd(np.diag([3.0, -7.0, 0.5]))
    assert np.allclose(s, [7.0, 3.0, 0.5])
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, 1.0])
    U, s, V = la._svd(np.outer(u, v))
    assert np.count_nonzero(s > 1e-12 * s[0]) == 1


def test_svd_reconstruction_and_power_iteration():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((30, 30))
    U, s, V = la._svd(A)
    recon = U @ np.diag(s) @ V.T
    assert np.max(np.abs(recon - A)) <= 1e-10 * s[0] * 30
    assert s[0] == pytest.approx(power_iteration_norm(A), rel=1e-8)


def test_perturbation_does_not_decrease_objective():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 15))
    b = rng.standard_normal(40)
    for mode in ("qr", "tsvd:1e-12", "tikhonov:0.1"):
        kind, alpha = la.parse_mode(mode)
        x = la.lstsq(A, b, mode=mode).coefficients

        def objective(v):
            reg = alpha ** 2 * np.dot(v, v) if kind == "tikhonov" else 0.0
            return np.sum((A @ v - b) ** 2) + reg

        base = objective(x)
        for i in range(15):
            for sign in (+1.0, -1.0):
                xp = x.copy()
                xp[i] += sign * 1e-6
                assert objective(xp) >= base - 1e-10 * max(base, 1.0)


def test_tikhonov_norm_monotone_in_alpha():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((60, 25))
    b = rng.standard_normal(60)
    norms = [np.linalg.norm(la.lstsq(A, b, mode=("tikhonov", a)).coefficients)
             for a in (0.0, 0.01, 0.1, 1.0, 10.0)]
    assert all(x >= y - 1e-12 for x, y in zip(norms, norms[1:]))


def test_tsvd_truncation_threshold_and_rank():
    A = np.diag([1.0, 1e-3, 1e-9, 1e-15])
    sol = la.lstsq(A, np.ones(4), mode="tsvd:1e-6")
    assert sol.effective_rank == 2
    assert sol.truncation_threshold == pytest.approx(1e-6)
    assert np.allclose(sol.coefficients[:2], [1.0, 1e3])
    assert np.allclose(sol.coefficients[2:], 0.0)


def test_complex_realification_matches_direct_solve():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((30, 10)) + 1j * rng.standard_normal((30, 10))
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    for mode in ("qr", "tsvd:1e-12"):
        sol = la.lstsq(A, b, mode=mode)
        assert np.max(np.abs(sol.coefficients - x_ref)) < 1e-8
        resid = np.linalg.norm(A @ sol.coefficients - b)
        assert sol.residual_norm == pytest.approx(resid, rel=1e-10)


def test_residual_recomputed_on_original_system():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((25, 10))
    b = rng.standard_normal(25)
    sol = la.lstsq(A, b, mode="tsvd:1e-12")
    assert sol.residual_norm == pytest.approx(
        np.linalg.norm(A @ sol.coefficients - b), rel=1e-10)
