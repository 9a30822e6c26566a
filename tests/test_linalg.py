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


def thresholds_of(label, A):
    """The thresholds a filter label names; "qr" is max(m, n) eps, the rank
    cutoff of a pivoted QR, which keeps every singular value above rounding."""
    return {"qr": (max(A.shape) * np.finfo(float).eps,), "tsvd:1e-12": (1e-12,),
            "auto": la.AUTO_TSVD_LADDER}[label]


def test_mode_labels():
    # one threshold is labelled by itself, a pick among several as auto(...)
    A, b = np.diag([1.0, 1e-3, 1e-9]), np.array([1.0, 1.0, 0.01])
    assert [la.lstsq(A, b, thresholds=(t,)).label for t in (1e-6, 1e-12)] \
        == ["tsvd:1e-06", "tsvd:1e-12"]
    # from t = 1e-4 on, only the last component is missed: 0.01 < 2% of max |b|
    sol = la.lstsq(A, b)
    assert sol.label == "auto(tsvd:0.0001)"
    assert sol.effective_rank == 2


def test_identity_system():
    b = np.array([3.0, -1.0, 2.0])
    sol = la.lstsq(np.eye(3), b)
    assert np.max(np.abs(sol.coefficients - b)) <= 1e-14
    assert sol.effective_rank == 3


def test_column_of_ones_mean():
    A = np.array([[1.0], [1.0]])
    b = np.array([0.0, 2.0])
    sol = la.lstsq(A, b)
    assert sol.coefficients[0] == pytest.approx(1.0)
    assert np.linalg.norm(A @ sol.coefficients - b) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("mode", ["qr", "tsvd:1e-12", "auto"])
def test_well_conditioned_modes_agree(mode):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((50, 20))
    b = rng.standard_normal(50)
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    sol = la.lstsq(A, b, thresholds_of(mode, A))
    assert np.max(np.abs(sol.coefficients - x_ref)) < 1e-8


def test_qr_vs_tsvd_cross_method():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 20))
    b = rng.standard_normal(50)
    xq = la.lstsq(A, b, thresholds_of("qr", A)).coefficients
    xs = la.lstsq(A, b, thresholds_of("tsvd:1e-12", A)).coefficients
    assert np.max(np.abs(xq - xs)) < 1e-8


def test_zero_matrix():
    sol = la.lstsq(np.zeros((4, 3)), np.array([1.0, 2.0, 2.0, 0.0]))
    assert np.array_equal(sol.coefficients, np.zeros(3))
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
    for thresholds in ((1e-12,), la.AUTO_TSVD_LADDER):
        x = la.lstsq(A, b, thresholds).coefficients

        def objective(v):
            return np.sum((A @ v - b) ** 2)

        base = objective(x)
        for i in range(15):
            for sign in (+1.0, -1.0):
                xp = x.copy()
                xp[i] += sign * 1e-6
                assert objective(xp) >= base - 1e-10 * max(base, 1.0)


def test_tsvd_truncation_threshold_and_rank():
    A = np.diag([1.0, 1e-3, 1e-9, 1e-15])
    sol = la.lstsq(A, np.ones(4), thresholds=(1e-6,))
    assert sol.effective_rank == 2
    assert np.allclose(sol.coefficients[:2], [1.0, 1e3])
    assert np.allclose(sol.coefficients[2:], 0.0)


def test_complex_realification_matches_direct_solve():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((30, 10)) + 1j * rng.standard_normal((30, 10))
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    for thresholds in ((1e-12,), la.AUTO_TSVD_LADDER):
        sol = la.lstsq(A, b, thresholds)
        assert np.max(np.abs(sol.coefficients - x_ref)) < 1e-8
