import math

import numpy as np
import pytest
from scipy import special

from helmholtz_positivity import specfun as sf


# --- independent oracles -----------------------------------------------------

def series_bessel_j(nu: float, x: float, terms: int = 60) -> float:
    """Power series sum_j (-1)^j (x/2)^(2j+nu) / (j! Gamma(j+nu+1)).

    Accurate in double precision for modest x (<= ~10) where cancellation
    is harmless; used as the independent oracle for small arguments.
    """
    total = 0.0
    for j in range(terms):
        lg = math.lgamma(j + 1) + math.lgamma(j + nu + 1)
        term = (-1.0) ** j * math.exp((2 * j + nu) * math.log(x / 2.0) - lg) \
            if x > 0 else (1.0 if j == 0 and nu == 0 else 0.0)
        total += term
        if x > 0 and abs(term) < 1e-18 * max(1.0, abs(total)) and j > 5:
            break
    return total


def bisect_zero(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# --- values ------------------------------------------------------------------

def test_j0_at_zero_is_one():
    assert sf.bessel_j_table(0, [0.0])[0, 0] == 1.0


def test_j_half_vanishes_at_pi():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x; its first zero is pi
    assert abs(special.jv(0.5, sf.bessel_zero(0.5, 1))) < 1e-15


def test_j0_of_one_matches_series_oracle():
    oracle = series_bessel_j(0.0, 1.0)
    assert abs(oracle - 0.7651976865579666) < 1e-15
    assert abs(sf.bessel_j_table(0, [1.0])[0, 0] - 0.7651976865579666) <= 1e-12


@pytest.mark.parametrize("x", [0.3, 1.7, 4.2, 8.9])
@pytest.mark.parametrize("nu", [0.0, 1.0, 5.0])
def test_bessel_j_matches_series_oracle(nu, x):
    n = int(nu)
    assert abs(sf.bessel_j_table(n, [x])[n, 0] - series_bessel_j(nu, x)) < 1e-12


def test_order_validation():
    with pytest.raises(ValueError):
        sf.bessel_zero(0.3, 1)
    with pytest.raises(ValueError):
        sf.bessel_zero(-1.0, 1)
    with pytest.raises(ValueError):
        sf.bessel_zero(61.0, 1)  # 2*nu = 122 beyond contract
    with pytest.raises(ValueError):
        sf.bessel_j_table(0, [-1.0])


def test_hankel_large_argument_modulus():
    # 4 |(i/4) H_0^(1)(x)| = |H_0^(1)(x)| ~ sqrt(2 / (pi x))
    x = 100.0
    asym = math.sqrt(2.0 / (math.pi * x))
    assert abs(4.0 * abs(sf.fundamental_solution(1.0, [x, 0.0])) - asym) / asym < 0.01


# --- zeros -------------------------------------------------------------------

def test_first_two_j0_zeros_against_bisection_oracle():
    z1 = bisect_zero(lambda t: series_bessel_j(0.0, t), 2.0, 3.0)
    z2 = bisect_zero(lambda t: series_bessel_j(0.0, t), 5.0, 6.0)
    assert abs(z1 - 2.404825557695773) < 1e-12
    assert abs(z2 - 5.520078110286311) < 1e-12
    assert abs(sf.bessel_zero(0, 1) - 2.404825557695773) <= 1e-12
    assert abs(sf.bessel_zero(0, 2) - 5.520078110286311) <= 1e-12


def test_half_order_zeros_are_multiples_of_pi():
    for m in range(1, 21):
        assert abs(sf.bessel_zero(0.5, m) - m * math.pi) <= 1e-12


def test_zero_residuals_and_monotonicity():
    zeros = [sf.bessel_zero(0, m) for m in range(1, 21)]
    assert all(abs(special.jv(0, z)) <= 1e-10 for z in zeros)
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_zero_interlacing():
    for m in range(1, 11):
        assert sf.bessel_zero(0, m) < sf.bessel_zero(1, m) < sf.bessel_zero(0, m + 1)


def test_large_order_zero_exceeds_order():
    assert sf.bessel_zero(30, 1) > 30.0
    assert abs(special.jv(30, sf.bessel_zero(30, 1))) < 1e-10


def test_zero_index_validation():
    with pytest.raises(ValueError):
        sf.bessel_zero(0, 0)


# --- identities --------------------------------------------------------------

def test_three_term_recurrence():
    x = np.linspace(0.1, 100.0, 211)
    J = sf.bessel_j_table(11, x)
    for nu in range(1, 11):
        lhs = J[nu - 1] + J[nu + 1]
        rhs = (2.0 * nu / x) * J[nu]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# --- fundamental solution ----------------------------------------------------

def test_fundamental_solution_radial_symmetry_and_value():
    k = 1.3
    a = sf.fundamental_solution(k, [1.0, 0.0])
    b = sf.fundamental_solution(k, [0.6, 0.8])
    assert abs(a - b) < 1e-15
    expect = 0.25j * (special.jv(0, k) + 1j * special.yv(0, k))
    assert abs(a - expect) < 1e-14


def test_fundamental_solution_rejects_origin():
    with pytest.raises(ValueError):
        sf.fundamental_solution(1.0, [0.0, 0.0])


def test_fundamental_solution_solves_helmholtz_fd():
    # five-point Laplacian, step 1e-4, points with |x| >= 0.5
    k, h = 2.0, 1e-4
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, (40, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) >= 0.5]
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    u0 = sf.fundamental_solution(k, pts)
    lap = (sf.fundamental_solution(k, pts + ex) + sf.fundamental_solution(k, pts - ex)
           + sf.fundamental_solution(k, pts + ey) + sf.fundamental_solution(k, pts - ey)
           - 4.0 * u0) / h ** 2
    assert np.max(np.abs(lap + k * k * u0)) <= 1e-4
