"""Bessel-family special functions and the planar outgoing fundamental solution.

Integer orders serve the planar pipelines; half-integer orders cover the
radial three-dimensional cross-checks. Single function values come from
scipy.special; positive zeros are located here by a bracketing scan
refined by bisection and a Newton polish. The two kernels the
pipelines evaluate in bulk live here too: the table J_0..J_M behind every
Fourier-Bessel basis (one backward recurrence for all orders), and the
fundamental solution (i/4) H_0^(1) behind every charge matrix (from j0
and y0, which are much cheaper than the general-order Hankel function).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

__all__ = [
    "bessel_j",
    "bessel_jp",
    "bessel_y",
    "bessel_yp",
    "hankel1",
    "bessel_zero",
    "bessel_j_table",
    "fundamental_solution",
]

# Orders with 2*nu above this are outside the supported contract.
MAX_TWICE_ORDER = 120


def _as_order(order) -> float:
    """Validate an order: nonnegative multiple of 1/2, 2*nu <= 120."""
    nu = float(order)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be finite and nonnegative, got {order!r}")
    twice = 2.0 * nu
    if abs(twice - round(twice)) > 1e-12:
        raise ValueError(f"order must be a multiple of 1/2, got {order!r}")
    if round(twice) > MAX_TWICE_ORDER:
        raise ValueError(f"order {order!r} exceeds the supported range (2*nu <= {MAX_TWICE_ORDER})")
    return nu


def _match(x, out):
    """Return a scalar when the input argument was scalar."""
    if np.ndim(x) == 0:
        return out[()] if isinstance(out, np.ndarray) else out
    return out


def bessel_j(order, x):
    """J_nu(x) for x >= 0."""
    nu = _as_order(order)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    return _match(x, special.jv(nu, xa))


def bessel_jp(order, x):
    """First derivative J_nu'(x)."""
    nu = _as_order(order)
    return _match(x, special.jvp(nu, np.asarray(x, dtype=float)))


def bessel_y(order, x):
    """Y_nu(x) for x > 0 (logarithmic/power singularity at 0)."""
    nu = _as_order(order)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError("bessel_y requires x > 0")
    return _match(x, special.yv(nu, xa))


def bessel_yp(order, x):
    """First derivative Y_nu'(x) for x > 0."""
    nu = _as_order(order)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError("bessel_yp requires x > 0")
    return _match(x, special.yvp(nu, xa))


def hankel1(order, x):
    """H^(1)_nu(x) = J_nu(x) + i Y_nu(x) for x > 0."""
    nu = _as_order(order)
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError("hankel1 requires x > 0")
    return _match(x, special.hankel1(nu, xa))


@functools.lru_cache(maxsize=None)
def _zeros_cached(twice_nu: int, count: int) -> tuple:
    """First `count` positive zeros of J_nu, nu = twice_nu / 2.

    Scans rightward from x = max(nu, 0.5), where J_nu is strictly positive
    (the first zero exceeds the order), with step pi/4, well below the
    minimal zero spacing. Each bracket is bisected until its midpoint is no
    longer strictly inside it (adjacent doubles) and polished with two
    Newton steps.
    """
    nu = twice_nu / 2.0
    f = lambda t: special.jv(nu, t)
    zeros = []
    x = max(nu, 0.5)
    fx = f(x)
    step = 0.25 * math.pi
    # Safety horizon: zeros of J_nu are spaced < pi beyond the first one.
    limit = max(nu, 0.5) + (count + 3) * math.pi + 2.0 * max(nu, 1.0) ** (1.0 / 3.0) + 10.0
    while len(zeros) < count:
        x2 = x + step
        if x2 > limit:
            raise RuntimeError(f"zero scan for nu={nu} exceeded horizon; wanted {count} zeros")
        f2 = f(x2)
        if f2 == 0.0:
            zeros.append(x2)
        elif fx * f2 < 0.0:
            # A fixed width test would never end where the doubles are
            # spaced wider than it (1.4e-14 near x = 80).
            a, b, fa = x, x2, fx
            root = 0.5 * (a + b)
            while a < root < b:
                fm = f(root)
                if fm == 0.0:
                    break
                if (fm < 0.0) == (fa < 0.0):
                    a, fa = root, fm
                else:
                    b = root
                root = 0.5 * (a + b)
            for _ in range(2):
                deriv = special.jvp(nu, root)
                if deriv != 0.0:
                    root -= special.jv(nu, root) / deriv
            zeros.append(root)
        x, fx = x2, f2
    return tuple(zeros)


def bessel_zero(order, m: int) -> float:
    """m-th positive zero j_{nu,m} of J_nu (m >= 1), strictly increasing in m."""
    nu = _as_order(order)
    m = int(m)
    if m < 1:
        raise ValueError("zero index m must be >= 1")
    return _zeros_cached(int(round(2.0 * nu)), m)[m - 1]


#: Miller's recurrence rescales its columns once their size may pass this.
_RESCALE = 1e250
#: Below this argument the leading series term (x/2)^m / m! is J_m(x) to
#: double precision (the next term is smaller by (x/2)^2 / (m + 1)).
_SERIES_X = 1e-30


def bessel_j_table(M: int, x) -> np.ndarray:
    """J_0(x) .. J_M(x) at every x >= 0, as an (M + 1, len(x)) array.

    Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} (DLMF
    10.74(iv)) runs from an even start order far above max(M, x), where
    J_n is negligible, down to order 0, and is normalised by
    J_0 + 2 (J_2 + J_4 + ...) = 1 (DLMF 10.12.4). One step multiplies the
    size of a column by at most 2n/x + 1; once that bound passes 1e250,
    every column above 1 is divided by its own size, so the growth at
    small x cannot overflow. Below x = 1e-30 (x = 0 included) the leading
    series term is exact and is used instead.
    """
    M = int(M)
    if M < 0:
        raise ValueError(f"order M must be nonnegative, got {M}")
    x = np.asarray(x, dtype=float).ravel()
    if not np.all((x >= 0.0) & np.isfinite(x)):
        raise ValueError("bessel_j_table requires finite x >= 0")
    table = np.empty((M + 1, len(x)))
    if len(x) == 0:
        return table
    top = max(M, float(x.max()))
    start = int(math.ceil(top + 30.0 + math.sqrt(160.0 * top)))
    start += start % 2
    series = x < _SERIES_X
    two_over_x = 2.0 / np.where(series, 1.0, x)
    growth = float(two_over_x.max())
    above = np.zeros(len(x))          # J_{n+1}, unnormalised
    cur = np.full(len(x), 1e-300)     # J_n
    nxt = np.empty(len(x))
    even_sum = np.zeros(len(x))       # J_2 + J_4 + ... so far
    bound = 1e-300                    # >= max |J_n|, |J_{n+1}| over columns
    for n in range(start, 0, -1):
        if n <= M:
            table[n] = cur
        if n % 2 == 0:
            even_sum += cur
        np.multiply(two_over_x, n, out=nxt)
        nxt *= cur
        nxt -= above
        above, cur, nxt = cur, nxt, above
        bound *= n * growth + 1.0
        if bound > _RESCALE:
            size = np.maximum(np.maximum(np.abs(cur), np.abs(above)), 1.0)
            cur /= size
            above /= size
            even_sum /= size
            table[n:] /= size
            bound = 1.0
    table[0] = cur
    table /= 2.0 * even_sum + cur
    if series.any():
        half = 0.5 * x[series]
        table[:, series] = np.cumprod(
            np.vstack([np.ones_like(half), half / np.arange(1, M + 1)[:, None]]), axis=0)
    return table


def fundamental_solution(k: float, x):
    """Outgoing planar fundamental solution (i/4) H^(1)_0(k |x|).

    `x` is a 2-vector or an (..., 2) array of nonzero points; the value
    depends on x only through |x| and solves the homogeneous Helmholtz
    equation away from the origin.
    """
    if not (k > 0.0):
        raise ValueError("wavenumber k must be positive")
    xa = np.asarray(x, dtype=float)
    if xa.shape[-1] != 2:
        raise ValueError("x must have a trailing dimension of 2")
    r = np.hypot(xa[..., 0], xa[..., 1])
    if np.any(r == 0.0):
        raise ValueError("fundamental_solution is singular at x = 0")
    kr = k * r
    out = np.empty(kr.shape, dtype=complex)
    out.real = -0.25 * special.y0(kr)  # (i/4)(J0 + i Y0)
    out.imag = 0.25 * special.j0(kr)
    if xa.ndim == 1:
        return complex(out)
    return out
