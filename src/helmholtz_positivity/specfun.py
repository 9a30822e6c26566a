"""The three Bessel-family kernels of the planar pipelines.

The table J_0..J_M behind every Fourier-Bessel basis comes from one
backward recurrence, and every Bessel value the commands need is read from
it or, for a wave's values, summed on its pass (bessel_sum). The positive
zeros j_{n,m} of J_n, for integer orders n = 0..60, are located by a
bracketing scan refined by bisection and a Newton polish on table values.
The fundamental solution (i/4) H_0^(1) behind every charge matrix comes from
scipy.special's j0 and y0, imported only inside fundamental_solution, which
no command calls.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_zero",
    "bessel_j_table",
    "bessel_sum",
    "fundamental_solution",
]

#: Orders above this are outside the supported contract: the zero finder is
#: tested against scipy.special.jn_zeros up to order 60.
MAX_ZERO_ORDER = 60

#: Order -> its first 2^j - 1 zeros found so far, ascending. A miss extends
#: them to 2^J - 1 >= m, so zeros 1..N cost O(log N) scans.
_ZEROS: dict = {}


def _j_and_derivative(n: int, x: np.ndarray):
    """J_n(x) and J_n'(x) at x > 0."""
    J = bessel_j_table(n + 1, x)
    return J[n], (n / x) * J[n] - J[n + 1]  # DLMF 10.6.2


def _scan_zeros(n: int, first: int, count: int) -> tuple:
    """Zeros first + 1 .. count of J_n, where first + 1 and count + 1 are
    powers of two.

    Evaluates the grid x = max(n, 0.5) + i pi/4, where J_n is strictly
    positive at i = 0 (the first zero exceeds the order) and the step is
    well below the minimal zero spacing, in one call. The sign-change
    brackets of zeros 2^b .. 2^(b+1) - 1 are bisected 8 times together,
    leaving the midpoint within pi/4 / 512 < 1.6e-3 of the zero, and
    polished with three Newton steps: at a zero J''/J' = -1/x (DLMF 10.2.1)
    and x > 2.4, so the error falls below 5e-7, then 5e-14, and the last
    step is rounding. A table value depends on the other arguments of its
    call in the last bit, so these fixed blocks make every zero the same
    whatever was asked before.
    """
    x0 = max(n, 0.5)
    step = 0.25 * math.pi
    # Horizon: j_{n,m} < (m + n/2 - 1/4) pi for n >= 1, its McMahon leading
    # term (DLMF 10.21.19), which J_0's zeros exceed by < 0.05.
    limit = (count + 0.5 * n + 1.0) * math.pi
    grid = x0 + step * np.arange(int((limit - x0) / step) + 1)
    positive = _j_and_derivative(n, grid)[0] > 0.0
    left = np.flatnonzero(positive[:-1] != positive[1:])
    if len(left) < count:
        raise RuntimeError(f"zero scan for n={n} exceeded horizon; wanted {count} zeros")
    zeros = ()
    while first < count:
        i = left[first:2 * first + 1]
        a, b = grid[i], grid[i + 1]
        for _ in range(8):
            mid = 0.5 * (a + b)
            keep_a = (_j_and_derivative(n, mid)[0] > 0.0) != positive[i]
            a, b = np.where(keep_a, a, mid), np.where(keep_a, mid, b)
        root = 0.5 * (a + b)
        for _ in range(3):
            f, df = _j_and_derivative(n, root)
            root -= f / df
        zeros += tuple(root)
        first = 2 * first + 1
    return zeros


def bessel_zero(order, m: int) -> float:
    """m-th positive zero j_{n,m} of J_n (m >= 1), strictly increasing in m.

    The order must be an integer in [0, 60]. The value is a numpy.float64.
    """
    nu = float(order)
    if not (math.isfinite(nu) and nu == int(nu) and 0 <= nu <= MAX_ZERO_ORDER):
        raise ValueError(f"order must be an integer in [0, {MAX_ZERO_ORDER}], got {order!r}")
    m = int(m)
    if m < 1:
        raise ValueError("zero index m must be >= 1")
    n = int(nu)
    zeros = _ZEROS.get(n, ())
    if m > len(zeros):
        zeros = _ZEROS[n] = zeros + _scan_zeros(n, len(zeros), 2 ** m.bit_length() - 1)
    return zeros[m - 1]


#: Miller's recurrence rescales its columns once their size may pass this.
_RESCALE = 1e250
#: Below this argument the leading series term (x/2)^m / m! is J_m(x) to
#: double precision (the next term is smaller by (x/2)^2 / (m + 1)).
_SERIES_X = 1e-30


#: Significant digits the recurrence's start order aims at in J_0 .. J_M,
#: and the orders added on top (Zhang & Jin's MSTA2 uses 15 and 10).
_START_DIGITS = 16
_START_PAD = 10


def _envelope_digits(n: int, x: float) -> float:
    """-log10 of the envelope (e x / 2n)^n / sqrt(2 pi n) of J_n(x), n >= 1
    (Zhang & Jin, Computation of Special Functions, 1996, function ENVJ);
    it increases with n once n > x / 2."""
    return 0.5 * math.log10(6.28 * n) - n * math.log10(1.36 * x / n)


def _start_order(M: int, x: float) -> int:
    """Even start order of Miller's recurrence for J_0 .. J_M at arguments <= x.

    Zhang & Jin's MSTA2: a start order N leaves J_n with a relative error
    of about (J_N / J_n)^2, so N is the least order whose envelope lies
    _START_DIGITS / 2 digits below that of J_M, and at least _START_DIGITS
    digits below 1 where J_M is not yet small (that search starts at
    1.1 x + 1, past the oscillatory range). Smaller arguments need no more
    (the envelope falls faster in n), so the largest one sets the start.
    """
    x = max(x, _SERIES_X)
    top = _envelope_digits(max(M, 1), x)
    if top <= 0.5 * _START_DIGITS:
        goal, lo = _START_DIGITS, int(1.1 * x) + 1
    else:
        goal, lo = 0.5 * _START_DIGITS + top, max(M, 1)
    hi, step = lo, 1
    while _envelope_digits(hi, x) < goal:  # doubling, then bisection
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _envelope_digits(mid, x) < goal else (lo, mid)
    start = hi + _START_PAD
    return start + start % 2


def bessel_j_table(M: int, x) -> np.ndarray:
    """J_0(x) .. J_M(x) at every x >= 0, as an (M + 1, len(x)) array.

    Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} (DLMF
    10.74(iv)) runs from the even start order of _start_order(M, max x)
    down to order 0, and is normalised by J_0 + 2 (J_2 + J_4 + ...) = 1
    (DLMF 10.12.4). One step multiplies the size of a column by at most
    2n/x + 1; once that bound passes 1e250, every column above 1 is
    divided by the power of two just above its own size (exactly), so the
    growth at small x cannot overflow. Below x = 1e-30 (x = 0 included)
    the leading series term is exact and is used instead.
    """
    return _miller(M, x)


def bessel_sum(coef, x, unit) -> np.ndarray:
    """Re sum_n coef[n] J_n(x) unit^n (n < len(coef)), one unit per x, from
    bessel_j_table's pass with no table: each order is folded into a Horner
    sum h <- h unit + coef[n] J~_n of the unnormalised values as the
    recurrence reaches it, rescaled with them, and normalised once at the end
    (Gautschi, SIAM Review 9, 1967)."""
    coef = np.asarray(coef, dtype=complex)
    return _miller(len(coef) - 1, x, coef, np.asarray(unit, dtype=complex))


def _miller(M: int, x, coef=None, unit=None) -> np.ndarray:
    """bessel_j_table's recurrence, or with coef bessel_sum's fold of its rows."""
    M = int(M)
    if M < 0:
        raise ValueError(f"order M must be nonnegative, got {M}")
    x = np.asarray(x, dtype=float).ravel()
    if not np.all((x >= 0.0) & np.isfinite(x)):
        raise ValueError("bessel_j_table requires finite x >= 0")
    fold = coef is not None  # acc: the rows J~_n .. J~_M, or their Horner sum
    acc = np.zeros(len(x), dtype=complex) if fold else np.empty((M + 1, len(x)))
    if len(x) == 0:
        return acc.real
    start = _start_order(M, float(x.max()))
    series = x < _SERIES_X
    two_over_x = 2.0 / np.where(series, 1.0, x)
    growth = float(two_over_x.max())
    above = np.zeros(len(x))          # J_{n+1}, unnormalised
    cur = np.full(len(x), 1e-300)     # J_n
    nxt = np.empty(len(x))
    even_sum = np.zeros(len(x))       # J_2 + J_4 + ... so far
    bound = 1e-300                    # >= max |J_n|, |J_{n+1}| over columns
    for n in range(start, 0, -1):
        if n <= M and fold:
            acc *= unit
            acc += coef[n] * cur
        elif n <= M:
            acc[n] = cur
        if n % 2 == 0:
            even_sum += cur
        np.multiply(two_over_x, n, out=nxt)
        nxt *= cur
        nxt -= above
        above, cur, nxt = cur, nxt, above
        bound *= n * growth + 1.0
        if bound > _RESCALE:
            mant, exp = np.frexp(np.maximum(np.maximum(np.abs(cur), np.abs(above)), 1.0))
            size = np.ldexp(1.0, exp - (mant == 0.5))  # the least power of two >= it
            cur /= size
            above /= size
            even_sum /= size
            acc[0 if fold else n:] /= size  # the sum, or rows n..M
            bound = 1.0
    if fold:
        acc *= unit
        acc += coef[0] * cur
    else:
        acc[0] = cur
    acc = acc.real / (2.0 * even_sum + cur)
    if series.any():
        half = 0.5 * x[series]
        rows = np.cumprod(
            np.vstack([np.ones_like(half), half / np.arange(1, M + 1)[:, None]]), axis=0)
        if fold:
            rows = (coef @ (rows * unit[series] ** np.arange(M + 1)[:, None])).real
        acc[..., series] = rows
    return acc


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
    from scipy import special

    kr = k * r
    out = np.empty(kr.shape, dtype=complex)
    out.real = -0.25 * special.y0(kr)  # (i/4)(J0 + i Y0)
    out.imag = 0.25 * special.j0(kr)
    if xa.ndim == 1:
        return complex(out)
    return out
