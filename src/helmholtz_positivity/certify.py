"""Positivity certificates and the necessary-condition checkers.

The certificate logic is a sampled minimum plus a rigorous Lipschitz
margin: a plane-wave superposition with density f obeys

    |grad u| <= k ||f||_{L1}  <=  2 pi k sqrt(sum |c_m|^2),

so a positive minimum over samples spaced g apart in arclength (every
boundary point is then within g/2 of a sample) certifies positivity
of the exact wave once min - L g/2 - rounding > 0, where `rounding`
bounds the evaluation error of one sample. Two classical facts about
entire real solutions are checked numerically: they change sign on every
circle whose radius is a scaled J0 zero (with a vanishing flux integral
against the radial solution that vanishes there), and they have a zero in
every closed ball of radius j01/k. Every result is a frozen dataclass; the CLI writes it into its
report with dataclasses.asdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, herglotz, specfun

__all__ = [
    "PositivityCertificate",
    "SignChangeReport",
    "ZeroScan",
    "certify_positive",
    "certify_positive_on_set",
    "sign_change_on_circle",
    "scan_for_zero",
]


@dataclass(frozen=True)
class PositivityCertificate:
    min_sample: float
    lipschitz_bound: float
    max_gap: float
    rounding: float  # bound on the evaluation error of one sample
    certified_margin: float  # min_sample - lipschitz_bound * max_gap / 2 - rounding
    certified: bool
    n_samples: int
    min_point: tuple


@dataclass(frozen=True)
class SignChangeReport:
    circle_radius: float
    min_on_circle: float
    max_on_circle: float
    changes_sign: bool
    flux_integral: float
    degenerate: bool  # wave vanishes identically on the circle (radial case)


@dataclass(frozen=True)
class ZeroScan:
    found: bool
    positive_point: tuple | None
    negative_point: tuple | None
    identically_small: bool
    n_grid: int


#: Bound on the absolute error of one specfun.bessel_j_table value for
#: orders up to 200 and arguments up to 300: the worst error measured against
#: 30-digit mpmath over about 10,000 values is 1.2e-15.
_TABLE_ERROR = 2e-15


def _l1(wave: herglotz.FourierBesselWave) -> float:
    return abs(wave.a0) + float(np.sum(np.abs(wave.cos_coeffs)) + np.sum(np.abs(wave.sin_coeffs)))


def _certificate(wave: herglotz.FourierBesselWave, points: np.ndarray,
                 gap: float) -> PositivityCertificate:
    """Sampled minimum of the wave at `points`, less the Lipschitz and rounding terms.

    `rounding` bounds the error of one sample of herglotz.eval_series at a
    point p with r = |p - center| <= r_max, in units of eps = 2^-52 and of
    ||c||_1 = |a0| + sum |ac_m| + sum |as_m|. The sample is Re h / N: the
    Horner sum h = sum_m c_m J~_m w^m (c_0 = a0, c_m = ac_m - i as_m,
    w = e^{i phi}) of the recurrence's unnormalised J~_m, folded from m = M
    down by h <- h w + c_m J~_m (specfun.bessel_sum), over its normalisation
    N. Term m is at most |c_m| <= |ac_m| + |as_m| (|J_m| <= 1, DLMF
    10.14.1), so each relative error below is weighted by ||c||_1:

    - the rounded offset p - center, radius (hypot), argument kr and unit w
      belong to a point p' with |p' - p| <= 2.5 eps r (a half eps per
      offset coordinate, 1.5 eps in kr, a rotation of a half eps in the
      division); every term is k-Lipschitz, so 3 eps k r_max;
    - J~_m / N is specfun.bessel_j_table's value before its last rounding
      (one loop; its rescales divide by powers of two, exactly), within
      _TABLE_ERROR of J_m at p' (1.2e-15 measured, plus eps/2);
    - w has modulus 1 within 1.5 eps and each of the m products by w adds
      at most sqrt(5) eps, so w^m is off by m (sqrt(5) + 1.5) eps; the
      fold's additions at orders m .. 0 add (m + 1) eps/2, the product
      c_m J~_m eps/2, and the division by N eps/2 (below kr = 1e-30 the
      series values are summed: J_0 = 1, the other terms < 1e-30 |c_m|);
    - underflow: a subnormal result errs by up to 2^-1075 absolutely. The
      recurrence, fold and rescales make at most 20 real operations per
      order from the start order S down, and N exceeds the start value
      1e-300 (measured: at least 4e-276 at orders up to 200 and arguments
      up to 300), so underflow adds below 5e-23 (S + 1) < eps/2 ||c||_1 for
      S < 10^6 once ||c||_1 >= 1. So a wave with ||c||_1 < 1 is evaluated on
      a copy times the power of two 2^e that puts ||c||_1 in [1, 2): the
      margin's sign is decided there, and the values are scaled back.

    With m <= M the sum is below
    (_TABLE_ERROR + (M (sqrt(5) + 2) + 2 + 3 k r_max) eps) ||c||_1, inside
    rounding = (_TABLE_ERROR + (7M + 4 + 3 k r_max) eps) ||c||_1.
    """
    c1 = _l1(wave)
    e = 1 - math.frexp(c1)[1] if 0.0 < c1 < 1.0 else 0
    if e:
        wave = herglotz.scaled_wave(wave, e)
        c1 = _l1(wave)
    values = herglotz.eval_series(wave, points)
    lip = wave.k * herglotz.density_l1_bound(wave)
    reach = wave.k * float(np.max(np.hypot(points[:, 0] - wave.center[0],
                                           points[:, 1] - wave.center[1])))
    rounding = (_TABLE_ERROR + (7 * wave.M + 4 + 3 * reach) * np.finfo(float).eps) * c1
    i = int(np.argmin(values))
    margin = float(values[i]) - lip * gap / 2.0 - rounding
    return PositivityCertificate(
        min_sample=math.ldexp(float(values[i]), -e),
        lipschitz_bound=math.ldexp(lip, -e),
        max_gap=gap,
        rounding=math.ldexp(rounding, -e),
        certified_margin=math.ldexp(margin, -e),
        certified=bool(margin > 0.0),
        n_samples=len(values),
        min_point=tuple(points[i]),
    )


def certify_positive(wave: herglotz.FourierBesselWave,
                     sampling: geometry.BoundarySampling) -> PositivityCertificate:
    """Certificate for wave > 0 along the sampled boundary."""
    return _certificate(wave, sampling.points, float(sampling.max_gap))


def certify_positive_on_set(wave: herglotz.FourierBesselWave,
                            targets: geometry.TargetSet) -> PositivityCertificate:
    """Certificate for wave > 0 at the finite target points: no Lipschitz
    term (max_gap 0), so the margin is the least value less rounding."""
    return _certificate(wave, targets.points, 0.0)


def sign_change_on_circle(wave: herglotz.FourierBesselWave, m: int,
                          n_samples: int = 1024) -> SignChangeReport:
    """Sample the wave on the circle of radius j_{0,m}/k about the origin.

    Any nonzero real entire solution must change sign there; the flux
    integral of u against the radial derivative of J0(k|x|)
    (which vanishes on that circle) is zero by the divergence identity for
    two solutions. The radial wave itself vanishes identically on the
    circle; that degenerate case is detected and excluded from the
    sign-change assertion.
    """
    norm = herglotz.coefficient_norm(wave)
    if norm <= 1e-14:
        raise ValueError("sign_change_on_circle requires a nonzero wave")
    m = int(m)
    if m < 1:
        raise ValueError("zero index m must be >= 1")
    k = wave.k
    radius = specfun.bessel_zero(0, m) / k
    theta = 2.0 * math.pi * np.arange(n_samples) / n_samples
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vals = herglotz.eval_series(wave, pts)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    degenerate = float(np.max(np.abs(vals))) <= 1e-10 * norm
    # v(x) = J0(k|x|) vanishes at the sampled radius; d/dr v = -k J1(kR).
    dvdr = -k * _j1(k * radius)
    flux = dvdr * radius * (2.0 * math.pi / n_samples) * float(np.sum(vals))
    return SignChangeReport(circle_radius=radius, min_on_circle=vmin,
                            max_on_circle=vmax,
                            changes_sign=bool(vmin < 0.0 < vmax) and not degenerate,
                            flux_integral=flux, degenerate=degenerate)


@functools.lru_cache(maxsize=64)
def _j1(x: float) -> float:
    """J1(x) from the Bessel table; a wave panel on one circle asks for one x."""
    return specfun.bessel_j_table(1, [x])[1, 0]


def scan_for_zero(wave: herglotz.FourierBesselWave, center, radius: float) -> ZeroScan:
    """Grid-scan a closed ball for a sign change of the wave.

    A pair of opposite-sign grid points witnesses a zero by continuity.
    The guarantee that one exists applies once radius >= j01/k. The grid
    step is 0.05/k: zero sets of Helmholtz solutions have sub-wavelength
    spacing, so a sub-wavelength grid suffices in practice. A ball that
    holds no grid point (radius below about 0.025/k) is a ValueError.

    The grid of every fourth tick (the full grid's points, bit for bit) goes
    first, and its sign change counts only if both extremes exceed the
    identically-small threshold; a last-bit difference cannot flip a value
    that size, so `found` and `identically_small` are the full grid's,
    which decides otherwise. `n_grid` and the witness points are the
    deciding pass's.
    """
    c = np.asarray(center, dtype=float).reshape(2)
    step = 0.05 / wave.k
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    ticks = np.arange(-radius, radius + 0.5 * step, step)
    small = 1e-12 * max(herglotz.coefficient_norm(wave), 1e-300)
    for sub in (ticks[::4], ticks):
        gx, gy = np.meshgrid(c[0] + sub, c[1] + sub)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        pts = pts[np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) <= radius]
        vals = herglotz.eval_series(wave, pts)
        if len(vals) and -vals.min() > small and vals.max() > small:
            break
    if not len(vals):
        raise ValueError(f"no grid point of step {step:g} lies in the ball of "
                         f"radius {radius:g}")
    if float(np.max(np.abs(vals))) <= small:
        return ZeroScan(found=False, positive_point=None, negative_point=None,
                        identically_small=True, n_grid=len(pts))
    i_max = int(np.argmax(vals))
    i_min = int(np.argmin(vals))
    found = bool(vals[i_min] < 0.0 < vals[i_max])
    return ZeroScan(found=found,
                    positive_point=tuple(pts[i_max]) if found else None,
                    negative_point=tuple(pts[i_min]) if found else None,
                    identically_small=False, n_grid=len(pts))
