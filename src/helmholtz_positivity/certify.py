"""Positivity certificates and the necessary-condition checkers.

The certificate logic is a sampled minimum plus a rigorous Lipschitz
margin: a plane-wave superposition with density f obeys

    |grad u| <= k ||f||_{L1}  <=  2 pi k sqrt(sum |c_m|^2),

so a positive minimum over samples spaced g apart in arclength (every
boundary point is then within g/2 of a sample) certifies positivity
of the exact wave once min - L g/2 > 0 (rigorous modulo special-function
evaluation error). Two classical facts about entire real solutions are
checked numerically: they change sign on every circle whose radius is a
scaled J0 zero (with a vanishing flux integral against the radial solution
that vanishes there), and they have a zero in every closed ball of radius
j01/k. Every result is a frozen dataclass; the CLI writes it into its
report with dataclasses.asdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, herglotz, specfun
from scipy import special  # after .linalg: loading scipy.linalg first imports faster

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
    certified_margin: float  # min_sample - lipschitz_bound * max_gap / 2
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


def _certificate(values: np.ndarray, points: np.ndarray, lip: float,
                 gap: float) -> PositivityCertificate:
    i = int(np.argmin(values))
    margin = float(values[i]) - lip * gap / 2.0
    return PositivityCertificate(
        min_sample=float(values[i]),
        lipschitz_bound=lip,
        max_gap=gap,
        certified_margin=margin,
        certified=bool(margin > 0.0),
        n_samples=len(values),
        min_point=tuple(points[i]),
    )


def certify_positive(wave: herglotz.FourierBesselWave,
                     sampling: geometry.BoundarySampling) -> PositivityCertificate:
    """Certificate for wave > 0 along the sampled boundary."""
    values = herglotz.eval_series(wave, sampling.points)
    lip = wave.k * herglotz.density_l1_bound(wave)
    return _certificate(values, sampling.points, lip, float(sampling.max_gap))


def certify_positive_on_set(wave: herglotz.FourierBesselWave,
                            targets: geometry.TargetSet,
                            lipschitz_radius: float = 0.0) -> PositivityCertificate:
    """Certificate for wave > 0 on a sampled compact set.

    lipschitz_radius is the covering radius of the samples within the true
    set (0 for a finite set represented exactly, making the certificate
    pointwise-exact up to evaluation error). It enters the margin through
    the same Lipschitz logic as the boundary gap, via max_gap = 2 * radius.
    """
    if lipschitz_radius < 0.0:
        raise ValueError("lipschitz_radius must be nonnegative")
    values = herglotz.eval_series(wave, targets.points)
    lip = wave.k * herglotz.density_l1_bound(wave)
    return _certificate(values, targets.points, lip, 2.0 * float(lipschitz_radius))


def sign_change_on_circle(wave: herglotz.FourierBesselWave, m: int,
                          n_samples: int = 1024, center=(0.0, 0.0)) -> SignChangeReport:
    """Sample the wave on the circle of radius j_{0,m}/k about `center`.

    Any nonzero real entire solution must change sign there; the flux
    integral of u against the radial derivative of J0(k|x - center|)
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
    c = np.asarray(center, dtype=float).reshape(2)
    theta = 2.0 * math.pi * np.arange(n_samples) / n_samples
    pts = c + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    vals = herglotz.eval_series(wave, pts)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    degenerate = float(np.max(np.abs(vals))) <= 1e-10 * norm
    # v(x) = J0(k|x - c|) vanishes at the sampled radius; d/dr v = -k J1(kR).
    dvdr = -k * special.jv(1, k * radius)
    flux = dvdr * radius * (2.0 * math.pi / n_samples) * float(np.sum(vals))
    return SignChangeReport(circle_radius=radius, min_on_circle=vmin,
                            max_on_circle=vmax,
                            changes_sign=bool(vmin < 0.0 < vmax) and not degenerate,
                            flux_integral=flux, degenerate=degenerate)


def scan_for_zero(wave: herglotz.FourierBesselWave, center, radius: float,
                  grid_step: float | None = None) -> ZeroScan:
    """Grid-scan a closed ball for a sign change of the wave.

    A pair of opposite-sign grid points witnesses a zero by continuity.
    The guarantee that one exists applies once radius >= j01/k. Default
    step 0.05/k: zero sets of Helmholtz solutions have sub-wavelength
    spacing, so a sub-wavelength grid suffices in practice.
    """
    c = np.asarray(center, dtype=float).reshape(2)
    if grid_step is None:
        grid_step = 0.05 / wave.k
    if not (radius > 0.0 and grid_step > 0.0):
        raise ValueError("radius and grid_step must be positive")
    ticks = np.arange(-radius, radius + 0.5 * grid_step, grid_step)
    gx, gy = np.meshgrid(c[0] + ticks, c[1] + ticks)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) <= radius]
    vals = herglotz.eval_series(wave, pts)
    norm = herglotz.coefficient_norm(wave)
    if float(np.max(np.abs(vals))) <= 1e-12 * max(norm, 1e-300):
        return ZeroScan(found=False, positive_point=None, negative_point=None,
                        identically_small=True, n_grid=len(pts))
    i_max = int(np.argmax(vals))
    i_min = int(np.argmin(vals))
    found = bool(vals[i_min] < 0.0 < vals[i_max])
    return ZeroScan(found=found,
                    positive_point=tuple(pts[i_max]) if found else None,
                    negative_point=tuple(pts[i_min]) if found else None,
                    identically_small=False, n_grid=len(pts))
