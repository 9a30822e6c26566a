"""Entire planar Helmholtz solutions built from plane-wave superpositions.

Two equivalent representations are used. A circle density f(theta) =
sum c_m e^{i m theta} generates the entire solution

    u(x) = integral over the unit circle of e^{i k x.z} f(z) dz,

evaluated by trapezoid quadrature (spectrally accurate for smooth periodic
integrands). Expanding the plane wave in Bessel modes identifies u with a
Fourier-Bessel series; real solutions are parametrized directly by real
coefficients

    u(r, theta) = a0 J0(kr) + sum_m [ac_m cos(m theta) + as_m sin(m theta)] Jm(kr)

about a chosen expansion center. The basis columns come from one
J_0..J_M recurrence table (specfun.bessel_j_table) and the powers of
e^{i theta}. Fits to boundary or interior targets are regularized least
squares in this real basis, with validation residuals reported on samplings
disjoint from the collocation; the automatic mode picks its truncation
threshold from a ladder of filters applied to a single SVD. Waves are stored
as coefficients (wave_to_json); densities are derived (to_density), not stored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dirichlet, geometry, linalg, specfun

__all__ = [
    "FitFailedError",
    "HerglotzDensity",
    "FourierBesselWave",
    "FitReport",
    "FarFieldReport",
    "eval_series",
    "eval_quadrature",
    "to_density",
    "density_l1_bound",
    "coefficient_norm",
    "default_truncation",
    "fit_boundary",
    "fit_interior",
    "far_field",
    "random_wave",
    "helmholtz_fd_residual",
    "wave_to_json",
    "wave_from_json",
    "save_wave",
    "load_wave",
]


class FitFailedError(RuntimeError):
    """Validation residual too large (expected near Dirichlet eigenvalues)."""

    def __init__(self, message, report=None, wave=None):
        super().__init__(message)
        self.report = report
        self.wave = wave


@dataclass(eq=False)
class HerglotzDensity:
    """Trigonometric-polynomial density on the unit circle."""

    k: float
    coeffs: np.ndarray  # complex, index order m = -M..M

    @property
    def M(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def eval(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        m = np.arange(-self.M, self.M + 1)
        return np.exp(1j * np.multiply.outer(th, m)) @ self.coeffs

    def l1_bound(self) -> float:
        """Cauchy-Schwarz bound for the circle L1 norm: 2 pi sqrt(sum |c_m|^2)."""
        return 2.0 * math.pi * math.sqrt(float(np.sum(np.abs(self.coeffs) ** 2)))


@dataclass(eq=False)
class FourierBesselWave:
    """Real entire Helmholtz solution in Fourier-Bessel form."""

    k: float
    a0: float
    cos_coeffs: np.ndarray  # ac_m, m = 1..M
    sin_coeffs: np.ndarray  # as_m, m = 1..M
    center: np.ndarray = None  # expansion origin, default (0, 0)

    def __post_init__(self):
        self.cos_coeffs = np.asarray(self.cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(self.sin_coeffs, dtype=float)
        if self.cos_coeffs.shape != self.sin_coeffs.shape:
            raise ValueError("cos and sin coefficient arrays must match in length")
        self.center = np.zeros(2) if self.center is None \
            else np.asarray(self.center, dtype=float).reshape(2)

    @property
    def M(self) -> int:
        return len(self.cos_coeffs)


@dataclass(frozen=True)
class FitReport:
    residual_max: float
    residual_l2: float   # root-mean-square misfit on validation samples
    M_used: int
    regularization: str
    coefficient_norm: float
    n_collocation: int
    n_validation: int


def coefficient_norm(wave: FourierBesselWave) -> float:
    return math.sqrt(wave.a0 ** 2 + float(np.sum(wave.cos_coeffs ** 2))
                     + float(np.sum(wave.sin_coeffs ** 2)))


def density_l1_bound(wave: FourierBesselWave) -> float:
    """2 pi sqrt(sum |c_m|^2) of the generating density, in closed form.

    Invariant under recentering (the recentering phase has modulus one),
    so it is computed from the centered-frame coefficients directly.
    """
    return math.sqrt(wave.a0 ** 2
                     + 0.5 * float(np.sum(wave.cos_coeffs ** 2))
                     + 0.5 * float(np.sum(wave.sin_coeffs ** 2)))


def _basis_matrix(pts_rel: np.ndarray, k: float, M: int) -> np.ndarray:
    """Columns [J0, J1 cos, J1 sin, ..., JM cos, JM sin] at each point.

    The Bessel values come from one recurrence table; cos(m phi) and
    sin(m phi) are the real and imaginary parts of the running product
    e^{i m phi} = e^{i (m-1) phi} (x + i y) / r.
    """
    r = np.hypot(pts_rel[:, 0], pts_rel[:, 1])
    J = specfun.bessel_j_table(M, k * r)
    z = pts_rel[:, 0] + 1j * pts_rel[:, 1]
    unit = np.divide(z, r, out=np.ones_like(z), where=r > 0.0)
    powers = np.empty((M + 1, len(r)), dtype=complex)
    powers[0] = 1.0
    for m in range(1, M + 1):
        np.multiply(powers[m - 1], unit, out=powers[m])
    basis = np.empty((2 * M + 1, len(r)))
    basis[0] = J[0]
    np.multiply(J[1:], powers[1:].real, out=basis[1::2])
    np.multiply(J[1:], powers[1:].imag, out=basis[2::2])
    return basis.T


def _coef_vector(wave: FourierBesselWave) -> np.ndarray:
    out = np.empty(2 * wave.M + 1)
    out[0] = wave.a0
    out[1::2] = wave.cos_coeffs
    out[2::2] = wave.sin_coeffs
    return out


def _wave_from_coef(coef: np.ndarray, k: float, center) -> FourierBesselWave:
    return FourierBesselWave(k=k, a0=float(coef[0]), cos_coeffs=coef[1::2],
                             sin_coeffs=coef[2::2], center=center)


def eval_series(wave: FourierBesselWave, pts) -> np.ndarray:
    """Evaluate the Fourier-Bessel sum; real by construction."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _basis_matrix(pts - wave.center, wave.k, wave.M) @ _coef_vector(wave)


def eval_quadrature(density: HerglotzDensity, pts, n_quad: int | None = None) -> np.ndarray:
    """Trapezoid quadrature of the circle integral at each point."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rmax = float(np.max(np.hypot(pts[:, 0], pts[:, 1]))) if len(pts) else 0.0
    if n_quad is None:
        n_quad = max(64, int(math.ceil(8.0 * (density.k * rmax + density.M))))
    theta = 2.0 * math.pi * np.arange(n_quad) / n_quad
    zhat = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    fvals = density.eval(theta)
    phase = np.exp(1j * density.k * (pts @ zhat.T))
    return (2.0 * math.pi / n_quad) * (phase @ fvals)


def _centered_density_coeffs(wave: FourierBesselWave) -> np.ndarray:
    """Density coefficients of the wave about its own center.

    Matching the plane-wave Bessel expansion term by term gives
    c_0 = a0/(2 pi), c_{+-m} = (ac_m -+ i as_m) / (4 pi i^m).
    """
    M = wave.M
    c = np.zeros(2 * M + 1, dtype=complex)
    c[M] = wave.a0 / (2.0 * math.pi)
    for m in range(1, M + 1):
        im = 1j ** m
        c[M + m] = (wave.cos_coeffs[m - 1] - 1j * wave.sin_coeffs[m - 1]) / (4.0 * math.pi * im)
        c[M - m] = (wave.cos_coeffs[m - 1] + 1j * wave.sin_coeffs[m - 1]) / (4.0 * math.pi * im)
    return c


def to_density(wave: FourierBesselWave, tail_tol: float = 1e-15) -> HerglotzDensity:
    """Density whose plane-wave superposition reproduces the wave.

    For a wave expanded about the origin the coefficient map is exact and
    finite. A nonzero center multiplies the density by the unimodular
    phase e^{-i k center . z(theta)}, which widens the spectrum; the
    result is then re-expanded by FFT and truncated once coefficients
    fall below tail_tol relative to the largest.
    """
    c = _centered_density_coeffs(wave)
    if np.hypot(*wave.center) == 0.0:
        return HerglotzDensity(k=wave.k, coeffs=c)
    M = wave.M
    shift = float(np.hypot(*wave.center))
    M2 = M + int(math.ceil(wave.k * shift)) + 24
    n = 1
    while n < 4 * (2 * M2 + 1):
        n *= 2
    theta = 2.0 * math.pi * np.arange(n) / n
    m = np.arange(-M, M + 1)
    f_std = np.exp(1j * np.outer(theta, m)) @ c
    zhat = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    f_shift = f_std * np.exp(-1j * wave.k * (zhat @ wave.center))
    spectrum = np.fft.fft(f_shift) / n
    coeffs = np.concatenate([spectrum[-M2:], spectrum[: M2 + 1]])  # m = -M2..M2
    mags = np.abs(coeffs)
    big = np.nonzero(mags > tail_tol * mags.max())[0]
    half = max(abs(int(i) - M2) for i in big) if len(big) else 0
    coeffs = coeffs[M2 - half: M2 + half + 1]
    return HerglotzDensity(k=wave.k, coeffs=coeffs)


def random_wave(M: int, k: float, rng: np.random.Generator,
                center=(0.0, 0.0)) -> FourierBesselWave:
    """Wave with independent standard-normal coefficients."""
    return FourierBesselWave(k=k, a0=float(rng.standard_normal()),
                             cos_coeffs=rng.standard_normal(M),
                             sin_coeffs=rng.standard_normal(M),
                             center=np.asarray(center, dtype=float))


def default_truncation(k: float, domain) -> int:
    """ceil(k * circumradius about the centroid) + 10; higher modes only
    feed ill-conditioning since Jm(kr) is negligible for m >> kr."""
    return int(math.ceil(k * geometry.circumradius(domain))) + 10


def _validation_report(wave, misfit: np.ndarray, mode_text: str, n_col: int) -> FitReport:
    return FitReport(
        residual_max=float(np.max(np.abs(misfit))),
        residual_l2=float(np.sqrt(np.mean(np.abs(misfit) ** 2))),
        M_used=wave.M,
        regularization=mode_text,
        coefficient_norm=coefficient_norm(wave),
        n_collocation=n_col,
        n_validation=len(misfit),
    )


#: Threshold ladder tried by the automatic regularization choice.
AUTO_TSVD_LADDER = (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12)


def _auto_tsvd_solve(A: np.ndarray, b: np.ndarray, scale: float):
    """Pick the largest truncation threshold with near-best collocation misfit.

    Deep truncations can shave the misfit slightly while inflating the
    coefficient norm by orders of magnitude, which ruins the Lipschitz
    certificate downstream. The rule: accept a threshold once its max
    collocation misfit is within 2x of the best over the ladder, or below
    2 percent of the target scale. Selection uses only collocation data;
    validation stays untouched. All thresholds share one SVD of A.
    """
    sols = linalg.tsvd_ladder(A, b, AUTO_TSVD_LADDER)
    colmax = [float(np.max(np.abs(A @ s.coefficients - b))) for s in sols]
    accept = max(2.0 * min(colmax), 0.02 * scale)
    # largest threshold first; the one with the best misfit always qualifies
    i = next(i for i, c in enumerate(colmax) if c <= accept)
    return sols[i], ("tsvd", AUTO_TSVD_LADDER[i])


def _fit_mode(mode):
    """None for "auto", else linalg.parse_mode(mode) (ValueError if unknown)."""
    if isinstance(mode, str) and mode.strip().lower() == "auto":
        return None
    return linalg.parse_mode(mode)


def _fit_solve(A: np.ndarray, b: np.ndarray, mode, scale: float):
    """Solve one fit system in `mode`; returns (solution, report label)."""
    if _fit_mode(mode) is None:
        sol, used = _auto_tsvd_solve(A, b, scale)
        return sol, f"auto({linalg.mode_label(used)})"
    return linalg.lstsq(A, b, mode=mode), linalg.mode_label(mode)


def fit_boundary(domain, k: float, target_c0: float, M: int | None = None,
                 n_col: int | None = None, mode="auto",
                 override_gate: bool = False,
                 fail_threshold: float = 0.05):
    """Least-squares fit of the wave to a constant on the domain boundary.

    Returns (wave, report) where the report is computed on an independent
    validation sampling four times denser than (and disjoint from) the
    collocation. residual_max above fail_threshold * |c0| raises
    FitFailedError; this is the expected outcome when k^2 sits at a
    Dirichlet eigenvalue of the domain.

    The default mode "auto" selects a truncated-SVD threshold from a
    ladder, trading a marginally larger misfit for a much smaller
    coefficient norm (see _auto_tsvd_solve); any explicit mode accepted by
    linalg.lstsq can be forced instead.
    """
    k = float(k)
    gate = dirichlet.faber_krahn_gate(domain, k)
    if not gate.passes and not override_gate:
        raise dirichlet.GateError(
            "spectral gate failed for this (domain, k); pass override_gate=True "
            "to attempt the fit anyway", gate=gate)
    if M is None:
        M = default_truncation(k, domain)
    M = int(M)
    if n_col is None:
        n_col = max(32, 4 * (2 * M + 1))
    if n_col < 4 * (2 * M + 1) and n_col < 32:
        raise ValueError("n_col too small for the requested order")
    center = geometry.centroid(domain)

    col = geometry.sample_boundary(domain, n_col)
    A = _basis_matrix(col.points - center, k, M)
    b = np.full(n_col, float(target_c0))
    sol, mode_text = _fit_solve(A, b, mode, max(abs(target_c0), 1e-300))
    wave = _wave_from_coef(sol.coefficients, k, center)

    val = geometry.sample_boundary(domain, 4 * n_col, offset=0.5)
    misfit = eval_series(wave, val.points) - float(target_c0)
    report = _validation_report(wave, misfit, mode_text, n_col)
    if report.residual_max > fail_threshold * abs(target_c0):
        raise FitFailedError(
            f"boundary fit failed: residual_max {report.residual_max:.3e} "
            f"> {fail_threshold:g} * |c0| (eigenvalue obstruction or M too small)",
            report=report, wave=wave)
    return wave, report


def fit_interior(points, values, k: float, M: int | None = None, mode="qr",
                 center=None, holdout_stride: int = 10,
                 fail_threshold: float = 0.05):
    """Fit the wave to interior samples (point, value).

    Every holdout_stride-th point is held out of the fit and used for the
    report, a deterministic 10 percent split by default.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    if len(pts) != len(vals):
        raise ValueError("points and values must match in length")
    k = float(k)
    if center is None:
        center = pts.mean(axis=0)
    center = np.asarray(center, dtype=float).reshape(2)
    if M is None:
        rmax = float(np.max(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])))
        M = int(math.ceil(k * rmax)) + 10
    M = int(M)

    idx = np.arange(len(pts))
    hold = idx[::holdout_stride] if len(pts) >= 2 * holdout_stride else idx[:0]
    fitidx = np.setdiff1d(idx, hold)
    if len(fitidx) < 2 * M + 1:
        raise ValueError(
            f"{len(fitidx)} fit targets cannot determine {2 * M + 1} coefficients")
    A = _basis_matrix(pts[fitidx] - center, k, M)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    sol, mode_text = _fit_solve(A, vals[fitidx], mode, scale)
    wave = _wave_from_coef(sol.coefficients, k, center)

    check = hold if len(hold) else fitidx
    misfit = eval_series(wave, pts[check]) - vals[check]
    report = _validation_report(wave, misfit, mode_text, len(fitidx))
    if report.residual_max > fail_threshold * scale:
        raise FitFailedError(
            f"interior fit failed: residual_max {report.residual_max:.3e} "
            f"> {fail_threshold:g} * scale", report=report, wave=wave)
    return wave, report


@dataclass(frozen=True)
class FarFieldReport:
    direction: tuple
    radii: np.ndarray
    deviations: np.ndarray       # |u(r d) - leading(r)| per radius
    decay_exponent: float        # fitted p in deviation ~ r^{-p} (envelope fit)
    leading_rel_err: np.ndarray  # |u - leading| / |u| per radius


def _leading_term(density: HerglotzDensity, direction: np.ndarray,
                  radii: np.ndarray) -> np.ndarray:
    """Stationary-phase leading order of the circle superposition:

        u(r d) ~ sqrt(2 pi / (k r)) [e^{i(kr - pi/4)} f(d) + e^{-i(kr - pi/4)} f(-d)]

    (both directional endpoints of the phase contribute, with conjugate
    e^{+-i pi/4} factors and remainder O(r^{-3/2})).
    """
    k = density.k
    phi = math.atan2(direction[1], direction[0])
    f_fwd = complex(density.eval(np.array([phi]))[0])
    f_bwd = complex(density.eval(np.array([phi + math.pi]))[0])
    amp = np.sqrt(2.0 * math.pi / (k * radii))
    ph = k * radii - math.pi / 4.0
    return amp * (np.exp(1j * ph) * f_fwd + np.exp(-1j * ph) * f_bwd)


def far_field(obj, direction, radii, n_window: int = 8) -> FarFieldReport:
    """Compare u along a ray against its leading large-radius form.

    The remainder oscillates inside an r^{-3/2} envelope, so the decay
    exponent is fitted on per-window maxima (windows of n_window
    consecutive radii) rather than raw points.
    """
    density = obj if isinstance(obj, HerglotzDensity) else to_density(obj)
    d = np.asarray(direction, dtype=float).reshape(2)
    d = d / np.hypot(*d)
    radii = np.sort(np.asarray(radii, dtype=float))
    if np.any(radii < 10.0 / density.k - 1e-12):
        raise ValueError("far-field radii must be at least 10 / k")
    pts = radii[:, None] * d[None, :]
    u = eval_quadrature(density, pts)
    dev = np.abs(u - _leading_term(density, d, radii))
    rel = dev / np.maximum(np.abs(u), 1e-300)

    groups = max(2, len(radii) // max(1, n_window))
    edges = [e for e in np.array_split(np.arange(len(radii)), groups) if len(e)]
    rc = np.array([np.exp(np.mean(np.log(radii[e]))) for e in edges])
    env = np.array([np.max(dev[e]) for e in edges])
    good = env > 0
    if int(good.sum()) >= 2:
        slope = np.polyfit(np.log(rc[good]), np.log(env[good]), 1)[0]
    else:
        slope = np.nan
    return FarFieldReport(direction=tuple(d), radii=radii, deviations=dev,
                          decay_exponent=float(-slope), leading_rel_err=rel)


def helmholtz_fd_residual(evaluate, pts, k: float, h: float = 1e-4) -> np.ndarray:
    """|five-point (lap + k^2) u| at each point, step h."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    u0 = np.asarray(evaluate(pts))
    lap = (np.asarray(evaluate(pts + ex)) + np.asarray(evaluate(pts - ex))
           + np.asarray(evaluate(pts + ey)) + np.asarray(evaluate(pts - ey))
           - 4.0 * u0) / h ** 2
    return np.abs(lap + k * k * u0)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def wave_to_json(wave: FourierBesselWave) -> dict:
    return {
        "k": wave.k,
        "M": wave.M,
        "a0": wave.a0,
        "ac": wave.cos_coeffs.tolist(),
        "as": wave.sin_coeffs.tolist(),
        "center": wave.center.tolist(),
    }


def wave_from_json(obj: dict) -> FourierBesselWave:
    required = {"k", "M", "a0", "ac", "as"}
    extra = set(obj) - required - {"center"}
    if extra:
        raise ValueError(f"unknown keys in wave JSON: {sorted(extra)}")
    if not required <= set(obj):
        raise ValueError(f"missing keys in wave JSON: {sorted(required - set(obj))}")
    wave = FourierBesselWave(k=float(obj["k"]), a0=float(obj["a0"]),
                             cos_coeffs=obj["ac"], sin_coeffs=obj["as"],
                             center=obj.get("center", (0.0, 0.0)))
    if wave.M != int(obj["M"]):
        raise ValueError("wave JSON M does not match coefficient count")
    return wave


def save_wave(wave: FourierBesselWave, path) -> None:
    Path(path).write_text(json.dumps(wave_to_json(wave), indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def load_wave(path) -> FourierBesselWave:
    with open(path, "r", encoding="utf-8") as fh:
        return wave_from_json(json.load(fh))
