"""Dense least squares for the wave fits: one SVD, filtered.

`lstsq` is the one solver every fit calls. It factorises the system once,
A = U diag(s) V^H with numpy's SVD, and returns x = V (f * U^H b), where the
mode picks the filter factors f (Hansen, Rank-Deficient and Discrete
Ill-Posed Problems, SIAM 1998):

- "qr" (or "qr_pivot") and "tikhonov:0": the pseudo-inverse, f = 1/s on
  s > max(m, n) eps s_1 (the rank cutoff of a pivoted QR), which gives the
  minimum-norm least-squares solution; the name "qr" stays in reports;
- "tsvd:<t>": f = 1/s on s > t s_1 (t = 1e-12 when omitted);
- "tikhonov:<a>": f = s / (s^2 + a^2) on s > max(m, n) eps s_1;
- "auto": every threshold of AUTO_TSVD_LADDER, and the pick described in
  `lstsq`.

At s_1 = 0 no factor is kept, so a zero system has x = 0 and rank 0. Real
and complex systems go through the same kernel in their own dtype (complex
ones with conjugate transposes), so the effective rank of a complex system
is its complex rank. The reported residual is always recomputed on the
system as given. The SVD runs on numpy's LAPACK: scipy.linalg would bring a
second OpenBLAS whose idle threads spin after each call and stall the next
factorisation in the other library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AUTO_TSVD_LADDER",
    "LeastSquaresSolution",
    "parse_mode",
    "mode_label",
    "lstsq",
]

DEFAULT_TSVD_THRESHOLD = 1e-12

#: Truncated-SVD thresholds tried by mode "auto", largest first.
AUTO_TSVD_LADDER = (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12)


@dataclass(frozen=True)
class LeastSquaresSolution:
    coefficients: np.ndarray
    residual_norm: float
    effective_rank: int          # the singular values above truncation_threshold
    truncation_threshold: float
    mode: str


def parse_mode(mode) -> tuple[str, float]:
    """Normalize a solver mode to (kind, parameter); ValueError if invalid.

    Accepts "qr" / "qr_pivot" and "auto", which take no parameter,
    "tsvd" / "tsvd:<t>" and "tikhonov" / "tikhonov:<a>" with a finite
    t, a >= 0.
    """
    kind, colon, raw = str(mode).strip().lower().partition(":")
    raw = raw if colon else None
    kind = {"qr_pivot": "qr"}.get(kind, kind)
    if kind in ("qr", "auto"):
        if raw is not None:
            raise ValueError(f"mode {kind!r} takes no parameter, got {mode!r}")
        return kind, 0.0
    if kind not in ("tsvd", "tikhonov"):
        raise ValueError(f"unknown least-squares mode {mode!r}")
    if raw is None:
        return kind, DEFAULT_TSVD_THRESHOLD if kind == "tsvd" else 0.0
    param = float(raw)
    if not (math.isfinite(param) and param >= 0.0):
        raise ValueError(f"mode {kind!r} needs a finite parameter >= 0, got {raw!r}")
    return kind, param


def _label(kind: str, param: float) -> str:
    return kind if kind in ("qr", "auto") else f"{kind}:{param:g}"


def mode_label(mode) -> str:
    return _label(*parse_mode(mode))


def _svd(A: np.ndarray):
    """Thin SVD (U, s, V) with s nonincreasing and A = U @ diag(s) @ V^H."""
    A = np.asarray(A)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    return U, s, Vh.conj().T


def _system(A, b):
    """Validate a least-squares system; cast both sides to a common dtype."""
    A = np.asarray(A)
    b = np.asarray(b)
    if A.ndim != 2 or b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise ValueError("need a 2-D matrix and a matching right-hand side")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in the least-squares system")
    dtype = complex if np.iscomplexobj(A) or np.iscomplexobj(b) else float
    return A.astype(dtype, copy=False), b.astype(dtype, copy=False)


def _filter(s, kind: str, param: float, size: int):
    """(filter factors, effective rank, cutoff) of a parsed mode on the
    nonincreasing singular values s of a system with max(m, n) = size."""
    s1 = np.max(s, initial=0.0)
    filt = np.zeros_like(s)
    if kind == "tsvd":
        cutoff = param * s1
        keep = s > cutoff
        filt[keep] = 1.0 / s[keep]
        return filt, int(np.count_nonzero(keep)), cutoff
    floor = size * np.finfo(float).eps * s1
    keep = s > floor
    if kind == "tikhonov" and param > 0.0:
        filt[keep] = s[keep] / (s[keep] ** 2 + param ** 2)
        cutoff = max(param, floor)
    else:  # qr and tikhonov:0, the pseudo-inverse
        filt[keep] = 1.0 / s[keep]
        cutoff = floor
    return filt, int(np.count_nonzero(s > cutoff)), cutoff


def lstsq(A, b, mode="qr") -> LeastSquaresSolution:
    """Minimize ||A x - b||_2 (plus alpha^2 ||x||^2 in tikhonov mode).

    Mode "auto" solves at every threshold of AUTO_TSVD_LADDER and keeps the
    largest one whose max misfit |A x - b| is within 2x of the best over the
    ladder, or below 2 percent of max |b|. Deep truncations can shave the
    misfit slightly while inflating the coefficient norm by orders of
    magnitude, which ruins the Lipschitz certificate downstream. Its label
    names the pick, e.g. "auto(tsvd:1e-05)".
    """
    kind, param = parse_mode(mode)
    A, b = _system(A, b)
    U, s, V = _svd(A)
    Ub = U.conj().T @ b
    modes = [("tsvd", t) for t in AUTO_TSVD_LADDER] if kind == "auto" else [(kind, param)]
    fits = []
    for m in modes:
        filt, rank, cutoff = _filter(s, *m, max(A.shape))
        x = V @ (filt * Ub)
        fits.append((x, A @ x - b, rank, cutoff))
    pick = 0
    if kind == "auto":
        colmax = [float(np.max(np.abs(r))) for _, r, _, _ in fits]
        accept = max(2.0 * min(colmax), 0.02 * float(np.max(np.abs(b))))
        # largest threshold first; the one with the best misfit always qualifies
        pick = next(i for i, c in enumerate(colmax) if c <= accept)
    x, r, rank, cutoff = fits[pick]
    label = _label(*modes[pick])
    return LeastSquaresSolution(coefficients=x, residual_norm=float(np.linalg.norm(r)),
                                effective_rank=rank, truncation_threshold=float(cutoff),
                                mode=f"auto({label})" if kind == "auto" else label)
