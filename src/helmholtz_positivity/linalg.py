"""Dense least squares for the wave fits: pivoted QR, truncated SVD, Tikhonov.

`lstsq` is the one solver every fit calls; `tsvd_ladder` returns the
truncated-SVD solutions for several thresholds from a single SVD. Real
and complex systems go through the same kernels in their own dtype
(complex ones with conjugate transposes), so the effective rank of a
complex system is its complex rank. The reported residual is always
recomputed on the system as given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "LeastSquaresSolution",
    "parse_mode",
    "mode_label",
    "lstsq",
    "tsvd_ladder",
]

DEFAULT_TSVD_THRESHOLD = 1e-12


@dataclass(frozen=True)
class LeastSquaresSolution:
    coefficients: np.ndarray
    residual_norm: float
    effective_rank: int
    truncation_threshold: float
    mode: str


def parse_mode(mode) -> tuple[str, float]:
    """Normalize a solver mode string.

    Accepts "qr" / "qr_pivot", "tsvd" / "tsvd:<rel threshold>", and
    "tikhonov:<alpha>" (alpha 0 falls back to a pseudo-inverse cutoff).
    """
    if isinstance(mode, (tuple, list)) and len(mode) == 2:
        kind, param = str(mode[0]), float(mode[1])
    else:
        text = str(mode).strip().lower()
        if ":" in text:
            kind, _, raw = text.partition(":")
            param = float(raw)
        else:
            kind, param = text, None
    kind = {"qr_pivot": "qr"}.get(kind, kind)
    if kind == "qr":
        return "qr", 0.0
    if kind == "tsvd":
        return "tsvd", DEFAULT_TSVD_THRESHOLD if param is None else float(param)
    if kind == "tikhonov":
        return "tikhonov", 0.0 if param is None else float(param)
    raise ValueError(f"unknown least-squares mode {mode!r}")


def mode_label(mode) -> str:
    kind, param = parse_mode(mode)
    if kind == "qr":
        return "qr"
    return f"{kind}:{param:g}"


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


def _solution(A, b, x, rank, cutoff, mode) -> LeastSquaresSolution:
    residual = float(np.linalg.norm(A @ x - b))
    return LeastSquaresSolution(coefficients=x, residual_norm=residual,
                                effective_rank=rank,
                                truncation_threshold=float(cutoff),
                                mode=mode_label(mode))


def tsvd_ladder(A, b, thresholds) -> list:
    """Truncated-SVD solutions, one per relative threshold, from one SVD.

    Entry i equals lstsq(A, b, mode=("tsvd", thresholds[i])).
    """
    A, b = _system(A, b)
    U, s, V = _svd(A)
    Ub = U.conj().T @ b
    out = []
    for t in thresholds:
        cutoff = t * s[0]
        keep = s > cutoff
        filt = np.zeros_like(s)
        filt[keep] = 1.0 / s[keep]
        out.append(_solution(A, b, V @ (filt * Ub), int(np.count_nonzero(keep)),
                             cutoff, ("tsvd", t)))
    return out


def lstsq(A, b, mode="qr") -> LeastSquaresSolution:
    """Minimize ||A x - b||_2 (plus alpha^2 ||x||^2 in tikhonov mode)."""
    kind, param = parse_mode(mode)
    if kind == "tsvd":
        return tsvd_ladder(A, b, (param,))[0]
    A, b = _system(A, b)
    ncols = A.shape[1]
    if not np.any(A):
        x = np.zeros(ncols, dtype=A.dtype)
        rank, cutoff = 0, 0.0
    elif kind == "qr":
        Q, R, perm = scipy.linalg.qr(A, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        cutoff = max(A.shape) * np.finfo(float).eps * diag[0]
        rank = int(np.count_nonzero(diag > cutoff))
        z = Q.conj().T @ b
        x = np.zeros(ncols, dtype=A.dtype)
        x[perm[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], z[:rank])
    else:  # tikhonov
        U, s, V = _svd(A)
        cutoff = param
        floor = max(A.shape) * np.finfo(float).eps * s[0]
        keep = s > floor
        filt = np.zeros_like(s)
        if param == 0.0:
            filt[keep] = 1.0 / s[keep]
        else:
            filt[keep] = s[keep] / (s[keep] ** 2 + param ** 2)
        rank = int(np.count_nonzero(s > max(param, floor)))
        x = V @ (filt * (U.conj().T @ b))
    return _solution(A, b, x, rank, cutoff, mode)
