"""Dense least squares for the wave fits: one SVD, truncated.

`lstsq` is the one solver every fit calls. It factorises the system once,
A = U diag(s) V^H with numpy's SVD, and at a relative threshold t returns
the truncated-SVD solution x = V (f * U^H b), with f = 1/s on s > t s_1 and
0 elsewhere (Hansen, Rank-Deficient and Discrete Ill-Posed Problems, SIAM
1998). Given several thresholds it solves at each and picks one, as
described in `lstsq`: the Fourier-Bessel fits pass AUTO_TSVD_LADDER, and
the MFS solve its one threshold.

At s_1 = 0 no factor is kept, so a zero system has x = 0 and rank 0. Real
and complex systems go through the same kernel in their own dtype (complex
ones with conjugate transposes), so the effective rank of a complex system
is its complex rank. The SVD runs on numpy's LAPACK: scipy.linalg would
bring a second OpenBLAS whose idle threads spin after each call and stall
the next factorisation in the other library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AUTO_TSVD_LADDER",
    "LeastSquaresSolution",
    "lstsq",
]

#: Truncated-SVD thresholds of the Fourier-Bessel fits, largest first.
AUTO_TSVD_LADDER = (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12)


@dataclass(frozen=True)
class LeastSquaresSolution:
    coefficients: np.ndarray
    effective_rank: int  # the singular values above the picked threshold times s_1
    label: str           # "tsvd:<t>", or "auto(tsvd:<t>)" for a pick among several


def _svd(A: np.ndarray):
    """Thin SVD (U, s, V) with s nonincreasing and A = U @ diag(s) @ V^H."""
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


def lstsq(A, b, thresholds=AUTO_TSVD_LADDER) -> LeastSquaresSolution:
    """Minimize ||A x - b||_2 over the singular values s > t s_1.

    Given several thresholds t, largest first, it keeps the largest one whose
    max misfit |A x - b| is within 2x of the best over them, or below 2
    percent of max |b|. Deep truncations can shave the misfit slightly while
    inflating the coefficient norm by orders of magnitude, which ruins the
    Lipschitz certificate downstream. The label names the threshold, e.g.
    "tsvd:1e-12", and a pick among several, e.g. "auto(tsvd:1e-05)".
    """
    A, b = _system(A, b)
    U, s, V = _svd(A)
    Ub = U.conj().T @ b
    s1 = np.max(s, initial=0.0)
    fits = []
    for t in thresholds:
        keep = s > t * s1
        filt = np.zeros_like(s)
        filt[keep] = 1.0 / s[keep]
        fits.append((V @ (filt * Ub), int(np.count_nonzero(keep))))
    pick = 0
    if len(fits) > 1:
        colmax = [float(np.max(np.abs(A @ x - b))) for x, _ in fits]
        accept = max(2.0 * min(colmax), 0.02 * float(np.max(np.abs(b))))
        # largest threshold first; the one with the best misfit always qualifies
        pick = next(i for i, c in enumerate(colmax) if c <= accept)
    label = f"tsvd:{thresholds[pick]:g}"
    x, rank = fits[pick]
    return LeastSquaresSolution(coefficients=x, effective_rank=rank,
                                label=f"auto({label})" if len(fits) > 1 else label)
