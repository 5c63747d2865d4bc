"""Spectra of reversible chains and the lazy contraction factor.

For a reversible kernel K the similarity D^{1/2} K D^{-1/2} (D = diag(pi)) is
symmetric, so I - K has a real spectrum 0 = lambda_0 < lambda_1 <= ... <=
lambda_n <= 2.  ``eigen_summary`` returns the nonzero part together with the
spectral gap and the spectral sum s = sum(1/lambda_i).

Two eigensolvers back the summary:

* birth-death form: the symmetrized I - K is tridiagonal; eigenvalues come
  from bisection on Sturm-sequence negative-pivot counts, vectorized across
  all eigenvalue indices.  Bisection gives guaranteed containment and is run
  well past 1e-12 interval width (to ~1 ulp of each eigenvalue).
* dense form: LAPACK's symmetric eigensolver on the symmetrized kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Chain, _check_delta
from .errors import BadShape, NotReversible, NumericalFailure

DETAILED_BALANCE_TOL = 1e-10
ZERO_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    """Spectrum of I - K for a reversible chain.

    ``eigenvalues`` holds the n nonzero eigenvalues ascending; ``gap`` is the
    smallest of them; ``spectral_sum`` is sum(1/lambda_i); ``kernel_spectrum``
    holds all n+1 eigenvalues of K itself, descending (leading entry 1).
    """

    eigenvalues: np.ndarray
    gap: float
    spectral_sum: float
    kernel_spectrum: np.ndarray


def detailed_balance_residual(chain: Chain) -> float:
    """max |pi(x) K(x,y) - pi(y) K(y,x)| over all pairs."""
    if chain.is_birth_death:
        return 0.0
    flow = chain.stationary[:, None] * chain.kernel
    return float(np.abs(flow - flow.T).max())


def tridiagonal_eigenvalues(diag, off_squared) -> np.ndarray:
    """All eigenvalues (ascending) of a symmetric tridiagonal matrix.

    ``off_squared`` holds the squared off-diagonal entries, which is all the
    Sturm count needs; signs of the off-diagonal never affect the spectrum.
    Bisection maintains one bracket per eigenvalue index, halving every
    bracket simultaneously until each is below ~1 ulp of its midpoint.
    """
    d = np.asarray(diag, dtype=float)
    e2 = np.asarray(off_squared, dtype=float)
    n = d.shape[0]
    if e2.shape != (max(n - 1, 0),):
        raise BadShape("off_squared must have length len(diag) - 1")
    if n <= 1:
        return d.copy()

    # Gershgorin bounds with a safety margin.
    e = np.sqrt(e2)
    radius = np.zeros(n)
    radius[:-1] += e
    radius[1:] += e
    lo0 = float((d - radius).min())
    hi0 = float((d + radius).max())
    pad = 1e-10 * max(1.0, abs(lo0), abs(hi0))
    lo = np.full(n, lo0 - pad)
    hi = np.full(n, hi0 + pad)
    idx = np.arange(n)

    for _ in range(120):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        done = width <= np.maximum(1e-15, 4e-16 * np.abs(mid))
        if done.all():
            break
        counts = _sturm_counts(d, e2, mid)
        above = counts > idx  # eigenvalue idx lies below mid
        hi = np.where(above & ~done, mid, hi)
        lo = np.where(~above & ~done, mid, lo)
    return 0.5 * (lo + hi)


def _sturm_counts(d: np.ndarray, e2: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # Number of eigenvalues strictly below each shift in xs = number of
    # negative pivots in the LDL^T factorization of T - x I.
    # A vanishing pivot is flipped to -pivmin BEFORE counting (and before it
    # divides the next pivot); counting first misclassifies exact hits, which
    # bisection midpoints do produce on symmetric spectra.
    pivmin = 1e-290
    q = d[0] - xs
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0.0).astype(np.int64)
    for i in range(1, d.shape[0]):
        q = (d[i] - xs) - e2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0.0
    return counts


def eigen_summary(chain: Chain) -> SpectralSummary:
    """Spectral summary of I - K; raises NotReversible for dense chains that
    fail detailed balance within 1e-10.

    The eigenvalue closest to 0 is snapped to exactly 0 when within 1e-9
    (irreducibility guarantees its existence and simplicity) and excluded
    from the spectral sum.  Chains are immutable, so each chain object solves
    once and keeps its summary.
    """
    return chain._spectrum


def _solve_summary(chain: Chain) -> SpectralSummary:
    if chain.is_birth_death:
        diag = 1.0 - chain.hold
        off2 = chain.birth[:-1] * chain.death[1:]
        lam = tridiagonal_eigenvalues(diag, off2)
    else:
        residual = detailed_balance_residual(chain)
        if residual > DETAILED_BALANCE_TOL:
            raise NotReversible(
                f"detailed balance residual {residual:.3e} exceeds {DETAILED_BALANCE_TOL}"
            )
        root = np.sqrt(chain.stationary)
        sym = (root[:, None] * chain.kernel) / root[None, :]
        sym = 0.5 * (sym + sym.T)
        theta = np.linalg.eigvalsh(sym)  # ascending eigenvalues of K
        lam = np.sort(1.0 - theta)

    zero_pos = int(np.argmin(np.abs(lam)))
    if abs(lam[zero_pos]) > ZERO_SNAP_TOL:
        raise NumericalFailure(
            f"no eigenvalue of I-K within {ZERO_SNAP_TOL} of 0 (closest {lam[zero_pos]:.3e})"
        )
    lam[zero_pos] = 0.0
    nonzero = np.delete(lam, zero_pos)
    nonzero.sort()
    summary = SpectralSummary(
        eigenvalues=nonzero,
        gap=float(nonzero[0]),
        spectral_sum=float(np.sum(1.0 / nonzero)),
        kernel_spectrum=np.sort(1.0 - lam)[::-1].copy(),
    )
    summary.eigenvalues.setflags(write=False)
    summary.kernel_spectrum.setflags(write=False)
    return summary


def beta_delta(summary: SpectralSummary, delta: float) -> float:
    """Second-largest absolute eigenvalue of the delta-lazy kernel.

    beta(delta) = max |delta + (1-delta) theta| over kernel eigenvalues
    theta with the single trivial eigenvalue 1 removed.
    """
    _check_delta(delta)
    theta = summary.kernel_spectrum[1:]  # drop the trivial eigenvalue
    return float(np.abs(delta + (1.0 - delta) * theta).max())
