"""Spectra of reversible chains and the lazy contraction factor.

For a reversible kernel K the similarity D^{1/2} K D^{-1/2} (D = diag(pi)) is
symmetric, so I - K has a real spectrum 0 = lambda_0 < lambda_1 <= ... <=
lambda_n <= 2.  ``eigen_summary`` returns the nonzero part together with the
spectral gap and the spectral sum s = sum(1/lambda_i).

Two eigensolvers back the summary:

* birth-death form: the symmetrized I - K is tridiagonal; eigenvalues come
  from bisection on Sturm-sequence negative-pivot counts, vectorized across
  eigenvalue indices.  Bisection gives guaranteed containment and is run
  well past 1e-12 interval width (to ~1 ulp of each eigenvalue).  It runs
  as multisection: one pass counts the midpoints of the next few levels
  below every distinct bracket in one call, at most ``_PASS_SHIFTS``
  shifts, and walks each index down them.  Each midpoint is
  ``0.5 * (lo + hi)`` of the floats that one-level bisection would halve,
  and a shift's count does not depend on the shifts counted beside it, so
  every eigenvalue keeps the bits of one count per level.
* dense form: LAPACK's symmetric eigensolver on sqrt(K * K^T), entrywise.
  For a reversible K, K(x,y) K(y,x) = K(x,y)**2 pi(x) / pi(y), so this is
  the similarity D^{1/2} K D^{-1/2} without pi: symmetric by construction,
  and as accurate where pi's small entries carry few correct digits.  Pi is
  read only by the detailed-balance test.
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
    Raises BadShape for mismatched lengths, a non-finite entry or a negative
    ``off_squared``.

    Bisection keeps one bracket per eigenvalue index, from the padded
    Gershgorin interval, and halves it at ``0.5 * (lo + hi)`` until its width
    is at most max(1e-15, 4e-16 |mid|) (~1 ulp), at most 120 times.  The
    halvings run in multi-level passes (multisection; Lo, Philippe and
    Sameh, SISSC 1987).  Every unfinished index has been halved as often as
    the others, so indices whose brackets share ``lo`` share the bracket,
    and each distinct bracket is one node.  A pass counts, in one
    ``_negative_pivots`` call, the 2**L - 1 midpoints of the next L levels
    below every node, then walks each unfinished index L levels down its
    node's subtree, with the done test before each level.  L grows while
    the pass's shifts stay within ``_PASS_SHIFTS``: the first pass of a
    solve takes 9 levels, and once a large spectrum's brackets have
    separated a pass is one level.  Every eigenvalue keeps the bits of the
    plain loop that counts every index each sweep with the pivmin-clamped
    Sturm recurrence: a subtree's midpoints are ``0.5 * (lo + hi)`` of the
    same floats that loop halves, and a shift's count does not depend on
    the shifts counted beside it.
    """
    d = np.asarray(diag, dtype=float)
    e2 = np.asarray(off_squared, dtype=float)
    n = d.shape[0]
    if e2.shape != (max(n - 1, 0),):
        raise BadShape("off_squared must have length len(diag) - 1")
    if not (np.isfinite(d).all() and np.isfinite(e2).all()):
        raise BadShape("diag and off_squared must be finite")
    if (e2 < 0.0).any():
        raise BadShape("off_squared must be nonnegative")
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

    depth = 0
    while depth < _MAX_HALVINGS:
        active = np.flatnonzero(~_finished(lo, hi))
        if active.size == 0:
            break
        # every unfinished index was halved `depth` times, so indices whose
        # brackets share lo share the bracket: one node per distinct lo
        starts, node = np.unique(lo[active], return_inverse=True)
        ends = np.empty_like(starts)
        ends[node] = hi[active]
        levels, room = 1, _MAX_HALVINGS - depth
        while levels < room and (2 ** (levels + 1) - 1) * starts.size <= _PASS_SHIFTS:
            levels += 1
        points, finished, counts = _subtree(d, e2, starts, ends, levels)
        # an index starts from its node's whole row [a, b] and halves it at
        # (a + b) // 2, staying at the first finished bracket it meets
        a = node * (2**levels + 1)
        b = a + 2**levels
        for _ in range(levels):
            mid = (a + b) >> 1
            go = ~finished[mid]
            upper = counts[mid] <= active  # the eigenvalue is not below mid
            a = np.where(go & upper, mid, a)
            b = np.where(go & ~upper, mid, b)
        lo[active] = points[a]
        hi[active] = points[b]
        depth += levels
    return 0.5 * (lo + hi)


# Shifts one pass of tridiagonal_eigenvalues may count: it takes L levels
# below each of its nodes while nodes * (2**L - 1) stays within this.
_PASS_SHIFTS = 512
_MAX_HALVINGS = 120


def _finished(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # the done test of the plain bisection loop, bracket by bracket
    return hi - lo <= np.maximum(1e-15, 4e-16 * np.abs(0.5 * (lo + hi)))


def _subtree(d, e2, starts, ends, levels):
    # The next ``levels`` halvings below each node [starts[k], ends[k]], as
    # one row of 2**levels + 1 points per node in ascending order: a bracket
    # k halvings down is [j s, (j + 1) s] with s = 2**(levels - k), halved
    # at the point between.  For each inner point, the done test of the
    # bracket it halves and the count at it, every node's counted in one
    # call; the rows come out flat.
    width = 2**levels
    points = np.empty((starts.size, width + 1))
    points[:, 0], points[:, -1] = starts, ends
    for k in range(levels):
        span = width >> k
        points[:, span // 2 :: span] = 0.5 * (points[:, :-1:span] + points[:, span::span])
    inner = np.arange(1, width)
    half = inner & -inner  # the point m halves [m - half, m + half]
    finished = np.zeros(points.shape, dtype=bool)
    finished[:, 1:-1] = _finished(points[:, inner - half], points[:, inner + half])
    # the rows ascend, and so do the nodes; near the end of a solve,
    # subtrees a few ulps wide repeat points, which are counted once (a
    # repeat that were not adjacent would only be counted twice)
    shifts = points[:, 1:-1].ravel()
    fresh = np.empty(shifts.size, dtype=bool)
    fresh[0] = True
    np.not_equal(shifts[1:], shifts[:-1], out=fresh[1:])
    counts = np.zeros(points.shape, dtype=np.int64)
    distinct = _negative_pivots(d, e2, shifts[fresh])
    counts[:, 1:-1] = distinct[np.cumsum(fresh) - 1].reshape(-1, width - 1)
    return points.ravel(), finished.ravel(), counts.ravel()


_PIVMIN = 1e-290
_BLOCK_ROWS = 64


def _negative_pivots(d: np.ndarray, e2: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # The counts of _sturm_counts, with two ufuncs per pivot row.  Pivots are
    # formed a block of rows at a time, unclamped, and their signs counted
    # once per block.  Up to its first pivot below pivmin in magnitude a
    # shift's unclamped sequence runs the same IEEE operations as the clamped
    # one, so only the shifts that meet such a pivot (a zero pivot gives inf
    # or nan after it) are recounted by _sturm_counts, from the first block
    # that holds one: its carried pivots and the counts before it are exact.
    # A column holds such a pivot exactly when its counts of q < pivmin and
    # of q <= -pivmin differ; otherwise either count is its count of q < 0.
    # row[0] carries the previous block's last pivots; memory stays
    # O(_BLOCK_ROWS * len(xs)).  Each shift is one column, and every
    # operation, the recount included, acts on its column alone, so a
    # shift's count does not depend on the shifts beside it: a multisection
    # pass counts midpoints that no index reaches along with those it walks
    # through, and each keeps the count it would have alone.
    n, m = d.shape[0], xs.shape[0]
    block = np.empty((min(_BLOCK_ROWS, n) + 1, m))
    row = list(block)
    quotient = np.empty(m)
    sign = np.empty((block.shape[0] - 1, m), dtype=bool)
    counts = np.zeros(m, dtype=np.int64)
    tiny = np.zeros(m, dtype=bool)
    restart = None  # (first row, carried pivots, counts before it)
    off = e2.tolist()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i0 in range(0, n, _BLOCK_ROWS):
            i1 = min(i0 + _BLOCK_ROWS, n)
            if i0:
                row[0][...] = row[_BLOCK_ROWS]
            pivots = block[1 : i1 - i0 + 1]
            np.subtract.outer(d[i0:i1], xs, out=pivots)
            for i in range(max(i0, 1), i1):
                k = i - i0 + 1
                np.divide(off[i - 1], row[k - 1], out=quotient)
                np.subtract(row[k], quotient, out=row[k])
            # per-column sums of at most _BLOCK_ROWS flags fit in uint8
            flags = sign[: i1 - i0]
            np.less(pivots, _PIVMIN, out=flags)
            below = flags.view(np.uint8).sum(axis=0, dtype=np.uint8)
            np.less_equal(pivots, -_PIVMIN, out=flags)
            negative = flags.view(np.uint8).sum(axis=0, dtype=np.uint8)
            tiny |= below != negative
            if restart is None and tiny.any():
                restart = (i0, row[0].copy() if i0 else None, counts.copy())
            counts += negative
    if restart is not None:
        i0, carried, before = restart
        cols = np.flatnonzero(tiny)
        if carried is None:
            counts[cols] = _sturm_counts(d, e2, xs[cols])
        else:
            counts[cols] = before[cols] + _sturm_counts(d[i0:], e2[i0 - 1 :], xs[cols], carried[cols])
    return counts


def _sturm_counts(d: np.ndarray, e2: np.ndarray, xs: np.ndarray, carried=None) -> np.ndarray:
    # Number of eigenvalues strictly below each shift in xs = number of
    # negative pivots in the LDL^T factorization of T - x I.
    # A vanishing pivot is flipped to -pivmin BEFORE counting (and before it
    # divides the next pivot); counting first misclassifies exact hits, which
    # bisection midpoints do produce on symmetric spectra.  With ``carried``,
    # d holds the trailing rows of a longer matrix and the count covers those
    # rows alone: carried is each shift's pivot of the row before them, and
    # e2 is one entry longer, leading with that row's coupling.
    pivmin = _PIVMIN
    q = d[0] - xs
    if carried is not None:
        q = q - e2[0] / carried
        e2 = e2[1:]
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
        # ascending eigenvalues of K, from sqrt(K * K^T) (module docstring)
        theta = np.linalg.eigvalsh(np.sqrt(chain.kernel * chain.kernel.T))
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
    delta = _check_delta(delta)
    theta = summary.kernel_spectrum[1:]  # drop the trivial eigenvalue
    return float(np.abs(delta + (1.0 - delta) * theta).max())
