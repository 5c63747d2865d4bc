"""Spectra of reversible chains and the lazy contraction factor.

For a reversible kernel K the similarity D^{1/2} K D^{-1/2} (D = diag(pi)) is
symmetric, so I - K has a real spectrum 0 = lambda_0 < lambda_1 <= ... <=
lambda_n <= 2.  ``eigen_summary`` returns the nonzero part together with the
spectral gap and the spectral sum s = sum(1/lambda_i).  A computed eigenvalue
carries the absolute rounding error of the largest, about 2.2e-16 lambda_n,
so a gap below 2.2e-10 lambda_n is refused (NumericalFailure) rather than
read at the rounding floor; ``birth_death.passage_time`` applies the same
rule to its restricted spectrum.

Two eigensolvers back the summary:

* birth-death form: the symmetrized I - K is tridiagonal; eigenvalues come
  from bisection on Sturm-sequence negative-pivot counts, vectorized across
  eigenvalue indices.  Bisection gives guaranteed containment and is run
  well past 1e-12 interval width (to ~1 ulp of each eigenvalue).  Every
  pass counts one ascending list of shifts and lets each index replay the
  halvings of one-level bisection that those counts decide: the count is
  monotone in the shift (Kahan 1966; Demmel, Dhillon and Ren, ETNA 1995),
  so a midpoint at or below a shift that counts at most k eigenvalues, or
  at or above one that counts more, takes the branch that shift decides.
  A list is the midpoints of the next few levels below every distinct
  bracket (multisection), or, once a large spectrum's brackets are
  separated, two points a few ulps either side of a Newton estimate of
  each eigenvalue.  Every eigenvalue keeps the bits of one-level
  bisection, and a pass whose counts decrease is refused.
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
# a spectrum is answered only while u * largest / smallest stays at or below
# this resolution
_UNIT_ROUNDOFF = 2.2e-16
_SPECTRUM_RESOLUTION = 1e-6


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
    Raises BadShape for mismatched lengths, a non-finite entry, a negative
    ``off_squared`` or a padded Gershgorin interval that leaves
    [-2**1022, 2**1022], where ``lo + hi`` could overflow.

    Bisection keeps one bracket per eigenvalue index, from the padded
    Gershgorin interval, and halves it at ``0.5 * (lo + hi)`` until its width
    is at most max(1e-15, 4e-16 |mid|) (~1 ulp), at most 120 times.  Every
    eigenvalue keeps the bits of the plain loop that counts every index each
    sweep with the pivmin-clamped Sturm recurrence, but the halvings run in
    passes of one rule.  A pass counts one ascending list of shifts, each
    distinct shift once; then each unfinished index k, with ``left`` the
    last shift counting at most k and ``right`` the next, replays the plain
    loop's halvings (its done test, its cap) while the midpoint lies at or
    below ``left`` or at or above ``right``.  The clamped count is monotone
    in the shift in IEEE arithmetic (Kahan 1966; Demmel, Dhillon and Ren,
    ETNA 3, 1995), so such a midpoint's own count would take the same
    branch; a pass whose counts decrease is refused with NumericalFailure,
    never read.

    A pass's list is one of two kinds.  Until every bracket is separated,
    indices halved equally often share their bracket when they share
    ``lo``; the list holds the 2**L - 1 midpoints of the next L levels below
    each distinct bracket (multisection; Lo, Philippe and Sameh, SISSC
    1987), each ``0.5 * (lo + hi)`` of the floats the plain loop halves, so
    the index replays at least L halvings.  L grows while the list stays
    within ``_PASS_SHIFTS`` shifts: the first pass of a solve takes 9
    levels, and once a large spectrum's brackets have separated a pass is
    one level.  Once at most per solve, as soon as every unfinished index
    has its own bracket, a pass would take one level (3 * brackets >
    ``_PASS_SHIFTS``), and every bracket is at most 1/32 of its gap to its
    neighbours', the list is instead x - delta and x + delta (delta =
    max(16 ulps, 1e-15)) around an estimate x of each eigenvalue from three
    Newton steps on log|det(T - xI)|: a good estimate lets its index skip to
    a few ulps.  The brackets then stay disjoint, one per index.
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
    # within 2**1022 in magnitude, lo + hi and d - x in the count stay finite
    if not -(2.0**1022) <= lo0 - pad <= hi0 + pad <= 2.0**1022:
        raise BadShape("the Gershgorin interval must lie within [-2**1022, 2**1022]")
    lo = np.full(n, lo0 - pad)
    hi = np.full(n, hi0 + pad)

    depth = np.zeros(n, dtype=np.int64)  # halvings made, index by index
    certify = True  # the certified pass runs at most once per solve
    while True:
        active = np.flatnonzero(_unfinished(lo, hi, 0.5 * (lo + hi)) & (depth < _MAX_HALVINGS))
        if active.size == 0:
            break
        # until the certified pass, every unfinished index was halved as
        # often as the others, so indices whose brackets share lo share the
        # bracket.  That pass runs once every bracket is disjoint from the
        # others, and they stay so.
        starts, first = np.unique(lo[active], return_index=True)
        if (
            certify
            and 3 * starts.size > _PASS_SHIFTS
            and starts.size == active.size
            and _isolated(lo, hi, active)
        ):
            certify = False
            a, b = lo[active], hi[active]
            x = _newton(d, e2, 0.5 * (a + b), a, b)
            delta = np.maximum(_CERTIFY_ULPS * np.spacing(np.abs(x)), _CERTIFY_FLOOR)
            # sorted: a delta wider than a bracket may pass a neighbour's
            shifts = np.sort(np.concatenate((x - delta, x + delta)))
        else:
            levels, room = 1, _MAX_HALVINGS - int(depth[active].max())
            while levels < room and (2 ** (levels + 1) - 1) * starts.size <= _PASS_SHIFTS:
                levels += 1
            shifts = _subtree(starts, hi[active][first], levels)
        _halve(d, e2, lo, hi, depth, active, shifts)
    return 0.5 * (lo + hi)


# Shifts one pass of tridiagonal_eigenvalues may count: it takes L levels
# below each of its brackets while brackets * (2**L - 1) stays within this.
_PASS_SHIFTS = 512
_MAX_HALVINGS = 120
# The certified pass waits until every unfinished bracket is at most
# 1/_ISOLATION of its gap to its neighbours': there the one eigenvalue it
# holds dominates sum 1/(x - lambda_j), so Newton from the midpoint
# converges to it rather than to a neighbour.
_ISOLATION = 32
# Newton steps from each bracket's midpoint.  Three reach the rounding
# floor on every spectrum the tests pin; an estimate that falls short only
# lets its index skip fewer halvings.
_NEWTON_STEPS = 3
# Half-width of the two certified pass's shifts around each Newton estimate:
# wider than the estimate's few ulps of error, so the two land either side
# of the eigenvalue, and at least the done test's absolute floor.
_CERTIFY_ULPS = 16
_CERTIFY_FLOOR = 1e-15


def _unfinished(lo: np.ndarray, hi: np.ndarray, mid: np.ndarray) -> np.ndarray:
    # the done test of the plain bisection loop, negated, bracket by bracket;
    # mid is 0.5 * (lo + hi)
    return hi - lo > np.maximum(1e-15, 4e-16 * np.abs(mid))


def _isolated(lo: np.ndarray, hi: np.ndarray, active: np.ndarray) -> bool:
    # every active bracket is at most 1/_ISOLATION of its gap to the brackets
    # of the indices either side of it
    below = np.concatenate(([-np.inf], hi[:-1]))[active]
    above = np.concatenate((lo[1:], [np.inf]))[active]
    gap = np.minimum(lo[active] - below, above - hi[active])
    return bool((_ISOLATION * (hi[active] - lo[active]) <= gap).all())


def _halve(d, e2, lo, hi, depth, active, shifts):
    # One pass of tridiagonal_eigenvalues, in place on lo, hi and depth:
    # count the ascending shifts, each distinct one once (repeats are
    # adjacent), and let every active index k replay the plain loop's
    # halvings, with its done test and the halving cap, while the midpoint
    # lies at or below ``left``, the last shift whose count is at most k, or
    # at or above ``right``, the next one.  The count being monotone, a
    # halving at mid <= left keeps the upper half and one at mid >= right
    # the lower, as the plain loop's count at mid would; counts that
    # decrease are refused.
    shifts = shifts[np.concatenate(([True], shifts[1:] != shifts[:-1]))]
    # calls of at most max(_PASS_SHIFTS, m) shifts: a multisection list is
    # one call and the certified pass's 2m shifts two, so the count's block,
    # and the memory it takes, stay as wide as a one-level pass's
    width = max(_PASS_SHIFTS, active.size)
    parts = [shifts[i : i + width] for i in range(0, shifts.size, width)]
    counts = np.concatenate([_negative_pivots(d, e2, part) for part in parts])
    if (counts[1:] < counts[:-1]).any():
        raise NumericalFailure("the Sturm count decreases across ascending shifts")
    bounds = np.concatenate(([-np.inf], shifts, [np.inf]))
    j = np.searchsorted(counts, active, side="right")
    left, right = bounds[j], bounds[j + 1]
    a, b, halvings = lo[active], hi[active], depth[active]
    go = np.ones(active.size, dtype=bool)
    # an index that stops never moves again, its bracket staying as it is;
    # count_nonzero costs a third of go.any() on few indices
    while np.count_nonzero(go):
        mid = 0.5 * (a + b)
        go = _unfinished(a, b, mid) & (halvings < _MAX_HALVINGS)
        upper, lower = (mid <= left) & go, (mid >= right) & go
        go = upper | lower
        np.copyto(a, mid, where=upper)
        np.copyto(b, mid, where=lower)
        halvings += go
    lo[active], hi[active], depth[active] = a, b, halvings


def _newton(d, e2, x, lo, hi):
    # _NEWTON_STEPS Newton steps on log|det(T - xI)| for each shift in x,
    # along the pivot recurrence: q_i = d_i - x - e2_{i-1} / q_{i-1} has
    # derivative q'_i = (e2_{i-1} / q_{i-1}) (q'_{i-1} / q_{i-1}) - 1, and
    # S = sum q'_i / q_i = sum_j 1 / (x - lambda_j) gives x <- x - 1 / S.  A
    # step that leaves [lo, hi], or meets a zero pivot, keeps the previous x.
    # Rows are taken a block at a time, as in _negative_pivots, so memory
    # stays O(_BLOCK_ROWS * len(x)).
    n, m = d.shape[0], x.shape[0]
    off = e2.tolist()
    pivots = np.empty((min(_BLOCK_ROWS, n), m))
    t, r = np.empty(m), np.empty(m)  # e2_{i-1} / q_{i-1}, and q'_i / q_i
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            for i0 in range(0, n, _BLOCK_ROWS):
                i1 = min(i0 + _BLOCK_ROWS, n)
                if i0:
                    q = pivots[-1].copy()  # the next block overwrites it
                np.subtract.outer(d[i0:i1], x, out=pivots[: i1 - i0])
                for i in range(i0, i1):
                    row = pivots[i - i0]
                    if i:
                        np.divide(off[i - 1], q, out=t)
                        row -= t
                        r *= t
                        r -= 1.0
                        r /= row
                        s += r
                    else:
                        np.divide(-1.0, row, out=r)
                        s = r.copy()
                    q = row
            step = x - 1.0 / s
            x = np.where((lo <= step) & (step <= hi), step, x)
    return x


def _subtree(starts, ends, levels):
    # The inner points of the next ``levels`` halvings below each bracket
    # [starts[k], ends[k]], ascending: a row of 2**levels + 1 points per
    # bracket, where a bracket k halvings down is [j s, (j + 1) s] with
    # s = 2**(levels - k), halved at the point between.  The brackets
    # ascend, so the rows do too.
    width = 2**levels
    points = np.empty((starts.size, width + 1))
    points[:, 0], points[:, -1] = starts, ends
    for k in range(levels):
        span = width >> k
        points[:, span // 2 :: span] = 0.5 * (points[:, :-1:span] + points[:, span::span])
    return points[:, 1:-1].ravel()


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
    # pass counts midpoints that no index reaches along with those its
    # indices halve at, and each keeps the count it would have alone.
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


def _check_resolved(eigenvalues: np.ndarray, error: type, what: str) -> None:
    """Raise ``error`` unless the ascending ``eigenvalues`` resolve their
    smallest: an eigenvalue carries the absolute rounding error of the
    largest, about u * largest with u = 2.2e-16, so the rule is
    u * largest / smallest <= 1e-6, and it refuses a smallest eigenvalue
    that is not positive."""
    smallest, largest = eigenvalues[0], eigenvalues[-1]
    if _UNIT_ROUNDOFF * largest > _SPECTRUM_RESOLUTION * smallest:
        raise error(
            f"{what} is not resolvable: smallest eigenvalue {smallest:.3g} "
            f"against rounding error {_UNIT_ROUNDOFF * largest:.3g} of the largest"
        )


def eigen_summary(chain: Chain) -> SpectralSummary:
    """Spectral summary of I - K; raises NotReversible for dense chains that
    fail detailed balance within 1e-10.

    The eigenvalue closest to 0 is snapped to exactly 0 when within 1e-9
    (irreducibility guarantees its existence and simplicity) and excluded
    from the spectral sum.  Raises NumericalFailure when the gap is not
    resolved, 2.2e-16 * lambda_n > 1e-6 * gap (a gap at the rounding floor,
    zero or negative), as on two blocks joined by a rate of 1e-20.  Chains
    are immutable, so each chain object solves once and keeps its summary.
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
    _check_resolved(nonzero, NumericalFailure, "the spectrum of I-K")
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
