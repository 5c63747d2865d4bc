"""Independent reference implementations for pinning expected values.

Everything here is deliberately naive: dense matrices, library eigensolvers,
and the matrix exponential.  Nothing is shared with the package internals,
so agreement is meaningful.  Three entries keep an algorithm the package
replaced, to pin its successor to the old results: ``sturm_bisection``,
``dbar_by_rows``, and ``per_probe_brackets``, which walks the old search
order over the package's own evolution.
"""
import math

import numpy as np
from scipy.linalg import expm

from cutofflab import NoConvergence
from cutofflab.chain import SEARCH_CAP, _uniformized


def bd_kernel(p, q, r) -> np.ndarray:
    p, q, r = (np.asarray(v, dtype=float) for v in (p, q, r))
    n = p.size
    k = np.zeros((n, n))
    k[np.arange(n), np.arange(n)] = r
    k[np.arange(n - 1), np.arange(1, n)] = p[:-1]
    k[np.arange(1, n), np.arange(n - 1)] = q[1:]
    return k


def stationary_by_eig(kernel: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(kernel.T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    return pi / pi.sum()


def rows_at(kernel: np.ndarray, time, mode: str, delta: float | None = None) -> np.ndarray:
    """Transition rows from every start at the given time, by brute force."""
    n = kernel.shape[0]
    if mode == "continuous":
        return expm(-float(time) * (np.eye(n) - kernel))
    k = kernel if mode == "discrete" else delta * np.eye(n) + (1.0 - delta) * kernel
    return np.linalg.matrix_power(k, int(time))


def tv_worst(rows: np.ndarray, pi: np.ndarray) -> float:
    return float(0.5 * np.abs(rows - pi).sum(axis=1).max())


def sep_worst(rows: np.ndarray, pi: np.ndarray) -> float:
    return float(min(1.0, max(0.0, 1.0 - (rows / pi).min())))


def dbar_worst(rows: np.ndarray) -> float:
    n = rows.shape[0]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, 0.5 * float(np.abs(rows[i] - rows[j]).sum()))
    return min(best, 1.0)


def dbar_by_rows(rows: np.ndarray) -> float:
    """dbar over the rows by the package's original reduction: one row
    at a time against every later row, one numpy sum per pair.  The
    package's blocked reduction must reproduce these bits exactly."""
    best = 0.0
    for i in range(rows.shape[0] - 1):
        gap = 0.5 * np.abs(rows[i + 1 :] - rows[i]).sum(axis=1).max()
        best = max(best, float(gap))
    return min(best, 1.0)


def metric_at(kernel, pi, time, mode, metric, delta=None) -> float:
    rows = rows_at(kernel, time, mode, delta)
    if metric == "tv":
        return tv_worst(rows, pi)
    if metric == "sep":
        return sep_worst(rows, pi)
    return dbar_worst(rows)


def class_ratio_floor(kernel: np.ndarray, pi: np.ndarray, start, time: int) -> float:
    """For a start vector on a bipartite birth-death chain, by a dense
    matrix power: the min of P^time(y) / pi(y) - 1 over the parity class
    that carries >= 1/2 of the start mass at ``time``, and of
    1 - P^time(y) / pi(y) over the other class.  It is >= 0 exactly when the
    tv from ``start`` equals its class-mass floor (1/2 from a point mass)."""
    start = np.asarray(start, dtype=float)
    row = start @ np.linalg.matrix_power(kernel, int(time))
    parity = np.arange(kernel.shape[0]) % 2
    mass = np.bincount(parity, weights=start, minlength=2)
    heavy = mass[(parity - int(time)) % 2] >= 0.5
    ratio = row / pi - 1.0
    return float(np.where(heavy, ratio, -ratio).min())


def hypoexp_tail(rates, t: float) -> float:
    """P(sum of independent exponentials > t) via the phase-type generator:
    an upper-bidiagonal matrix walking through the stages."""
    rates = np.asarray(rates, dtype=float)
    n = rates.size
    gen = np.zeros((n, n))
    gen[np.arange(n), np.arange(n)] = -rates
    gen[np.arange(n - 1), np.arange(1, n)] = rates[:-1]
    return float(expm(gen * float(t))[0].sum())


def ehrenfest_sst_tail(n: int, t: float) -> float:
    """P(S > t) for Ehrenfest n, whose rates are 2j/n for j = 1..n, in
    closed form.  By Renyi's representation the sum of independent Exp(2j/n)
    has the law of (n/2) times the maximum of n iid Exp(1), so
    P(S > t) = 1 - (1 - exp(-2t/n))**n."""
    return -math.expm1(n * math.log1p(-math.exp(-2.0 * t / n)))


def mean_hitting_time(kernel: np.ndarray, target: int) -> float:
    """Expected steps from state 0 to the target, by the fundamental-matrix
    linear system (I - Q) h = 1 on the non-target states."""
    n = kernel.shape[0]
    keep = [i for i in range(n) if i != target]
    q = kernel[np.ix_(keep, keep)]
    h = np.linalg.solve(np.eye(n - 1) - q, np.ones(n - 1))
    return float(h[keep.index(0)])


def random_reversible_dense(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random walk on a weighted complete graph with loops: reversible with
    respect to the (normalized) weighted degrees."""
    w = rng.uniform(0.2, 1.0, (n, n))
    w = w + w.T
    return w / w.sum(axis=1, keepdims=True)


def sturm_bisection(diag, off_squared) -> np.ndarray:
    """All eigenvalues (ascending) of a symmetric tridiagonal matrix, by the
    package's original bisection: every index's bracket halved in every
    sweep, each shift counted by a clamped row-by-row Sturm recurrence.  The
    package's faster solver must reproduce these bits exactly."""
    d = np.asarray(diag, dtype=float)
    e2 = np.asarray(off_squared, dtype=float)
    n = d.shape[0]
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


def per_probe_brackets(ev, targets, found=None, cap=SEARCH_CAP) -> dict:
    """Continuous mixing brackets {(metric, eps): (lo, hi)}, written to
    ``found`` and returned, by the package's original search walk on the
    evaluator ``ev``'s start rows: one probe per point, each advanced from
    its anchor by its own uniformization (or one product with E(h) where
    ``ev.dense_probes`` holds), top down along every bisection.  Raises
    NoConvergence as the package does when a target is still above its eps
    at ``cap``.  The package's one pass per anchor must give the same
    brackets."""
    inc_tol = ev.tol / 128.0
    found = {} if found is None else found

    def point(t, rows, group):
        return t, rows, {m: ev._metric(rows, m) for m in {m for m, _ in group}}

    def advance(anchor, t, group):
        h = t - anchor[0]
        if ev.dense_probes:
            return point(t, anchor[1] @ ev.semigroup(h), group)
        return point(t, _uniformized(ev.base.apply, anchor[1], (h,), inc_tol)[0], group)

    lo = point(0.0, ev.starts, targets)
    found.update((tg, (0.0, 0.0)) for tg in targets if lo[2][tg[0]] <= tg[1])
    waiting = [tg for tg in targets if lo[2][tg[0]] > tg[1]]
    while waiting:
        if lo[0] == cap:
            eps = max(e for _, e in waiting)
            raise NoConvergence(f"distance stays above {eps} through t = {cap}")
        hi = advance(lo, min(2.0 * lo[0], float(cap)) if lo[0] else 1.0, waiting)
        crossed = [tg for tg in waiting if hi[2][tg[0]] <= tg[1]]
        waiting = [tg for tg in waiting if hi[2][tg[0]] > tg[1]]
        stack = [(lo, hi[0], crossed)] if crossed else []
        while stack:
            anchor, hi_t, group = stack.pop()
            if hi_t - anchor[0] <= max(1e-6, 1e-4 * hi_t):
                found.update((tg, (anchor[0], hi_t)) for tg in group)
                continue
            probe = advance(anchor, 0.5 * (anchor[0] + hi_t), group)
            above = [tg for tg in group if probe[2][tg[0]] > tg[1]]
            below = [tg for tg in group if probe[2][tg[0]] <= tg[1]]
            if above:
                stack.append((probe, hi_t, above))
            if below:
                stack.append((anchor, probe[0], below))
        lo = hi
    return found
