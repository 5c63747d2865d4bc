"""Independent reference implementations for pinning expected values.

Everything here is deliberately naive: dense matrices, library eigensolvers,
and the matrix exponential.  Nothing is shared with the package internals,
so agreement is meaningful.  Some entries keep an algorithm the package
replaced, to pin its successor to the old results: ``sturm_bisection``,
``dbar_by_rows``, ``per_probe_brackets``, which walks the old search order
over the package's own evolution, and the per-time Poisson sums
(``uniformized_by_poisson_sums``, ``pure_birth_tail_by_poisson_sum`` and
``poisson_power_by_recurrence``), which form their own weights.
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


class _PoissonSum:
    """The package's original per-time Poisson sum, kept as the bit reference
    for ``chain._poisson_weights`` and the pass that reads it.  Weights
    w_0 = e^{-t}, w_i = w_{i-1} t / i; past t = 700, e^{-t} enters as k =
    2**j equal factors e^{-t/k}, and terms are collected once every factor
    is in."""

    def __init__(self, time: float, rows: np.ndarray, tol: float):
        self.time = time
        parts = 1
        while time / parts > 700.0:
            parts *= 2
        self.factor = math.exp(-time / parts)
        self.pending = parts - 1
        self.weight = self.factor
        self.mass = 0.0 if self.pending else self.weight
        self.acc = self.mass * rows
        self.stop = 1.0 - tol
        self.cap = int(time + 40.0 * math.sqrt(time + 1.0) + 120.0)
        self.more = self.wants(0)

    def wants(self, i: int) -> bool:
        return self.mass < self.stop and i < self.cap

    def add(self, i: int, rows: np.ndarray) -> bool:
        self.weight *= self.time / i
        if self.pending and self.weight > 1.0:
            self.weight *= self.factor
            self.pending -= 1
        if not self.pending:
            self.acc += self.weight * rows
            self.mass += self.weight
        self.more = self.wants(i)
        return self.more


def uniformized_by_poisson_sums(step, rows, times, tol, until=None) -> list:
    """The package's original multi-time uniformization pass, one
    ``_PoissonSum`` per time; ``chain._uniformized`` must match it bit for
    bit, early stop through ``until`` included."""
    sums = [_PoissonSum(time, rows, tol) for time in times]
    active = [s for s in sums if s.more]
    finished = []
    i = 0
    for poisson in sums:
        while poisson.more:
            i += 1
            rows = step(rows)
            active = [s for s in active if s.add(i, rows)]
        finished.append(poisson.acc / poisson.mass)
        if until is not None and until(finished[-1]):
            break
    return finished


def pure_birth_tail_by_poisson_sum(rates, time, tol) -> float:
    """The package's original ``chain._pure_birth_tail`` loop: the transient
    mass of the pure-birth chain uniformized at its largest rate, summed with
    the Poisson weights and not divided by their mass."""
    rate = float(rates.max())
    move = rates / rate
    mass = np.zeros(rates.shape[0])
    mass[0] = 1.0
    poisson = _PoissonSum(rate * time, mass, tol)
    i = 0
    while poisson.more:
        i += 1
        moved = mass * move
        mass = mass - moved
        mass[1:] += moved[:-1]
        poisson.add(i, mass)
    return float(poisson.acc.sum())


def poisson_power_by_recurrence(kernel, h) -> np.ndarray:
    """The package's original ``distances._poisson_power``: sum_i Poi(h)(i)
    K**i for h <= 1, stopped after the first weight below 1e-20 of the
    mass."""
    weight = math.exp(-h)
    acc = np.diag(np.full(kernel.shape[0], weight))
    mass, power, i = weight, None, 0
    while weight >= 1e-20 * mass:
        i += 1
        power = kernel if power is None else power @ kernel
        weight *= h / i
        acc += weight * power
        mass += weight
    return acc
