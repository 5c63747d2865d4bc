"""Distances to stationarity and mixing times.

Metrics
-------
* ``tv``   : worst-case (or fixed-start) total variation ``max_x ||P^t(x,.) - pi||``
* ``sep``  : separation ``max_x max_y (1 - P^t(x,y)/pi(y))``
* ``dbar`` : pairwise total variation ``max_{x,x'} ||P^t(x,.) - P^t(x',.)||``

Time modes: ``discrete`` (the base kernel), ``lazy`` (the delta-lazy kernel,
integer times), ``continuous`` (the semigroup, real times, truncation
tolerance ``tol``).

Worst-case starts on birth-death chains default to the two endpoint states.
That is a shortcut, not a guarantee.  It is exact where the worst start is
proved to sit at an endpoint: separation in continuous time and in lazy
time with delta >= 1/2, by the corner identity.  Elsewhere it can
undershoot, and it does on the built-in ``random_bd`` family: seed 54,
n = 29, 1/2-lazy tv at t = 1 reads 0.92567 from the endpoints against
0.93770 over all starts, and seed 3, n = 8 has 1/2-lazy T(0.9) = 0 from the
endpoints against 1.  The ``exhaustive`` flag restores full maximization.

``mixing_time`` searches for the smallest time with distance <= eps, which
is valid because all three metrics are nonincreasing in time.  The searches
use the semigroup property:

* Continuous searches gallop (1, 2, 4, ...) and then bisect.  Every probe
  advances from the last time whose distance was still above eps, at an
  increment tolerance of tol/128.
* Discrete and lazy searches take their bracket from the values the
  evaluator already holds.  A discrete value depends on the step alone, so
  the lower end is the largest held step whose distance is above eps (step
  0 is probed when none is), and the upper end is the smallest held step
  above it.  With no upper end held, the search gallops from the lower end
  (lo+1, lo+2, lo+4, ...); then it bisects.  Wherever the float distance is
  nonincreasing at eps, every probe order finds the same minimal step.
  Probes evolve rows with ``Chain.apply`` from kept rows, which performs
  the same float operations as evolving from time 0.  Probes of at least
  256 steps on chains of at most 300 states take a dense matrix power
  instead, which depends only on the step and the chain.

One evaluator per clock serves every metric, level and fixed time, and no
rows are evolved twice on it.  Its ``search`` takes (metric, eps) targets
and writes each bracket to ``found``; ``mixing_time``, ``mixing_bracket``,
``family_scan`` and ``verify_bounds`` all read their answers there.  A
target that cannot converge is left out of ``found``, and so is every
smaller eps of its metric; ``search`` raises the first such NoConvergence
after every other target has been searched.

* Continuous targets share one probe tree.  The gallop's rungs do not
  depend on the target, and a target's bisection depends only on the two
  rungs around its crossing.  So all targets walk one gallop, and the
  targets between the same two rungs walk one bisection tree depth first,
  each node probed once and reduced to every metric its targets need.
  Every probe keeps the anchor and increment of a fresh search, so every
  bracket is bit-identical to a fresh one.
* Discrete targets run one metric at a time, each metric's levels in
  descending eps.  Each level is bracketed by whatever earlier levels, other
  metrics and fixed times left on the evaluator.  Its banded probes continue
  from the evaluator's one store of banded rows, keyed by step: every banded
  step evaluated and a ladder of O(log T) steps (see ``_Evaluator``).
  Matrix-power rows are not kept.
* Fixed times reduce one evolution: the continuous clock uniformizes all of
  them in one pass over one power sequence (``chain._uniformized``), the
  others step through them in ascending order.  Every metric at one time
  reduces the same rows.

Searches give up at 10**7 time units (NoConvergence).  In discrete time a
periodic chain never mixes.  Each start row mu of the start set (a given
start vector, or one point mass per start state) puts masses mu(C_i) on the
d cyclic classes, and those masses only rotate.  So tv stays at or above
the largest 1/2 sum_i |mu(C_i) - 1/d| over the rows, sep at or above 1 - d
min mu(C_i) over rows and classes, and dbar at or above the largest gap max
mu(C_i) - min mu(C_i) across the rows on one class.  From point masses the
floors are exact: 1 - 1/d, 1, and 1 once the starts meet two cyclic classes
(0 otherwise).  The tv floor is that sum in floating point, so for d other
than a power of 2 it can miss the rounded 1 - 1/d by a few ulps.  An eps
strictly below the floor raises NoConvergence at once.  At or above the tv
floor the search decides "distance <= eps" exactly.  With m_C(t) the start
mass rotated onto class C, tv = floor + excess, where each class adds sum_C
(pi - P^t)^+ when m_C(t) >= 1/d and sum_C (P^t - pi)^+ otherwise.  The
search compares that excess, computed directly, with eps - floor.  So eps
equal to the floor is met at the first time P^t >= pi on every heavy class
and P^t <= pi on every light one, not at a rounding crossing of the float
distance.  From a point mass this is the first time P^t >= pi on the
occupied class.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import (
    SEARCH_CAP,
    Chain,
    _as_steps,
    _check_cap,
    _check_delta,
    _check_eps,
    _check_separation,
    _check_time,
    _check_tol,
    _uniformized,
    as_probability_vector,
)
from .errors import BadDelta, BadShape, LengthMismatch, NoConvergence

# Dense-power probing pays off for repeated large-m probes on small chains.
_POW_MIN_STEPS = 256
_POW_MAX_STATES = 300


def total_variation(a, b) -> float:
    """Total variation distance ``0.5 * sum |a - b|`` between two
    distributions of equal length."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatch(f"cannot compare shapes {x.shape} and {y.shape}")
    return 0.5 * float(np.abs(x - y).sum())


@dataclass(frozen=True, eq=False)
class DistanceQuery:
    """What to measure: metric, time parametrization, and start convention.

    ``start=None`` means worst case.  ``delta`` is required (in (0,1)) for
    lazy mode and must be omitted otherwise.  ``exhaustive`` forces full
    start maximization on birth-death chains.
    """

    time_mode: str
    metric: str
    delta: float | None = None
    start: object | None = None
    exhaustive: bool = False

    def __post_init__(self):
        if self.time_mode not in ("discrete", "lazy", "continuous"):
            raise BadShape(f"unknown time mode {self.time_mode!r}")
        if self.metric not in ("tv", "sep", "dbar"):
            raise BadShape(f"unknown metric {self.metric!r}")
        if self.time_mode == "lazy":
            _check_delta(self.delta)
        elif self.delta is not None:
            raise BadDelta("delta only applies to lazy mode")
        if self.start is not None and self.metric == "dbar":
            raise BadShape("dbar is a pairwise metric; only worst_case applies")


class _Evaluator:
    """One clock's start set, evolved once for every metric, search and fixed
    time.

    The query fixes the clock, the laziness and the start set; its metric is
    not read here, since every call names its metric.  The start set is one
    frozen array, ``starts``, with one row per start distribution: the given
    start vector, or one-hot rows for the endpoint pair or for every state.
    Every route evolves those rows (uniformization, banded steps from
    ``_kept``, which holds them at step 0, and ``starts @ K**m``), and the
    period floors read their class masses.  Every evaluation goes through
    ``evaluate``, which reduces every requested metric at several times from
    one evolution (one uniformization pass on the continuous clock, ascending
    steps on the others) and caches the values per (time, metric).  ``search``
    brackets mixing times at (metric, eps) targets from those values and keeps
    the brackets in ``found``, keyed by target.

    Discrete and lazy steps of at least 256 on chains of at most 300 states
    take a dense matrix power, and those rows are not kept.  Every other
    step is banded, and banded rows at step t are the same bits however they
    were reached.  So one store, ``_kept``, maps steps to banded rows: the
    rows of every banded step evaluated, and the rows at every step an
    evolution passes that is a multiple of 2**(floor(log2 t) - 2), four per
    octave (1..8, 10, 12, 14, 16, 20, ...).  A banded request reads its step
    there or continues ``Chain.apply`` from the largest kept step below it;
    once an evolution has passed the request, that re-evolves less than a
    quarter of its steps.
    """

    def __init__(self, chain: Chain, query: DistanceQuery, tol: float):
        _check_tol(tol)
        self.base = chain
        self.query = query
        self.tol = tol
        self.pi = chain.stationary
        self.continuous = query.time_mode == "continuous"
        if query.time_mode == "lazy":
            self.eff = chain.lazy(query.delta)
        else:
            self.eff = chain
        if query.start is not None:
            starts = as_probability_vector(query.start, chain.num_states)[None, :]
        else:
            if chain.is_birth_death and not query.exhaustive:
                states = [0, chain.top_state]
            else:
                states = range(chain.num_states)
            starts = np.zeros((len(states), chain.num_states))
            starts[np.arange(len(states)), states] = 1.0
        starts.flags.writeable = False
        self.starts = starts
        self._cache: dict[tuple[float, str], float] = {}
        self._kept: dict[int, np.ndarray] = {0: starts}
        self.found: dict[tuple[str, float], tuple] = {}

    def value(self, time, metric: str) -> float:
        time = self._time(time)
        self.evaluate((time,), (metric,))
        return self._cache[(float(time), metric)]

    def search(self, targets) -> None:
        """Mixing brackets (lo, hi) at (metric, eps) targets, written to
        ``found``; the discrete modes give (m, m) with m exact.

        A target that cannot converge raises NoConvergence, and so would
        every smaller eps of its metric; the first such error is raised
        after every other target has been searched.
        """
        targets = list(dict.fromkeys((metric, _check_eps(eps)) for metric, eps in targets))
        if any(metric == "sep" for metric, _ in targets):
            _check_separation(self.pi)
        if self.continuous:
            return _continuous_brackets(self, targets)
        error = None
        for metric in dict.fromkeys(m for m, _ in targets):
            try:
                for eps in sorted({e for m, e in targets if m == metric}, reverse=True):
                    steps = _search_discrete(self, eps, metric)
                    self.found[(metric, eps)] = (steps, steps)
            except NoConvergence as exc:
                error = error or exc
        if error is not None:
            raise error

    def evaluate(self, times, metrics) -> None:
        """Reduce every metric at every time, evolving the start set once:
        one multi-time uniformization pass, or ascending banded steps."""
        if "sep" in metrics:
            _check_separation(self.pi)
        times = sorted({self._time(t) for t in times})
        times = [t for t in times if any((float(t), m) not in self._cache for m in metrics)]
        if not times:
            return
        if self.continuous:
            evolved = _uniformized(self.base, self.starts, tuple(times), self.tol)
        else:
            evolved = map(self._rows, times)  # each continues from the one before
        for time, rows in zip(times, evolved):
            for metric in metrics:
                self._cache[(float(time), metric)] = self._metric(rows, metric, time)

    def _time(self, time):
        return _check_time(time) if self.continuous else _as_steps(time)

    def _rows(self, steps: int) -> np.ndarray:
        _check_cap(steps)
        if steps >= _POW_MIN_STEPS and self.eff.num_states <= _POW_MAX_STATES:
            # a one-hot row times the power is that power's row, bit for bit
            return self.starts @ np.linalg.matrix_power(self.eff.dense_kernel, steps)
        # every kept step at or below a banded step is banded itself
        done = max(k for k in self._kept if k <= steps)
        rows = self._kept[done]
        while done < steps:
            rows = self.eff.apply(rows)
            done += 1
            if done % (1 << max(done.bit_length() - 3, 0)) == 0:
                self._kept[done] = rows
        self._kept[steps] = rows
        return rows

    def period_floor(self, metric: str) -> float:
        """Lower bound on every discrete-time distance of a periodic chain,
        from the start set's class masses; 0 where none applies."""
        period = self.base.period
        if self.query.time_mode != "discrete" or period == 1:
            return 0.0
        mass = self.class_mass
        if metric == "tv":
            return float(0.5 * np.abs(mass - 1.0 / period).sum(axis=1).max())
        if metric == "sep":
            return float(1.0 - period * mass.min())
        # two starts differ in tv by at least their mass gap on one class
        return float(np.ptp(mass, axis=0).max())

    @cached_property
    def class_mass(self) -> np.ndarray:
        """Each start row's mass on each cyclic class.  The masses rotate
        with t, class c's to class c + t mod d, and never even out."""
        chain = self.base
        return np.stack([
            np.bincount(chain._classes, weights=row, minlength=chain.period)
            for row in self.starts
        ])

    def _metric(self, rows: np.ndarray, metric: str, time=None) -> float:
        if metric == "tv":
            return float(0.5 * np.abs(rows - self.pi).sum(axis=1).max())
        if metric == "sep":
            worst = 1.0 - (rows / self.pi).min()
            return float(min(max(worst, 0.0), 1.0))
        if metric == "excess":
            # tv minus its period floor: a cyclic class C whose rotated start
            # mass is >= 1/d adds sum_C (pi - P^t)^+, any other adds
            # sum_C (P^t - pi)^+
            period = self.base.period
            heavy = self.class_mass[:, (self.base._classes - time) % period] >= 1.0 / period
            excess = np.where(
                heavy, np.clip(self.pi - rows, 0.0, None), np.clip(rows - self.pi, 0.0, None)
            )
            return float(excess.sum(axis=1).max())
        best = 0.0
        for i in range(rows.shape[0] - 1):
            gap = 0.5 * np.abs(rows[i + 1 :] - rows[i]).sum(axis=1).max()
            best = max(best, float(gap))
        return min(best, 1.0)


def distance(chain: Chain, query: DistanceQuery, time, tol: float = 1e-10) -> float:
    """Distance to stationarity at one time point.

    Continuous mode accepts real ``time >= 0`` and obeys the uniformization
    tolerance ``tol``; the discrete modes require integer times.
    """
    return _Evaluator(chain, query, tol).value(time, query.metric)


def mixing_time(chain: Chain, eps: float, query: DistanceQuery, tol: float = 1e-10):
    """Smallest time with distance <= eps.

    Discrete modes return the exact minimal integer.  Continuous mode
    bisects to a bracket of width <= max(1e-6, 1e-4 * t) and returns the
    bracket midpoint.  Raises NoConvergence if the distance is still above
    eps at 10**7, or at once when a periodic chain's distance floor lies
    above eps.
    """
    ev = _Evaluator(chain, query, tol)
    ev.search([(query.metric, eps)])
    lo, hi = ev.found[(query.metric, eps)]
    if query.time_mode == "continuous":
        return 0.5 * (lo + hi)
    return hi


def mixing_bracket(
    chain: Chain, eps: float, query: DistanceQuery, tol: float = 1e-10
) -> tuple[float, float]:
    """(lo, hi) enclosing the exact mixing time; equal endpoints in the
    discrete modes.  Inequality checks against a computed mixing time should
    compare with the safe end of this bracket, not the midpoint."""
    ev = _Evaluator(chain, query, tol)
    ev.search([(query.metric, eps)])
    lo, hi = ev.found[(query.metric, eps)]
    return float(lo), float(hi)


def _search_discrete(ev: _Evaluator, eps: float, metric: str) -> int:
    floor = ev.period_floor(metric)
    if eps < floor:
        raise NoConvergence(
            f"the chain has period {ev.base.period}; its {metric} "
            f"distance stays at or above {floor:g} > {eps}"
        )
    if floor and metric == "tv":
        # tv = floor + excess exactly, and the excess carries no cancellation
        # against the floor, so eps == floor is decided by its sign
        probe_metric, threshold = "excess", eps - floor
    else:
        probe_metric, threshold = metric, eps

    def mixed(t) -> bool:
        return ev.value(t, probe_metric) <= threshold

    # a discrete value depends on the step alone, so every value the
    # evaluator holds brackets the crossing as well as a probe would
    known = {int(t): v for (t, m), v in ev._cache.items() if m == probe_metric}
    lo = max((t for t, v in known.items() if v > threshold), default=None)
    if lo is None:
        if mixed(0):
            return 0
        lo = 0
    hi = min((t for t in known if t > lo), default=None)
    base, stride = lo, 1
    while hi is None:
        probe = min(base + stride, SEARCH_CAP)
        if mixed(probe):
            hi = probe
        elif probe == SEARCH_CAP:
            raise NoConvergence(
                f"distance stays above {eps} through {SEARCH_CAP} steps"
            )
        else:
            lo, stride = probe, 2 * stride
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mixed(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _continuous_brackets(ev: _Evaluator, targets) -> None:
    # The semigroup property lets every probe advance from the last time at
    # which the distance was still above eps, instead of integrating from 0.
    # Increments run at tol/128, so the composed truncation error over the
    # whole search stays below tol (well under 128 committed increments).
    # Points are (time, rows, {metric: value}).  One gallop (0, 1, 2, 4, ...)
    # serves every target; a target's interval is bounded by the first rung
    # at or below its eps.  Its bisection tree depends only on that interval,
    # so the targets of one interval walk one tree depth first, each node
    # probed once for all of them; the walk holds the current rung and one
    # anchor per level of depth.
    inc_tol = ev.tol / 128.0

    def point(t: float, rows, group):
        return t, rows, {m: ev._metric(rows, m) for m in {m for m, _ in group}}

    def advance(anchor, t: float, group):
        return point(t, _uniformized(ev.base, anchor[1], (t - anchor[0],), inc_tol)[0], group)

    lo = point(0.0, ev.starts, targets)
    ev.found.update((tg, (0.0, 0.0)) for tg in targets if lo[2][tg[0]] <= tg[1])
    waiting = [tg for tg in targets if lo[2][tg[0]] > tg[1]]
    while waiting:
        if lo[0] == SEARCH_CAP:
            eps = max(e for _, e in waiting)
            raise NoConvergence(f"distance stays above {eps} through t = {SEARCH_CAP}")
        hi = advance(lo, min(2.0 * lo[0], float(SEARCH_CAP)) if lo[0] else 1.0, waiting)
        crossed = [tg for tg in waiting if hi[2][tg[0]] <= tg[1]]
        waiting = [tg for tg in waiting if hi[2][tg[0]] > tg[1]]
        stack = [(lo, hi[0], crossed)] if crossed else []
        while stack:
            anchor, hi_t, group = stack.pop()
            if hi_t - anchor[0] <= max(1e-6, 1e-4 * hi_t):
                ev.found.update((tg, (anchor[0], hi_t)) for tg in group)
                continue
            probe = advance(anchor, 0.5 * (anchor[0] + hi_t), group)
            above = [tg for tg in group if probe[2][tg[0]] > tg[1]]
            below = [tg for tg in group if probe[2][tg[0]] <= tg[1]]
            if above:
                stack.append((probe, hi_t, above))
            if below:
                stack.append((anchor, probe[0], below))
        lo = hi


@dataclass(frozen=True, eq=False)
class DistanceCurve:
    """Distance samples along a time grid for one query."""

    query: DistanceQuery
    times: tuple
    values: tuple = field(default_factory=tuple)

    @property
    def samples(self) -> list:
        return list(zip(self.times, self.values))


def distance_curve(chain: Chain, query: DistanceQuery, times, tol: float = 1e-10) -> DistanceCurve:
    """Sample the distance at the given times (must be sorted ascending).

    Verifies the monotonicity invariant: values may not increase by more
    than 1e-9 from one sample to the next.
    """
    times = tuple(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise BadShape("time grid must be nondecreasing")
    ev = _Evaluator(chain, query, tol)
    ev.evaluate(times, (query.metric,))
    values = tuple(ev.value(t, query.metric) for t in times)
    for (t0, v0), (t1, v1) in zip(zip(times, values), zip(times[1:], values[1:])):
        if v1 > v0 + 1e-9:
            raise ArithmeticError(
                f"distance increased from {v0} at {t0} to {v1} at {t1}"
            )
    return DistanceCurve(query=query, times=times, values=values)
