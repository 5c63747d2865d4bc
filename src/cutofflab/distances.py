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
* Discrete and lazy searches keep one checkpoint, the rows at the latest
  probed time whose distance was above eps, and evolve later probes from it
  with ``Chain.apply``.  Continuing those rows performs the same float
  operations as evolving from time 0, so every probed value is the same.
  Probes of at least 256 steps on chains of at most 300 states take a dense
  matrix power instead and leave the checkpoint alone.  A search gallops
  from its lower end (lo+1, lo+2, lo+4, ...) and then bisects.

Levels share the gallop: searches over several eps levels of one query run
in descending eps on one evaluator, and each level resumes where the
previous one stopped, at the discrete checkpoint or at the continuous
gallop's last two points.  A fresh search for the smaller level would pass
through the same rows, so every bracket is bit-identical to a fresh one and
each level's chain of tol/128 increments is the fresh search's chain.
Metrics share the rows: an evaluator keeps its latest evolved rows, so tv,
dbar and sep at one time reduce one evolution.

Searches give up at 10**7 time units (NoConvergence).  In discrete time a
periodic chain never mixes.  From point-mass starts its distance has an
exact floor: 1 - 1/d for tv with period d, 1 for sep, and 1 for dbar when
the starts meet two cyclic classes.  A start vector mu puts masses mu(C_i)
on the cyclic classes, and those masses only rotate, so tv stays at or
above 1/2 sum_i |mu(C_i) - 1/d| and sep at or above 1 - d min_i mu(C_i).
An eps strictly below the floor raises NoConvergence at once.  At or above
the tv floor the search decides "distance <= eps" exactly.  With m_C(t) the
start mass rotated onto class C, tv = floor + excess, where each class adds
sum_C (pi - P^t)^+ when m_C(t) >= 1/d and sum_C (P^t - pi)^+ otherwise.  The
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
    Chain,
    _as_steps,
    _check_delta,
    _check_eps,
    _check_time,
    _check_tol,
    _uniformized,
    as_probability_vector,
)
from .errors import BadShape, LengthMismatch, NoConvergence

SEARCH_CAP = 10_000_000

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
            raise ValueError(f"unknown time mode {self.time_mode!r}")
        if self.metric not in ("tv", "sep", "dbar"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.time_mode == "lazy":
            _check_delta(self.delta)
        elif self.delta is not None:
            raise ValueError("delta only applies to lazy mode")
        if self.start is not None and self.metric == "dbar":
            raise ValueError("dbar is a pairwise metric; only worst_case applies")


class _Evaluator:
    """Evolves the query's start set on its clock and reduces rows to metrics.

    The metric is chosen per call (the query's by default), and the latest
    evolved rows are kept, so every metric at one time reduces one
    evolution.  On the banded ``Chain.apply`` route the evaluator also keeps a
    checkpoint, the rows at one probed time, that later probes at or after it
    continue from; continuous searches keep their gallop here.
    """

    def __init__(self, chain: Chain, query: DistanceQuery, tol: float):
        _check_tol(tol)
        self.base = chain
        self.query = query
        self.tol = tol
        self.pi = chain.stationary
        if query.time_mode == "lazy":
            self.eff = chain.lazy(query.delta)
        else:
            self.eff = chain
        if query.start is not None:
            self.start_rows = as_probability_vector(query.start, chain.num_states)[None, :]
            self.start_idx = None
        else:
            self.start_rows = None
            if chain.is_birth_death and not query.exhaustive:
                self.start_idx = [0, chain.top_state]
            else:
                self.start_idx = list(range(chain.num_states))
        self._cache: dict[tuple[float, str], float] = {}
        self.checkpoint: tuple[int, np.ndarray] | None = None
        self.gallop: tuple[tuple, tuple] | None = None
        self._fresh: tuple[int, np.ndarray] | None = None
        self._latest: tuple[float, np.ndarray] | None = None

    def value(self, time, metric: str | None = None) -> float:
        metric = metric or self.query.metric
        if self.query.time_mode == "continuous":
            time = _check_time(time)
        else:
            time = _as_steps(time)
        key = (float(time), metric)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._metric(self._rows(time), metric, time)
            self._cache[key] = hit
        return hit

    def commit(self, time) -> None:
        """Make ``time`` the checkpoint if its banded rows are at hand."""
        if self._fresh is not None and self._fresh[0] == time:
            self.checkpoint = self._fresh

    def _initial_rows(self) -> np.ndarray:
        if self.start_rows is not None:
            return self.start_rows.copy()
        rows = np.zeros((len(self.start_idx), self.base.num_states))
        rows[np.arange(len(self.start_idx)), self.start_idx] = 1.0
        return rows

    def _rows(self, time) -> np.ndarray:
        key = float(time)
        if self._latest is None or self._latest[0] != key:
            self._latest = (key, self._evolve(time))
        return self._latest[1]

    def _evolve(self, time) -> np.ndarray:
        if self.query.time_mode == "continuous":
            return _uniformized(self.base, self._initial_rows(), time, self.tol)
        steps = time
        kernel = self.eff
        if (
            steps >= _POW_MIN_STEPS
            and kernel.num_states <= _POW_MAX_STATES
        ):
            power = np.linalg.matrix_power(kernel.dense_kernel, steps)
            if self.start_rows is not None:
                return self.start_rows @ power
            return power[self.start_idx]
        if self.checkpoint is not None and self.checkpoint[0] <= steps:
            done, rows = self.checkpoint
        else:
            done, rows = 0, self._initial_rows()
        for _ in range(steps - done):
            rows = kernel.apply(rows)
        self._fresh = (steps, rows)
        return rows

    def period_floor(self) -> float:
        """Lower bound on every discrete-time distance of a periodic chain,
        exact from point-mass starts; 0 where none applies."""
        chain, query = self.base, self.query
        period = chain.period
        if query.time_mode != "discrete" or period == 1:
            return 0.0
        if self.start_rows is not None:
            mass = self.class_mass[0]
            if query.metric == "tv":
                return float(0.5 * np.abs(mass - 1.0 / period).sum())
            return float(1.0 - period * mass.min())
        if query.metric == "tv":
            return 1.0 - 1.0 / period
        if query.metric == "sep":
            return 1.0
        return 1.0 if len(chain._cyclic_classes(self.start_idx)) > 1 else 0.0

    @cached_property
    def class_mass(self) -> np.ndarray:
        """Each start row's mass on each cyclic class.  The masses rotate
        with t, class c's to class c + t mod d, and never even out."""
        chain = self.base
        return np.stack([
            np.bincount(chain._classes, weights=row, minlength=chain.period)
            for row in self._initial_rows()
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
    return _Evaluator(chain, query, tol).value(time)


def mixing_time(chain: Chain, eps: float, query: DistanceQuery, tol: float = 1e-10):
    """Smallest time with distance <= eps.

    Discrete modes return the exact minimal integer.  Continuous mode
    bisects to a bracket of width <= max(1e-6, 1e-4 * t) and returns the
    bracket midpoint.  Raises NoConvergence if the distance is still above
    eps at 10**7, or at once when a periodic chain's distance floor lies
    above eps.
    """
    lo, hi = _mixing_times(chain, (eps,), query, tol)[eps]
    if query.time_mode == "continuous":
        return 0.5 * (lo + hi)
    return hi


def mixing_bracket(
    chain: Chain, eps: float, query: DistanceQuery, tol: float = 1e-10
) -> tuple[float, float]:
    """(lo, hi) enclosing the exact mixing time; equal endpoints in the
    discrete modes.  Inequality checks against a computed mixing time should
    compare with the safe end of this bracket, not the midpoint."""
    lo, hi = _mixing_times(chain, (eps,), query, tol)[eps]
    return float(lo), float(hi)


def _mixing_times(chain: Chain, levels, query: DistanceQuery, tol: float) -> dict:
    """Brackets (lo, hi) of the mixing times at several eps levels of one
    query, keyed by level.  The discrete modes return (m, m) with m exact.

    One evaluator serves every level.  Levels run in descending eps, so each
    search resumes where the previous one stopped: a discrete search at the
    checkpoint the previous level left just below its answer, a continuous
    one at the previous level's gallop point.  The first level that cannot
    converge raises NoConvergence, and every smaller level would too; the
    exception's ``brackets`` holds the levels found before it.
    """
    for eps in levels:
        _check_eps(eps)
    ev = _Evaluator(chain, query, tol)
    out = {}
    try:
        for eps in sorted(set(levels), reverse=True):
            if query.time_mode == "continuous":
                out[eps] = _continuous_bracket(ev, eps)
            else:
                m = _search_discrete(ev, eps)
                out[eps] = (m, m)
    except NoConvergence as exc:
        exc.brackets = out
        raise
    return out


def _search_discrete(ev: _Evaluator, eps: float) -> int:
    floor = ev.period_floor()
    if eps < floor:
        raise NoConvergence(
            f"the chain has period {ev.base.period}; its {ev.query.metric} "
            f"distance stays at or above {floor:g} > {eps}"
        )
    if floor and ev.query.metric == "tv":
        # tv = floor + excess exactly, and the excess carries no cancellation
        # against the floor, so eps == floor is decided by its sign
        def mixed(t) -> bool:
            return ev.value(t, "excess") <= eps - floor
    else:
        def mixed(t) -> bool:
            return ev.value(t) <= eps
    if ev.checkpoint is not None and not mixed(ev.checkpoint[0]):
        lo = ev.checkpoint[0]
    elif mixed(0):
        return 0
    else:
        lo = 0
    base, stride = lo, 1
    while True:
        hi = min(base + stride, SEARCH_CAP)
        if mixed(hi):
            break
        if hi == SEARCH_CAP:
            raise NoConvergence(
                f"distance stays above {eps} through {SEARCH_CAP} steps"
            )
        ev.commit(hi)
        lo = hi
        stride *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mixed(mid):
            hi = mid
        else:
            ev.commit(mid)
            lo = mid
    return hi


def _continuous_bracket(ev: _Evaluator, eps: float) -> tuple[float, float]:
    # The semigroup property lets every probe advance from the last time at
    # which the distance was still above eps, instead of integrating from 0.
    # Increments run at tol/128, so the composed truncation error over the
    # whole search stays below tol (well under 128 committed increments).
    # Points are (time, rows, value).  The gallop's last two points stay on
    # the evaluator: a level whose eps lies below the lower point's value
    # resumes there, since a fresh search would reach the same rows.
    inc_tol = ev.tol / 128.0
    metric = ev.query.metric

    def advance(point, t: float):
        rows = _uniformized(ev.base, point[1], t - point[0], inc_tol)
        return t, rows, ev._metric(rows, metric)

    if ev.gallop is not None and ev.gallop[0][2] > eps:
        lo, hi = ev.gallop
    else:
        rows = ev._initial_rows()
        lo = (0.0, rows, ev._metric(rows, metric))
        if lo[2] <= eps:
            return 0.0, 0.0
        hi = advance(lo, 1.0)
    while hi[2] > eps:
        if hi[0] == SEARCH_CAP:
            raise NoConvergence(
                f"distance stays above {eps} through t = {SEARCH_CAP}"
            )
        lo, hi = hi, advance(hi, min(2.0 * hi[0], float(SEARCH_CAP)))
    ev.gallop = lo, hi
    anchor, hi_t = lo, hi[0]
    while hi_t - anchor[0] > max(1e-6, 1e-4 * hi_t):
        probe = advance(anchor, 0.5 * (anchor[0] + hi_t))
        if probe[2] <= eps:
            hi_t = probe[0]
        else:
            anchor = probe
    return anchor[0], hi_t


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

    def sample(t) -> float:
        # each discrete sample continues from the one before it
        val = ev.value(t)
        ev.commit(t)
        return val

    values = tuple(sample(t) for t in times)
    for (t0, v0), (t1, v1) in zip(zip(times, values), zip(times[1:], values[1:])):
        if v1 > v0 + 1e-9:
            raise ArithmeticError(
                f"distance increased from {v0} at {t0} to {v1} at {t1}"
            )
    return DistanceCurve(query=query, times=times, values=values)
