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
is valid because all three metrics are nonincreasing in time.  One
evaluator per clock serves every metric, level and fixed time, and no rows
are evolved twice on it.  Its ``search`` brackets every (metric, eps)
target in one grouped search and writes each bracket to ``found``, which
``mixing_time``, ``mixing_bracket``, ``family_scan`` and ``verify_bounds``
all read.  The clocks differ only where they must:

* Thresholds.  A target is decided by a metric and a threshold: its own
  metric and eps, or on a periodic chain's discrete clock the tv excess
  over its floor against eps - floor (see below).  A target a period floor
  rules out is refused before any probe.
* Seeds.  A discrete value depends on the step alone, so a discrete target
  starts between the values the evaluator holds for its metric: the
  largest held step above its threshold (step 0, probed, when none is) and
  the smallest held step after that.  A held value seeds it whatever
  request made it: an earlier search's probe, a fixed time, or a step
  requested only to seed, as ``family_scan`` requests lazy steps near its
  continuous times over 1 - delta.  A continuous target starts at 0,
  since a continuous value's bits depend on the anchor it was advanced
  from.
* Gallop.  Targets with no upper end gallop together: from rung lo the
  next is 2 lo - base, or lo + 1 when lo = base.  On the continuous clock
  base stays 0, so the rungs are 1, 2, 4, ....  A discrete group still
  above eps at a rung where other targets came out below restarts its
  gallop there (base = that rung), as a fresh search from that rung would.
* Probe tree.  The targets between the same two points share one
  bisection tree, walked depth first, lowest interval first, and a rung's
  bisections before the next rung.  From an anchor a, the last point where
  the group was above eps, with upper end b, the probed points are
  m1 = (a + b) / 2, m2 = (a + m1) / 2, ..., down to the first within the
  bracket width of a, and b itself on a gallop rung.  The width is
  max(1e-6, 1e-4 t) in continuous time; discrete midpoints round down and
  close at width 1, so a discrete bracket is (m, m).  A target goes on from
  the last point at which it is above eps to the point after it.  Each
  probe reduces only the metrics of its group; a discrete probe requests
  its values from ``_Evaluator.evaluate``, which holds them per (step,
  metric).
* Probes.  Discrete probes, and continuous ones where many rows on a small
  chain multiply by dense powers E(h) = exp(-h (I - K)), walk the points
  top down while some target is still below (``_Evaluator`` picks every
  route).  Other continuous start sets take one uniformization pass per
  anchor at a tolerance of tol/128, which finishes the points in ascending
  order and stops once every target is below; later points are below too.

Every continuous probe keeps the anchor and increment of a fresh search,
and a multi-time pass gives each time the bits of a pass of its own.  So
wherever the float distance is nonincreasing at eps, every bracket is the
one a fresh search per target gives: bit-identical in continuous time, the
same minimal step in discrete time.  A target that cannot converge is left
out of ``found``, and so is every smaller eps of its metric; ``search``
raises the first period-floor refusal in target order, else the refusal at
the cap, after every other target has been searched.

Values at fixed times are requested from ``_Evaluator.evaluate`` as
(time, metric) pairs.  It returns them in request order, reduces each value
it does not hold once, from one evolution over the distinct missing times,
and is the only code that writes the evaluator's value cache;
``distance``, ``distance_curve``, the discrete search probes and
``verify_bounds`` all read through it.  Separation, which divides by pi, is
checked at most once per evaluator, on the first request or search that
names it.  The evolution is ``_Evaluator.evolve``.  One route rule
serves all three clocks: on a chain of at most 300 states, a time whose
start rows would take more row steps to evolve than its power takes n x n
products to build reads them from that power (K**m, K_delta**m or E(t)).
The continuous clock uniformizes its other times in one pass over one
power sequence (``chain._uniformized``, with the step the evaluator
picks); the others step through them in ascending order.  Every metric at
one time reduces the same rows.

``step_distribution``, ``continuous_distribution`` and
``birth_death.corner_separation`` read those rows from an evaluator whose
start set is one start vector.

Searches give up at 10**7 time units (NoConvergence).  In discrete time a
periodic chain never mixes.  Each start row mu of the start set (a given
start vector, or one point mass per start state) puts masses mu(C_i) on the
d cyclic classes, and those masses only rotate.  So tv stays at or above
the largest 1/2 sum_i |mu(C_i) - 1/d| over the rows, sep at or above 1 - d
min mu(C_i) over rows and classes, and dbar at or above the largest gap max
mu(C_i) - min mu(C_i) across the rows on one class.  From point masses the
floors are 1 - 1/d, 1, and 1 once the starts meet two cyclic classes (0
otherwise).  The floors are computed in exact arithmetic, from each row's
entries summed per class as Fractions, and an eps strictly below its floor
raises NoConvergence at once; so every double next to 1 - 1/d is decided
on the right side.  At or above the tv floor the search decides "distance
<= eps" exactly.  With m_C(t) the start mass rotated onto class C, tv =
floor + excess, where each class adds sum_C (pi - P^t)^+ when m_C(t) >= 1/d
and sum_C (P^t - pi)^+ otherwise.  The search compares that excess,
computed directly, with eps - floor rounded once to a double.  So eps
equal to the floor is met at the first time P^t >= pi on every heavy class
and P^t <= pi on every light one, not at a rounding crossing of the float
distance.  From a point mass this is the first time P^t >= pi on the
occupied class.  Sep has no such exact test.  It meets a positive floor
only where each least-mass packet is spread exactly as pi, which happens
by step n if ever; an eps equal to that floor raises NoConvergence when a
packet still visibly moves at step n (``_sep_floor_unmet``), and is
otherwise decided from the rounded values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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
    _poisson_weights,
    _uniformized,
    as_probability_vector,
)
from .errors import BadDelta, BadShape, LengthMismatch, NoConvergence, NumericalFailure

# No discrete or lazy step below this takes a power, whatever the product
# rule says.  Its one remaining reason is the goldens' bits: the pinned CLI
# outputs read steps up to 28 (the Ehrenfest {4, 8} family scan; verify on
# two states reads up to 8), and those stay banded.  ROADMAP item 3 deletes
# the floor together with a golden regeneration.
_POW_MIN_STEPS = 32
_POW_MAX_STATES = 300
# n x n products counted for one factor E(h <= 1): its Poisson sum takes 21
# kernel powers at h = 1, and as many scaled sums
_FACTOR_PRODUCTS = 22
# Entries of one block of row differences in the dbar reduction
_DBAR_BLOCK = 2**16


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
    start maximization on birth-death chains, so it refuses a given start.
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
            object.__setattr__(self, "delta", _check_delta(self.delta))
        elif self.delta is not None:
            raise BadDelta("delta only applies to lazy mode")
        if self.start is not None and self.metric == "dbar":
            raise BadShape("dbar is a pairwise metric; only worst_case applies")
        if self.start is not None and self.exhaustive:
            raise BadShape("exhaustive maximizes over starts; a fixed start excludes it")


class _Evaluator:
    """One clock's start set, evolved once for every metric, search and fixed
    time.

    The query fixes the clock, the laziness and the start set; its metric is
    not read here, since every call names its metric.  The start set is one
    frozen array, ``starts``, with one row per start distribution: the given
    start vector, or one-hot rows for the endpoint pair or for every state.
    Every route evolves those rows (uniformization, products with the
    powers of the clock's one-step matrix, and banded steps from ``_kept``,
    which holds them at step 0), and the period floors read their exact
    class masses.  ``evaluate`` takes (time, metric) requests and returns
    their values in request order; it reduces each value it does not hold
    once, from one evolution, ``evolve``, over the distinct missing times,
    and is the only writer of the value cache, ``_cache``, keyed by (time,
    metric).  ``value`` and the discrete probes of ``search`` read through
    it.  Separation is checked at most once per evaluator, by
    ``_check_metrics``; a refusal raises on every request.  ``search``
    brackets every (metric, eps) target in one grouped search (see the
    module docstring) and keeps the brackets in ``found``, keyed by target.
    ``_metric`` reduces rows to one metric; for dbar it takes the distinct
    pairs i < j of the r rows, ``_DBAR_BLOCK // (4 n)`` pairs of n states
    per numpy call, and sums each pair's differences over one contiguous
    row, as the row-by-row loop does, so every value keeps that loop's bits.

    Every clock has one one-step matrix, K, K_delta or E(1) = exp(-(I - K)),
    and ``semigroup(h)`` reads its powers from one table, ``_semigroup``,
    freed with the evaluator.  Each factor is built by ``_build_semigroup``
    and kept read-only:

    * discrete and lazy: K or K_delta at h = 1;
    * continuous: E(h) for h <= 1, the Poisson(h) sum of kernel powers to
      the rounding floor;
    * h = 2**k > 1: the square of the factor at h / 2.

    The table keeps the factors at powers of two; a continuous factor at
    any other h < 1 is rebuilt on each request.  Any other h > 1 is the
    power at h - top times the factor at top, the largest power of two
    <= h, which is the lowest-digit-first order of
    ``np.linalg.matrix_power``, so integer powers keep numpy's bits.  Such
    products are not kept; keeping them would hold every probed step's
    power.  Each continuous factor is scaled to unit row sums, which keeps
    every squaring from doubling the rows' mass error (unscaled, a 7-state
    chain's row sums at h = 2**23 were off by 1.1e-9).  A power depends on
    the chain, the clock and h alone, so no route's rows depend on what was
    evaluated before.

    This class decides every evolution route.  One rule, ``_takes_power``,
    routes a fixed time on every clock and a discrete or lazy search probe:
    on a chain of n <= 300 states, the time t takes ``starts @
    semigroup(t)`` (or the power itself when the rows are every state) when
    terms * r > n * p, with r start rows, terms the row steps an evolution
    from 0 takes (the step m, from m >= 32; or about t + 10 sqrt(t) + 10
    Poisson terms) and p the n x n products of the power built from an
    empty table (squarings plus multiplies, and on the continuous clock the
    Poisson sums of E(1) and of E(frac) for t's fractional part).  So
    exhaustive starts take the power at long times, and the endpoint pair
    or one start vector only at times of order n log t (a slow-mixing
    chain's, or a long fixed run); a continuous time t <= 1 never does.  The
    rule reads the time, the chain and the start set, never ``_kept`` or
    the table, so a time's route and its bits do not depend on what was
    evaluated before; power rows are not kept.  The fixed times of an
    exhaustive small chain thus reuse the dyadic factors its continuous
    search builds.

    On the continuous clock, the other fixed times take one multi-time
    uniformization pass, and a search probe advances its anchor's rows by
    an increment h.  Where ``dense_probes`` holds (n <= 300 states and
    4 r >= n), each probe is one product with E(h), and each uniformization
    term one product with the dense kernel.  Gallop and bisection
    increments are powers of two; the last rung, 10**7 - 2**23, and its
    halvings are composed from them.  Other start sets, such as the
    endpoint pair of a large birth-death chain, step by ``Chain.apply`` in
    one pass from each anchor that carries every increment its probes need
    and stops once each target is below eps.  Every probed point is the
    anchor of at most one pass.

    On the discrete and lazy clocks every step off the power route is
    banded, and banded rows at step t are the same bits however they
    were reached.  So one store, ``_kept``, maps steps to banded rows: the
    rows of every banded step evaluated, and the rows at every step an
    evolution passes that is a multiple of 2**(floor(log2 t) - 2), four per
    octave (1..8, 10, 12, 14, 16, 20, ...).  A banded request reads its
    step there or continues ``Chain.apply`` from the largest kept step
    below it; once an evolution has passed the request, that re-evolves
    less than a quarter of its steps.
    """

    def __init__(self, chain: Chain, query: DistanceQuery, tol: float):
        self.tol = _check_tol(tol)
        self.base = chain
        self.query = query
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
        self._sep_checked = False
        self._kept: dict[int, np.ndarray] = {0: starts}
        self._semigroup: dict[float, np.ndarray] = {}
        self.found: dict[tuple[str, float], tuple] = {}
        n = chain.num_states
        self.dense_probes = self.continuous and n <= _POW_MAX_STATES and 4 * len(starts) >= n

    def value(self, time, metric: str) -> float:
        return self.evaluate([(time, metric)])[0]

    def search(self, targets) -> None:
        """Mixing brackets (lo, hi) at (metric, eps) targets, written to
        ``found``; the discrete modes give (m, m) with m exact.  All targets
        share one gallop and one probe tree (see the module docstring), and
        one that cannot converge is left out of ``found`` and raises
        NoConvergence once the others are searched.  Targets already in
        ``found`` are not searched again.
        """
        targets = list(dict.fromkeys((metric, _check_eps(eps)) for metric, eps in targets))
        targets = [tg for tg in targets if tg not in self.found]
        self._check_metrics(metric for metric, _ in targets)
        # refusals are kept as messages: a kept exception's traceback would
        # hold this frame, and through the caller's frame every evaluator,
        # in a cycle only the full garbage collection frees
        tests, refusals = {}, []
        for target in targets:
            try:
                tests[target] = self._threshold(*target)
            except NoConvergence as exc:
                refusals.append(str(exc))
        _grouped_search(self, tests, refusals)
        if refusals:
            raise NoConvergence(refusals[0])

    def _threshold(self, metric: str, eps: float) -> tuple[str, float]:
        """The metric and threshold that decide "distance <= eps", or
        NoConvergence where a period floor rules eps out."""
        floor = self.period_floor(metric)
        if eps < floor:  # a float against a Fraction compares exactly
            raise NoConvergence(
                f"the chain has period {self.base.period}; its {metric} "
                f"distance stays at or above {float(floor):g} > {eps}"
            )
        if floor and metric == "sep" and eps == floor and _sep_floor_unmet(self):
            raise NoConvergence(
                f"the chain has period {self.base.period}; its sep distance "
                f"stays above its floor {eps} at every step"
            )
        if floor and metric == "tv":
            # tv = floor + excess exactly, and the excess carries no
            # cancellation against the floor, so eps == floor is decided by
            # its sign
            return "excess", float(Fraction(eps) - floor)
        return metric, eps

    def evaluate(self, requests) -> list[float]:
        """The value of each (time, metric) request, in request order.  The
        values not yet held are reduced from one evolution, ``evolve``, over
        their distinct times, each once, and held in ``_cache``, which no
        other code writes."""
        requests = [(self._time(t), metric) for t, metric in requests]
        self._check_metrics(metric for _, metric in requests)
        missing = {}
        for t, metric in requests:
            if (float(t), metric) not in self._cache:
                missing.setdefault(t, {})[metric] = None
        times = sorted(missing)
        for time, rows in zip(times, self.evolve(times)):
            for metric in missing[time]:
                self._cache[(float(time), metric)] = self._metric(rows, metric, time)
        return [self._cache[(float(t), metric)] for t, metric in requests]

    def _check_metrics(self, metrics) -> None:
        # separation divides by pi: checked at most once per evaluator, and
        # a refusal leaves the flag unset, so it raises on every request
        if not self._sep_checked and "sep" in metrics:
            _check_separation(self.pi)
            self._sep_checked = True

    def evolve(self, times) -> list:
        """The start set's rows at each of the ascending ``times``.  A time
        the route rule (``_takes_power``) sends to powers reads them; on the
        continuous clock the other times share one multi-time uniformization
        pass, and on the others ``_rows`` steps through them in turn.  A time
        past the cap is refused before any factor is built."""
        times = [self._time(t) for t in times]
        if not times:
            return []
        _check_cap(times[-1])
        powered = [self._takes_power(t) for t in times]
        passed = [t for t, power in zip(times, powered) if not power]
        if not self.continuous:
            rows = map(self._rows, passed)
        else:
            # one dense product per term where dense_probes holds
            step = self.base.dense_kernel.__rmatmul__ if self.dense_probes else self.base.apply
            rows = iter(_uniformized(step, self.starts, tuple(passed), self.tol) if passed else ())
        return [self._power_rows(t) if power else next(rows) for t, power in zip(times, powered)]

    def semigroup(self, h) -> np.ndarray:
        """The clock's one-step matrix at time h, read-only: K**h or
        K_delta**h for an integer h >= 1, or E(h) = exp(-h (I - K)) on the
        continuous clock.

        The factors at powers of two, E(2**k) for any integer k, are built
        once each and kept in ``_semigroup``.  E(h) at any other h < 1, such
        as a fixed time's fractional part, is built on each request and not
        kept, so a long list of fixed times keeps no factor per time.  Any
        other h > 1 is E(h - top) @ E(top), with top the largest power of
        two <= h, as ``np.linalg.matrix_power`` multiplies from the lowest
        binary digit up; it is not kept either.
        """
        top = 2.0 ** (math.frexp(h)[1] - 1)
        if h > 1 and h != top:
            return self.semigroup(h - top) @ self.semigroup(top)
        power = self._semigroup.get(h)
        if power is None:
            power = self._build_semigroup(h)
            power.flags.writeable = False
            if h == top:
                self._semigroup[h] = power
        return power

    def _build_semigroup(self, h) -> np.ndarray:
        # one factor: the one-step matrix at h = 1 on the discrete and lazy
        # clocks, a Poisson sum at h <= 1 on the continuous one, a squaring
        # above; continuous factors are scaled to unit row sums
        if not self.continuous and h == 1:
            return self.eff.dense_kernel
        if h <= 1:
            power = _poisson_power(self.base.dense_kernel, h)
        else:
            half = self.semigroup(0.5 * h)
            power = half @ half
        if self.continuous:
            power /= power.sum(axis=1, keepdims=True)
        return power

    def _time(self, time):
        return _check_time(time) if self.continuous else _as_steps(time)

    def _takes_power(self, time) -> bool:
        """Whether the start rows at ``time`` are read from
        ``semigroup(time)``: terms * r > n * products on n <= 300 states
        (see the class docstring).  The continuous terms, t + 10 sqrt(t) +
        10, lie above the Poisson terms of a uniformization pass at the
        default tol of 1e-10 (1,208 against 1,326 at t = 1000)."""
        n, count = self.eff.num_states, self.starts.shape[0]
        if n > _POW_MAX_STATES:
            return False
        if not self.continuous:
            products = time.bit_length() + time.bit_count() - 2
            return time >= _POW_MIN_STEPS and time * count > n * products
        whole = int(time)
        products = (whole > 0) * (_FACTOR_PRODUCTS + whole.bit_length() + whole.bit_count() - 2)
        if time > whole or whole == 0:
            products += _FACTOR_PRODUCTS + (whole > 0)
        return (time + 10.0 * math.sqrt(time) + 10.0) * count > n * products

    def _power_rows(self, time) -> np.ndarray:
        power = self.semigroup(time)
        # n one-hot rows are the identity; any one-hot row times the power is
        # that power's row, bit for bit
        return power if self.starts.shape[0] == power.shape[0] else self.starts @ power

    def _rows(self, steps: int) -> np.ndarray:
        # banded rows at ``steps``, stepped on from the largest kept step
        # below it
        done = max(k for k in self._kept if k <= steps)
        rows = self._kept[done]
        while done < steps:
            rows = self.eff.apply(rows)
            done += 1
            if done % (1 << max(done.bit_length() - 3, 0)) == 0:
                self._kept[done] = rows
        self._kept[steps] = rows
        return rows

    def period_floor(self, metric: str) -> Fraction:
        """Exact lower bound on every discrete-time distance of a periodic
        chain, from the start set's class masses; 0 where none applies."""
        period = self.base.period
        if self.query.time_mode != "discrete" or period == 1:
            return Fraction(0)
        mass = self.class_mass
        if metric == "tv":
            return max(sum(abs(m - Fraction(1, period)) for m in row) for row in mass) / 2
        if metric == "sep":
            return 1 - period * min(map(min, mass))
        # two starts differ in tv by at least their mass gap on one class
        return max(max(col) - min(col) for col in zip(*mass))

    @cached_property
    def class_mass(self) -> list[list[Fraction]]:
        """Each start row's exact mass on each cyclic class, its float
        entries summed as Fractions.  The masses rotate with t, class c's to
        class c + t mod d, and never even out."""
        chain = self.base
        mass = [[Fraction(0)] * chain.period for _ in self.starts]
        for row, state in zip(*np.nonzero(self.starts)):
            mass[row][chain._classes[state]] += Fraction(self.starts[row, state])
        return mass

    @cached_property
    def _heavy(self) -> np.ndarray:
        """Whether each start row's mass on each cyclic class is >= 1/d."""
        share = Fraction(1, self.base.period)
        return np.array([[m >= share for m in row] for row in self.class_mass])

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
            heavy = self._heavy[:, (self.base._classes - time) % self.base.period]
            excess = np.where(
                heavy, np.clip(self.pi - rows, 0.0, None), np.clip(rows - self.pi, 0.0, None)
            )
            return float(excess.sum(axis=1).max())
        if metric != "dbar":
            raise BadShape(f"unknown metric {metric!r}")
        # dbar over the distinct pairs i < j, a chunk of pairs at a time: the
        # two gathered row sets and their difference stay within _DBAR_BLOCK
        # entries, and each pair's sum runs over one contiguous row, as
        # numpy's pairwise sum
        first, second = np.triu_indices(len(rows), 1)
        chunk = max(1, _DBAR_BLOCK // (4 * rows.shape[1]))
        best = 0.0
        for lo in range(0, len(first), chunk):
            gaps = rows[second[lo : lo + chunk]] - rows[first[lo : lo + chunk]]
            best = max(best, float(np.abs(gaps, out=gaps).sum(axis=1).max()))
        return min(0.5 * best, 1.0)


def _clean_distribution(vec: np.ndarray) -> np.ndarray:
    # Remove float dust produced by long evolutions; magnitudes beyond dust
    # would indicate a bug upstream.
    if vec.min() < -1e-9:
        raise NumericalFailure(f"distribution drifted negative: {vec.min()}")
    vec = np.clip(vec, 0.0, None)
    return vec / vec.sum()


def _distribution_at(chain: Chain, mode: str, start, time, tol: float) -> np.ndarray:
    # None would read as the worst-case start set
    if start is None:
        raise BadShape("a start distribution is required")
    ev = _Evaluator(chain, DistanceQuery(mode, "tv", start=start), tol)
    return _clean_distribution(ev.evolve([time])[0][0])


def step_distribution(chain: Chain, start, steps: int) -> np.ndarray:
    """Distribution after ``steps`` kernel applications from ``start``."""
    return _distribution_at(chain, "discrete", start, steps, 1e-10)


def continuous_distribution(chain: Chain, start, time: float, tol: float = 1e-10) -> np.ndarray:
    """Distribution ``start @ exp(-time (I - K))``.

    By uniformization, Poisson(time)-weighted kernel powers accumulated
    until the collected mass reaches ``1 - tol`` and renormalized, which
    keeps the truncation error in total variation below ``tol``.  On a
    chain of at most 300 states, a time long enough that building E(time)
    from its binary digits takes fewer n x n products than the
    uniformization takes row steps reads the row from E(time) instead,
    whose factors are Poisson sums to the rounding floor.
    """
    return _distribution_at(chain, "continuous", start, time, tol)


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
    above eps (or equals a positive sep floor that no step meets).
    """
    lo, hi = _bracket(chain, eps, query, tol)
    if query.time_mode == "continuous":
        return 0.5 * (lo + hi)
    return hi


def mixing_bracket(
    chain: Chain, eps: float, query: DistanceQuery, tol: float = 1e-10
) -> tuple[float, float]:
    """(lo, hi) enclosing the exact mixing time; equal endpoints in the
    discrete modes.  Inequality checks against a computed mixing time should
    compare with the safe end of this bracket, not the midpoint."""
    lo, hi = _bracket(chain, eps, query, tol)
    return float(lo), float(hi)


def _bracket(chain: Chain, eps: float, query: DistanceQuery, tol: float) -> tuple:
    # one target's search on a fresh evaluator; mixing_time does not call
    # mixing_bracket, since bench/spans.py counts a call of either as one
    # search
    ev = _Evaluator(chain, query, tol)
    target = (query.metric, _check_eps(eps))
    ev.search([target])
    return ev.found[target]


def _sep_floor_unmet(ev: _Evaluator) -> bool:
    """Whether sep provably never meets its positive class-mass floor.

    A packet, one start row's mass on one cyclic class, moves one class per
    step, and sep equals 1 - d min m only at a step where every least-mass
    packet is spread exactly as pi over its class.  A packet's deviation
    from that shape evolves by P, and a vector that some P^t sends to 0 is
    sent to 0 by P^n (n states), so a packet that P^d still moves at step n
    never settles.  A move above 1e-6 of the packet's mass is far beyond the
    rounding of n + d steps; a smaller one proves nothing, and the search
    then decides eps == floor from the rounded values.
    """
    chain, mass = ev.base, ev.class_mass
    n, d = chain.num_states, chain.period
    least = min(map(min, mass))
    now, later = ev.evolve([n, n + d])
    for row, masses in enumerate(mass):
        for c, m in enumerate(masses):
            on = chain._classes == (c + n) % d
            if m == least and np.abs(later[row, on] - now[row, on]).sum() > 1e-6 * m:
                return True
    return False


def _poisson_power(kernel: np.ndarray, h: float) -> np.ndarray:
    # sum_i Poi(h)(i) K**i for h <= 1, weights from chain._poisson_weights:
    # they fall at least as fast as 1/i!, and the sum stops after the first
    # weight below 1e-20 of the mass collected, far under the rounding of
    # the terms before it
    terms = _poisson_weights(h)
    _, mass = next(terms)
    acc, power = np.diag(np.full(kernel.shape[0], mass)), None
    for _, weight in terms:
        power = kernel if power is None else power @ kernel
        acc += weight * power
        mass += weight
        if weight < 1e-20 * mass:
            return acc


def _below_chain(a, b, continuous: bool) -> list:
    """The points a bisection of (a, b) probes from a while each comes out
    below eps, ascending: the midpoint of (a, b), its midpoint with a, and so
    on down to the first within the bracket width of a.  The width is
    max(1e-6, 1e-4 t) on the continuous clock; integer midpoints round down
    and close at width 1."""
    chain = []
    while b - a > (max(1e-6, 1e-4 * b) if continuous else 1):
        b = 0.5 * (a + b) if continuous else (a + b) // 2
        chain.append(b)
    return chain[::-1]


def _grouped_search(ev: _Evaluator, tests: dict, refusals: list) -> None:
    # ``tests`` maps each target to the metric and threshold that decide it.
    # A task is (points, anchor rows, group, base): the points
    # (a, *_below_chain(a, b), b) of one interval, and base, the start of
    # the gallop, on a gallop rung b, where b is not yet known to be below.
    # Uniformized increments run at tol/128, so the composed truncation
    # error over the whole search stays below tol (well under 128 committed
    # increments); E(h) is summed to the rounding floor.
    continuous, inc_tol = ev.continuous, ev.tol / 128.0
    zero, cap = (0.0, float(SEARCH_CAP)) if continuous else (0, SEARCH_CAP)

    def above(t, rows, group) -> set:
        # the targets of group above their thresholds at time t
        metrics = list(dict.fromkeys(tests[tg][0] for tg in group))
        if continuous:
            values = {m: ev._metric(rows, m) for m in metrics}
        else:
            values = dict(zip(metrics, ev.evaluate([(t, m) for m in metrics])))
        return {tg for tg in group if values[tests[tg][0]] > tests[tg][1]}

    def task(a, b, rows, group, base=None):
        # with no b, a gallop rung from base: 2 a - base, or a + 1 at a = base
        if b is None:
            b = min(2 * a - base if a != base else a + 1, cap)
        return [a, *_below_chain(a, b, continuous), b], rows, group, base

    def probe(rows, points, group, on_rung: bool):
        # each target's last index in points at which it is above (0 is the
        # anchor), and the rows at every probed index on the continuous clock
        a, times = points[0], points[1:] if on_rung else points[1:-1]
        probed, last = {0: rows}, dict.fromkeys(group, 0)
        if continuous and not ev.dense_probes:

            def finished(rows_k) -> bool:
                # bottom up in one pass, which stops once every target is
                # below; by monotonicity each stays below at the later points
                k = len(probed)
                probed[k] = rows_k
                up = above(None, rows_k, group)
                last.update(dict.fromkeys(up, k))
                return not up

            _uniformized(ev.base.apply, rows, tuple(t - a for t in times), inc_tol, until=finished)
            return probed, last
        # top down, one probe per point, while some target has been below at
        # every point so far
        falling = group
        for k in range(len(times), 0, -1):
            if continuous:
                probed[k] = rows @ ev.semigroup(times[k - 1] - a)
            up = above(times[k - 1], probed.get(k), falling)
            last.update(dict.fromkeys(up, k))
            falling = [tg for tg in falling if tg not in up]
            if not falling:
                break
        return probed, last

    # seeds: a discrete target lies between the values held for its metric;
    # a continuous one starts at 0, as its values depend on their anchor
    held = {} if continuous else ev._cache
    known = {tg: [(int(t), v) for (t, m), v in held.items() if m == test[0]]
             for tg, test in tests.items()}
    lo = {tg: max((t for t, v in known[tg] if v > tests[tg][1]), default=None) for tg in tests}
    fresh = [tg for tg in tests if lo[tg] is None]
    up = above(zero, ev.starts, fresh)
    ev.found.update((tg, (zero, zero)) for tg in fresh if tg not in up)
    seeds = {}
    for tg in tests:
        if tg not in ev.found:
            a = zero if lo[tg] is None else lo[tg]
            hi = min((t for t, _ in known[tg] if t > a), default=None)
            seeds.setdefault((a, hi), []).append(tg)
    # the lowest interval is probed first, and a rung's bisections before the
    # next rung
    stack = [task(a, b, ev.starts, group, a if b is None else None)
             for (a, b), group in sorted(seeds.items(), key=lambda seed: seed[0][0], reverse=True)]
    while stack:
        points, rows, group, base = stack.pop()
        if len(points) == 2 and base is None:
            bracket = (points[0] if continuous else points[1], points[1])
            ev.found.update(dict.fromkeys(group, bracket))
            continue
        probed, last = probe(rows, points, group, base is not None)
        levels = sorted(set(last.values()), reverse=True)
        for k in levels:
            group_k = [tg for tg in group if last[tg] == k]
            if k + 1 < len(points):
                stack.append(task(points[k], points[k + 1], probed.get(k), group_k))
            elif points[k] == cap:
                eps = max(e for _, e in group_k)
                through = f"t = {SEARCH_CAP}" if continuous else f"{SEARCH_CAP} steps"
                refusals.append(f"distance stays above {eps} through {through}")
            else:
                # a discrete group restarts its gallop at a rung where other
                # targets came out below, as a fresh search would from there
                restart = not continuous and len(levels) > 1
                stack.append(task(points[k], None, probed.get(k), group_k,
                                  points[k] if restart else base))


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
    values = tuple(_Evaluator(chain, query, tol).evaluate([(t, query.metric) for t in times]))
    for (t0, v0), (t1, v1) in zip(zip(times, values), zip(times[1:], values[1:])):
        if v1 > v0 + 1e-9:
            raise NumericalFailure(
                f"distance increased from {v0} at {t0} to {v1} at {t1}"
            )
    return DistanceCurve(query=query, times=times, values=values)
