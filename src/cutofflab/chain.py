"""Finite Markov chains and their three time parametrizations.

A chain is stored either as a dense row-stochastic kernel or as birth-death
rates (birth p, death q, hold r) on the path 0..n.  Both forms carry their
stationary distribution, computed once at construction.  This module holds
the building blocks of evolution:

* ``Chain.apply``   -- one kernel application ``rows @ K``
* ``Chain.lazy``    -- the delta-lazy kernel ``delta*I + (1-delta)*K``
* ``_uniformized``  -- the semigroup ``exp(-t(I-K))`` applied to stacked rows
  by uniformization (Poisson mixture of kernel powers).
* ``_pure_birth_tail`` -- the same Poisson mixture on a pure-birth chain
  given by its rates: the tail of a sum of independent exponentials.

``distances`` decides which of them evolves a start set, on every clock,
and also the step a uniformization pass takes: ``Chain.apply``, or one
product with the dense kernel per term.  Continuous search probes with many
start rows on a small chain use none of them: they multiply by dense powers
E(h) = exp(-h(I-K)) that ``distances`` builds from the dense kernel, and so
do the fixed times there whose uniformization would take more row steps
than their power takes products.

Uniformization accumulates terms until the Poisson mass reaches ``1 - tol``
and renormalizes, so the truncation error in total variation is at most
``tol``.  Every Poisson weight, also in the E(h) sums of ``distances``,
comes from one recurrence, ``_poisson_weights``; above t = 700, where
e^{-t} underflows, e^{-t} enters it in factors that each stay in range.
One pass serves several times: the kernel powers ``rows @ K**i`` are the
same for every time, and each time keeps its own weights, mass and stopping
test, so each result is bit for bit the one a pass of its own gives.  A pass
can stop early, once a caller has read enough of its times in ascending
order.

No evolution runs past ``SEARCH_CAP`` (10**7) steps or time units: a larger
time raises BadShape before the first kernel application.  Above the mixing
scale the rows equal pi to rounding, so those steps would be pure waste.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadDelta,
    BadEpsilon,
    BadShape,
    ChainError,
    NonIntegerTime,
    NotIrreducible,
    NotStochastic,
    NumericalFailure,
    TolTooLoose,
)

# Construction-time tolerances.
ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10

# exp(-x) is a normal double for x up to this; e^{-t} past it enters the
# Poisson weights in factors (see ``_poisson_weights``).
_EXP_RANGE = 700.0

# No evolution runs past this many steps or time units, and mixing-time
# searches give up there.
SEARCH_CAP = 10_000_000


def as_probability_vector(values, size: int | None = None) -> np.ndarray:
    """Validate and return a 1-d probability vector.

    Entries must be finite and nonnegative and sum to 1 within 1e-12.  A
    fresh array is returned with float dust clipped.
    """
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1:
        raise BadShape(f"probability vector must be 1-d, got shape {vec.shape}")
    if size is not None and vec.shape[0] != size:
        raise BadShape(f"expected length {size}, got {vec.shape[0]}")
    if not np.all(np.isfinite(vec)):
        raise BadShape("probability vector has non-finite entries")
    if vec.min(initial=0.0) < -1e-12:
        raise NotStochastic(f"negative probability entry {vec.min()}")
    total = vec.sum()
    if abs(total - 1.0) > 1e-12:
        raise NotStochastic(f"probabilities sum to {total!r}, not 1")
    vec = np.clip(vec, 0.0, None)
    return vec / vec.sum()


def _levels_from_zero(adj: np.ndarray) -> np.ndarray:
    """Breadth-first distance from state 0 on a support digraph; -1 where
    state 0 does not reach."""
    level = np.full(adj.shape[0], -1)
    level[0] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = adj[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    return level


@dataclass(frozen=True, eq=False)
class Chain:
    """An irreducible row-stochastic kernel with its stationary distribution.

    ``form`` is ``"dense"`` or ``"birth_death"``.  Dense chains store
    ``kernel``; birth-death chains store the rate triple ``birth`` (p),
    ``death`` (q), ``hold`` (r) with ``birth[n] == death[0] == 0``.
    Instances are immutable; arrays are write-protected.
    """

    form: str
    stationary: np.ndarray
    kernel: np.ndarray | None = None
    birth: np.ndarray | None = None
    death: np.ndarray | None = None
    hold: np.ndarray | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dense(cls, matrix) -> "Chain":
        """Build a chain from a dense kernel, validating stochasticity and
        irreducibility and solving for the stationary distribution.

        Raises
        ------
        BadShape, NotStochastic, NotIrreducible
        """
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise BadShape(f"kernel must be square, got shape {mat.shape}")
        if mat.shape[0] < 2:
            raise BadShape("need at least two states")
        if not np.all(np.isfinite(mat)):
            raise BadShape("kernel has non-finite entries")
        if mat.min() < 0.0:
            raise NotStochastic(f"negative kernel entry {mat.min()}")
        row_err = np.abs(mat.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise NotStochastic(f"row sums deviate from 1 by {row_err:.3e}")
        # strongly connected: state 0 reaches every state and every state
        # reaches state 0
        adj = mat > 0.0
        if (_levels_from_zero(adj) < 0).any() or (_levels_from_zero(adj.T) < 0).any():
            raise NotIrreducible("support digraph is not strongly connected")
        pi = _dense_stationary(mat)
        chain = cls(form="dense", stationary=pi, kernel=mat)
        _check_stationary(chain)
        _freeze(chain)
        return chain

    @classmethod
    def from_rates(cls, birth, death, hold) -> "Chain":
        """Build a birth-death chain on 0..n from rate arrays p, q, r.

        Requires ``p[n] == q[0] == 0``, ``p+q+r == 1`` per state within
        1e-12, and ``p[i]*q[i+1] > 0`` for irreducibility.  The stationary
        distribution comes from the product formula, accumulated in log
        space so large state spaces cannot overflow.
        """
        p = np.array(birth, dtype=float)
        q = np.array(death, dtype=float)
        r = np.array(hold, dtype=float)
        if not (p.ndim == q.ndim == r.ndim == 1):
            raise BadShape("rate arrays must be 1-d")
        if not (p.shape == q.shape == r.shape):
            raise BadShape(
                f"rate arrays must share a length, got {p.shape}, {q.shape}, {r.shape}"
            )
        if p.shape[0] < 2:
            raise BadShape("need at least two states")
        for name, arr in (("birth", p), ("death", q), ("hold", r)):
            if not np.all(np.isfinite(arr)):
                raise BadShape(f"{name} rates have non-finite entries")
            if arr.min() < 0.0:
                raise NotStochastic(f"negative {name} rate {arr.min()}")
        if p[-1] != 0.0:
            raise NotStochastic("birth rate at the top state must be 0")
        if q[0] != 0.0:
            raise NotStochastic("death rate at the bottom state must be 0")
        sum_err = np.abs(p + q + r - 1.0).max()
        if sum_err > ROW_SUM_TOL:
            raise NotStochastic(f"p+q+r deviates from 1 by {sum_err:.3e}")
        if np.any(p[:-1] * q[1:] <= 0.0):
            raise NotIrreducible("need p[i]*q[i+1] > 0 along the whole path")
        # pi(i) proportional to prod_{k<i} p[k]/q[k+1]; work with logs.
        log_w = np.concatenate(([0.0], np.cumsum(np.log(p[:-1]) - np.log(q[1:]))))
        log_w -= log_w.max()
        w = np.exp(log_w)
        pi = w / w.sum()
        chain = cls(form="birth_death", stationary=pi, birth=p, death=q, hold=r)
        _check_stationary(chain)
        _freeze(chain)
        return chain

    @classmethod
    def from_spec(cls, obj) -> "Chain":
        """Build a chain from a parsed JSON object (see ``load_chain``)."""
        if not isinstance(obj, dict):
            raise BadShape("chain spec must be a JSON object")
        kind = obj.get("type")
        if kind == "dense":
            if "matrix" not in obj:
                raise BadShape('dense chain spec needs a "matrix" field')
            try:
                return cls.from_dense(obj["matrix"])
            except (TypeError, ValueError) as exc:  # ragged or non-numeric nested lists
                raise BadShape(f"malformed matrix: {exc}") from exc
        if kind == "birth_death":
            missing = [k for k in ("p", "q", "r") if k not in obj]
            if missing:
                raise BadShape(f"birth_death chain spec missing fields: {missing}")
            try:
                return cls.from_rates(obj["p"], obj["q"], obj["r"])
            except (TypeError, ValueError) as exc:
                raise BadShape(f"malformed rate arrays: {exc}") from exc
        raise BadShape(f"unknown chain type {kind!r}")

    # -- basic queries -----------------------------------------------------

    @property
    def num_states(self) -> int:
        return self.stationary.shape[0]

    @property
    def top_state(self) -> int:
        """Largest state index n (state space is 0..n)."""
        return self.num_states - 1

    @property
    def is_birth_death(self) -> bool:
        return self.form == "birth_death"

    @cached_property
    def dense_kernel(self) -> np.ndarray:
        """The kernel as a dense array (assembled on demand for rate form)."""
        if self.kernel is not None:
            return self.kernel
        mat = np.diag(self.hold).astype(float)
        idx = np.arange(self.num_states - 1)
        mat[idx, idx + 1] = self.birth[:-1]
        mat[idx + 1, idx] = self.death[1:]
        mat.setflags(write=False)
        return mat

    @cached_property
    def _spectrum(self):
        # spectral.eigen_summary's result, solved once per chain object;
        # spectral imports this module, so the import waits for the call
        from .spectral import _solve_summary

        return _solve_summary(self)

    @cached_property
    def period(self) -> int:
        """The gcd of the chain's cycle lengths; 1 means aperiodic.

        A birth-death chain has period 2 when no state holds and 1 otherwise.
        A dense chain takes the gcd of ``level(u) + 1 - level(v)`` over the
        support edges ``u -> v``, with breadth-first levels from state 0.
        """
        if self.is_birth_death:
            return 1 if np.any(self.hold > 0.0) else 2
        u, v = np.nonzero(self.kernel > 0.0)
        level = self._levels
        return int(np.gcd.reduce(np.abs(level[u] + 1 - level[v])))

    @cached_property
    def _levels(self) -> np.ndarray:
        # Breadth-first distance from state 0 on the support digraph; taken
        # mod the period it numbers the cyclic classes.
        if self.is_birth_death:
            return np.arange(self.num_states)
        return _levels_from_zero(self.kernel > 0.0)

    @cached_property
    def _classes(self) -> np.ndarray:
        # Each state's cyclic class, 0..period-1; one step moves class c to
        # class c + 1 mod the period.
        return self._levels % self.period

    # -- evolution ---------------------------------------------------------

    def apply(self, dist: np.ndarray) -> np.ndarray:
        """One kernel application ``dist @ K``.

        Accepts stacked rows (shape ``(..., num_states)``); birth-death form
        costs O(num_states) per row.  It steps the rows as one contiguous
        run against rates tiled once per row count: a term that would cross
        from one row into the next is multiplied by p_n = 0 or q_0 = 0, so
        each entry gets the sums of a row-by-row step, bit for bit.
        """
        if self.form == "birth_death":
            flat = dist.reshape(-1)
            hold, birth, death = self._tiles.get(flat.size) or self._tile_rates(flat.size)
            out = flat * hold
            out[1:] += flat[:-1] * birth
            out[:-1] += flat[1:] * death
            return out.reshape(dist.shape)
        return dist @ self.kernel

    @cached_property
    def _tiles(self) -> dict:
        return {}

    def _tile_rates(self, size: int) -> tuple:
        # hold, birth and death repeated over size / n rows, trimmed to the
        # entries that one contiguous step reads
        rows = size // self.num_states
        tiles = (
            np.tile(self.hold, rows),
            np.tile(self.birth, rows)[:-1],
            np.tile(self.death, rows)[1:],
        )
        self._tiles[size] = tiles
        return tiles

    def lazy(self, delta: float) -> "Chain":
        """The delta-lazy chain ``delta*I + (1-delta)*K``.

        Requires 0 < delta < 1.  The stationary distribution is unchanged
        and is reused rather than re-solved; the birth-death form stays
        birth-death (rates scale by ``1-delta``).
        """
        delta = _check_delta(delta)
        if self.form == "birth_death":
            chain = Chain(
                form="birth_death",
                stationary=self.stationary,
                birth=(1.0 - delta) * self.birth,
                death=(1.0 - delta) * self.death,
                hold=delta + (1.0 - delta) * self.hold,
            )
        else:
            mat = (1.0 - delta) * self.kernel + delta * np.eye(self.num_states)
            chain = Chain(form="dense", stationary=self.stationary, kernel=mat)
        _freeze(chain)
        return chain


def _freeze(chain: Chain) -> None:
    for arr in (chain.stationary, chain.kernel, chain.birth, chain.death, chain.hold):
        if arr is not None:
            arr.setflags(write=False)


def _dense_stationary(mat: np.ndarray) -> np.ndarray:
    # Solve pi (K - I) = 0 with the last equation replaced by normalization;
    # LAPACK's partially pivoted LU does the elimination.
    n = mat.shape[0]
    system = mat.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _check_stationary(chain: Chain) -> None:
    residual = np.abs(chain.apply(chain.stationary.copy()) - chain.stationary).max()
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NumericalFailure(
            f"stationary residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}"
        )


def load_chain(path) -> Chain:
    """Read a chain spec file (JSON) and build the chain.

    Formats::

        {"type": "dense", "matrix": [[...], ...]}
        {"type": "birth_death", "p": [...], "q": [...], "r": [...]}
    """
    return Chain.from_spec(_read_json(path, "chain spec"))


def _read_json(path, what: str):
    """The JSON value in a file; BadShape "cannot read <what> <path>" when
    the file cannot be opened or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadShape(f"cannot read {what} {path}: {exc}") from exc


# The one check per kind of input; every module validates through these.


def _real(value) -> float | None:
    """A real number as a Python float: an int, a float or a numpy integer
    or floating scalar, never a bool; None for anything else.  An int too
    large for a double reads as an infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _integer(value) -> int | None:
    """An integer as a Python int: an int or a numpy integer scalar, never a
    bool; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return None
    return int(value)


def _check_tol(tol) -> float:
    """A truncation tolerance in (0, 1e-6]."""
    value = _real(tol)
    if value is None or not 0.0 < value <= 1e-6:
        raise TolTooLoose(f"tol must lie in (0, 1e-6], got {tol!r}")
    return value


def _check_time(time) -> float:
    """A continuous time: a finite number >= 0, not a bool."""
    value = _real(time)
    if value is None or not (math.isfinite(value) and value >= 0):
        raise BadShape(f"time must be a finite nonnegative number, got {time!r}")
    return value


def _as_steps(time) -> int:
    """A step count: an integer >= 0, or a float holding one."""
    steps = _integer(time)
    if steps is None:
        value = _real(time)
        if value is None or not value.is_integer():
            raise NonIntegerTime(f"discrete times must be integers, got {time!r}")
        steps = int(value)
    if steps < 0:
        raise BadShape(f"time must be nonnegative, got {time!r}")
    return steps


def _check_delta(delta) -> float:
    """A laziness delta in (0, 1)."""
    value = _real(delta)
    if value is None or not 0.0 < value < 1.0:
        raise BadDelta(f"laziness delta must lie in (0, 1), got {delta!r}")
    return value


def _check_eps(eps) -> float:
    """A threshold eps in (0, 1)."""
    value = _real(eps)
    if value is None or not 0.0 < value < 1.0:
        raise BadEpsilon(f"eps must lie in (0, 1), got {eps!r}")
    return value


def _check_separation(pi) -> None:
    """Separation divides by pi; refuse it where an entry underflowed to 0."""
    if not np.all(pi):
        raise ChainError(
            "a stationary probability underflows to 0, so separation is undefined"
        )


def _check_cap(time) -> None:
    """Refuse an evolution past ``SEARCH_CAP`` before it takes a step."""
    if time > SEARCH_CAP:
        raise BadShape(f"time {time!r} exceeds the evolution cap {SEARCH_CAP}")


def _poisson_weights(time: float):
    """The collected terms (i, w_i) of Poisson(time), in ascending i and
    without end: a caller stops where its sum needs no more.

    The weights follow w_0 = e^{-t}, w_i = w_{i-1} t / i.  Past
    ``_EXP_RANGE``, where e^{-t} underflows, e^{-t} enters as k = 2**j
    equal factors e^{-t/k} with t/k in (350, 700]: the running weight starts
    at one factor and takes the next whenever it passes 1.  Terms are
    collected once every factor is in; the weights before that lie below
    t e^{-350} and count as underflowed.  For t <= ``_EXP_RANGE``, k = 1.
    """
    parts = 1
    while time / parts > _EXP_RANGE:
        parts *= 2
    factor = math.exp(-time / parts)
    pending, weight, i = parts - 1, factor, 0
    while True:
        if not pending:
            yield i, weight
        i += 1
        weight *= time / i
        if pending and weight > 1.0:
            weight *= factor
            pending -= 1


def _poisson_sums(step, rows: np.ndarray, times: tuple, tol: float):
    """For each of the ascending ``times`` in turn, the Poisson(time) sum of
    the powers ``rows``, ``step(rows)``, ``step(step(rows))``, ... and its
    collected mass, yielded once that time's mass reaches ``1 - tol`` or its
    terms reach int(t + 40 sqrt(t + 1) + 120).  A time past ``SEARCH_CAP``
    is refused before the first step.  The pass keeps each time's sum, mass
    and next term, and steps only while some time needs a term."""
    _check_cap(times[-1])
    stop, n = 1.0 - tol, len(times)
    terms = [_poisson_weights(time) for time in times]
    heads, sums, masses = [next(weights) for weights in terms], [0.0] * n, [0.0] * n
    caps = [int(time + 40.0 * math.sqrt(time + 1.0) + 120.0) for time in times]
    active, i, k = range(n), 0, 0
    while True:
        for a in active:
            j, weight = heads[a]
            if j == i:
                sums[a] += weight * rows
                masses[a] += weight
                heads[a] = next(terms[a])
        active = [a for a in active if masses[a] < stop and i < caps[a]]
        while k not in active:
            yield sums[k], masses[k]
            k += 1
            if k == n:
                return
        i += 1
        rows = step(rows)


def _uniformized(step, rows: np.ndarray, times: tuple, tol: float, until=None) -> list:
    """Uniformization core: ``rows @ exp(-t (I - K))`` for stacked ``rows``
    at each of the ascending ``times``, from one power sequence
    ``rows @ K**i``, where ``step(rows)`` is ``rows @ K``.  The caller
    picks the step (``Chain.apply``, or a product with the dense kernel);
    this function reads no chain.

    Each time keeps its own Poisson weights, mass, stopping test and
    accumulated rows (``_poisson_sums``), and its sum is divided by its
    mass, so its result equals a pass of its own bit for bit.  The times'
    rows are finished in ascending order, each as soon as its sum completes.
    ``until``, if given, is called with each finished time's rows in turn,
    and the pass stops once it returns True; the list then holds the rows of
    the times finished so far.  Otherwise the pass runs to the largest
    time's last term.
    """
    finished = []
    for acc, mass in _poisson_sums(step, rows, times, tol):
        finished.append(acc / mass)
        if until is not None and until(finished[-1]):
            break
    return finished


def _pure_birth_tail(rates: np.ndarray, time: float, tol: float) -> float:
    """P(S > time) for S the absorption time of the pure-birth chain
    0 -> 1 -> ... -> m whose stage rates are ``rates``, that is a sum of
    independent exponentials at those rates.

    The chain is uniformized at the largest rate L, and the mass still on
    stages 0..m-1 after i jumps is summed with the Poisson(L * time) weights.
    Every term is nonnegative, so nothing cancels.  The sum is not divided by
    the collected Poisson mass: it falls short of the tail by at most the
    mass left out, which is below ``tol``.  L * time past ``SEARCH_CAP``
    is refused.
    """
    tol = _check_tol(tol)
    rate = float(rates.max())
    horizon = rate * time
    move = rates / rate

    def step(mass):
        moved = mass * move
        return (mass - moved) + np.append(0.0, moved[:-1])

    acc, _ = next(_poisson_sums(step, np.eye(1, rates.shape[0])[0], (horizon,), tol))
    return float(acc.sum())
