"""Finite Markov chains and their three time parametrizations.

A chain is stored either as a dense row-stochastic kernel or as birth-death
rates (birth p, death q, hold r) on the path 0..n.  Both forms carry their
stationary distribution, computed once at construction.  Three evolutions are
exposed:

* ``step_distribution``   -- discrete time, ``start @ K**m``
* ``Chain.lazy``          -- the delta-lazy kernel ``delta*I + (1-delta)*K``
* ``continuous_distribution`` -- the semigroup ``exp(-t(I-K))`` applied by
  uniformization (Poisson mixture of kernel powers).

Uniformization accumulates terms until the Poisson mass reaches ``1 - tol``
and renormalizes, so the truncation error in total variation is at most
``tol``.  Above t = 700 the Poisson weights are tracked in log space to avoid
underflow of the leading terms.  One pass serves several times: the kernel
powers ``start @ K**i`` are the same for every time, and each time keeps its
own weights, mass and stopping test, so each result is bit for bit the one a
pass of its own gives.

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
    TolTooLoose,
)

# Construction-time tolerances.
ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10

# Poisson weights switch to log-space tracking above this time.
_LOG_SPACE_TIME = 700.0

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


def _clean_distribution(vec: np.ndarray) -> np.ndarray:
    # Remove float dust produced by long evolutions; magnitudes beyond dust
    # would indicate a bug upstream.
    if vec.min() < -1e-9:
        raise ArithmeticError(f"distribution drifted negative: {vec.min()}")
    vec = np.clip(vec, 0.0, None)
    return vec / vec.sum(axis=-1, keepdims=True) if vec.ndim > 1 else vec / vec.sum()


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
        costs O(num_states) per row.
        """
        if self.form == "birth_death":
            out = dist * self.hold
            out[..., 1:] += dist[..., :-1] * self.birth[:-1]
            out[..., :-1] += dist[..., 1:] * self.death[1:]
            return out
        return dist @ self.kernel

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
        raise ArithmeticError(
            f"stationary residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}"
        )


def load_chain(path) -> Chain:
    """Read a chain spec file (JSON) and build the chain.

    Formats::

        {"type": "dense", "matrix": [[...], ...]}
        {"type": "birth_death", "p": [...], "q": [...], "r": [...]}
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadShape(f"cannot read chain spec {path}: {exc}") from exc
    return Chain.from_spec(obj)


def step_distribution(chain: Chain, start, steps: int) -> np.ndarray:
    """Distribution after ``steps`` kernel applications from ``start``."""
    steps = _as_steps(steps)
    _check_cap(steps)
    vec = as_probability_vector(start, chain.num_states)
    for _ in range(steps):
        vec = chain.apply(vec)
    return _clean_distribution(vec)


def continuous_distribution(chain: Chain, start, time: float, tol: float = 1e-10) -> np.ndarray:
    """Distribution ``start @ exp(-time (I - K))`` by uniformization.

    Accumulates Poisson(time)-weighted kernel powers until the collected
    mass reaches ``1 - tol`` and renormalizes, keeping the truncation error
    in total variation below ``tol``.
    """
    _check_tol(tol)
    time = _check_time(time)
    vec = as_probability_vector(start, chain.num_states)
    out = _uniformized(chain, vec, (time,), tol)[0]
    return _clean_distribution(out)


# The one check per kind of input; every module validates through these.


def _check_tol(tol: float) -> None:
    if not (isinstance(tol, (int, float)) and 0.0 < tol <= 1e-6):
        raise TolTooLoose(f"tol must lie in (0, 1e-6], got {tol!r}")


def _check_time(time) -> float:
    """A continuous time: a finite number >= 0, not a bool."""
    if isinstance(time, bool) or not (
        isinstance(time, (int, float, np.integer)) and math.isfinite(time) and time >= 0
    ):
        raise BadShape(f"time must be a finite nonnegative number, got {time!r}")
    return float(time)


def _as_steps(time) -> int:
    """A step count: an integer >= 0, or a float holding one."""
    if isinstance(time, (int, np.integer)) and not isinstance(time, bool):
        steps = int(time)
    elif isinstance(time, float) and time.is_integer():
        steps = int(time)
    else:
        raise NonIntegerTime(f"discrete times must be integers, got {time!r}")
    if steps < 0:
        raise BadShape(f"time must be nonnegative, got {time!r}")
    return steps


def _check_delta(delta) -> float:
    """A laziness delta in (0, 1)."""
    if not (isinstance(delta, (int, float)) and 0.0 < delta < 1.0):
        raise BadDelta(f"laziness delta must lie in (0, 1), got {delta!r}")
    return float(delta)


def _check_eps(eps) -> float:
    """A threshold eps in (0, 1)."""
    if not (isinstance(eps, (int, float)) and 0.0 < eps < 1.0):
        raise BadEpsilon(f"eps must lie in (0, 1), got {eps!r}")
    return float(eps)


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


class _PoissonSum:
    """One time's Poisson weights, collected mass and stopping test in a
    uniformization pass, in exactly the operations of a pass of its own."""

    def __init__(self, time: float, rows: np.ndarray, tol: float):
        self.time = time
        self.log_space = time > _LOG_SPACE_TIME
        if self.log_space:
            self.log_w = -time
            self.weight = 0.0  # exp(-t) underflows; weights surface near i ~ t
        else:
            self.weight = math.exp(-time)
        self.acc = self.weight * rows
        self.mass = self.weight
        self.stop = 1.0 - tol
        self.cap = int(time + 40.0 * math.sqrt(time + 1.0) + 120.0)

    def wants(self, i: int) -> bool:
        """Whether term i + 1 is still needed after terms 0..i."""
        return self.mass < self.stop and i < self.cap

    def add(self, i: int, rows: np.ndarray) -> bool:
        """Collect term i, the rows after i kernel applications, and say
        whether term i + 1 is needed."""
        if self.log_space:
            self.log_w += math.log(self.time) - math.log(i)
            self.weight = math.exp(self.log_w) if self.log_w > -745.0 else 0.0
        else:
            self.weight *= self.time / i
        if self.weight != 0.0:
            self.acc += self.weight * rows
            self.mass += self.weight
        return self.wants(i)


def _uniformized(chain: Chain, rows: np.ndarray, times: tuple, tol: float) -> list:
    """Uniformization core: ``rows @ exp(-t (I - K))`` at each of the
    ascending ``times``, from one power sequence ``rows @ K**i``.

    ``rows`` may be a vector or stacked rows.  Each time keeps its own Poisson
    weights, mass, stopping test and accumulated rows, so its result equals a
    pass of its own bit for bit; the pass runs to the largest time's last
    term and holds one accumulator per time.
    """
    _check_cap(times[-1])
    # One matmul per term beats the banded update when many rows evolve at
    # once; the banded update wins for a few rows on a large chain.
    if (
        rows.ndim == 2
        and 4 * rows.shape[0] >= chain.num_states
        and chain.num_states <= 600
    ):
        kernel = chain.dense_kernel
        step = kernel.__rmatmul__
    else:
        step = chain.apply
    sums = [_PoissonSum(time, rows, tol) for time in times]
    active = [s for s in sums if s.wants(0)]
    i = 0
    while active:
        i += 1
        rows = step(rows)
        active = [s for s in active if s.add(i, rows)]
    return [s.acc / s.mass for s in sums]
