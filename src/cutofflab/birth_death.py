"""Birth-death specializations: passage times, hitting bounds, and the
strong-stationary-time view of separation.

For an irreducible birth-death chain on 0..n the corner-to-corner passage
time tau_n from 0 satisfies two exact identities used here as mutual
cross-checks:

* rate form:      E[tau_n] = sum_k pi([0,k]) / (pi(k) p_k)
* spectral form:  E[tau_n] = sum_j 1/theta_j over the eigenvalues theta_j of
  I - K restricted to {0..n-1}

Separation from the corner in continuous time equals the tail P(S > t) of a
sum S of independent exponentials whose rates are the nonzero eigenvalues of
I - K (Diaconis-Fill strong stationary duality).  S is the absorption time
of the dual pure-birth chain 0 -> 1 -> ... -> m with those rates, and
``sst_tail`` uniformizes that chain at its largest rate L: the tail is a
Poisson mixture of the mass still transient after each jump, a sum of
nonnegative terms in which neither pi nor any cancellation enters.  ``tol``
bounds the error one-sided (the value is low by at most tol), and L * t past
``SEARCH_CAP`` is refused as for every other evolution.

All rate-side sums use the prefix recurrence
``S_{k+1} = S_k q_{k+1}/p_k + 1`` for ``pi([0,k])/pi(k)``; run on the
reversed rates it is ``R_k = R_{k+1} p_k/q_{k+1} + 1`` for
``pi([k,n])/pi(k)``.  They never form pi itself, so pi may span hundreds
of orders of magnitude; a ratio overflows only where the mass on one side
of k outweighs pi(k) by more than the double range (S_n = 2**n on
Ehrenfest n, past it from n = 1024).  An overflowed ratio reads inf:
``passage_time`` then refuses, and ``hitting_time_bound`` takes its
minimum over the sums that stayed finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Chain, _check_eps, _check_separation, _check_time, _pure_birth_tail, _real
from .distances import DistanceQuery, _Evaluator
from .errors import BadDelta, BadShape, ChainError, NotBirthDeath, NumericalFailure
from .spectral import _check_resolved, eigen_summary, tridiagonal_eigenvalues


def _require_bd(chain: Chain) -> None:
    if not chain.is_birth_death:
        raise NotBirthDeath("operation requires the birth-death form")


def _prefix_weight_ratios(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """S_k = pi([0,k]) / pi(k) for k = 0..n, from birth rates p and death
    rates q.  On the reversed rates (q[::-1], p[::-1]) it reads the chain
    from n down to 0 and gives R_k = pi([k,n]) / pi(k) in reverse order."""
    s = np.empty(p.shape[0])
    s[0] = 1.0
    for k in range(p.shape[0] - 1):
        s[k + 1] = s[k] * q[k + 1] / p[k] + 1.0
    return s


@dataclass(frozen=True)
class PassageReport:
    """Corner-to-corner expected passage time, computed both ways."""

    mean_by_rates: float
    mean_by_spectrum: float
    residual: float


def passage_time(chain: Chain) -> PassageReport:
    """E[tau_n] from state 0 via rates and via the restricted spectrum.

    ``residual`` is the relative difference between the two routes, an
    internal consistency certificate.  The smallest restricted eigenvalue
    is at most 1/E[tau_n], and it carries the absolute rounding error of the
    largest, about u * theta_max with u = 2.2e-16.  So the spectral route is
    answered only while u * theta_max / theta_min <= 1e-6, the resolution
    rule ``eigen_summary`` applies too, and the residual tracks that ratio:
    on Ehrenfest n it reads 4e-7 against 5e-7 at n = 30, 0.42 against 0.87
    at n = 50.  Raises ChainError when the restricted spectrum is not
    resolvable in that sense (Ehrenfest n >= 40) or the mean overflows a
    double (Ehrenfest n = 1100).
    """
    _require_bd(chain)
    with np.errstate(over="ignore"):
        terms = _prefix_weight_ratios(chain.birth, chain.death)[:-1] / chain.birth[:-1]
        if not np.isfinite(terms.sum()):
            raise ChainError("the mean passage time overflows a double")
    by_rates = math.fsum(terms.tolist())

    # Principal submatrix of I - K on {0..n-1}; positive definite, so all
    # eigenvalues are strictly positive in exact arithmetic.
    diag = (1.0 - chain.hold)[:-1]
    off2 = (chain.birth[:-1] * chain.death[1:])[:-1]
    theta = tridiagonal_eigenvalues(diag, off2)
    _check_resolved(theta, ChainError, "the restricted spectrum")
    by_spectrum = math.fsum((1.0 / theta).tolist())

    residual = abs(by_rates - by_spectrum) / max(abs(by_rates), abs(by_spectrum))
    return PassageReport(
        mean_by_rates=by_rates, mean_by_spectrum=by_spectrum, residual=residual
    )


def hitting_time_bound(chain: Chain) -> tuple[float, int]:
    """Two-sided hitting bound min_i [sum_{k<i} S_k/p_k + sum_{k>i} R_k/q_k].

    Returns (value, argmin index); ties resolve to the smallest index.  The
    value dominates the spectral sum of the full chain.  Raises ChainError
    when every sum overflows a double.
    """
    _require_bd(chain)
    n1 = chain.num_states
    left = np.zeros(n1)
    right = np.zeros(n1)
    with np.errstate(over="ignore"):
        s = _prefix_weight_ratios(chain.birth, chain.death)
        r = _prefix_weight_ratios(chain.death[::-1], chain.birth[::-1])[::-1]
        left[1:] = np.cumsum(s[:-1] / chain.birth[:-1])
        right[:-1] = np.cumsum((r[1:] / chain.death[1:])[::-1])[::-1]
        values = left + right
    best = int(np.argmin(values))
    if not np.isfinite(values[best]):
        raise ChainError("every term of the hitting bound overflows a double")
    return float(values[best]), best


@dataclass(frozen=True)
class StationaryTimeSummary:
    """Exponential-rate view of the fastest strong stationary time.

    ``rates`` are the nonzero eigenvalues of I - K (ascending);
    ``mean = sum 1/rate`` equals the spectral sum and
    ``variance = sum 1/rate^2``.
    """

    rates: np.ndarray
    mean: float
    variance: float


def stationary_time_summary(chain: Chain) -> StationaryTimeSummary:
    _require_bd(chain)
    rates = eigen_summary(chain).eigenvalues
    mean = math.fsum((1.0 / rates).tolist())
    variance = math.fsum((1.0 / rates**2).tolist())
    if variance > mean * mean * (1.0 + 1e-12):
        raise NumericalFailure("variance exceeded squared mean; spectrum corrupt")
    return StationaryTimeSummary(rates=rates, mean=mean, variance=variance)


def sst_tail(chain: Chain, time: float, tol: float = 1e-10) -> float:
    """Tail P(S > time) of the strong stationary time from the corner.

    S is the absorption time of the pure-birth chain whose rates are
    ``stationary_time_summary(chain).rates``; the tail is the mass that chain
    still holds on its transient states, uniformized at the largest rate L.
    The value is low by at most ``tol`` and never high, beyond rounding.
    Raises TolTooLoose unless 0 < tol <= 1e-6, and BadShape when L * time
    exceeds ``SEARCH_CAP``.
    """
    _require_bd(chain)
    time = _check_time(time)
    return _pure_birth_tail(stationary_time_summary(chain).rates, time, tol)


def corner_separation(
    chain: Chain,
    time,
    mode: str = "continuous",
    delta: float | None = None,
    tol: float = 1e-10,
) -> float:
    """Separation seen from corner 0 at corner n: ``1 - P^t(0,n)/pi(n)``.

    In continuous time this equals full worst-case separation for every
    birth-death chain.  In lazy mode the identity needs laziness >= 1/2, so
    smaller deltas are refused.  ``tol`` bounds the continuous clock's
    truncation; both clocks check it.
    """
    _require_bd(chain)
    n = chain.top_state
    _check_separation(chain.stationary[n])
    corner = np.zeros(chain.num_states)
    corner[0] = 1.0
    if mode == "continuous":
        query = DistanceQuery(mode, "sep", start=corner)
    elif mode == "lazy":
        value = _real(delta)
        if value is None or not 0.5 <= value < 1.0:
            raise BadDelta(f"lazy corner identity needs delta in [1/2, 1), got {delta!r}")
        query = DistanceQuery(mode, "sep", delta=value, start=corner)
    else:
        raise BadShape(f"corner separation supports lazy or continuous, got {mode!r}")
    row = _Evaluator(chain, query, tol).evolve([time])[0][0]
    value = 1.0 - row[n] / chain.stationary[n]
    return min(max(float(value), 0.0), 1.0)


def sep_bounds(summary: StationaryTimeSummary, eps: float) -> tuple[float, float, float, float]:
    """Brackets for the continuous separation mixing time at level eps.

    Returns ``(lower, upper, lower_mean, upper_mean)``: the first pair is
    the one-sided Chebyshev bracket from (mean, variance); the second pair
    multiplies the mean alone by sqrt-based constants.  Lower bounds clamp
    at 0.
    """
    eps = _check_eps(eps)
    mean, var = summary.mean, summary.variance
    spread = math.sqrt(var / (1.0 / eps - 1.0))
    lower = max(0.0, mean - spread)
    upper = mean + math.sqrt((1.0 / eps - 1.0) * var)
    root_e, root_1e = math.sqrt(eps), math.sqrt(1.0 - eps)
    lower_mean = max(0.0, (root_1e - root_e) / root_1e * mean)
    upper_mean = (root_e + root_1e) / root_e * mean
    return lower, upper, lower_mean, upper_mean
