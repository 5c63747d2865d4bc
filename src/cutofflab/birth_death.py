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
I - K.  ``sst_tail`` evaluates that tail by the classical alternating
product formula, switching to direct uniformization of the corner entry
whenever the formula would be numerically untrustworthy (clustered rates or
oversized intermediate terms).

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

from .chain import (
    Chain,
    _as_steps,
    _check_cap,
    _check_eps,
    _check_separation,
    _check_time,
    _check_tol,
    _uniformized,
)
from .errors import BadDelta, BadShape, ChainError, NotBirthDeath
from .spectral import eigen_summary, tridiagonal_eigenvalues

# Alternating formula is abandoned when consecutive rates are closer than
# this fraction of the gap, or when the summed term magnitudes would leave
# fewer than ~8 trustworthy digits.
SPACING_FLOOR = 1e-6
STABILITY_CAP = 2e4


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


# passage_time answers by the spectrum only while u * theta_max / theta_min
# stays at or below this resolution
_UNIT_ROUNDOFF = 2.2e-16
_SPECTRUM_RESOLUTION = 1e-6


def passage_time(chain: Chain) -> PassageReport:
    """E[tau_n] from state 0 via rates and via the restricted spectrum.

    ``residual`` is the relative difference between the two routes, an
    internal consistency certificate.  The smallest restricted eigenvalue
    is at most 1/E[tau_n], and it carries the absolute rounding error of the
    largest, about u * theta_max with u = 2.2e-16.  So the spectral route is
    answered only while u * theta_max / theta_min <= 1e-6, and the residual
    tracks that ratio: on Ehrenfest n it reads 4e-7 against 5e-7 at n = 30,
    0.42 against 0.87 at n = 50.  Raises ChainError when the restricted
    spectrum is not resolvable in that sense (Ehrenfest n >= 40) or the mean
    overflows a double (Ehrenfest n = 1100).
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
    # u * theta_max / theta_min > 1e-6, also when theta_min is not positive
    if _UNIT_ROUNDOFF * theta[-1] > _SPECTRUM_RESOLUTION * theta[0]:
        raise ChainError(
            f"the restricted spectrum is not resolvable: smallest eigenvalue {theta[0]:.3g} "
            f"against rounding error {_UNIT_ROUNDOFF * theta[-1]:.3g} of the largest"
        )
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
    ``mean = sum 1/rate`` equals the spectral sum, ``variance = sum 1/rate^2``,
    and ``min_spacing`` is the smallest consecutive rate gap.
    """

    rates: np.ndarray
    mean: float
    variance: float
    min_spacing: float


def stationary_time_summary(chain: Chain) -> StationaryTimeSummary:
    _require_bd(chain)
    rates = eigen_summary(chain).eigenvalues
    mean = math.fsum((1.0 / rates).tolist())
    variance = math.fsum((1.0 / rates**2).tolist())
    if variance > mean * mean * (1.0 + 1e-12):
        raise ArithmeticError("variance exceeded squared mean; spectrum corrupt")
    spacing = float(np.diff(rates).min()) if rates.shape[0] > 1 else math.inf
    return StationaryTimeSummary(
        rates=rates, mean=mean, variance=variance, min_spacing=spacing
    )


def _alternating_tail(rates: np.ndarray, time: float) -> float:
    """P(sum of independent exponentials > time) by the alternating product
    formula; raises ArithmeticError when the evaluation cannot be trusted.

    Rates ascending; with distinct rates the tail is
    sum_j [prod_{k != j} rate_k/(rate_k - rate_j)] exp(-rate_j t).
    Products are accumulated as log magnitudes (the sign of term j is
    (-1)^j for sorted rates) and the signed terms are added with exact
    compensated summation.
    """
    m = rates.shape[0]
    if m == 1:
        return math.exp(-rates[0] * time)
    log_rates = np.log(rates)
    diffs = np.abs(rates[:, None] - rates[None, :])
    np.fill_diagonal(diffs, 1.0)
    with np.errstate(divide="ignore"):
        log_mag = log_rates.sum() - log_rates - np.log(diffs).sum(axis=0)
    exponents = log_mag - rates * time
    if exponents.max() > 700.0:
        raise ArithmeticError("alternating terms overflow")
    terms = np.exp(exponents)
    if terms.sum() > STABILITY_CAP:
        raise ArithmeticError("alternating terms too large for 1e-8 accuracy")
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    value = math.fsum((signs * terms).tolist())
    return min(max(value, 0.0), 1.0)


def sst_tail(chain: Chain, time: float, tol: float = 1e-10, method: str = "auto") -> float:
    """Tail P(S > time) of the strong stationary time from the corner.

    ``method="alternating"`` forces the product formula (erroring when it is
    unstable), ``"uniformized"`` forces the corner-entry evolution
    ``1 - H_t(0,n)/pi(n)``, and ``"auto"`` uses the formula whenever the
    rate spacing and term magnitudes allow, falling back otherwise.
    """
    _require_bd(chain)
    time = _check_time(time)
    if method not in ("auto", "alternating", "uniformized"):
        raise BadShape(f"unknown method {method!r}")
    if method == "uniformized":
        return corner_separation(chain, time, mode="continuous", tol=tol)
    summary = stationary_time_summary(chain)
    if method == "alternating":
        if summary.min_spacing < SPACING_FLOOR * summary.rates[0]:
            raise ArithmeticError("rates too clustered for the alternating formula")
        return _alternating_tail(summary.rates, time)
    if summary.min_spacing < SPACING_FLOOR * summary.rates[0]:
        return corner_separation(chain, time, mode="continuous", tol=tol)
    try:
        return _alternating_tail(summary.rates, time)
    except ArithmeticError:
        return corner_separation(chain, time, mode="continuous", tol=tol)


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
    smaller deltas are refused.
    """
    _require_bd(chain)
    n = chain.top_state
    _check_separation(chain.stationary[n])
    start = np.zeros(chain.num_states)
    start[0] = 1.0
    if mode == "continuous":
        _check_tol(tol)
        row = _uniformized(chain, start, (_check_time(time),), tol)[0]
    elif mode == "lazy":
        if not (isinstance(delta, (int, float)) and 0.5 <= delta < 1.0):
            raise BadDelta(f"lazy corner identity needs delta in [1/2, 1), got {delta!r}")
        steps = _as_steps(time)
        _check_cap(steps)
        lazy = chain.lazy(float(delta))
        row = start
        for _ in range(steps):
            row = lazy.apply(row)
    else:
        raise BadShape(f"corner separation supports lazy or continuous, got {mode!r}")
    value = 1.0 - row[n] / chain.stationary[n]
    return min(max(float(value), 0.0), 1.0)


def sep_bounds(summary: StationaryTimeSummary, eps: float) -> tuple[float, float, float, float]:
    """Brackets for the continuous separation mixing time at level eps.

    Returns ``(lower, upper, lower_mean, upper_mean)``: the first pair is
    the one-sided Chebyshev bracket from (mean, variance); the second pair
    multiplies the mean alone by sqrt-based constants.  Lower bounds clamp
    at 0.
    """
    _check_eps(eps)
    mean, var = summary.mean, summary.variance
    spread = math.sqrt(var / (1.0 / eps - 1.0))
    lower = max(0.0, mean - spread)
    upper = mean + math.sqrt((1.0 / eps - 1.0) * var)
    root_e, root_1e = math.sqrt(eps), math.sqrt(1.0 - eps)
    lower_mean = max(0.0, (root_1e - root_e) / root_1e * mean)
    upper_mean = (root_e + root_1e) / root_e * mean
    return lower, upper, lower_mean, upper_mean
