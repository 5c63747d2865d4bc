"""Chain families, trend scans, and inequality verification.

Families (all birth-death on 0..n):

* ``ehrenfest``       p_i = 1 - i/n, q_i = i/n; periodic base chain
* ``path_symmetric``  half steps in the interior, half holding at the ends
* ``path_biased``     birth rho / death 1-rho, holding at the ends
* ``random_bd``       seeded rates, floored so p_i * q_{i+1} >= 0.02 and
                      p_i + q_{i+1} <= 0.9 (monotone, aperiodic)

``family_scan`` produces a FamilyReport: the product gap * spectral_sum per
size drives the trend verdict (grows 1.5x and near-monotone ->
"cutoff-trend"; flat within 30% -> "no-cutoff-trend"; anything else
"inconclusive").  A nonempty eps grid adds mixing columns that compare
continuous times against delta-lazy times, whose ratio should stabilize near
1 - delta; an empty grid leaves them out.

``verify_bounds`` instantiates every applicable inequality relating the
metrics, the spectrum, and the stationary-time brackets on concrete grids,
reporting a margin per instance.  It always evaluates distances with
exhaustive start maximization.  The endpoint shortcut is proved exact only
for separation in continuous time and in lazy time with delta >= 1/2 (the
corner identity).  Elsewhere it can undershoot, also on aperiodic monotone
chains: ``random_bd`` is both and breaks it for tv (see ``distances``).
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .chain import Chain, _check_delta, _check_eps, _check_tol, _integer, _read_json, _real
from .distances import DistanceQuery, _Evaluator
from .errors import BadFamily, BadShape, NoConvergence, NotReversible, NumericalFailure
from .birth_death import sep_bounds, stationary_time_summary
from .spectral import beta_delta, eigen_summary

FAMILY_NAMES = ("ehrenfest", "path_symmetric", "path_biased", "random_bd")
DEFAULT_EPS_GRID = (0.05, 0.1, 0.25, 0.5, 0.75)
DEFAULT_DELTA = 0.5
VERIFY_EPS_GRID = (0.1, 0.2, 0.4)
MARGIN_TOL = -1e-9

# Trend thresholds on the product gap * spectral_sum across sizes.
GROWTH_FACTOR = 1.5
FLAT_FACTOR = 1.3
DIP_TOLERANCE = 0.9


class _Record:
    """JSON through the dataclass fields, the one schema.  ``to_dict`` writes
    every field in declaration order, which is the JSON key order: a nested
    record through its own ``to_dict``, a tuple as a list, and a mapping (a
    mixing column) as its sorted [eps, t] pairs.  ``from_dict`` reads every
    field back, through the ``load`` in the field's metadata where it has one."""

    def to_dict(self) -> dict:
        return {f.name: _json_form(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj: dict):
        return cls(**{f.name: f.metadata.get("load", _same)(obj[f.name]) for f in fields(cls)})


def _json_form(value):
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, dict):
        return [list(pair) for pair in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_json_form(v) for v in value]
    return value


def _same(value):
    return value


def _quoted(names: list[str]) -> str:
    return " and ".join(f'"{name}"' for name in names)


# The metadata of a tuple field, whose JSON form is a list.
_TUPLE = {"load": tuple}


@dataclass(frozen=True)
class FamilySpec(_Record):
    """A family name plus the sizes to scan and optional parameters.

    ``rho`` applies to path_biased only; ``seed`` to random_bd only.
    ``delta`` and ``eps_grid`` are optional scan defaults: ``family_scan``
    uses them wherever its own arguments are left out.  Numbers are stored
    as Python ints and floats, whatever numeric type they came in as.
    """

    family: str
    sizes: tuple[int, ...] = field(metadata=_TUPLE)
    rho: float | None = None
    seed: int | None = None
    delta: float | None = None
    eps_grid: tuple[float, ...] | None = field(default=None, metadata=_TUPLE)

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise BadFamily(f"unknown family {self.family!r}; choose from {FAMILY_NAMES}")
        given = _as_tuple(self.sizes, "sizes")
        sizes = tuple(_integer(n) for n in given)
        if None in sizes:
            raise BadFamily(f"sizes must be integers, got {list(given)!r}")
        if len(sizes) == 0:
            raise BadFamily("sizes must be nonempty")
        if any(n < 2 for n in sizes):
            raise BadFamily(f"every size must be >= 2, got {sizes}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise BadFamily(f"sizes must be strictly increasing, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        if self.family == "path_biased":
            rho = _real(self.rho)
            if rho is None or not (0.0 < rho < 1.0 and rho != 0.5):
                raise BadFamily(f"path_biased needs rho in (0,1) \\ {{1/2}}, got {self.rho!r}")
            object.__setattr__(self, "rho", rho)
        elif self.rho is not None:
            raise BadFamily(f"rho only applies to path_biased, not {self.family}")
        if self.family == "random_bd":
            seed = _integer(self.seed)
            if seed is None or seed < 0:
                raise BadFamily(f"random_bd needs a nonnegative integer seed, got {self.seed!r}")
            object.__setattr__(self, "seed", seed)
        elif self.seed is not None:
            raise BadFamily(f"seed only applies to random_bd, not {self.family}")
        if self.eps_grid is not None:
            given = _as_tuple(self.eps_grid, "eps_grid")
            grid = tuple(_real(e) for e in given)
            if any(e is None or not 0.0 < e < 1.0 for e in grid):
                raise BadFamily(f"eps_grid entries must lie in (0,1), got {list(given)!r}")
            object.__setattr__(self, "eps_grid", grid)
        if self.delta is not None:
            delta = _real(self.delta)
            if delta is None or not 0.0 < delta < 1.0:
                raise BadFamily(f"delta must lie in (0,1), got {self.delta!r}")
            object.__setattr__(self, "delta", delta)

    def to_dict(self) -> dict:
        """The JSON form of the fields that are not None."""
        return {k: v for k, v in super().to_dict().items() if v is not None}

    @classmethod
    def from_dict(cls, obj) -> "FamilySpec":
        """A spec from a JSON object that has every field without a default,
        no key that is not a field, and for every tuple field a list or the
        field's default."""
        if not isinstance(obj, dict):
            raise BadShape("family spec must be a JSON object")
        schema = fields(cls)
        required = [f.name for f in schema if f.default is MISSING]
        if not set(required) <= set(obj):
            raise BadShape(f"family spec needs {_quoted(required)} fields")
        unknown = set(obj) - {f.name for f in schema}
        if unknown:
            raise BadShape(f"unknown family spec fields: {sorted(unknown)}")
        lists = [f for f in schema if f.metadata.get("load") is tuple]
        if any(not isinstance(obj.get(f.name), list) and obj.get(f.name) is not f.default
               for f in lists):
            raise BadShape(f"family spec {_quoted([f.name for f in lists])} must be JSON lists")
        return cls(**obj)


def _as_tuple(values, name: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise BadFamily(f"{name} must be a sequence, got {values!r}") from None


def load_family(path) -> FamilySpec:
    """Read a family spec file (JSON)."""
    return FamilySpec.from_dict(_read_json(path, "family spec"))


def generate(spec: FamilySpec, n: int) -> Chain:
    """The family member on states 0..n (n need not be in spec.sizes)."""
    size = _integer(n)
    if size is None:
        raise BadFamily(f"size must be an integer, got {n!r}")
    n = size
    if n < 2:
        raise BadFamily(f"size must be >= 2, got {n}")
    idx = np.arange(n + 1, dtype=float)
    if spec.family == "ehrenfest":
        p = 1.0 - idx / n
        q = idx / n
        r = np.zeros(n + 1)
    elif spec.family in ("path_symmetric", "path_biased"):
        # path_symmetric is path_biased at rho = 1/2: 1.0 - 0.5 == 0.5 exactly
        rho = 0.5 if spec.family == "path_symmetric" else spec.rho
        p = np.full(n + 1, rho)
        q = np.full(n + 1, 1.0 - rho)
        p[n] = 0.0
        q[0] = 0.0
        r = 1.0 - p - q
    else:  # random_bd; deterministic in (seed, n)
        rng = np.random.default_rng([spec.seed, n])
        p = np.zeros(n + 1)
        q = np.zeros(n + 1)
        p[:n] = rng.uniform(0.20, 0.45, n)
        drift = rng.uniform(-0.3, 0.3, n)
        q[1:] = np.clip(p[:n] * np.exp(drift), 0.10, 0.45)
        r = 1.0 - p - q
    return Chain.from_rates(p, q, r)


# ---------------------------------------------------------------------------
# Family reports


@dataclass
class SizeRecord(_Record):
    """Per-size measurements; unfilled columns stay None/empty.

    The field order is the JSON key order, which the CLI goldens pin."""

    n: int
    gap: float | None = None
    spectral_sum: float | None = None
    product: float | None = None
    mixing_continuous: dict = field(default_factory=dict, metadata={"load": dict})
    mixing_lazy: dict = field(default_factory=dict, metadata={"load": dict})
    ratio_c_over_lazy: float | None = None
    window: float | None = None
    sqrt_t: float | None = None
    window_over_sqrt_t: float | None = None
    window_over_n: float | None = None


@dataclass
class FamilyReport(_Record):
    """One ``family_scan``.  The field order is the JSON key order, which the
    CLI goldens pin."""

    spec: FamilySpec = field(metadata={"load": FamilySpec.from_dict})
    delta: float | None
    eps_grid: tuple[float, ...] = field(metadata=_TUPLE)
    records: list[SizeRecord] = field(
        metadata={"load": lambda recs: [SizeRecord.from_dict(rec) for rec in recs]}
    )
    verdict: str | None = None
    ratio_target: float | None = None
    ratio_deviation_final: float | None = None


def _trend_verdict(products: list[float]) -> str:
    if len(products) < 2:
        return "inconclusive"
    lo, hi = min(products), max(products)
    if hi <= FLAT_FACTOR * lo:
        return "no-cutoff-trend"
    grew = products[-1] >= GROWTH_FACTOR * products[0]
    near_monotone = all(b >= DIP_TOLERANCE * a for a, b in zip(products, products[1:]))
    if grew and near_monotone:
        return "cutoff-trend"
    return "inconclusive"


def family_scan(
    spec: FamilySpec,
    delta: float | None = None,
    eps_grid: tuple[float, ...] | None = None,
    tol: float = 1e-10,
) -> FamilyReport:
    """Gap, spectral sum and their product per size, and the trend verdict.

    A nonempty eps grid adds mixing times over the grid in both continuous
    and delta-lazy time, the c/lazy ratio at eps = 1/4, and the window
    between the grid's extreme eps values.  An empty grid gives the spectral
    report alone: ``delta`` and every clock column stay None or empty.

    ``delta`` and ``eps_grid`` default to the spec's, and where the spec has
    none to ``DEFAULT_DELTA`` and ``DEFAULT_EPS_GRID``."""
    tol = _check_tol(tol)
    if delta is None:
        delta = DEFAULT_DELTA if spec.delta is None else spec.delta
    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID if spec.eps_grid is None else spec.eps_grid
    eps_grid = tuple(_check_eps(e) for e in eps_grid)
    levels = sorted(set(eps_grid) | {0.25})
    targets = [("tv", level) for level in levels]
    continuous = DistanceQuery("continuous", "tv")
    lazy = DistanceQuery("lazy", "tv", delta=delta)
    records = []
    for n in spec.sizes:
        chain = generate(spec, n)
        summary = eigen_summary(chain)
        rec = SizeRecord(n, summary.gap, summary.spectral_sum, summary.gap * summary.spectral_sum)
        records.append(rec)
        if not eps_grid:
            continue
        for query, column in ((lazy, rec.mixing_lazy), (continuous, rec.mixing_continuous)):
            ev = _Evaluator(chain, query, tol)
            ev.search(targets)
            for level in levels:
                lo, hi = ev.found[("tv", level)]
                # a lazy bracket is (m, m), so its midpoint is m exactly
                column[level] = float(0.5 * (lo + hi))
        # worst-case tv at t = 0 is max_x (1 - pi(x)) >= 1/2, so T(1/4) > 0 on both clocks
        rec.ratio_c_over_lazy = rec.mixing_continuous[0.25] / rec.mixing_lazy[0.25]
        rec.window = abs(
            rec.mixing_continuous[min(eps_grid)] - rec.mixing_continuous[max(eps_grid)]
        )
        rec.sqrt_t = math.sqrt(rec.mixing_continuous[0.25])
        rec.window_over_sqrt_t = rec.window / rec.sqrt_t
        rec.window_over_n = rec.window / n
    report = FamilyReport(
        spec=spec,
        delta=None,
        eps_grid=eps_grid,
        records=records,
        verdict=_trend_verdict([r.product for r in records]),
    )
    if eps_grid:
        # the checked delta, a Python float, as the JSON report needs
        report.delta = lazy.delta
        report.ratio_target = 1.0 - lazy.delta
        report.ratio_deviation_final = abs(records[-1].ratio_c_over_lazy - report.ratio_target)
    return report


# ---------------------------------------------------------------------------
# Bound verification


@dataclass(frozen=True)
class BoundEntry(_Record):
    inequality: str
    point: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        """The fields, then the margin."""
        return {**super().to_dict(), "margin": self.margin}


@dataclass(frozen=True)
class SkippedEntry(_Record):
    inequality: str
    point: str
    reason: str


@dataclass
class BoundReport:
    entries: list[BoundEntry]
    skipped: list[SkippedEntry]

    @property
    def min_margin(self) -> float:
        return min((e.margin for e in self.entries), default=math.inf)

    @property
    def passed(self) -> bool:
        return self.min_margin >= MARGIN_TOL

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_margin": None if not self.entries else self.min_margin,
            "entries": _json_form(self.entries),
            "skipped": _json_form(self.skipped),
        }


def _poisson_cdf(count: int, mu: float) -> float:
    # imported here so that importing cutofflab does not load scipy
    from scipy.special import gammaincc

    return float(gammaincc(count + 1, mu))


def verify_bounds(
    chain: Chain,
    delta: float = DEFAULT_DELTA,
    eps_grid: tuple[float, ...] = VERIFY_EPS_GRID,
    tol: float = 1e-10,
) -> BoundReport:
    """Instantiate every applicable inequality on concrete grids.

    Entries report (lhs, rhs, margin = rhs - lhs) per instance; the report
    passes when every margin is >= -1e-9.  Inapplicable instances (mixing
    search cannot converge on periodic chains, non-reversible spectra or
    gaps ``eigen_summary`` cannot resolve, non-birth-death bracket bounds,
    eps outside a bound's validity range) are recorded as skipped with a
    reason.
    """
    delta = _check_delta(delta)
    eps_grid = tuple(_check_eps(eps) for eps in eps_grid)
    # One evaluator per clock serves every metric, fixed time and search, all
    # with exhaustive start maximization (see module docstring).
    clocks = {
        mode: _Evaluator(
            chain,
            DistanceQuery(mode, "tv", delta=delta if mode == "lazy" else None, exhaustive=True),
            tol,
        )
        for mode in ("discrete", "lazy", "continuous")
    }

    def mix(mode: str, metric: str, eps: float):
        """Bracket (lo, hi) on the mixing time, or None when the search could
        not converge (periodicity), as for every smaller eps of its metric.
        Bound checks compare against the safe end so an equality-tight
        inequality cannot fail by bracket width."""
        bracket = clocks[mode].found.get((metric, eps))
        return None if bracket is None else (float(bracket[0]), float(bracket[1]))

    entries: list[BoundEntry] = []
    skipped: list[SkippedEntry] = []

    summary = None
    try:
        summary = eigen_summary(chain)
    except NotReversible:
        skipped.append(
            SkippedEntry("spectral", "all", "chain is not reversible; no spectral entries")
        )
    except NumericalFailure as exc:
        skipped.append(SkippedEntry("spectral", "all", str(exc)))

    if summary is not None:
        base = summary.spectral_sum
    else:
        with suppress(NoConvergence):
            clocks["lazy"].search([("tv", 0.25)])
        t_lazy = mix("lazy", "tv", 0.25)
        base = (1.0 - delta) * t_lazy[1] if t_lazy else 50.0
    t_grid = (0.3 * base, 0.7 * base, 1.2 * base)
    m_grid = sorted({max(1, round(t)) for t in t_grid})

    # Metric comparisons at fixed times: tv <= dbar <= 2 tv, dbar <= sep,
    # and the separation doubling bound sep(2t) <= 1 - (1 - dbar(t))^2.
    for mode, grid in (("discrete", m_grid), ("continuous", t_grid)):
        reads = [(u, m) for t in grid
                 for u, m in ((t, "tv"), (t, "dbar"), (t, "sep"), (2 * t, "sep"))]
        # no entry reads discrete tv at 2t, but its held values seed the
        # discrete tv search below: without them one verify_corpus round
        # reduces tv 268 more times and applies the kernel 290 more times
        seeds = [(2 * t, "tv") for t in grid] if mode == "discrete" else []
        values = iter(clocks[mode].evaluate(reads + seeds))
        # the four reads of each grid time, in request order
        for t, tv, dbar, sep, sep2 in zip(grid, values, values, values, values):
            point = f"{mode} t={t:g}"
            entries.append(BoundEntry("tv-below-dbar", point, tv, dbar))
            entries.append(BoundEntry("dbar-below-2tv", point, dbar, 2.0 * tv))
            entries.append(BoundEntry("dbar-below-sep", point, dbar, sep))
            entries.append(
                BoundEntry("sep-doubling", point, sep2, 1.0 - (1.0 - dbar) ** 2)
            )

    # Mixing-time orderings: T_tv(eps) <= T_sep(eps) <= 2 T_tv(eps/4).  Each
    # clock searches all of its levels at once.  The continuous levels also
    # serve the spectral and birth-death brackets.
    for mode in ("discrete", "continuous"):
        with suppress(NoConvergence):
            clocks[mode].search(
                [("tv", eps) for eps in eps_grid]
                + [("tv", eps / 4.0) for eps in eps_grid]
                + [("sep", eps) for eps in eps_grid]
            )
        for eps in eps_grid:
            point = f"{mode} eps={eps:g}"
            t_tv = mix(mode, "tv", eps)
            t_sep = mix(mode, "sep", eps)
            t_tv4 = mix(mode, "tv", eps / 4.0)
            if None in (t_tv, t_sep, t_tv4):
                skipped.append(SkippedEntry("tv-sep-ordering", point, "non-mixing"))
                continue
            entries.append(BoundEntry("tv-time-below-sep-time", point, t_tv[0], t_sep[1]))
            entries.append(
                BoundEntry("sep-time-below-2tv-time", point, t_sep[0], 2.0 * t_tv4[1])
            )

    # Continuous distance dominated by a Poisson tail plus the lazy distance.
    poisson = []
    for t in t_grid:
        mu = t / (1.0 - delta)
        base_m = max(0, round(mu))
        poisson += [(t, mu, m) for m in (base_m, base_m + math.ceil(2.0 * math.sqrt(mu)) + 1)]
    lazy_tv = clocks["lazy"].evaluate([(m, "tv") for _, _, m in poisson])
    for (t, mu, m), tv in zip(poisson, lazy_tv):
        lhs = clocks["continuous"].value(t, "tv")
        rhs = _poisson_cdf(m, mu) + tv
        entries.append(BoundEntry("continuous-below-poisson-lazy", f"t={t:g} m={m}", lhs, rhs))

    if summary is not None:
        lam = summary.gap

        # Gap sandwich for the lazy contraction factor across laziness values.
        for d10 in range(1, 10):
            dd = d10 / 10.0
            beta = beta_delta(summary, dd)
            point = f"delta={dd:g}"
            inner = 1.0 - abs(1.0 - (1.0 - dd) * lam)
            entries.append(
                BoundEntry("gap-sandwich-lower", point, min(dd, 1.0 - dd) * lam, 1.0 - beta)
            )
            entries.append(BoundEntry("gap-sandwich-middle", point, 1.0 - beta, inner))
            entries.append(BoundEntry("gap-sandwich-outer", point, inner, (1.0 - dd) * lam))

        # Spectral lower bounds on distance and on mixing times.
        for t in t_grid:
            entries.append(
                BoundEntry(
                    "tv-spectral-floor",
                    f"t={t:g}",
                    0.5 * math.exp(-lam * t),
                    clocks["continuous"].value(t, "tv"),
                )
            )
        beta = beta_delta(summary, delta)
        if 0.0 < beta < 1.0:
            with suppress(NoConvergence):
                clocks["lazy"].search([("tv", eps) for eps in eps_grid if eps < 0.5])
        for eps in eps_grid:
            if not eps < 0.5:
                skipped.append(
                    SkippedEntry("mixing-spectral-floor", f"eps={eps:g}", "needs eps < 1/2")
                )
                continue
            t_cont = mix("continuous", "tv", eps)
            if t_cont is not None:
                entries.append(
                    BoundEntry(
                        "mixing-spectral-floor-continuous",
                        f"eps={eps:g}",
                        -math.log(2.0 * eps) / lam,
                        t_cont[1],
                    )
                )
            if 0.0 < beta < 1.0:
                t_lazy = mix("lazy", "tv", eps)
                if t_lazy is not None:
                    entries.append(
                        BoundEntry(
                            "mixing-spectral-floor-lazy",
                            f"eps={eps:g}",
                            math.floor(math.log(2.0 * eps) / math.log(beta)),
                            t_lazy[1],
                        )
                    )
            else:
                skipped.append(
                    SkippedEntry(
                        "mixing-spectral-floor-lazy", f"eps={eps:g}", "beta zero"
                    )
                )

        # Spectral-sum brackets specific to birth-death chains.  The spectral
        # sum is the mean of the fastest strong stationary time, so these are
        # the mean brackets of sep_bounds: both at eps for sep, and for tv
        # the upper one at eps and half the lower one at 4 eps.
        if chain.is_birth_death:
            sst = stationary_time_summary(chain)
            for eps in eps_grid:
                point = f"eps={eps:g}"
                _, _, below, above = sep_bounds(sst, eps)
                if eps < 0.5:
                    t_sep = mix("continuous", "sep", eps)
                    if t_sep is not None:
                        entries.append(BoundEntry("sep-time-above-sum", point, below, t_sep[1]))
                        entries.append(BoundEntry("sep-time-below-sum", point, t_sep[0], above))
                else:
                    skipped.append(
                        SkippedEntry("sep-time-vs-sum", point, "needs eps < 1/2")
                    )
                if eps < 0.125:
                    t_tv = mix("continuous", "tv", eps)
                    if t_tv is not None:
                        below_tv = 0.5 * sep_bounds(sst, 4.0 * eps)[2]
                        entries.append(BoundEntry("tv-time-above-sum", point, below_tv, t_tv[1]))
                        entries.append(BoundEntry("tv-time-below-sum", point, t_tv[0], above))
                else:
                    skipped.append(
                        SkippedEntry("tv-time-vs-sum", point, "needs eps < 1/8")
                    )

            for eps in eps_grid:
                point = f"eps={eps:g}"
                lower, upper, lower_mean, upper_mean = sep_bounds(sst, eps)
                t_sep = mix("continuous", "sep", eps)
                if t_sep is None:
                    skipped.append(SkippedEntry("stationary-time-brackets", point, "non-mixing"))
                    continue
                entries.append(BoundEntry("chebyshev-lower", point, lower, t_sep[1]))
                entries.append(BoundEntry("chebyshev-upper", point, t_sep[0], upper))
                entries.append(BoundEntry("mean-bracket-lower", point, lower_mean, t_sep[1]))
                entries.append(BoundEntry("mean-bracket-upper", point, t_sep[0], upper_mean))

    if not chain.is_birth_death:
        skipped.append(
            SkippedEntry(
                "spectral-sum-brackets", "all", "not birth-death; no stationary-time brackets"
            )
        )

    return BoundReport(entries=entries, skipped=skipped)
