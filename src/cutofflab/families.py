"""Chain families, trend scans, and inequality verification.

Families (all birth-death on 0..n):

* ``ehrenfest``       p_i = 1 - i/n, q_i = i/n; periodic base chain
* ``path_symmetric``  half steps in the interior, half holding at the ends
* ``path_biased``     birth rho / death 1-rho, holding at the ends
* ``random_bd``       seeded rates, floored so p_i * q_{i+1} >= 0.02 and
                      p_i + q_{i+1} <= 0.9 (monotone, aperiodic)

Scans produce a FamilyReport: the product gap * spectral_sum per size drives
the trend verdict (grows 1.5x and near-monotone -> "cutoff-trend"; flat
within 30% -> "no-cutoff-trend"; anything else "inconclusive"), while mixing
columns compare continuous times against delta-lazy times whose ratio should
stabilize near 1 - delta.

``verify_bounds`` instantiates every applicable inequality relating the
metrics, the spectrum, and the stationary-time brackets on concrete grids,
reporting a margin per instance.  It always evaluates distances with
exhaustive start maximization.  The endpoint shortcut is proved exact only
for separation in continuous time and in lazy time with delta >= 1/2 (the
corner identity).  Elsewhere it can undershoot, also on aperiodic monotone
chains: ``random_bd`` is both and breaks it for tv (see ``distances``).
"""
from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .chain import Chain, _check_delta, _check_eps, _check_time
from .distances import DistanceQuery, _Evaluator
from .errors import BadEpsilon, BadFamily, BadShape, NoConvergence, NotReversible
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


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus the sizes to scan and optional parameters.

    ``rho`` applies to path_biased only; ``seed`` to random_bd only.
    ``delta`` and ``eps_grid`` are optional scan defaults: ``family_scan``
    uses them wherever its own arguments are left out.
    """

    family: str
    sizes: tuple[int, ...]
    rho: float | None = None
    seed: int | None = None
    delta: float | None = None
    eps_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise BadFamily(f"unknown family {self.family!r}; choose from {FAMILY_NAMES}")
        sizes = _as_tuple(self.sizes, "sizes")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in sizes):
            raise BadFamily(f"sizes must be integers, got {list(sizes)!r}")
        sizes = tuple(int(n) for n in sizes)
        if len(sizes) == 0:
            raise BadFamily("sizes must be nonempty")
        if any(n < 2 for n in sizes):
            raise BadFamily(f"every size must be >= 2, got {sizes}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise BadFamily(f"sizes must be strictly increasing, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        if self.family == "path_biased":
            if not (
                isinstance(self.rho, (int, float)) and 0.0 < self.rho < 1.0 and self.rho != 0.5
            ):
                raise BadFamily(f"path_biased needs rho in (0,1) \\ {{1/2}}, got {self.rho!r}")
        elif self.rho is not None:
            raise BadFamily(f"rho only applies to path_biased, not {self.family}")
        if self.family == "random_bd":
            if not isinstance(self.seed, (int,)) or isinstance(self.seed, bool) or self.seed < 0:
                raise BadFamily(f"random_bd needs a nonnegative integer seed, got {self.seed!r}")
        elif self.seed is not None:
            raise BadFamily(f"seed only applies to random_bd, not {self.family}")
        if self.eps_grid is not None:
            grid = _as_tuple(self.eps_grid, "eps_grid")
            if any(not (isinstance(e, (int, float)) and 0.0 < e < 1.0) for e in grid):
                raise BadFamily(f"eps_grid entries must lie in (0,1), got {list(grid)!r}")
            object.__setattr__(self, "eps_grid", tuple(float(e) for e in grid))
        if self.delta is not None and not (
            isinstance(self.delta, (int, float)) and 0.0 < self.delta < 1.0
        ):
            raise BadFamily(f"delta must lie in (0,1), got {self.delta!r}")

    def to_dict(self) -> dict:
        out: dict = {"family": self.family, "sizes": list(self.sizes)}
        if self.rho is not None:
            out["rho"] = self.rho
        if self.seed is not None:
            out["seed"] = self.seed
        if self.delta is not None:
            out["delta"] = self.delta
        if self.eps_grid is not None:
            out["eps_grid"] = list(self.eps_grid)
        return out

    @classmethod
    def from_dict(cls, obj) -> "FamilySpec":
        if not isinstance(obj, dict):
            raise BadShape("family spec must be a JSON object")
        if "family" not in obj or "sizes" not in obj:
            raise BadShape('family spec needs "family" and "sizes" fields')
        known = {"family", "sizes", "rho", "seed", "delta", "eps_grid"}
        unknown = set(obj) - known
        if unknown:
            raise BadShape(f"unknown family spec fields: {sorted(unknown)}")
        eps_grid = obj.get("eps_grid")
        if not isinstance(obj["sizes"], list) or not isinstance(eps_grid, (list, type(None))):
            raise BadShape('family spec "sizes" and "eps_grid" must be JSON lists')
        return cls(
            family=obj["family"],
            sizes=tuple(obj["sizes"]),
            rho=obj.get("rho"),
            seed=obj.get("seed"),
            delta=obj.get("delta"),
            eps_grid=tuple(eps_grid) if eps_grid is not None else None,
        )


def _as_tuple(values, name: str) -> tuple:
    try:
        return tuple(values)
    except TypeError:
        raise BadFamily(f"{name} must be a sequence, got {values!r}") from None


def load_family(path) -> FamilySpec:
    """Read a family spec file (JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadShape(f"cannot read family spec {path}: {exc}") from exc
    return FamilySpec.from_dict(obj)


def generate(spec: FamilySpec, n: int) -> Chain:
    """The family member on states 0..n (n need not be in spec.sizes)."""
    n = int(n)
    if n < 2:
        raise BadFamily(f"size must be >= 2, got {n}")
    idx = np.arange(n + 1, dtype=float)
    if spec.family == "ehrenfest":
        p = 1.0 - idx / n
        q = idx / n
        r = np.zeros(n + 1)
    elif spec.family == "path_symmetric":
        p = np.full(n + 1, 0.5)
        q = np.full(n + 1, 0.5)
        p[n] = 0.0
        q[0] = 0.0
        r = 1.0 - p - q
    elif spec.family == "path_biased":
        p = np.full(n + 1, float(spec.rho))
        q = np.full(n + 1, 1.0 - float(spec.rho))
        p[n] = 0.0
        q[0] = 0.0
        r = 1.0 - p - q
    else:  # random_bd; deterministic in (seed, n)
        rng = np.random.default_rng([int(spec.seed), n])
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
class SizeRecord:
    """Per-size measurements; unfilled columns stay None/empty."""

    n: int
    gap: float | None = None
    spectral_sum: float | None = None
    product: float | None = None
    mixing_continuous: dict = field(default_factory=dict)
    mixing_lazy: dict = field(default_factory=dict)
    ratio_c_over_lazy: float | None = None
    window: float | None = None
    sqrt_t: float | None = None
    window_over_sqrt_t: float | None = None
    window_over_n: float | None = None


@dataclass
class FamilyReport:
    spec: FamilySpec
    delta: float | None
    eps_grid: tuple[float, ...]
    records: list[SizeRecord]
    verdict: str | None = None
    ratio_target: float | None = None
    ratio_deviation_final: float | None = None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "delta": self.delta,
            "eps_grid": list(self.eps_grid),
            "records": [
                {
                    "n": rec.n,
                    "gap": rec.gap,
                    "spectral_sum": rec.spectral_sum,
                    "product": rec.product,
                    "mixing_continuous": [list(kv) for kv in sorted(rec.mixing_continuous.items())],
                    "mixing_lazy": [list(kv) for kv in sorted(rec.mixing_lazy.items())],
                    "ratio_c_over_lazy": rec.ratio_c_over_lazy,
                    "window": rec.window,
                    "sqrt_t": rec.sqrt_t,
                    "window_over_sqrt_t": rec.window_over_sqrt_t,
                    "window_over_n": rec.window_over_n,
                }
                for rec in self.records
            ],
            "verdict": self.verdict,
            "ratio_target": self.ratio_target,
            "ratio_deviation_final": self.ratio_deviation_final,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FamilyReport":
        records = [
            SizeRecord(
                n=rec["n"],
                gap=rec["gap"],
                spectral_sum=rec["spectral_sum"],
                product=rec["product"],
                mixing_continuous={e: t for e, t in rec["mixing_continuous"]},
                mixing_lazy={e: t for e, t in rec["mixing_lazy"]},
                ratio_c_over_lazy=rec["ratio_c_over_lazy"],
                window=rec["window"],
                sqrt_t=rec["sqrt_t"],
                window_over_sqrt_t=rec["window_over_sqrt_t"],
                window_over_n=rec["window_over_n"],
            )
            for rec in obj["records"]
        ]
        eps_grid = tuple(obj["eps_grid"])
        return cls(
            spec=FamilySpec.from_dict(obj["spec"]),
            delta=obj["delta"],
            eps_grid=eps_grid,
            records=records,
            verdict=obj["verdict"],
            ratio_target=obj["ratio_target"],
            ratio_deviation_final=obj["ratio_deviation_final"],
        )


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


def _fill_spectrum(rec: SizeRecord, chain: Chain) -> None:
    summary = eigen_summary(chain)
    rec.gap = summary.gap
    rec.spectral_sum = summary.spectral_sum
    rec.product = summary.gap * summary.spectral_sum


def criterion_scan(spec: FamilySpec) -> FamilyReport:
    """Spectral trend scan: gap, spectral sum, and their product per size,
    plus the trend verdict."""
    records = []
    for n in spec.sizes:
        rec = SizeRecord(n=n)
        _fill_spectrum(rec, generate(spec, n))
        records.append(rec)
    report = FamilyReport(
        spec=spec,
        delta=None,
        eps_grid=(),
        records=records,
        verdict=_trend_verdict([r.product for r in records]),
    )
    return report


def family_scan(
    spec: FamilySpec,
    delta: float | None = None,
    eps_grid: tuple[float, ...] | None = None,
    tol: float = 1e-10,
) -> FamilyReport:
    """Full scan: spectra + verdict, mixing times over the eps grid in both
    continuous and delta-lazy time, the c/lazy ratio at eps=1/4, and the
    window between the grid's extreme eps values.

    ``delta`` and ``eps_grid`` default to the spec's, and where the spec has
    none to ``DEFAULT_DELTA`` and ``DEFAULT_EPS_GRID``."""
    if delta is None:
        delta = DEFAULT_DELTA if spec.delta is None else spec.delta
    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID if spec.eps_grid is None else spec.eps_grid
    eps_grid = tuple(_check_eps(e) for e in eps_grid)
    if not eps_grid:
        raise BadEpsilon("eps_grid must hold at least one eps")
    levels = sorted(set(eps_grid) | {0.25})
    lo_eps, hi_eps = min(eps_grid), max(eps_grid)
    targets = [("tv", level) for level in levels]
    continuous = DistanceQuery("continuous", "tv")
    lazy = DistanceQuery("lazy", "tv", delta=delta)
    records = []
    for n in spec.sizes:
        chain = generate(spec, n)
        rec = SizeRecord(n=n)
        _fill_spectrum(rec, chain)
        for query, column in ((lazy, rec.mixing_lazy), (continuous, rec.mixing_continuous)):
            ev = _Evaluator(chain, query, tol)
            ev.search(targets)
            for level in levels:
                lo, hi = ev.found[("tv", level)]
                # a lazy bracket is (m, m), so its midpoint is m exactly
                column[level] = float(0.5 * (lo + hi))
        # worst-case tv at t = 0 is max_x (1 - pi(x)) >= 1/2, so T(1/4) > 0 on both clocks
        rec.ratio_c_over_lazy = rec.mixing_continuous[0.25] / rec.mixing_lazy[0.25]
        rec.window = abs(rec.mixing_continuous[lo_eps] - rec.mixing_continuous[hi_eps])
        rec.sqrt_t = math.sqrt(rec.mixing_continuous[0.25])
        rec.window_over_sqrt_t = rec.window / rec.sqrt_t
        rec.window_over_n = rec.window / n
        records.append(rec)
    target = 1.0 - delta
    return FamilyReport(
        spec=spec,
        delta=delta,
        eps_grid=eps_grid,
        records=records,
        verdict=_trend_verdict([r.product for r in records]),
        ratio_target=target,
        ratio_deviation_final=abs(records[-1].ratio_c_over_lazy - target),
    )


# ---------------------------------------------------------------------------
# Bound verification


@dataclass(frozen=True)
class BoundEntry:
    inequality: str
    point: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class SkippedEntry:
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
            "entries": [
                {
                    "inequality": e.inequality,
                    "point": e.point,
                    "lhs": e.lhs,
                    "rhs": e.rhs,
                    "margin": e.margin,
                }
                for e in self.entries
            ],
            "skipped": [
                {"inequality": s.inequality, "point": s.point, "reason": s.reason}
                for s in self.skipped
            ],
        }


def _poisson_cdf(count: int, mu: float) -> float:
    # imported here so that importing cutofflab does not load scipy
    from scipy.special import gammaincc

    return float(gammaincc(count + 1, mu))


def verify_bounds(
    chain: Chain,
    delta: float = DEFAULT_DELTA,
    eps_grid: tuple[float, ...] = VERIFY_EPS_GRID,
    time_grid: tuple[float, ...] | None = None,
    tol: float = 1e-10,
) -> BoundReport:
    """Instantiate every applicable inequality on concrete grids.

    Entries report (lhs, rhs, margin = rhs - lhs) per instance; the report
    passes when every margin is >= -1e-9.  Inapplicable instances (mixing
    search cannot converge on periodic chains, non-reversible spectra,
    non-birth-death bracket bounds, eps outside a bound's validity range)
    are recorded as skipped with a reason.
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

    if time_grid is None:
        if summary is not None:
            base = summary.spectral_sum
        else:
            with suppress(NoConvergence):
                clocks["lazy"].search([("tv", 0.25)])
            t_lazy = mix("lazy", "tv", 0.25)
            base = (1.0 - delta) * t_lazy[1] if t_lazy else 50.0
        time_grid = (0.3 * base, 0.7 * base, 1.2 * base)
    t_grid = tuple(_check_time(t) for t in time_grid)
    m_grid = sorted({max(1, round(t)) for t in t_grid})

    # Metric comparisons at fixed times: tv <= dbar <= 2 tv, dbar <= sep,
    # and the separation doubling bound sep(2t) <= 1 - (1 - dbar(t))^2.
    for mode, grid in (("discrete", m_grid), ("continuous", t_grid)):
        ev = clocks[mode]
        ev.evaluate([*grid, *(2 * t for t in grid)], ("tv", "dbar", "sep"))
        for t in grid:
            tv = ev.value(t, "tv")
            dbar = ev.value(t, "dbar")
            sep = ev.value(t, "sep")
            sep2 = ev.value(2 * t, "sep")
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
    clocks["lazy"].evaluate([m for _, _, m in poisson], ("tv",))
    for t, mu, m in poisson:
        lhs = clocks["continuous"].value(t, "tv")
        rhs = _poisson_cdf(m, mu) + clocks["lazy"].value(m, "tv")
        entries.append(BoundEntry("continuous-below-poisson-lazy", f"t={t:g} m={m}", lhs, rhs))

    if summary is not None:
        lam = summary.gap
        s = summary.spectral_sum

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

        # Spectral-sum brackets specific to birth-death chains.
        if chain.is_birth_death:
            for eps in eps_grid:
                point = f"eps={eps:g}"
                if eps < 0.5:
                    t_sep = mix("continuous", "sep", eps)
                    root_e, root_1e = math.sqrt(eps), math.sqrt(1.0 - eps)
                    if t_sep is not None:
                        entries.append(
                            BoundEntry(
                                "sep-time-above-sum",
                                point,
                                (root_1e - root_e) / root_1e * s,
                                t_sep[1],
                            )
                        )
                        entries.append(
                            BoundEntry(
                                "sep-time-below-sum",
                                point,
                                t_sep[0],
                                (root_e + root_1e) / root_e * s,
                            )
                        )
                else:
                    skipped.append(
                        SkippedEntry("sep-time-vs-sum", point, "needs eps < 1/2")
                    )
                if eps < 0.125:
                    t_tv = mix("continuous", "tv", eps)
                    root4 = math.sqrt(4.0 * eps)
                    root4c = math.sqrt(1.0 - 4.0 * eps)
                    root_e, root_1e = math.sqrt(eps), math.sqrt(1.0 - eps)
                    if t_tv is not None:
                        entries.append(
                            BoundEntry(
                                "tv-time-above-sum",
                                point,
                                0.5 * (root4c - root4) / root4c * s,
                                t_tv[1],
                            )
                        )
                        entries.append(
                            BoundEntry(
                                "tv-time-below-sum",
                                point,
                                t_tv[0],
                                (root_e + root_1e) / root_e * s,
                            )
                        )
                else:
                    skipped.append(
                        SkippedEntry("tv-time-vs-sum", point, "needs eps < 1/8")
                    )

            sst = stationary_time_summary(chain)
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
    elif chain.is_birth_death:
        raise AssertionError("birth-death chains are always reversible")

    if not chain.is_birth_death:
        skipped.append(
            SkippedEntry(
                "spectral-sum-brackets", "all", "not birth-death; no stationary-time brackets"
            )
        )

    return BoundReport(entries=entries, skipped=skipped)
