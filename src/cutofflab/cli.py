"""Command line front end.

Four verbs, all reading JSON inputs and emitting JSON (and CSV for family
scans):

* ``spectrum --chain FILE``   eigenvalues of I - K, gap, spectral sum
* ``analyze  --chain FILE``   one distance (--time) or one mixing time (--eps)
* ``family   --spec FILE``    full scan of a chain family; optional --csv table
* ``verify   --chain FILE``   inequality suite with per-instance margins

Exit codes: 0 success, 2 validation or usage error, 3 mixing-time search hit
its cap.  Output files are written atomically (temp file then rename) and the
same invocation always produces byte-identical output.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from .chain import load_chain
from .distances import DistanceQuery, distance, mixing_time
from .errors import BadEpsilon, BadShape, ChainError, NoConvergence
from .families import (
    DEFAULT_DELTA,
    VERIFY_EPS_GRID,
    FamilyReport,
    family_scan,
    load_family,
    verify_bounds,
)
from .spectral import eigen_summary

_FLOAT_FMT = "%.12g"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    return _FLOAT_FMT % value


def export_csv(report: FamilyReport, path: str) -> None:
    """Per-size table: n, gap, s, product, continuous and lazy mixing times
    per eps grid value, the continuous/lazy ratio, window, sqrt_t, and a
    verdict footer row.  Floats carry 12 significant digits."""
    grid = tuple(report.eps_grid)
    header = (
        ["n", "gap", "s", "product"]
        + [f"T_c_eps{e:g}" for e in grid]
        + [f"T_lazy_eps{e:g}" for e in grid]
        + ["ratio", "window", "sqrt_t"]
    )
    lines = [",".join(header)]
    for rec in report.records:
        row = [str(rec.n), _fmt(rec.gap), _fmt(rec.spectral_sum), _fmt(rec.product)]
        row += [_fmt(rec.mixing_continuous.get(float(e))) for e in grid]
        row += [_fmt(rec.mixing_lazy.get(float(e))) for e in grid]
        row += [_fmt(rec.ratio_c_over_lazy), _fmt(rec.window), _fmt(rec.sqrt_t)]
        lines.append(",".join(row))
    if report.records:
        footer = ["verdict", report.verdict or ""] + [""] * (len(header) - 2)
        lines.append(",".join(footer))
    _atomic_write(path, "\n".join(lines) + "\n")


def _eps_grid_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if not values or any(not 0.0 < v < 1.0 for v in values):
        raise argparse.ArgumentTypeError("every eps must lie in (0,1)")
    return values


def _cmd_spectrum(args) -> dict:
    chain = load_chain(args.chain)
    summary = eigen_summary(chain)
    return {
        "num_states": chain.num_states,
        "eigenvalues": [0.0] + [float(x) for x in summary.eigenvalues],
        "gap": summary.gap,
        "spectral_sum": summary.spectral_sum,
        "kernel_eigenvalues": [float(x) for x in summary.kernel_spectrum],
    }


def _cmd_analyze(args) -> dict:
    if (args.eps is None) == (args.time is None):
        raise BadShape("analyze needs exactly one of --eps or --time")
    chain = load_chain(args.chain)
    start = None
    if args.start is not None:
        if not 0 <= args.start < chain.num_states:
            raise BadShape(
                f"--start {args.start} out of range for {chain.num_states} states"
            )
        start = np.zeros(chain.num_states)
        start[args.start] = 1.0
    query = DistanceQuery(
        args.mode, args.metric, delta=args.delta, start=start,
        exhaustive=args.exhaustive_start,
    )
    out = {
        "metric": args.metric,
        "mode": args.mode,
        "delta": args.delta,
        "start": args.start,
        "num_states": chain.num_states,
    }
    if args.eps is not None:
        if not 0.0 < args.eps < 1.0:
            raise BadEpsilon(f"--eps must lie in (0,1), got {args.eps}")
        value = mixing_time(chain, args.eps, query, args.tol)
        out["eps"] = args.eps
        out["mixing_time"] = float(value)
    else:
        out["time"] = args.time
        out["distance"] = float(distance(chain, query, args.time, args.tol))
    return out


def _cmd_family(args) -> dict:
    spec = load_family(args.spec)
    report = family_scan(spec, delta=args.delta, eps_grid=args.eps_grid, tol=args.tol)
    if args.csv:
        export_csv(report, args.csv)
    return report.to_dict()


def _cmd_verify(args) -> dict:
    chain = load_chain(args.chain)
    delta = args.delta if args.delta is not None else DEFAULT_DELTA
    grid = args.eps_grid if args.eps_grid is not None else VERIFY_EPS_GRID
    report = verify_bounds(chain, delta=delta, eps_grid=grid, tol=args.tol)
    return report.to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutofflab",
        description="Exact mixing-time and cutoff diagnostics for finite Markov chains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--chain", required=True, help="chain spec file (JSON)")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="semigroup truncation tolerance (default 1e-10)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("spectrum", help="eigenvalues of I - K, gap, spectral sum")
    p.add_argument("--chain", required=True, help="chain spec file (JSON)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("analyze", help="one distance value or one mixing time")
    common(p)
    p.add_argument("--metric", choices=("tv", "sep", "dbar"), default="tv")
    p.add_argument("--mode", choices=("discrete", "lazy", "continuous"),
                   default="continuous")
    p.add_argument("--delta", type=float, help="laziness, required for --mode lazy")
    p.add_argument("--eps", type=float, help="threshold: report the mixing time")
    p.add_argument("--time", type=float, help="time: report the distance")
    p.add_argument("--start", type=int,
                   help="fixed start state (default: worst case over starts)")
    p.add_argument("--exhaustive-start", action="store_true",
                   help="maximize over all starts even on birth-death chains")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("family", help="scan a chain family across sizes")
    p.add_argument("--spec", required=True, help="family spec file (JSON)")
    p.add_argument("--delta", type=float, help="laziness (default 1/2 or spec value)")
    p.add_argument("--eps-grid", type=_eps_grid_arg,
                   help="comma-separated thresholds (default 0.05,0.1,0.25,0.5,0.75)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--csv", help="also write the per-size CSV table here")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("verify", help="check the inequality suite on one chain")
    common(p)
    p.add_argument("--delta", type=float, help="laziness for lazy-side bounds (default 1/2)")
    p.add_argument("--eps-grid", type=_eps_grid_arg,
                   help="comma-separated thresholds (default 0.1,0.2,0.4)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
        text = json.dumps(payload, indent=2)
        if getattr(args, "out", None):
            _atomic_write(args.out, text + "\n")
        else:
            print(text)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ChainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
