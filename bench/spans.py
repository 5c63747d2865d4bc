"""Span tracing around the public boundaries of cutofflab's modules.

The tracer wraps library functions from outside the library: while a
``Tracer`` is installed, every wrapped call records one span (name, start,
end, parent span, item id, computed work) in flat in-memory arrays.  Nothing
in ``src/cutofflab`` knows about it, and uninstalling restores every
attribute, so untraced runs execute the unmodified code.

Names bound with ``from .x import y`` live in several module namespaces; a
target is replaced in every loaded ``cutofflab`` module that holds the same
function object.  ``Chain.apply`` and the constructors are wrapped on the
class, ``matrix_power`` and ``eigvalsh`` on ``numpy.linalg``.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

import numpy as np

_clock = time.perf_counter


def _rows_states(_chain, dist, *_args, **_kwargs) -> float:
    # One kernel application touches rows x states entries.
    return float(np.size(dist))


def matrix_power_multiplies(exponent: int) -> int:
    """Matrix products numpy's binary-decomposition matrix_power performs."""
    exponent = int(exponent)
    if exponent <= 1:
        return 0
    return exponent.bit_length() + bin(exponent).count("1") - 2


def _matrix_power_flops(matrix, exponent, *_args, **_kwargs) -> float:
    n = np.shape(matrix)[-1]
    return 2.0 * n**3 * matrix_power_multiplies(exponent)


# (module, attribute, span name, work function, scope).  Scope "all" replaces
# the function in every cutofflab module that binds it; "local" only in the
# named module; "class" wraps an attribute of cutofflab.chain.Chain.
TARGETS = (
    ("cutofflab.chain", "apply", "chain.apply", _rows_states, "class"),
    ("cutofflab.chain", "from_rates", "chain.from_rates", None, "class"),
    ("cutofflab.chain", "from_dense", "chain.from_dense", None, "class"),
    ("cutofflab.chain", "load_chain", "chain.load_chain", None, "all"),
    ("cutofflab.families", "generate", "families.generate", None, "all"),
    ("cutofflab.chain", "_uniformized", "distances.uniformized", None, "all"),
    ("numpy.linalg", "matrix_power", "distances.matrix_power", _matrix_power_flops, "local"),
    ("cutofflab.distances", "mixing_time", "distances.mixing_time", None, "all"),
    ("cutofflab.distances", "mixing_bracket", "distances.mixing_bracket", None, "all"),
    ("cutofflab.distances", "distance", "distances.distance", None, "all"),
    ("cutofflab.spectral", "eigen_summary", "spectral.eigen_summary", None, "all"),
    ("cutofflab.spectral", "tridiagonal_eigenvalues", "spectral.solve", None, "local"),
    ("numpy.linalg", "eigvalsh", "spectral.solve", None, "local"),
    ("cutofflab.birth_death", "passage_time", "birth_death.passage_time", None, "all"),
    ("cutofflab.birth_death", "stationary_time_summary", "birth_death.sst", None, "all"),
    ("cutofflab.birth_death", "sst_tail", "birth_death.sst", None, "all"),
    ("cutofflab.birth_death", "corner_separation", "birth_death.sst", None, "all"),
    ("cutofflab.families", "verify_bounds", "families.verify_bounds", None, "all"),
    ("cutofflab.families", "family_scan", "families.family_scan", None, "all"),
)

# Only the CLI probe process installs these (cutofflab.cli is imported there).
CLI_TARGETS = (
    ("cutofflab.cli", "_cmd_spectrum", "cli.verb", None, "local"),
    ("cutofflab.cli", "_cmd_analyze", "cli.verb", None, "local"),
    ("cutofflab.cli", "_cmd_family", "cli.verb", None, "local"),
    ("cutofflab.cli", "_cmd_verify", "cli.verb", None, "local"),
    ("cutofflab.cli", "load_family", "cli.load_family", None, "local"),
)


class Tracer:
    """Flat span store; spans nest through an explicit parent stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.work = array("d")
        self.start = array("d")
        self.end = array("d")
        self.item_id = -1
        self._stack: list[int] = []
        self._saved: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, work: float = 0.0) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.item.append(self.item_id)
        self.work.append(work)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def add(self, name: str, start: float, end: float, parent: int = -1, work: float = 0.0) -> int:
        """Record a finished span measured elsewhere (e.g. in a child process)."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.item.append(self.item_id)
        self.work.append(work)
        self.start.append(start)
        self.end.append(end)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, work=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid, work(*args, **kwargs) if work is not None else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Replace every target with a traced wrapper; ``uninstall`` undoes it."""
        lib_modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "cutofflab" or name.startswith("cutofflab."))
        ]
        for module_name, attr, span, work, scope in targets:
            module = sys.modules[module_name]
            if scope == "class":
                cls = module.Chain
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, span, work))
                else:
                    wrapped = self.wrap(raw, span, work)
                self._replace(cls, attr, raw, wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(orig, span, work)
            owners = [module] if scope == "local" else lib_modules
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._replace(owner, key, orig, wrapped)

    def _replace(self, owner, key, orig, wrapped) -> None:
        self._saved.append((owner, key, orig))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- export --------------------------------------------------------------

    def arrays(self) -> dict:
        return {key: np.array(getattr(self, key))
                for key in ("name", "parent", "item", "work", "start", "end")}

    def to_json(self) -> str:
        return json.dumps([
            [self.names[n], p, w, s, e]
            for n, p, w, s, e in zip(self.name, self.parent, self.work, self.start, self.end)
        ])

    def merge_json(self, text: str, parent: int) -> None:
        """Append spans exported by ``to_json`` in another process; their
        roots become children of ``parent``.  Both processes read the same
        system-wide monotonic clock."""
        offset = len(self.name)
        for name, par, work, start, end in json.loads(text):
            self.add(name, start, end, parent if par < 0 else par + offset, work)


def self_times(arrs: dict) -> np.ndarray:
    """Span duration minus the time covered by its direct children."""
    dur = arrs["end"] - arrs["start"]
    child = np.zeros_like(dur)
    has_parent = arrs["parent"] >= 0
    np.add.at(child, arrs["parent"][has_parent], dur[has_parent])
    return dur - child


CONSTRUCT = ("chain.from_rates", "chain.from_dense", "chain.load_chain", "families.generate")
CLI_IO = ("chain.load_chain", "cli.load_family", "cli.dumps", "cli.print")

# name -> (unit, better); the order is the report order.
LAYER_METRICS = {
    "chain.construct_calls": ("count", "lower"),
    "chain.construct_s": ("s", "lower"),
    "chain.apply_calls": ("count", "lower"),
    "chain.apply_row_states": ("count", "lower"),
    "chain.apply_self_s": ("s", "lower"),
    "distances.uniformized_calls": ("count", "lower"),
    "distances.uniformized_self_s": ("s", "lower"),
    "distances.matrix_power_calls": ("count", "lower"),
    "distances.matrix_power_flops": ("flop", "lower"),
    "distances.matrix_power_self_s": ("s", "lower"),
    "distances.searches": ("count", "lower"),
    "distances.distance_calls": ("count", "lower"),
    "distances.search_self_s": ("s", "lower"),
    "spectral.eigen_summary_calls": ("count", "lower"),
    "spectral.solves": ("count", "lower"),
    "spectral.cache_hit_ratio": ("ratio", "higher"),
    "spectral.solve_s": ("s", "lower"),
    "birth_death.passage_s": ("s", "lower"),
    "birth_death.sst_s": ("s", "lower"),
    "families.self_s": ("s", "lower"),
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.verb_s": ("s", "lower"),
    "cli.io_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

# Counts that must repeat exactly between runs with the same seed.
DETERMINISTIC = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit in ("count", "flop")
)


def layer_metrics(arrs: dict, names: list[str]) -> dict:
    """Layer metrics from the spans of one round.

    Item root spans are named ``bench.item``; spans outside any item (input
    construction during set-up) count toward construction only.  Returns
    every LAYER_METRICS entry but ``trace.overhead_ratio``, which needs the
    untraced rounds.
    """
    name_of = np.array(names, dtype=object)[arrs["name"]]
    dur = arrs["end"] - arrs["start"]
    own = self_times(arrs)
    parent = arrs["parent"]
    parent_name = np.where(parent >= 0, name_of[np.maximum(parent, 0)], "<root>")

    def sel(*wanted):
        return np.isin(name_of, wanted)

    construct = sel(*CONSTRUCT) & ~np.isin(parent_name, CONSTRUCT)
    searches = sel("distances.mixing_time", "distances.mixing_bracket")
    io = sel(*CLI_IO) & np.char.startswith(parent_name.astype(str), "cli.")
    io_in_verb = io & (parent_name == "cli.verb")
    summaries = int(sel("spectral.eigen_summary").sum())
    solves = int(sel("spectral.solve").sum())
    items = sel("bench.item")
    in_items = (arrs["item"] >= 0) & ~items
    wall = float(dur[items].sum())

    out = {
        "chain.construct_calls": int(construct.sum()),
        "chain.construct_s": float(dur[construct].sum()),
        "chain.apply_calls": int(sel("chain.apply").sum()),
        "chain.apply_row_states": float(arrs["work"][sel("chain.apply")].sum()),
        "chain.apply_self_s": float(own[sel("chain.apply")].sum()),
        "distances.uniformized_calls": int(sel("distances.uniformized").sum()),
        "distances.uniformized_self_s": float(own[sel("distances.uniformized")].sum()),
        "distances.matrix_power_calls": int(sel("distances.matrix_power").sum()),
        "distances.matrix_power_flops": float(arrs["work"][sel("distances.matrix_power")].sum()),
        "distances.matrix_power_self_s": float(own[sel("distances.matrix_power")].sum()),
        "distances.searches": int(searches.sum()),
        "distances.distance_calls": int(sel("distances.distance").sum()),
        "distances.search_self_s": float(own[searches | sel("distances.distance")].sum()),
        "spectral.eigen_summary_calls": summaries,
        "spectral.solves": solves,
        "spectral.cache_hit_ratio": 1.0 - solves / summaries if summaries else 0.0,
        "spectral.solve_s": float(dur[sel("spectral.solve")].sum()),
        "birth_death.passage_s": float(own[sel("birth_death.passage_time")].sum()),
        "birth_death.sst_s": float(own[sel("birth_death.sst")].sum()),
        "families.self_s": float(own[sel("families.verify_bounds", "families.family_scan")].sum()),
        "cli.interp_s": float(dur[sel("cli.interp")].sum()),
        "cli.import_s": float(dur[sel("cli.import")].sum()),
        "cli.verb_s": float(dur[sel("cli.verb")].sum() - dur[io_in_verb].sum()),
        "cli.io_s": float(dur[io].sum()),
    }
    out["trace.coverage"] = float(own[in_items].sum()) / wall if wall > 0 else 0.0
    return out
