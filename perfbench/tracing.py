"""Spans around the package's layer boundaries, recorded from outside the package.

:class:`Tracer` replaces chosen functions of ``frechet_means`` with timing
wrappers while it is installed, at every module attribute that binds them
(``cli`` and ``consistency_lab`` import with ``from ... import``, so patching
only the defining module would miss their calls), and puts the originals
back when it is removed.  A span records its name, start, end and parent
span; spans stay in memory and are written out once, when the run ends.

Only layer entry points are wrapped.  Small helpers such as
``n_edge_slots`` run once per graph during enumeration (2^21 times at
nv=7), so wrapping them would time the tracer instead of the program.
"""

from __future__ import annotations

import array
import functools
import os
import resource
import sys
import time
from collections import Counter

import numpy as np


def _cells(self, rows, cols):
    return {"metric_core.int_block_cells": np.size(rows) * np.size(cols)}


def _population_cells(space, mu, r, candidates_idx=None):
    n = len(space) if candidates_idx is None else np.size(candidates_idx)
    return {"metric_core.population_values_cells": n * len(mu.support)}


def _scanned(traj, epsilon, burn_in, min_visits=2):
    return {"set_limits.kuratowski_scanned":
            len(traj.space) * sum(1 for s in traj.sets[burn_in:] if s)}


def _report_bytes(result, path, summary=None):
    return {"consistency_lab.report_bytes": os.path.getsize(path)}


# (module, attribute path, counters from the arguments, counters from the result)
TARGETS = (
    ("graph_space", "enumerate_space", None, None),
    ("metric_core", "MetricSpace.int_block", _cells, None),
    ("metric_core", "MetricSpace.label", None, None),
    ("metric_core", "population_values", _population_cells, None),
    *(("frechet_solver", name, None,
       lambda res: {"frechet_solver.argmin_points": len(res.argmin)})
      for name in ("sample_mean_set", "restricted_sample_mean_set",
                   "population_mean_set", "restricted_population_mean_set")),
    ("set_limits", "kuratowski_limsup", _scanned,
     lambda res: {"set_limits.kuratowski_hits": len(res.points)}),
    ("set_limits", "tail_limsup", None, None),
    ("consistency_lab", "run_consistency_experiment", None,
     lambda res: {"consistency_lab.checkpoints": len(res.records) * len(res.config.checkpoints)}),
    ("consistency_lab", "build_summary", None, None),
    ("consistency_lab", "write_report_csv", _report_bytes, None),
    ("consistency_lab", "write_summary_json", _report_bytes, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Span recorder; build it after ``frechet_means.cli`` has been imported."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("l")
        self.counters: Counter = Counter()
        self.enumerate_rss_kb = 0  # largest ru_maxrss growth across one enumerate_space
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._targets = []  # (owner, attribute, is a class attribute, original, wrapper)
        self.missing: list[str] = []  # targets the package no longer has; their metrics read 0
        for module, path, arg_counter, result_counter in TARGETS:
            name = f"{module}.{path}"
            owner = sys.modules.get(f"frechet_means.{module}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                self.names.append(name)
                continue
            wrapper = self._wrap(name, original, arg_counter, result_counter)
            self._targets.append((owner, attr, bool(cls), original, wrapper))

    def _wrap(self, name: str, fn, arg_counter, result_counter):
        name_id = len(self.names)
        self.names.append(name)
        rss = name == "graph_space.enumerate_space"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            sid = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(float("nan"))
            self._stack.append(sid)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter()
                self._stack.pop()
            if rss:
                grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
                self.enumerate_rss_kb = max(self.enumerate_rss_kb, grown)
            if arg_counter is not None:
                self.counters.update(arg_counter(*args, **kwargs))
            if result_counter is not None:
                self.counters.update(result_counter(result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "frechet_means" or key.startswith("frechet_means.")]
        for owner, attr, on_class, original, wrapper in self._targets:
            bindings = [(owner, attr)] if on_class else [
                (m, key) for m in modules for key, value in vars(m).items() if value is original
            ]
            for obj, key in bindings:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def remove(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict:
        """Self time per span name, summed over all spans: duration minus direct children."""
        names = np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.intp)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int_)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, own.tolist()))

    def calls(self) -> dict:
        counts = np.bincount(np.frombuffer(self.name_ids, dtype=np.uint16), minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def write(self, path) -> None:
        """All spans as arrays: name id, start, end (perf_counter s), parent (-1 for roots)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int_),
        )
