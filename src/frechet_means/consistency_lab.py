"""Seeded Monte Carlo harness for mean-set convergence experiments.

An experiment repeatedly draws iid samples from a discrete measure on a
bounded space, computes sample mean sets and variances at checkpoint sample
sizes, evaluates the law-of-large-numbers diagnostics

    T_n(z)   = empirical functional at z - population functional at z
    T*_n     = sigma_hat_n - sigma          (and TR*_n for restricted runs)

together with the sandwich inequalities relating them, and estimates outer
limits of the checkpoint trajectory of mean sets.  Everything is driven by
a named, platform-independent PRNG (numpy PCG64): replication k draws from
``PCG64(SeedSequence([seed, k]))``, so runs are reproducible bit for bit
and replications are independent of execution order.

The engine is columnar.  Every replication is drawn before any is scored:
the seeds of all streams are hashed at once, one PCG64 is set to each
stream in turn, only the draws up to the last checkpoint are taken, and
their counts per checkpoint fill one replications x checkpoints x support
array.  Replications with one count row share every statistic, so each
checkpoint scores its distinct count rows a chunk at a time: their counts
form one matrix, scored by the solver's scorer a tile at a time, and the
row-wise minima and ties each tile is reduced to give every statistic,
gathered back to the replications by row id.  The
tail and Kuratowski visits of all replications' mean sets are counted per
track by the counters of :mod:`set_limits`, whose one-row case is each
estimator.  The result keeps each statistic as a column over replications
(exact values as integer numerators over the checkpoint's denominator), and
the summary, the report and the event tables read those columns; a Fraction
or a float is built only where a value is written.

Every set of a run is a tuple of sorted space indices until a caller reads
points (point i is ``result.space.points[i]``): the population mean sets
(``MeanSetResult.indices``), the checkpoint mean sets and each
replication's outer-limit estimates.  The engine interns the checkpoint
mean sets of both tracks in ``result.sets``, in order of first appearance
(on full graph spaces a chunk's new tuples of tied slot-type orbits are
expanded to their graphs' masks together), and the ``mean_set`` columns hold
ids into it.  Whatever depends on a set alone is made once per distinct set:
the report's size and label cells (each point labelled once per result), the
event predicates' verdicts and the outer-limit estimators' neighbourhoods.
``ExperimentResult.records`` is built only when it is read.

Reports are emitted as a CSV of per-replication, per-checkpoint rows plus a
JSON summary; both schemas are versioned (see ``CSV_SCHEMA`` and
``SUMMARY_SCHEMA``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import frechet_solver
from .frechet_solver import MeanSetResult, _labels, _mean_set, _min_ties, _product, _scorer, _tied
from .graph_space import GraphSpaceConfig, enumerate_space, parse_graph
from .metric_core import (
    _FLOAT64_EXACT,
    DiscreteMeasure,
    MetricSpace,
    Sample,
    _exact_dtype,
    _grid_bounds,
    _to_float,
    _weights,
    check_order,
    interval_grid,
)
from .set_limits import OuterLimitEstimate, _kuratowski_rows, _recurrent_rows, default_burn_in

__all__ = [
    "ConfigError",
    "GraphSpec",
    "GridSpec",
    "LimitParams",
    "ExperimentConfig",
    "CheckpointStats",
    "TrajectoryRecord",
    "ExperimentResult",
    "OscillationTable",
    "build_space",
    "load_config_file",
    "parse_point_label",
    "replication_rng",
    "sample_iid",
    "run_consistency_experiment",
    "oscillation_stats",
    "event_full_space",
    "event_contains",
    "resolve_event",
    "summary_blocks",
    "build_summary",
    "write_report_csv",
    "write_summary_json",
    "CSV_SCHEMA",
    "SUMMARY_SCHEMA",
]

CSV_SCHEMA = "experiment-rows-v1"
SUMMARY_SCHEMA = "experiment-summary-v1"

DEFAULT_CHECKPOINTS = (10, 100, 1000, 10000)


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any computation."""


GraphSpec = GraphSpaceConfig


@dataclass(frozen=True)
class GridSpec:
    start: str = "-1"
    end: str = "1"
    step: str = "0.01"


def build_space(spec) -> MetricSpace:
    if isinstance(spec, GraphSpec):
        return enumerate_space(spec)
    if isinstance(spec, GridSpec):
        return interval_grid(spec.start, spec.end, spec.step)
    raise ConfigError(f"unknown space spec {spec!r}")


def parse_point_label(spec, label: str):
    """Parse a point written as text, per the space kind of ``spec``."""
    if isinstance(spec, GraphSpec):
        return parse_graph(label)
    if isinstance(spec, GridSpec):
        return Fraction(str(label))
    raise ConfigError(f"unknown space spec {spec!r}")


@dataclass(frozen=True)
class LimitParams:
    """Outer-limit estimator parameters over the checkpoint trajectory.

    ``burn_in`` is an index into the checkpoint list (None: half the
    trajectory); ``epsilon`` = 0 degenerates to exact-membership visits.
    """

    epsilon: Fraction | float = Fraction(0)
    burn_in: int | None = None
    min_visits: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    space_spec: GraphSpec | GridSpec
    mu: DiscreteMeasure
    r: int | float
    n_max: int
    checkpoints: tuple = DEFAULT_CHECKPOINTS
    replications: int = 200
    seed: int = 0
    restricted: bool = False
    limit_params: LimitParams | None = LimitParams()
    events: tuple = ()

    def validated(self, space: MetricSpace) -> "ExperimentConfig":
        try:
            check_order(self.r)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        checkpoints = tuple(int(c) for c in self.checkpoints)
        if not checkpoints:
            raise ConfigError("at least one checkpoint is required")
        if any(c < 1 for c in checkpoints) or list(checkpoints) != sorted(set(checkpoints)):
            raise ConfigError(f"checkpoints must be ascending positive integers, got {checkpoints}")
        if checkpoints[-1] > self.n_max:
            raise ConfigError(f"checkpoints exceed n_max={self.n_max}: {checkpoints}")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        for p in self.mu.support:
            if p not in space:
                raise ConfigError(f"measure support point {p!r} is not a point of {space.name}")
        for name in self.events:
            resolve_event(name, space, self.space_spec)
        if self.limit_params is not None:
            lp = self.limit_params
            if not lp.epsilon >= 0:  # NaN too
                raise ConfigError("epsilon must be >= 0")
            if lp.min_visits < 1:
                raise ConfigError("min_visits must be >= 1")
            burn = default_burn_in(len(checkpoints)) if lp.burn_in is None else lp.burn_in
            if not 0 <= burn < len(checkpoints):
                raise ConfigError(
                    f"burn_in must be a checkpoint index in [0, {len(checkpoints) - 1}], got {lp.burn_in}"
                )
        return replace(self, checkpoints=checkpoints)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = "experiment-config-v1"


def _config_int(value) -> int:
    """Integer config value; JSON booleans and non-integral numbers are refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _config_bool(value) -> bool:
    """Boolean config value: only JSON true and false."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {json.dumps(value)}")
    return value


def _config_rational(value) -> Fraction:
    return Fraction(str(value))


def _config_rational_text(value) -> str:
    """A rational literal, kept as it is written."""
    _config_rational(value)
    return str(value)


def _config_events(value) -> tuple:
    if not isinstance(value, list):
        raise ConfigError("events must be a list of event names")
    return tuple(map(str, value))


# Each config key the loader converts: the dataclass it sets, the field it
# sets there and the converter of its JSON value.  A key not given is not
# passed, so its field keeps the dataclass default; a field without one is a
# required key.  The summary's config block writes the same keys back.
_CONFIG_KEYS = {
    "nv": (GraphSpec, "nv", _config_int),
    "enumeration_cap": (GraphSpec, "enumeration_cap", _config_int),
    "grid_start": (GridSpec, "start", _config_rational_text),
    "grid_end": (GridSpec, "end", _config_rational_text),
    "grid_step": (GridSpec, "step", _config_rational_text),
    "replications": (ExperimentConfig, "replications", _config_int),
    "seed": (ExperimentConfig, "seed", _config_int),
    "restricted": (ExperimentConfig, "restricted", _config_bool),
    "events": (ExperimentConfig, "events", _config_events),
    "epsilon": (LimitParams, "epsilon", _config_rational),
    "burn_in": (LimitParams, "burn_in", lambda value: None if value is None else _config_int(value)),
    "min_visits": (LimitParams, "min_visits", _config_int),
}
# The keys the loader reads itself; ``limits`` false builds no LimitParams.
_STRUCTURAL_KEYS = {"schema", "space", "support", "weights", "r", "n_max", "checkpoints", "limits"}
_SPACE_SPECS = {"graph": GraphSpec, "grid": GridSpec}


def load_config_file(path, flags=None) -> ExperimentConfig:
    """Parse a flat JSON experiment config (schema ``experiment-config-v1``).

    ``flags`` maps config keys to values that replace the file's before any
    is converted (``simulate``'s ``--seed``, ``--epsilon``, ``--burn-in`` and
    ``--min-visits``); a limit key among them turns limits on.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS.keys() - _STRUCTURAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if raw.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA!r}, got {raw.get('schema')!r}")
    flags = flags or {}
    raw.update(flags)

    key = None  # the config key being read, named when its value is bad

    def get(k, default=None):
        nonlocal key
        key = k
        return raw.get(k, default)

    def need(k):
        if k not in raw:
            raise ConfigError(f"config key {k!r} is required")
        return get(k)

    try:
        kind = need("space")
        if not isinstance(kind, str) or kind not in _SPACE_SPECS:
            raise ConfigError(f"space must be 'graph' or 'grid', got {kind!r}")
        spec_cls = _SPACE_SPECS[kind]
        given = {spec_cls: {}, ExperimentConfig: {}, LimitParams: {}}  # field values by dataclass
        for k, (cls, name, convert) in _CONFIG_KEYS.items():
            if k in raw:  # every key given is converted, whatever the space and limits
                value = convert(get(k))
                if cls not in given:
                    raise ConfigError(f"config key {k!r} does not apply to {kind} spaces")
                given[cls][name] = value
            elif cls is spec_cls and cls.__dataclass_fields__[name].default is MISSING:
                need(k)
        spec_key = {name: k for k, (cls, name, _) in _CONFIG_KEYS.items() if cls is spec_cls}
        key = spec_key.get("nv")  # the one field a GraphSpec checks
        spec = spec_cls(**given[spec_cls])
        if spec_cls is GridSpec:  # the grid's checks, made without any point
            key = spec_key["end" if Fraction(spec.end) <= Fraction(spec.start) else "step"]
            _grid_bounds(spec.start, spec.end, spec.step)

        support_labels = need("support")
        if not isinstance(support_labels, list) or not support_labels:
            raise ConfigError("support must be a non-empty list of point labels")
        support = [parse_point_label(spec, str(s)) for s in support_labels]
        mu = DiscreteMeasure.uniform(support)  # a repeated point is named by the support key
        if raw.get("weights") is not None:
            mu = DiscreteMeasure(tuple(support), tuple(Fraction(str(w)) for w in get("weights")))

        r = need("r")
        if isinstance(r, float) and r == int(r):
            r = int(r)
        n_max = _config_int(need("n_max"))
        checkpoints = get("checkpoints")
        if checkpoints is None:
            checkpoints = [c for c in DEFAULT_CHECKPOINTS if c <= n_max] or [n_max]
        elif not isinstance(checkpoints, list):
            raise ConfigError("checkpoints must be a list of sample sizes")
        checkpoints = tuple(_config_int(c) for c in checkpoints)
        limits = _config_bool(get("limits", True)) or any(_CONFIG_KEYS[k][0] is LimitParams for k in flags)
        limit_params = LimitParams(**given[LimitParams]) if limits else None
        return ExperimentConfig(spec, mu, r, n_max, checkpoints, limit_params=limit_params, **given[ExperimentConfig])
    except ConfigError:
        raise
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"bad value for config key {key!r}: {exc}") from None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """The documented stream for one replication: PCG64(SeedSequence([seed, k]))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, replication])))


def _stream_states(seed: int, ks) -> list:
    """``replication_rng(seed, k).bit_generator.state["state"]`` for every k in ``ks``.

    This is numpy's ``SeedSequence([seed, k]).generate_state(4, np.uint64)``
    for all k at once.  The entropy is the 32-bit words of ``seed``, then
    those of k (one word below 2^32, two from there up to 2^64).  The 32-bit
    hashmix and mix rounds run on uint64 arrays: every product of two words
    fits, and each result is masked back to 32 bits.  PCG64 then seeds from
    the four 64-bit words in Python ints: ``state = 0``, step,
    ``state += initstate``, step.
    """
    ks = np.asarray(ks, dtype=np.uint64)
    low = np.uint64(0xFFFFFFFF)
    shifts = range(0, max(seed.bit_length(), 1), 32)
    words = [np.full(len(ks), seed >> s & 0xFFFFFFFF, np.uint64) for s in shifts] + [ks & low, ks >> np.uint64(32)]

    def hasher(const: int, mult: int) -> Callable:
        """numpy's hashmix, its hash constant advancing by ``mult`` per call."""

        def hashmix(value):
            nonlocal const
            value = value ^ np.uint64(const)
            const = const * mult & 0xFFFFFFFF
            value = value * np.uint64(const) & low
            return value ^ value >> np.uint64(16)

        return hashmix

    def mix(x, y):
        value = (x * np.uint64(0xCA01F9DD) - y * np.uint64(0x4973F715)) & low
        return value ^ value >> np.uint64(16)

    # mix_entropy into a pool of four words; a k below 2^32 has no high word,
    # which is the pool's zero padding while it lies among the first four
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(ks)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        before, pool = pool, [mix(p, hashmix(word)) for p in pool]
    if len(words) > 4:  # past the pool, a k below 2^32 skips the last round
        pool = [np.where(words[-1] > 0, p, b) for p, b in zip(pool, before)]
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = ((out[2 * i] | out[2 * i + 1] << np.uint64(32)).tolist() for i in range(4))
    mask = (1 << 128) - 1
    incs = [((c << 64 | d) << 1 | 1) & mask for c, d in zip(i_hi, i_lo)]
    return [
        {"state": (((a << 64 | b) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & mask, "inc": inc}
        for a, b, inc in zip(s_hi, s_lo, incs)
    ]


def _support_cdf(mu: DiscreteMeasure) -> np.ndarray:
    """The float CDF of ``mu`` over its support in canonical order."""
    cum = np.cumsum(np.array([float(w) for w in mu.weights], dtype=np.float64))
    cum[-1] = 1.0  # guard against accumulated rounding in the last bin
    return cum


def _draw_indices(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws of support positions, ``cdf`` being :func:`_support_cdf`."""
    return np.searchsorted(cdf, rng.random(n), side="right").astype(np.intp)


def sample_iid(mu: DiscreteMeasure, n: int, seed: int) -> Sample:
    """n iid draws from mu via inverse-CDF over PCG64(SeedSequence(seed))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = _draw_indices(_support_cdf(mu), n, rng)
    return Sample(tuple(mu.support[i] for i in idx))


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointStats:
    """The statistics of one replication at one checkpoint sample size ``n``.

    ``mean_set`` and ``mean_set_res`` are tuples of sorted space indices;
    the points are ``space.points[i]`` of the experiment's space.
    """

    n: int
    sigma_hat: Fraction | float
    mean_set: tuple
    t_hat_max: Fraction | float
    t_star: Fraction | float
    t_theta_min: Fraction | float
    included_in_population: bool
    sigma_hat_res: Fraction | float | None = None
    mean_set_res: tuple | None = None
    tr_star: Fraction | float | None = None
    t_res_hat_max: Fraction | float | None = None
    t_res_upper: Fraction | float | None = None
    included_in_population_res: bool | None = None
    subset_of_sampled: bool | None = None


@dataclass(frozen=True)
class TrajectoryRecord:
    replication: int
    stats: tuple
    tail_estimate: frozenset | None = None
    tail_included: bool | None = None
    kuratowski: OuterLimitEstimate | None = None
    kuratowski_included: bool | None = None
    # worst distance from an estimate point to the population target
    # (0 for an empty estimate); the estimator's own budget is 2*epsilon
    # once the trajectory has settled within epsilon of the target
    kuratowski_target_gap: float | Fraction | None = None
    tail_estimate_res: frozenset | None = None
    tail_included_res: bool | None = None
    kuratowski_res: OuterLimitEstimate | None = None
    kuratowski_included_res: bool | None = None
    # the same worst distance for the restricted estimate and target
    kuratowski_target_gap_res: float | Fraction | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """An experiment's population mean sets and every statistic as a column
    over its replications.

    ``stats[name][pos]`` holds statistic ``name`` of :class:`CheckpointStats`
    at checkpoint ``pos``, one entry per replication.  A value is an integer
    numerator over ``denominators[pos]`` on the exact path, in int64 below
    the overflow guard and as Python ints past it; off the exact path it is
    a float64 value and the denominators are 1.  Flags are bool arrays.
    A mean-set column (``mean_set``, ``mean_set_res``) holds ids into
    ``sets``, the run's distinct mean sets of both tracks as sorted
    space-index tuples in order of first appearance.  ``row_ids[pos][k]`` is
    the id of replication k's count row among the distinct ones at checkpoint
    ``pos``, by first replication.  ``limits[name][k]`` is field ``name`` of
    replication k's :class:`TrajectoryRecord`, with the tail and Kuratowski
    estimates as sorted space-index tuples from checkpoint ``burn_in`` on.
    ``support_indices`` index the measure's support.
    """

    config: ExperimentConfig
    space: MetricSpace
    population: MeanSetResult
    population_restricted: MeanSetResult | None
    denominators: tuple = field(repr=False, compare=False)
    stats: dict = field(repr=False, compare=False)
    limits: dict = field(repr=False, compare=False)
    sets: tuple = field(repr=False, compare=False)
    row_ids: tuple = field(repr=False, compare=False)
    support_indices: tuple = field(repr=False, compare=False)
    burn_in: int | None = field(repr=False, compare=False)

    @functools.cached_property
    def _label(self) -> Callable:
        """The label of point ``space.points[i]`` by its index i, for each index of the sets, the
        support and the population mean sets, made in one pass (:func:`frechet_solver._labels`)."""
        means = (self.population, self.population_restricted)
        named = [*self.sets, self.support_indices, *(mean.indices for mean in means if mean is not None)]
        indices = list(dict.fromkeys(itertools.chain.from_iterable(named)))  # each once, by first appearance
        return dict(zip(indices, _labels(self.space, indices))).__getitem__

    def _record_values(self, name: str, pos: int) -> list:
        """Column ``name`` at checkpoint ``pos`` as record values: Fractions on the
        exact path, floats off it, bools as they are and mean sets as index tuples."""
        col = self.stats[name][pos]
        if name in ("mean_set", "mean_set_res"):
            return [self.sets[i] for i in col.tolist()]
        if self.population.exact and col.dtype != bool:
            den = self.denominators[pos]
            return [Fraction(num, den) for num in col.tolist()]
        return col.tolist()

    def _floats(self, name: str, pos: int, rows: np.ndarray) -> np.ndarray:
        """Value column ``name`` at checkpoint ``pos``, its entries ``rows``, as
        float64, each entry the ``float`` of its exact value.  Numerator and
        denominator below 2^53 are float64 numbers, so one IEEE division rounds
        as ``float(Fraction)`` does; past that each entry goes through :func:`_to_float`."""
        col = self.stats[name][pos][rows]
        if not self.population.exact:
            return col
        den = self.denominators[pos]
        if col.dtype != object and den < _FLOAT64_EXACT and np.abs(col).max() < _FLOAT64_EXACT:
            return col / den
        return np.array([_to_float(num, den) for num in col.tolist()], dtype=np.float64)

    @functools.cached_property
    def records(self) -> tuple:
        """One :class:`TrajectoryRecord` per replication, in replication order, made
        from the columns on first access, the outer-limit estimates as points."""
        reps = range(self.config.replications)
        stats = []
        for pos, n in enumerate(self.config.checkpoints):
            fields = {name: self._record_values(name, pos) for name in self.stats}
            stats.append([CheckpointStats(n, **{name: col[k] for name, col in fields.items()}) for k in reps])
        lp, limits = self.config.limit_params, dict(self.limits)  # each estimate's index tuple becomes points
        points = functools.cache(lambda t: frozenset(map(self.space.points.__getitem__, t)))  # once per estimate
        for name in limits.keys() & {"tail_estimate", "tail_estimate_res"}:
            limits[name] = list(map(points, limits[name]))
        for name in limits.keys() & {"kuratowski", "kuratowski_res"}:
            col = limits[name]
            limits[name] = [OuterLimitEstimate(points(t), lp.epsilon, self.burn_in, lp.min_visits) for t in col]
        return tuple(
            TrajectoryRecord(k, tuple(s[k] for s in stats), **{name: col[k] for name, col in limits.items()})
            for k in reps
        )


# ---------------------------------------------------------------------------
# the experiment engine
# ---------------------------------------------------------------------------

def _index_tuples(flat: np.ndarray, starts: np.ndarray) -> list:
    """``flat`` cut at ``starts`` into one tuple of Python numbers per row."""
    flat = flat.tolist()
    bounds = starts.tolist() + [len(flat)]
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _draw_counts(cfg: ExperimentConfig) -> np.ndarray:
    """``counts[k, pos, j]``: replication k's first ``checkpoints[pos]`` draws
    that fall on support position j.

    One PCG64 is set to each replication's state in turn, and only its first
    ``checkpoints[-1]`` uniforms are drawn, a prefix of the draws of
    :func:`_draw_indices`.  Uniforms are drawn a block of at most
    ``_CHUNK_CELLS`` at a time: whole rows, or one row in pieces when it is
    longer.  A draw u falls on position ``#{j: cdf[j] <= u}``, so the draws
    of a stretch at positions up to j are those below ``cdf[j]``, counted
    per stretch with one ``np.add.reduceat``.
    """
    cdf = _support_cdf(cfg.mu)
    reps, last = cfg.replications, cfg.checkpoints[-1]
    width = min(last, frechet_solver._CHUNK_CELLS)
    rows = min(reps, frechet_solver._CHUNK_CELLS // width)
    # stretches: the draws between consecutive checkpoints, cut at every block edge
    starts = np.array(sorted({0, *cfg.checkpoints[:-1], *range(0, last, width)}))
    below = np.empty((reps, len(starts), len(cdf)), dtype=np.int64)  # stretch draws below each cdf[j]
    below[:, :, -1] = np.diff(starts, append=last)  # cdf[-1] = 1 exceeds every draw
    bit_generator = np.random.PCG64()
    gen = np.random.Generator(bit_generator)
    state = bit_generator.state
    streams = _stream_states(cfg.seed, range(reps))
    uniforms = np.empty((rows, width))
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        for a in range(0, last, width):
            block = uniforms[: hi - lo, : min(width, last - a)]
            for k, row in enumerate(block, lo):
                if a == 0:
                    state["state"] = streams[k]
                    bit_generator.state = state
                gen.random(out=row)
            inside = (starts >= a) & (starts < a + width)
            for j in range(len(cdf) - 1):
                below[lo:hi, inside, j] = np.add.reduceat(block < cdf[j], starts[inside] - a, axis=1)
    per_checkpoint = np.add.reduceat(below, np.searchsorted(starts, (0, *cfg.checkpoints[:-1])), axis=1)
    return np.diff(per_checkpoint, axis=2, prepend=0).cumsum(axis=1)


class _Engine:
    """The scores of one configuration's support at the positions of
    :func:`frechet_solver._scorer` (slot-type orbits on full graph spaces
    with exact scores, space points elsewhere), reduced by the solver's own
    scorer a tile of at most ``_CHUNK_CELLS`` cells at a time; no
    |space| x |support| block and no score row is held.

    :meth:`columns` scores a chunk of a checkpoint's distinct count rows at
    once into the rows' minima and ties, and the scores that the statistics
    read (at the population mean set and at the support, and the
    population's at the ties) are direct products of those positions'
    ``d**r`` with the weights.  Both tracks (all points compete; only
    sampled support points compete) read every statistic off them.  On the
    exact path every score is an integer, and each value is kept as an
    integer numerator over the checkpoint's denominator ``n * d * q`` (d the
    weights' common denominator, ``scale**r = p / q``); off it values are
    float64.  A mean set is the sorted space indices of a row's ties, kept
    as its id in ``sets``, the distinct mean sets of both tracks in order of
    first appearance: a row's tied positions are looked up by their bytes,
    and each distinct tuple of them is expanded to space indices once.
    """

    def __init__(self, space: MetricSpace, cfg: ExperimentConfig):
        r = cfg.r
        self.restricted = cfg.restricted
        self.sup_idx, self.weights, self.pop_denominator, self.exact = _weights(space, cfg.mu, r)
        self.scale_r = space.scale**r
        total = 2 * max(cfg.n_max, self.pop_denominator)  # t_res_upper adds two scores
        self.ties, self.powers, sup_rows, self.expand, self.row_cells = _scorer(
            space, self.sup_idx, r, self.exact, total
        )
        if self.exact:  # every numerator is at most 2 max(M, 1)^r n_max d p in size
            bound = 2 * cfg.n_max * self.pop_denominator * self.scale_r.numerator
            self.num_dtype = object if _exact_dtype(space, r, bound) is object else np.int64
        # the population side of every excess: each track's minimum, and its scores at the support
        (best,), _, theta_rows, _ = self.ties(self.weights[None])
        self.pop_best = [self._ints(np.asarray(best))]
        theta_idx = np.sort(self.expand(theta_rows)[0])
        self.population = _mean_set(space, best, theta_idx, r, self.pop_denominator, self.exact, "full_space")
        self.population_res = None
        self.theta_powers, self.width = self.powers(theta_rows), len(theta_rows)  # cells per row beside the tiles
        if self.restricted:
            self.sup_order = np.argsort(self.sup_idx)  # support positions in ascending space order
            self.sup_rows = sup_rows[self.sup_order]
            self.sup_powers = self.powers(self.sup_rows)
            pop_sup = _product(self.weights[None], self.sup_powers, self.exact)
            (best,), _, self.theta_res, _ = _min_ties(pop_sup, self.exact)
            self.pop_best.append(self._ints(np.asarray(best)))
            self.pop_sup = self._ints(pop_sup[0])
            idx = self.sup_idx[self.sup_order][self.theta_res]
            self.population_res = _mean_set(space, best, idx, r, self.pop_denominator, self.exact, "measure_support")
            self.width = max(self.width + len(self.sup_idx), len(self.theta_res) * len(self.sup_idx))  # the gaps
        self.sets = []  # every distinct mean set, a sorted tuple of space indices, by first appearance
        self._ids = {}  # the bytes of a tuple of tied positions -> the id of its set

    def chunk(self, rows: np.ndarray) -> int:
        """How many of a checkpoint's distinct count rows ``rows`` to score at once: sized
        from the table rows that the cut and the bound keep for all of them, which hold every chunk's."""
        return max(1, frechet_solver._CHUNK_CELLS // max(self.width, self.row_cells(rows)))

    def _set_ids(self, ties: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The id in ``sets`` of each row's tied positions, the row's slice of
        ``ties`` from ``starts``.

        A row is looked up by the bytes of its slice.  The slices not seen
        before are expanded to their points all at once, sorted in one pass
        (by slice, then space index) and added to ``sets``: distinct slices
        are distinct sets, as the positions partition the space.
        """
        data = ties.astype(np.int64, copy=False).tobytes()
        bounds = (starts * 8).tolist() + [len(data)]
        keys = [data[a:b] for a, b in zip(bounds, bounds[1:])]
        new = [key for key in dict.fromkeys(keys) if key not in self._ids]
        if new:
            points, offsets = self.expand(np.frombuffer(b"".join(new), np.int64))
            ends = offsets[np.cumsum([0, *map(len, new)]) // 8]  # each slice's points are one block
            owner = np.repeat(np.arange(len(new)), np.diff(ends))
            self._ids.update(zip(new, range(len(self.sets), len(self.sets) + len(new))))
            self.sets += _index_tuples(points[np.lexsort((points, owner))], ends[:-1])
        return np.fromiter(map(self._ids.__getitem__, keys), np.intp, len(keys))

    def denominator(self, n: int) -> int:
        """The denominator of every value at checkpoint n (1 off the exact path)."""
        return n * self.pop_denominator * self.scale_r.denominator if self.exact else 1

    def _ints(self, scores: np.ndarray) -> np.ndarray:
        """Exact scores in the numerators' dtype; float scores as they are."""
        if not self.exact:
            return scores
        if scores.dtype == np.float64:
            scores = scores.astype(np.int64)
        return scores.astype(self.num_dtype, copy=False)

    def _excess(self, scores: np.ndarray, n: int, pop=0):
        """``scores / n - pop / pop_denominator``, elementwise, with ``pop`` taken
        from ``self.pop``: numerators over :meth:`denominator` on the exact
        path, the difference of the two float quotients off it."""
        d = self.pop_denominator
        if not self.exact:
            return scores / n - pop / d
        return (self._ints(scores) * d - pop * n) * self.scale_r.numerator

    def columns(self, counts: np.ndarray, n: int) -> dict:
        """Every statistic at checkpoint n of a chunk of count rows, as columns;
        ``counts[k]`` counts a replication's first n draws per support point."""
        best, _, ties, starts = self.ties(counts)
        # a row's ties all lie in theta iff the largest population score among them ties with its optimum
        pop, pop_best = self._ints(_product(self.weights[None], self.powers(ties), self.exact)[0]), self.pop_best[0]
        cols = dict(
            sigma_hat=self._excess(best, n),
            mean_set=self._set_ids(ties, starts),
            t_hat_max=self._excess(best, n, np.minimum.reduceat(pop, starts)),
            t_star=self._excess(best, n, pop_best),
            t_theta_min=self._excess(_product(counts, self.theta_powers, self.exact).min(axis=1), n, pop_best),
            included_in_population=_tied(np.maximum.reduceat(pop, starts), pop_best, self.exact),
        )
        if self.restricted:
            observed = counts[:, self.sup_order] > 0
            sup_scores = _product(counts, self.sup_powers, self.exact)
            best, rows, pos, starts = _min_ties(sup_scores, self.exact, observed)
            pop, pop_best = self.pop_sup[pos], self.pop_best[1]
            # upper bound: min over theta* of T_n(theta*) + min_{x' observed} |Fhat(x') - Fhat(theta*)|;
            # Fhat is a positive multiple of the score, so the bound is taken on scores
            theta_scores = sup_scores[:, self.theta_res]
            gaps = np.abs(sup_scores[:, None, :] - theta_scores[:, :, None])
            gaps = np.where(observed[:, None, :], gaps, gaps.max()).min(axis=2)
            cols.update(
                sigma_hat_res=self._excess(best, n),
                mean_set_res=self._set_ids(self.sup_rows[pos], starts),
                tr_star=self._excess(best, n, pop_best),
                t_res_hat_max=self._excess(best, n, np.minimum.reduceat(pop, starts)),
                t_res_upper=self._excess((theta_scores + gaps).min(axis=1), n, pop_best),
                included_in_population_res=_tied(np.maximum.reduceat(pop, starts), pop_best, self.exact),
                subset_of_sampled=np.logical_and.reduceat(observed[rows, pos], starts),
            )
        return cols


def _outer_limits(
    space: MetricSpace, lp: LimitParams, burn: int, mean_sets: list, sets: list, target_idx: tuple
) -> dict:
    """The outer-limit fields of every replication's :class:`TrajectoryRecord`
    on one track, one list per field name (without the track's suffix), with
    each tail and Kuratowski estimate as a tuple of sorted space indices.

    ``mean_sets`` holds one column of ids into ``sets`` per checkpoint and
    ``target_idx`` the indices of the track's population mean set.  The tail
    and Kuratowski visits of all replications are counted by the estimators'
    own counters over the distinct tail sets, inclusion is one ``np.isin``,
    and the distinct Kuratowski points outside the target take their distance
    to it from :meth:`MetricSpace.nearest`, within the cell budget.
    """
    reps = len(mean_sets[0])
    used, tails = np.unique(np.stack(mean_sets[burn:], axis=1), return_inverse=True)
    tails, tail_sets = tails.reshape(reps, -1), [sets[i] for i in used.tolist()]
    fields = {}
    for name, included, (rows, idx) in (
        ("tail_estimate", "tail_included", _recurrent_rows(tails, tail_sets, lp.min_visits)),
        ("kuratowski", "kuratowski_included", _kuratowski_rows(space, tails, tail_sets, lp.epsilon, lp.min_visits)),
    ):
        starts = np.searchsorted(rows, np.arange(reps))  # each replication's first pair
        inside, outside = np.ones(reps, dtype=bool), ~np.isin(idx, target_idx)
        inside[rows[outside]] = False
        fields[name] = _index_tuples(idx, starts)
        fields[included] = inside.tolist()
    # idx, starts and outside are now the Kuratowski estimate's; a point of the target is at distance 0 from it
    points, pos = np.unique(idx[outside], return_inverse=True)
    near = np.zeros(len(idx), dtype=np.int64 if space.exact else np.float64)  # each point's distance to the target
    near[outside] = space.nearest(points, target_idx, frechet_solver._CHUNK_CELLS)[pos]
    fields["kuratowski_target_gap"] = [space.as_distance(max(d)) if d else 0 for d in _index_tuples(near, starts)]
    return fields


def run_consistency_experiment(
    cfg: ExperimentConfig, space: MetricSpace | None = None
) -> ExperimentResult:
    """Run all replications of an experiment; deterministic given (cfg, seed).

    Per replication: one cumulative iid stream, mean sets and variances at
    every checkpoint, sandwich diagnostics, and (when ``limit_params`` is
    set) outer-limit estimates of the checkpoint trajectory with inclusion
    checks against the population (and restricted) mean sets.  Every
    replication is drawn first.  A checkpoint's statistics depend on the draws
    only through their count row, so each checkpoint scores its distinct count
    rows a chunk at a time and gathers every column back by row id.  The outer
    limits of each track are estimated for all replications at once; the
    result holds the statistics as columns, so no record is built unless it
    is read.
    """
    if space is None:
        space = build_space(cfg.space_spec)
    cfg = cfg.validated(space)
    engine = _Engine(space, cfg)
    counts = _draw_counts(cfg)
    stats, row_ids = {}, []  # name -> one column per checkpoint; each checkpoint's row ids
    for pos, n in enumerate(cfg.checkpoints):
        data, width = counts[:, pos].tobytes(), 8 * counts.shape[2]  # one count row per width bytes
        distinct = {}  # each distinct count row's bytes -> its id, by first replication
        ids = np.array([distinct.setdefault(data[a : a + width], len(distinct)) for a in range(0, len(data), width)])
        rows = np.frombuffer(b"".join(distinct), np.int64).reshape(len(distinct), -1)
        step = engine.chunk(rows)
        parts = [engine.columns(rows[lo : lo + step], n) for lo in range(0, len(rows), step)]
        for name in parts[0]:
            stats.setdefault(name, []).append(np.concatenate([part[name] for part in parts])[ids])
        row_ids.append(ids)

    limits, burn = {}, None
    lp = cfg.limit_params
    if lp is not None:
        burn = default_burn_in(len(cfg.checkpoints)) if lp.burn_in is None else lp.burn_in
        for suffix, target in (("", engine.population), ("_res", engine.population_res))[: 1 + cfg.restricted]:
            fields = _outer_limits(space, lp, burn, stats[f"mean_set{suffix}"], engine.sets, target.indices)
            limits.update((name + suffix, col) for name, col in fields.items())

    return ExperimentResult(
        config=cfg,
        space=space,
        population=engine.population,
        population_restricted=engine.population_res,
        denominators=tuple(engine.denominator(n) for n in cfg.checkpoints),
        stats=stats,
        limits=limits,
        sets=tuple(engine.sets),
        row_ids=tuple(row_ids),
        support_indices=tuple(engine.sup_idx.tolist()),
        burn_in=burn,
    )


# ---------------------------------------------------------------------------
# events and oscillation tables
# ---------------------------------------------------------------------------


def event_full_space(space: MetricSpace) -> Callable:
    """The event "the mean set is all of ``space``", on a tuple of space indices."""
    size = len(space)
    return lambda mean_set: len(mean_set) == size


def event_contains(index: int) -> Callable:
    """The event "the mean set holds point ``space.points[index]``", on a tuple of space indices."""
    return lambda mean_set: index in mean_set


def resolve_event(name: str, space: MetricSpace, spec) -> Callable:
    """Map a config event string to a predicate on a mean set of space indices;
    a bad point label is a ConfigError."""
    if name == "full_space":
        return event_full_space(space)
    if name.startswith("contains:"):
        try:
            index = space.index(parse_point_label(spec, name.split(":", 1)[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"event {name!r}: {exc}") from None
        return event_contains(index)
    raise ConfigError(f"unknown event {name!r} (use 'full_space' or 'contains:<point>')")


@dataclass(frozen=True)
class OscillationTable:
    event: str
    rows: tuple  # (n, successes, replications, frequency, std_error)

    def as_dicts(self) -> list:
        return [
            dict(n=n, successes=s, replications=r, frequency=f, std_error=se)
            for n, s, r, f, se in self.rows
        ]


def oscillation_stats(result: ExperimentResult, event: Callable, name: str = "event") -> OscillationTable:
    """Per-checkpoint frequency of an event on the mean sets of ``result``'s
    replications, with binomial SE; the event is tested once per distinct set."""
    n_rep = result.config.replications
    hits = np.fromiter(map(event, result.sets), bool, len(result.sets))
    rows = []
    for n, ids in zip(result.config.checkpoints, result.stats["mean_set"]):
        successes = int(np.count_nonzero(hits[ids]))
        freq = successes / n_rep
        se = float(np.sqrt(freq * (1.0 - freq) / n_rep))
        rows.append((n, successes, n_rep, freq, se))
    return OscillationTable(event=name, rows=tuple(rows))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _exact_str(value) -> str | None:
    return str(value) if isinstance(value, (Fraction, int)) else None


def _optimum_fields(mean: MeanSetResult) -> dict:
    """The optimum of a mean set as output fields: its float (``inf`` past the
    float range), its exact value as text (None off the exact path) and the path."""
    return {"optimum": _to_float(mean.optimum), "optimum_exact": _exact_str(mean.optimum), "exact": mean.exact}


def _sandwich_ok(lower, middle, upper, exact: bool):
    """lower <= middle <= upper, elementwise on arrays, up to a rounding
    tolerance relative to middle off the exact path."""
    if exact:
        return (lower <= middle) & (middle <= upper)
    tol = 1e-9 * np.maximum(1.0, np.abs(middle))
    return (lower <= middle + tol) & (middle <= upper + tol)


# Rows of report.csv made and written at a time; it bounds the writer's
# working set, and the bytes do not depend on it.
_REPORT_ROWS = 1 << 12

# report.csv columns after replication and n: (header, statistic, cell kind)
_CSV_COLUMNS = (
    ("sigma_hat", "sigma_hat", "value"),
    ("abs_error", "t_star", "abs"),
    ("t_hat_max", "t_hat_max", "value"),
    ("t_star", "t_star", "value"),
    ("t_theta_min", "t_theta_min", "value"),
    ("mean_set_size", "mean_set", "size"),
    ("included_in_population", "included_in_population", "flag"),
    ("mean_set", "mean_set", "labels"),
)
_CSV_COLUMNS_RES = (
    ("sigma_hat_res", "sigma_hat_res", "value"),
    ("abs_error_res", "tr_star", "abs"),
    ("t_res_hat_max", "t_res_hat_max", "value"),
    ("tr_star", "tr_star", "value"),
    ("t_res_upper", "t_res_upper", "value"),
    ("mean_set_res_size", "mean_set_res", "size"),
    ("included_in_population_res", "included_in_population_res", "flag"),
    ("subset_of_sampled", "subset_of_sampled", "flag"),
    ("mean_set_res", "mean_set_res", "labels"),
)


def _csv_cell(text: str) -> str:
    """``text`` as the csv module's default writer renders it: quoted, with
    its quotes doubled, when it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _float_cells(values: np.ndarray) -> tuple:
    """Each distinct float of ``values`` as its ``str``, and each value's
    position among them, in the shape of ``values``.  Floats are told apart
    by their bits, so ``-0.0`` keeps its own cell."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    return [str(value) for value in bits.view(np.float64).tolist()], inverse.reshape(values.shape)


def write_report_csv(result: ExperimentResult, path) -> None:
    """One CSV row per replication x checkpoint (schema ``CSV_SCHEMA``).

    A row's tail, its cells after ``replication`` and ``n``, is rendered once per distinct
    count row of ``result.row_ids``, from its first replication, and each distinct cell once:
    a number as its float's ``str``, once per checkpoint over all its number columns; a flag
    as ``true`` or ``false``; a mean set's size and ``;``-joined labels once per distinct set
    of ``result.sets``, from the labels of ``result._label``.  Rows are written a bounded
    block of replications at a time, each as ``str(k)`` and then ``f",{n},{tail}\r\n"``,
    made once per distinct count row: the bytes the csv module's default writer gives (it
    writes a float as its ``repr``, which ``str`` equals), without its scan of every character.
    """
    cfg = result.config
    sizes = [str(len(s)) for s in result.sets]
    labels = [_csv_cell(";".join(map(result._label, s))) for s in result.sets]
    texts = {"flag": ("false", "true"), "size": sizes, "labels": labels}
    spec = _CSV_COLUMNS + (_CSV_COLUMNS_RES if cfg.restricted else ())
    numbers = [(stat, kind == "abs") for _, stat, kind in spec if kind in ("value", "abs")]
    tails = []  # each checkpoint's rows after k, one string per distinct count row
    for pos, (n, ids) in enumerate(zip(cfg.checkpoints, result.row_ids)):
        first = np.unique(ids, return_index=True)[1]  # each distinct count row's first replication
        values = np.stack([result._floats(stat, pos, first) for stat, _ in numbers])
        floats, at = _float_cells(np.where([[absolute] for _, absolute in numbers], np.abs(values), values))
        at = iter(at)  # each number column's positions among the cells of all of them
        columns = [
            (floats, next(at)) if kind in ("value", "abs") else (texts[kind], result.stats[stat][pos][first])
            for _, stat, kind in spec
        ]
        rows = zip(*(map(cells.__getitem__, where.tolist()) for cells, where in columns))
        tails.append(np.array([f",{n},{','.join(row)}\r\n" for row in rows], dtype=object))
    header = ["replication", "n", *(header for header, _, _ in spec)]
    block = max(1, _REPORT_ROWS // len(cfg.checkpoints))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, cfg.replications, block):
            reps = range(lo, min(lo + block, cfg.replications))
            pieces = np.empty((len(reps), 2 * len(tails)), dtype=object)  # each row as k, then its string after k
            pieces[:, 0::2] = np.array(list(map(str, reps)), dtype=object)[:, None]
            pieces[:, 1::2] = np.stack([tail[ids[lo : lo + block]] for tail, ids in zip(tails, result.row_ids)], axis=1)
            fh.writelines(pieces.ravel().tolist())  # rows run over replications, then checkpoints


def _config_dict(result: ExperimentResult) -> dict:
    cfg = result.config
    d = {
        "r": cfg.r,
        "n_max": cfg.n_max,
        "checkpoints": list(cfg.checkpoints),
        "support": list(map(result._label, result.support_indices)),
        "weights": [str(w) for w in cfg.mu.weights],
        "limit_params": None if cfg.limit_params is None else {},
    }
    for kind, cls in _SPACE_SPECS.items():
        if isinstance(cfg.space_spec, cls):  # a space given without a spec has no spec keys
            d["space"] = kind
    owners = {type(cfg.space_spec): cfg.space_spec, ExperimentConfig: cfg, LimitParams: cfg.limit_params}
    for key, (cls, name, convert) in _CONFIG_KEYS.items():
        if owners.get(cls) is not None:
            value = getattr(owners[cls], name)
            value = str(value) if convert is _config_rational else value
            (d["limit_params"] if cls is LimitParams else d)[key] = value
    return d


def _mean_set_block(result: ExperimentResult, name: str) -> dict:
    mean = getattr(result, name)  # the population mean set ``name``, labelled by index
    return {
        **_optimum_fields(mean),
        "size": mean.size,
        "mean_set": list(map(result._label, mean.indices)),
        "candidate_domain": mean.candidate_domain,
    }


def _median_and_max(values, denominator: int = 1) -> tuple:
    """The median and the maximum of ``values / denominator``, exact.

    ``values`` are rationals over ``denominator`` (integer numerators, or
    Fractions over 1), or floats over 1.  They are sorted as they are (a list
    by Python, as numpy would make its ints past int64 float64) and an even
    count's middle pair is averaged: the picks are Fractions for rationals,
    and floats for floats, averaged as ``statistics.median`` averages them.
    """
    nums = sorted(values) if isinstance(values, list) else np.sort(values).tolist()
    mid = len(nums) // 2
    pick, den = (nums[mid], denominator) if len(nums) % 2 else (nums[mid - 1] + nums[mid], 2 * denominator)
    if isinstance(pick, float):
        return pick / den, nums[-1] / denominator
    return Fraction(pick, den), Fraction(nums[-1], denominator)


def _abs_errors(result: ExperimentResult, stat: str, pos: int) -> tuple:
    """The exact median and maximum of ``|stat|`` over the replications at checkpoint ``pos``."""
    return _median_and_max(np.abs(result.stats[stat][pos]), result.denominators[pos])


def _budget(cfg: ExperimentConfig):
    """The outer limits' gap budget ``2*epsilon``, a float epsilon read as the Fraction it equals."""
    eps = cfg.limit_params.epsilon
    return 2 * (eps if eps == math.inf else Fraction(eps))


def _rate(flags) -> float:
    return int(np.count_nonzero(flags)) / len(flags)


class _Track(NamedTuple):
    """A track of a run: all points compete (``""``), or only sampled support points (``"_res"``)."""

    suffix: str  # of the track's statistics, outer-limit fields and summary fields
    prefix: str  # of its assertion blocks' names
    error: str  # the variance error, whose median |value| should not grow
    sandwich: tuple  # lower <= middle <= upper on every row
    violations: str  # its sandwich violation count in the summary
    error_text: str
    estimate: str
    target: str


_TRACKS = (
    _Track("", "", "t_star", ("t_hat_max", "t_star", "t_theta_min"), "violations",
           "sigma_hat - sigma", "estimate", "target"),
    _Track("_res", "restricted-", "tr_star", ("t_res_hat_max", "tr_star", "t_res_upper"), "violations_restricted",
           "sigma*_hat - sigma*", "restricted estimate", "restricted target"),
)


def build_summary(result: ExperimentResult) -> dict:
    cfg = result.config
    space = result.space
    exact = result.population.exact
    tracks = _TRACKS[: 1 + cfg.restricted]
    sandwich = {"rows": cfg.replications * len(cfg.checkpoints), "violations_restricted": None}
    sandwich.update((t.violations, 0) for t in tracks)
    per_checkpoint = []
    set_sizes = np.fromiter(map(len, result.sets), np.intp, len(result.sets))
    for pos, n in enumerate(cfg.checkpoints):
        s = {name: col[pos] for name, col in result.stats.items()}
        entry = {"n": n, "mean_set_size_mean": float(np.mean(set_sizes[s["mean_set"]]))}
        for t in tracks:
            median, top = map(_to_float, _abs_errors(result, t.error, pos))
            entry[f"median_abs_error{t.suffix}"] = median
            entry[f"inclusion_rate{t.suffix}"] = _rate(s[f"included_in_population{t.suffix}"])
            sandwich[t.violations] += int(np.count_nonzero(~_sandwich_ok(*(s[k] for k in t.sandwich), exact)))
            if not t.suffix:
                entry["max_abs_error"] = top
        if cfg.restricted:
            entry["subset_of_sampled_rate"] = _rate(s["subset_of_sampled"])
        per_checkpoint.append(entry)

    summary = {
        "schema_version": SUMMARY_SCHEMA,
        "csv_schema": CSV_SCHEMA,
        "config": _config_dict(result),
        "space": {
            "name": space.name,
            "points": len(space),
            "bound_M": _to_float(space.bound_M),
            "exact": space.exact,
        },
        "population": _mean_set_block(result, "population"),
        "population_restricted": _mean_set_block(result, "population_restricted") if cfg.restricted else None,
        "checkpoints": per_checkpoint,
        "sandwich": sandwich,
        "outer_limit": None,
        "events": {
            name: oscillation_stats(result, resolve_event(name, space, cfg.space_spec), name).as_dicts()
            for name in cfg.events
        },
    }

    if cfg.limit_params is not None:
        lim = result.limits
        budget = _budget(cfg)
        median, top = map(_to_float, _median_and_max([Fraction(g) for g in lim["kuratowski_target_gap"]]))
        block = {
            "kuratowski_median_target_gap": median,
            "kuratowski_max_target_gap": top,
            "kuratowski_gap_within_budget_rate": _rate([Fraction(g) <= budget for g in lim["kuratowski_target_gap"]]),
            "mean_tail_size": float(np.mean([len(t) for t in lim["tail_estimate"]])),
            "mean_kuratowski_size": float(np.mean([len(k) for k in lim["kuratowski"]])),
        }
        for t in tracks:
            block[f"tail_inclusion_rate{t.suffix}"] = _rate(lim[f"tail_included{t.suffix}"])
            block[f"kuratowski_inclusion_rate{t.suffix}"] = _rate(lim[f"kuratowski_included{t.suffix}"])
        if cfg.restricted and budget > 0:  # judged like the unrestricted gap; epsilon = 0 runs judge inclusion
            gaps_res = [Fraction(g) for g in lim["kuratowski_target_gap_res"]]
            block["kuratowski_median_target_gap_res"] = _to_float(_median_and_max(gaps_res)[0])
        summary["outer_limit"] = block
    return summary


def write_summary_json(result: ExperimentResult, path, summary: dict | None = None) -> None:
    if summary is None:
        summary = build_summary(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_blocks(result: ExperimentResult, summary: dict | None = None) -> list:
    """Pass/fail assertion blocks printed by the simulate command, each kind
    once per track of the run.

    Returns (name, passed, detail) triples: sandwich identities must hold on
    every row; outer-limit estimates should land inside (or within epsilon
    of) the population target in at least 99% of replications; the variance
    error should not grow from the first to the last checkpoint.  Errors and
    gaps are judged on their exact values (on the exact path), not on the
    summary's floats.
    """
    if summary is None:
        summary = build_summary(result)
    cfg = result.config
    tracks = _TRACKS[: 1 + cfg.restricted]
    s = summary["sandwich"]
    blocks = [
        (f"{t.prefix}sandwich", s[t.violations] == 0, f"{s[t.violations]} violation(s) in {s['rows']} checkpoint rows")
        for t in tracks
    ]
    if len(cfg.checkpoints) >= 2:
        for t in tracks:
            first, last = (_abs_errors(result, t.error, pos)[0] for pos in (0, -1))
            detail = (f"median |{t.error_text}|: {_to_float(first):.6g} (n={cfg.checkpoints[0]}) -> "
                      f"{_to_float(last):.6g} (n={cfg.checkpoints[-1]})")
            blocks.append((f"{t.prefix}variance-trend", last <= first, detail))

    if summary["outer_limit"] is not None:
        budget = _budget(cfg)
        for t in tracks:
            if budget > 0:
                gap = _median_and_max([Fraction(g) for g in result.limits[f"kuratowski_target_gap{t.suffix}"]])[0]
                text = f"median worst {t.estimate}-to-target distance {_to_float(gap):.6g}"
                passed, detail = gap <= budget, f"{text} (budget 2*epsilon = {_to_float(budget):.6g})"
            else:
                rate = summary["outer_limit"][f"kuratowski_inclusion_rate{t.suffix}"]
                passed, detail = rate >= 0.99, f"{t.estimate} subset of {t.target} in {rate:.2%} of replications"
            blocks.append((f"{t.prefix}outer-limit", passed, detail))

    if cfg.restricted:
        supported = all(c["subset_of_sampled_rate"] == 1.0 for c in summary["checkpoints"])
        detail = "restricted mean sets drawn from sampled points at every checkpoint"
        blocks.append(("restricted-support", supported, detail))
    return blocks
