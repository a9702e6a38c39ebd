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

Reports are emitted as a CSV of per-replication, per-checkpoint rows plus a
JSON summary; both schemas are versioned (see ``CSV_SCHEMA`` and
``SUMMARY_SCHEMA``).
"""

from __future__ import annotations

import csv
import functools
import json
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .frechet_solver import MeanSetResult, _mean_set, _min_ties
from .graph_space import GraphSpaceConfig, enumerate_space, parse_graph
from .metric_core import (
    DiscreteMeasure,
    MetricSpace,
    Sample,
    _power_block,
    _score_value,
    _weights,
    check_order,
    interval_grid,
    population_functional,
    sample_functional,
)
from .set_limits import (
    OuterLimitEstimate,
    SetTrajectory,
    default_burn_in,
    kuratowski_limsup,
    tail_limsup,
)

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
    "parse_point_label",
    "replication_rng",
    "sample_iid",
    "diagnostic_T",
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
            if lp.epsilon < 0:
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
# sampling
# ---------------------------------------------------------------------------


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """The documented stream for one replication: PCG64(SeedSequence([seed, k]))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, replication])))


def _draw_indices(mu: DiscreteMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws over the support in canonical order."""
    cum = np.cumsum(np.array([float(w) for w in mu.weights], dtype=np.float64))
    cum[-1] = 1.0  # guard against accumulated rounding in the last bin
    return np.searchsorted(cum, rng.random(n), side="right").astype(np.intp)


def sample_iid(mu: DiscreteMeasure, n: int, seed: int) -> Sample:
    """n iid draws from mu via inverse-CDF over PCG64(SeedSequence(seed))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = _draw_indices(mu, n, rng)
    return Sample(tuple(mu.support[i] for i in idx))


def diagnostic_T(space: MetricSpace, mu: DiscreteMeasure, sample: Sample, z, r):
    """T_n(z): empirical minus population functional at z (exact when possible)."""
    return sample_functional(space, sample, z, r) - population_functional(space, mu, z, r)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointStats:
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


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    space: MetricSpace
    population: MeanSetResult
    population_restricted: MeanSetResult | None
    records: tuple


# ---------------------------------------------------------------------------
# the experiment engine
# ---------------------------------------------------------------------------


class _Engine:
    """One |space| x |support| distance-power block for one configuration.

    Each checkpoint does one matvec, ``scores = block @ counts``, and both
    tracks (all points compete; only sampled support points compete) read
    their statistics off it.  The population targets are read off
    ``pop_scores = block @ weights``.  On the exact path every score is an
    integer -- over n, or over the weights' common denominator -- and
    becomes a Fraction only where a value is reported.
    """

    def __init__(self, space: MetricSpace, cfg: ExperimentConfig):
        self.space = space
        r = cfg.r
        self.restricted = cfg.restricted
        self.sup_idx, weights, self.pop_denominator, self.exact = _weights(space, cfg.mu, r)
        self.scale_r = space.scale**r
        all_idx = np.arange(len(space), dtype=np.intp)
        self.block = _power_block(
            space, all_idx, self.sup_idx, r, self.exact, max(cfg.n_max, self.pop_denominator)
        )
        self.pop_scores = self.block @ weights

        self.population, self.theta_idx = _mean_set(
            space, _min_ties(self.pop_scores, self.exact), r, self.pop_denominator, self.exact, "full_space"
        )
        self.in_theta = np.isin(all_idx, self.theta_idx)
        self.population_res = None
        if self.restricted:
            self.population_res, self.theta_res_idx = _mean_set(
                space, _min_ties(self.pop_scores[self.sup_idx], self.exact, self.sup_idx), r,
                self.pop_denominator, self.exact, "measure_support",
            )
            self.in_theta_res = np.isin(all_idx, self.theta_res_idx)

    # -- per-checkpoint scores ---------------------------------------------

    def _normalize(self, value, n: int):
        return _score_value(value, n, self.exact, self.scale_r)

    def _track(self, scores, candidates, sigma, target: np.ndarray, n: int):
        """One track at one checkpoint: (sigma_hat, mean-set indices, T*, t_hat_max, included).

        ``scores[k]`` belongs to ``candidates[k]`` (None: to point k of the
        space); ``target`` is the population mean set of the track as a mask.
        """
        best, ties = _min_ties(scores, self.exact, candidates)
        sigma_hat = self._normalize(best, n)
        pop_min = self._normalize(self.pop_scores[ties].min(), self.pop_denominator)
        return sigma_hat, ties, sigma_hat - sigma, sigma_hat - pop_min, bool(target[ties].all())

    def checkpoint(self, counts: np.ndarray, n: int) -> CheckpointStats:
        scores = self.block @ counts
        sigma = self.population.optimum
        sigma_hat, ties, t_star, t_hat_max, included = self._track(
            scores, None, sigma, self.in_theta, n
        )
        extra = {}
        if self.restricted:
            sigma_res = self.population_res.optimum
            observed = self.sup_idx[counts > 0]
            observed_scores = scores[observed]
            sigma_hat_res, ties_res, tr_star, t_res_hat_max, included_res = self._track(
                observed_scores, observed, sigma_res, self.in_theta_res, n
            )
            # upper bound: min over theta* of T_n(theta*) + min_{x' observed} |Fhat(x') - Fhat(theta*)|;
            # Fhat is a positive multiple of the score, so the bound is taken on scores
            theta_scores = scores[self.theta_res_idx]
            gaps = np.abs(observed_scores[None, :] - theta_scores[:, None]).min(axis=1)
            extra = dict(
                sigma_hat_res=sigma_hat_res,
                mean_set_res=tuple(self.space.points[i] for i in ties_res),
                tr_star=tr_star,
                t_res_hat_max=t_res_hat_max,
                t_res_upper=self._normalize((theta_scores + gaps).min(), n) - sigma_res,
                included_in_population_res=included_res,
                subset_of_sampled=bool(np.isin(ties_res, observed).all()),
            )
        return CheckpointStats(
            n=n,
            sigma_hat=sigma_hat,
            mean_set=tuple(self.space.points[i] for i in ties),
            t_hat_max=t_hat_max,
            t_star=t_star,
            t_theta_min=self._normalize(scores[self.theta_idx].min(), n) - sigma,
            included_in_population=included,
            **extra,
        )


def run_consistency_experiment(
    cfg: ExperimentConfig, space: MetricSpace | None = None
) -> ExperimentResult:
    """Run all replications of an experiment; deterministic given (cfg, seed).

    Per replication: one cumulative iid stream, mean sets and variances at
    every checkpoint, sandwich diagnostics, and (when ``limit_params`` is
    set) outer-limit estimates of the checkpoint trajectory with inclusion
    checks against the population (and restricted) mean sets.
    """
    if space is None:
        space = build_space(cfg.space_spec)
    cfg = cfg.validated(space)
    engine = _Engine(space, cfg)
    lp = cfg.limit_params
    burn = None
    if lp is not None:
        burn = default_burn_in(len(cfg.checkpoints)) if lp.burn_in is None else lp.burn_in

    theta = frozenset(engine.population.argmin)
    theta_res = frozenset(engine.population_res.argmin) if cfg.restricted else None

    def outer_limits(mean_sets, target, suffix: str) -> dict:
        traj = SetTrajectory(space, tuple(mean_sets))
        tail = tail_limsup(traj, burn, lp.min_visits)
        kura = kuratowski_limsup(traj, lp.epsilon, burn, lp.min_visits)
        return {
            f"tail_estimate{suffix}": tail,
            f"tail_included{suffix}": tail <= target,
            f"kuratowski{suffix}": kura,
            f"kuratowski_included{suffix}": kura.points <= target,
        }

    records = []
    n_support = len(cfg.mu.support)
    for k in range(cfg.replications):
        rng = replication_rng(cfg.seed, k)
        idx = _draw_indices(cfg.mu, cfg.n_max, rng)
        stats = []
        for n in cfg.checkpoints:
            counts = np.bincount(idx[:n], minlength=n_support).astype(np.int64)
            stats.append(engine.checkpoint(counts, n))
        rec = dict(replication=k, stats=tuple(stats))
        if lp is not None:
            rec.update(outer_limits((s.mean_set for s in stats), theta, ""))
            rec["kuratowski_target_gap"] = max(
                (space.set_distance(p, theta) for p in rec["kuratowski"].points), default=0
            )
            if cfg.restricted:
                rec.update(outer_limits((s.mean_set_res for s in stats), theta_res, "_res"))
        records.append(TrajectoryRecord(**rec))

    return ExperimentResult(
        config=cfg,
        space=space,
        population=engine.population,
        population_restricted=engine.population_res,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# events and oscillation tables
# ---------------------------------------------------------------------------


def event_full_space(space: MetricSpace) -> Callable:
    size = len(space)
    return lambda mean_set: len(mean_set) == size


def event_contains(point) -> Callable:
    return lambda mean_set: point in mean_set


def resolve_event(name: str, space: MetricSpace, spec) -> Callable:
    """Map a config event string to a predicate on the mean set; a bad point label is a ConfigError."""
    if name == "full_space":
        return event_full_space(space)
    if name.startswith("contains:"):
        try:
            point = parse_point_label(spec, name.split(":", 1)[1])
            space.index(point)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"event {name!r}: {exc}") from None
        return event_contains(point)
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


def oscillation_stats(records: Sequence[TrajectoryRecord], event: Callable, name: str = "event") -> OscillationTable:
    """Per-checkpoint frequency of an event across replications, with binomial SE."""
    records = list(records)
    if not records:
        raise ValueError("oscillation_stats needs at least one record")
    n_rep = len(records)
    rows = []
    for pos, stat in enumerate(records[0].stats):
        successes = sum(1 for rec in records if event(rec.stats[pos].mean_set))
        freq = successes / n_rep
        se = float(np.sqrt(freq * (1.0 - freq) / n_rep))
        rows.append((stat.n, successes, n_rep, freq, se))
    return OscillationTable(event=name, rows=tuple(rows))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _exact_str(value) -> str | None:
    return str(value) if isinstance(value, (Fraction, int)) else None


def _sandwich_ok(lower, middle, upper, exact: bool) -> bool:
    """lower <= middle <= upper, up to a rounding tolerance relative to middle off the exact path."""
    tol = 0 if exact else 1e-9 * max(1.0, abs(float(middle)))
    return lower <= middle + tol and middle <= upper + tol


def write_report_csv(result: ExperimentResult, path) -> None:
    """One CSV row per replication x checkpoint (schema ``CSV_SCHEMA``)."""
    label = functools.cache(result.space.label)  # one rendering per point and report

    def labels(points) -> str:
        return ";".join(map(label, points))

    columns = {  # header name -> cell value of (record, checkpoint stats), in column order
        "replication": lambda rec, s: rec.replication,
        "n": lambda rec, s: s.n,
        "sigma_hat": lambda rec, s: s.sigma_hat,
        "abs_error": lambda rec, s: abs(s.t_star),
        "t_hat_max": lambda rec, s: s.t_hat_max,
        "t_star": lambda rec, s: s.t_star,
        "t_theta_min": lambda rec, s: s.t_theta_min,
        "mean_set_size": lambda rec, s: len(s.mean_set),
        "included_in_population": lambda rec, s: s.included_in_population,
        "mean_set": lambda rec, s: labels(s.mean_set),
    }
    if result.config.restricted:
        columns.update({
            "sigma_hat_res": lambda rec, s: s.sigma_hat_res,
            "abs_error_res": lambda rec, s: abs(s.tr_star),
            "t_res_hat_max": lambda rec, s: s.t_res_hat_max,
            "tr_star": lambda rec, s: s.tr_star,
            "t_res_upper": lambda rec, s: s.t_res_upper,
            "mean_set_res_size": lambda rec, s: len(s.mean_set_res),
            "included_in_population_res": lambda rec, s: s.included_in_population_res,
            "subset_of_sampled": lambda rec, s: s.subset_of_sampled,
            "mean_set_res": lambda rec, s: labels(s.mean_set_res),
        })
    cells = list(columns.values())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for rec in result.records:
            for stat in rec.stats:
                w.writerow([_fmt(cell(rec, stat)) for cell in cells])


def _config_dict(result: ExperimentResult) -> dict:
    cfg = result.config
    space = result.space
    spec = cfg.space_spec
    d = {
        "r": cfg.r,
        "n_max": cfg.n_max,
        "checkpoints": list(cfg.checkpoints),
        "replications": cfg.replications,
        "seed": cfg.seed,
        "restricted": cfg.restricted,
        "support": [space.label(p) for p in cfg.mu.support],
        "weights": [str(w) for w in cfg.mu.weights],
        "events": list(cfg.events),
    }
    if isinstance(spec, GraphSpec):
        d.update(space="graph", nv=spec.nv, enumeration_cap=spec.enumeration_cap)
    else:
        d.update(space="grid", grid_start=spec.start, grid_end=spec.end, grid_step=spec.step)
    if cfg.limit_params is None:
        d["limit_params"] = None
    else:
        lp = cfg.limit_params
        d["limit_params"] = {
            "epsilon": str(lp.epsilon),
            "burn_in": lp.burn_in,
            "min_visits": lp.min_visits,
        }
    return d


def _mean_set_block(result: MeanSetResult, space: MetricSpace) -> dict:
    return {
        "optimum": float(result.optimum),
        "optimum_exact": _exact_str(result.optimum),
        "exact": result.exact,
        "size": result.size,
        "mean_set": [space.label(p) for p in result.argmin],
        "candidate_domain": result.candidate_domain,
    }


def _rate(flags: Iterable) -> float:
    flags = list(flags)
    return sum(flags) / len(flags)


def build_summary(result: ExperimentResult) -> dict:
    cfg = result.config
    space = result.space
    exact = result.population.exact
    per_checkpoint = []
    sandwich_viol = 0
    sandwich_viol_res = 0
    for pos, n in enumerate(cfg.checkpoints):
        stats = [rec.stats[pos] for rec in result.records]
        errors = [abs(s.t_star) for s in stats]
        entry = {
            "n": n,
            "median_abs_error": float(statistics.median(errors)),
            "max_abs_error": float(max(errors)),
            "inclusion_rate": _rate(s.included_in_population for s in stats),
            "mean_set_size_mean": float(np.mean([len(s.mean_set) for s in stats])),
        }
        sandwich_viol += sum(not _sandwich_ok(s.t_hat_max, s.t_star, s.t_theta_min, exact) for s in stats)
        if cfg.restricted:
            errors_res = [abs(s.tr_star) for s in stats]
            entry["median_abs_error_res"] = float(statistics.median(errors_res))
            entry["inclusion_rate_res"] = _rate(s.included_in_population_res for s in stats)
            entry["subset_of_sampled_rate"] = _rate(s.subset_of_sampled for s in stats)
            sandwich_viol_res += sum(
                not _sandwich_ok(s.t_res_hat_max, s.tr_star, s.t_res_upper, exact) for s in stats
            )
        per_checkpoint.append(entry)

    summary = {
        "schema_version": SUMMARY_SCHEMA,
        "csv_schema": CSV_SCHEMA,
        "config": _config_dict(result),
        "space": {
            "name": space.name,
            "points": len(space),
            "bound_M": float(space.bound_M),
            "exact": space.exact,
        },
        "population": _mean_set_block(result.population, space),
        "population_restricted": (
            _mean_set_block(result.population_restricted, space) if cfg.restricted else None
        ),
        "checkpoints": per_checkpoint,
        "sandwich": {
            "rows": len(result.records) * len(cfg.checkpoints),
            "violations": sandwich_viol,
            "violations_restricted": sandwich_viol_res if cfg.restricted else None,
        },
    }

    if cfg.limit_params is not None:
        gaps = [float(r.kuratowski_target_gap) for r in result.records]
        eps = float(cfg.limit_params.epsilon)
        block = {
            "tail_inclusion_rate": _rate(r.tail_included for r in result.records),
            "kuratowski_inclusion_rate": _rate(r.kuratowski_included for r in result.records),
            "kuratowski_median_target_gap": float(statistics.median(gaps)),
            "kuratowski_max_target_gap": float(max(gaps)),
            "kuratowski_gap_within_budget_rate": _rate(g <= 2 * eps for g in gaps),
            "mean_tail_size": float(np.mean([len(r.tail_estimate) for r in result.records])),
            "mean_kuratowski_size": float(
                np.mean([len(r.kuratowski.points) for r in result.records])
            ),
        }
        if cfg.restricted:
            block["tail_inclusion_rate_res"] = _rate(r.tail_included_res for r in result.records)
            block["kuratowski_inclusion_rate_res"] = _rate(
                r.kuratowski_included_res for r in result.records
            )
        summary["outer_limit"] = block
    else:
        summary["outer_limit"] = None

    if cfg.events:
        tables = {}
        for name in cfg.events:
            pred = resolve_event(name, space, cfg.space_spec)
            tables[name] = oscillation_stats(result.records, pred, name).as_dicts()
        summary["events"] = tables
    else:
        summary["events"] = {}
    return summary


def write_summary_json(result: ExperimentResult, path, summary: dict | None = None) -> None:
    if summary is None:
        summary = build_summary(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_blocks(result: ExperimentResult, summary: dict | None = None) -> list:
    """Pass/fail assertion blocks printed by the simulate command.

    Returns (name, passed, detail) triples: sandwich identities must hold on
    every row; outer-limit estimates should land inside (or within epsilon
    of) the population target in at least 99% of replications; the variance
    error should not grow from the first to the last checkpoint.
    """
    if summary is None:
        summary = build_summary(result)
    cfg = result.config
    blocks = []

    s = summary["sandwich"]
    blocks.append(
        (
            "sandwich",
            s["violations"] == 0,
            f"{s['violations']} violation(s) in {s['rows']} checkpoint rows",
        )
    )
    if cfg.restricted:
        blocks.append(
            (
                "restricted-sandwich",
                s["violations_restricted"] == 0,
                f"{s['violations_restricted']} violation(s) in {s['rows']} checkpoint rows",
            )
        )

    if len(cfg.checkpoints) >= 2:
        first = summary["checkpoints"][0]["median_abs_error"]
        last = summary["checkpoints"][-1]["median_abs_error"]
        blocks.append(
            (
                "variance-trend",
                last <= first,
                f"median |sigma_hat - sigma|: {first:.6g} (n={cfg.checkpoints[0]}) -> "
                f"{last:.6g} (n={cfg.checkpoints[-1]})",
            )
        )
        if cfg.restricted:
            first = summary["checkpoints"][0]["median_abs_error_res"]
            last = summary["checkpoints"][-1]["median_abs_error_res"]
            blocks.append(
                (
                    "restricted-variance-trend",
                    last <= first,
                    f"median |sigma*_hat - sigma*|: {first:.6g} -> {last:.6g}",
                )
            )

    if summary["outer_limit"] is not None:
        ol = summary["outer_limit"]
        eps = float(cfg.limit_params.epsilon)
        if eps > 0:
            gap = ol["kuratowski_median_target_gap"]
            blocks.append(
                (
                    "outer-limit",
                    gap <= 2 * eps,
                    f"median worst estimate-to-target distance {gap:.6g} "
                    f"(budget 2*epsilon = {2 * eps:.6g})",
                )
            )
        else:
            rate = ol["kuratowski_inclusion_rate"]
            blocks.append(
                (
                    "outer-limit",
                    rate >= 0.99,
                    f"estimate subset of target in {rate:.2%} of replications",
                )
            )
        if cfg.restricted:
            rate = ol["kuratowski_inclusion_rate_res"]
            blocks.append(
                (
                    "restricted-outer-limit",
                    rate >= 0.99,
                    f"restricted estimate subset of restricted target in {rate:.2%} of replications",
                )
            )

    if cfg.restricted:
        rates = [c["subset_of_sampled_rate"] for c in summary["checkpoints"]]
        blocks.append(
            (
                "restricted-support",
                all(r == 1.0 for r in rates),
                "restricted mean sets drawn from sampled points at every checkpoint",
            )
        )
    return blocks
