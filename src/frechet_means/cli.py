"""Command-line front end.

Subcommands:

* ``mean`` / ``restricted-mean`` -- mean set of a graph sample file
* ``variance`` -- just the optimal functional value of a graph sample
* ``enumerate`` -- list a full graph space in canonical order
* ``check-metric`` -- verify the metric axioms of a bundled space
* ``modulus`` -- modulus of continuity s(delta) of a bundled space
* ``simulate`` -- run an experiment config, write CSV + JSON reports

Text output for graph results is itself a valid graph sample file (metadata
rides in ``#`` comments), and every subcommand has a ``--format json`` /
``--format csv`` twin carrying the same numbers.  Output is byte-deterministic
given inputs, flags and seed.

Exit codes: 0 success, 2 parse/input error, 3 enumeration cap exceeded or
a full space too large for memory, 4 invalid experiment config, 5
``simulate`` finished but an assertion block failed (the reports are still
written), 141 (128 + SIGPIPE) the reader closed standard output before the
command finished writing, as ``| head`` does; nothing goes to stderr then.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .consistency_lab import (
    ConfigError,
    DEFAULT_CHECKPOINTS,
    ExperimentConfig,
    GraphSpec,
    GridSpec,
    LimitParams,
    _exact_str,
    _optimum_fields,
    build_space,
    build_summary,
    parse_point_label,
    run_consistency_experiment,
    summary_blocks,
    write_report_csv,
    write_summary_json,
)
from .frechet_solver import (
    restricted_sample_mean_set,
    sample_mean_set,
)
from .graph_space import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    GraphParseError,
    GraphSpaceConfig,
    enumerate_space,
    graph_subspace,
    read_graph_file,
)
from .metric_core import (
    _EXHAUSTIVE_MAX_POINTS,
    DiscreteMeasure,
    Sample,
    _grid_bounds,
    _to_float,
    check_metric_axioms,
    equicontinuity_bound,
    interval_grid,
    modulus_of_continuity,
    power_gamma,
)

__all__ = ["main", "load_config_file"]

CONFIG_SCHEMA = "experiment-config-v1"


class _InputError(Exception):
    """A command-line value the command cannot use (exit 2)."""


class _ScanMemoryError(Exception):
    """A full space too large for the memory at hand (exit 3, as for the enumeration cap)."""


@contextlib.contextmanager
def _scanning(space):
    """Run a scan of ``space``; running out of memory in it is a :class:`_ScanMemoryError`."""
    try:
        yield
    except MemoryError:
        raise _ScanMemoryError(
            f"{space.name} has {len(space)} points, more than fit in the available memory"
        ) from None


def _err(message) -> None:
    print(f"error: {message}", file=sys.stderr)


def _order_arg(text: str):
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"order r must be a number, got {text!r}")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError("order r must be finite")
        if value == int(value):
            value = int(value)
    if value < 1:
        raise argparse.ArgumentTypeError(f"order r must be >= 1, got {text}")
    return value


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}")


@contextlib.contextmanager
def _output(args):
    """The text stream a command writes to: the ``--out`` file, else standard output."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _write(args, payload, header: list, rows, lines) -> None:
    """Write a command's result in its ``--format``.

    ``payload`` is the JSON object, or a function that streams it to the
    output; ``header`` and ``rows`` are the CSV table; ``lines`` the text.
    """
    with _output(args) as fh:
        if args.format == "json":
            if callable(payload):
                payload(fh)
            else:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        else:
            fh.writelines(line + "\n" for line in lines)


def _optimum_lines(fields: dict, comment: bool = False) -> list[str]:
    """The text lines of :func:`_optimum_fields`: the exact optimum, and its
    decimal when the exact value is a fraction."""
    prefix = "# " if comment else ""
    exact = fields["optimum_exact"]
    lines = [f"{prefix}optimum: {exact or repr(fields['optimum'])}"]
    if exact is not None and "/" in exact:
        lines.append(f"# optimum as decimal: {fields['optimum']!r}")
    return lines


# ---------------------------------------------------------------------------
# mean / restricted-mean / variance
# ---------------------------------------------------------------------------


def _solve_sample(args, restricted: bool):
    graphs = read_graph_file(args.graph_file)
    nv = graphs[0].nv
    sample = Sample(tuple(graphs))
    if restricted:
        # candidates are the observed graphs; no need to enumerate the space
        space = graph_subspace(graphs)
        result = restricted_sample_mean_set(space, sample, args.r)
    else:
        space = enumerate_space(GraphSpaceConfig(nv, args.cap_override))
        with _scanning(space):
            result = sample_mean_set(space, sample, args.r)
    return space, sample, result


def cmd_mean(args, restricted: bool) -> int:
    space, sample, result = _solve_sample(args, restricted)
    sample_idx = space.indices(sample.distinct())
    subset = bool(np.isin(sample_idx, result.indices).all())
    proper = subset and result.size > len(sample_idx)
    labels = [space.label(space.points[i]) for i in result.indices]
    optimum = _optimum_fields(result)
    payload = {
        "space": space.name,
        "points": len(space),
        "bound_M": _to_float(space.bound_M),
        "r": result.order_r,
        "domain": result.candidate_domain,
        "sample_size": sample.n,
        "sample_distinct": len(sample.distinct()),
        **optimum,
        "mean_set_size": result.size,
        "mean_set": labels,
        "sample_subset_of_mean": subset,
        "sample_proper_subset": proper,
    }
    cells = [repr(optimum["optimum"]), result.order_r, str(result.exact).lower()]
    note = "true (proper)" if proper else ("true (equal)" if subset else "false")
    lines = [
        f"# space: {space.name}, {len(space)} points, M={space.bound_M}",
        f"# order r: {result.order_r}",
        f"# domain: {result.candidate_domain}",
        f"# sample: {sample.n} graphs, {len(sample.distinct())} distinct",
        f"# exact: {str(result.exact).lower()}",
        *_optimum_lines(optimum, comment=True),
        f"# mean set: {result.size} graphs",
        *labels,
        f"# sample ⊂ mean set: {note}",
    ]
    _write(args, payload, ["graph", "optimum", "r", "exact"], ([g, *cells] for g in labels), lines)
    return 0


def cmd_variance(args) -> int:
    space, sample, result = _solve_sample(args, args.restricted)
    optimum = _optimum_fields(result)
    payload = {"space": space.name, "r": result.order_r, "domain": result.candidate_domain, **optimum}
    row = [repr(optimum["optimum"]), result.order_r, result.candidate_domain, str(result.exact).lower()]
    lines = [
        f"# space: {space.name}, {len(space)} points, M={space.bound_M}",
        f"# order r: {result.order_r}",
        f"# domain: {result.candidate_domain}",
        f"# exact: {str(result.exact).lower()}",
        *_optimum_lines(optimum),
    ]
    _write(args, payload, ["optimum", "r", "domain", "exact"], [row], lines)
    return 0


# ---------------------------------------------------------------------------
# enumerate / check-metric / modulus
# ---------------------------------------------------------------------------


def _graph_space(args):
    """The full graph space of ``--nv`` and ``--cap-override``."""
    if args.nv < 1:
        raise _InputError(f"--nv must be >= 1, got {args.nv}")
    return enumerate_space(GraphSpaceConfig(args.nv, args.cap_override))


def cmd_enumerate(args) -> int:
    """Every graph of the space, written label by label as it is rendered."""
    space = _graph_space(args)
    labels = map(space.label, space.points)

    def payload(fh):
        # the bytes of json.dump({"nv", "count", "bound_M", "graphs"}, indent=2, sort_keys=True)
        fh.write(f'{{\n  "bound_M": {json.dumps(_to_float(space.bound_M))},\n  "count": {len(space)},\n  "graphs": [')
        for k, text in enumerate(labels):
            fh.write((",\n    " if k else "\n    ") + json.dumps(text))
        fh.write(f'\n  ],\n  "nv": {json.dumps(args.nv)}\n}}\n')

    header = f"# space: {space.name}, {len(space)} points, M={space.bound_M}"
    _write(args, payload, ["graph"], ([text] for text in labels), itertools.chain([header], labels))
    return 0


def _resolve_space(args):
    """The space of an exhaustive scan (``check-metric``, ``modulus``), within its point guard."""
    if args.grid is not None:
        try:
            space = interval_grid(*args.grid)
        except (ValueError, ZeroDivisionError) as exc:
            raise _InputError(f"--grid {' '.join(args.grid)}: {exc}") from None
    elif args.nv is None:
        raise _InputError("pass --nv NV for a graph space or --grid START END STEP")
    else:
        space = _graph_space(args)
    if len(space) > _EXHAUSTIVE_MAX_POINTS:
        raise _InputError(
            f"{len(space)} points in {space.name}, above the {_EXHAUSTIVE_MAX_POINTS}-point guard"
        )
    return space


def cmd_check_metric(args) -> int:
    space = _resolve_space(args)
    report = check_metric_axioms(space)
    witnesses = [[space.label(p) for p in v.witness] for v in report.violations]
    payload = {
        "space": report.space_name,
        "points": report.n_points,
        "ok": report.ok,
        "violations": [
            {"axiom": v.axiom, "witness": w, "detail": v.detail, "count": v.count}
            for v, w in zip(report.violations, witnesses)
        ],
    }
    rows = [[v.axiom, " ".join(w), v.detail, v.count] for v, w in zip(report.violations, witnesses)]
    _write(args, payload, ["axiom", "witness", "detail", "count"], rows, [report.summary()])
    return 0


def cmd_modulus(args) -> int:
    if args.delta <= 0:
        raise _InputError(f"--delta must be positive, got {args.delta}")
    space = _resolve_space(args)
    value = modulus_of_continuity(space, space.points, args.delta, args.r)
    payload = {
        "space": space.name,
        "delta": _to_float(args.delta),
        "r": args.r,
        "s_delta": _to_float(value),
        "s_delta_exact": _exact_str(value),
    }
    lines = [f"# space: {space.name}, {len(space)} points, M={space.bound_M}",
             f"# delta: {payload['delta']!r}",
             f"# order r: {args.r}"]
    if isinstance(args.r, int):
        payload["lipschitz_bound"] = _to_float(equicontinuity_bound(Fraction(space.bound_M), args.r, args.delta))
        payload["gamma"] = power_gamma(args.r)
        lines.append(f"# bound (2^r-1) M^(r-1) delta: {payload['lipschitz_bound']!r} (gamma={payload['gamma']})")
    lines.append(f"s_delta: {_exact_str(value) or repr(value)}")
    header = sorted(payload)
    _write(args, payload, header, [[payload[k] for k in header]], lines)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "schema",
    "space",
    "nv",
    "enumeration_cap",
    "grid_start",
    "grid_end",
    "grid_step",
    "support",
    "weights",
    "r",
    "n_max",
    "checkpoints",
    "replications",
    "seed",
    "restricted",
    "limits",
    "epsilon",
    "burn_in",
    "min_visits",
    "events",
}


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


def load_config_file(path) -> ExperimentConfig:
    """Parse a flat JSON experiment config (schema ``experiment-config-v1``)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    if raw.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA!r}, got {raw.get('schema')!r}")

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
        if kind == "graph":
            cap = _config_int(get("enumeration_cap", DEFAULT_ENUMERATION_CAP))
            spec = GraphSpec(_config_int(need("nv")), cap)  # a bad nv is named by its own key
        elif kind == "grid":
            bounds = []
            for k, default in (("grid_start", "-1"), ("grid_end", "1"), ("grid_step", "0.01")):
                bounds.append(str(get(k, default)))
                Fraction(bounds[-1])  # a bad literal is named by its own key
            spec = GridSpec(*bounds)
            key = "grid_end" if Fraction(spec.end) <= Fraction(spec.start) else "grid_step"
            _grid_bounds(*bounds)  # the grid's checks: end above start, a positive step dividing the length
        else:
            raise ConfigError(f"space must be 'graph' or 'grid', got {kind!r}")

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

        if _config_bool(get("limits", True)):
            limit_params = LimitParams(
                epsilon=Fraction(str(get("epsilon", "0"))),
                burn_in=None if get("burn_in") is None else _config_int(raw["burn_in"]),
                min_visits=_config_int(get("min_visits", 2)),
            )
        else:
            limit_params = None

        events = get("events", [])
        if not isinstance(events, list):
            raise ConfigError("events must be a list of event names")

        return ExperimentConfig(
            space_spec=spec,
            mu=mu,
            r=r,
            n_max=n_max,
            checkpoints=checkpoints,
            replications=_config_int(get("replications", 200)),
            seed=_config_int(get("seed", 0)),
            restricted=_config_bool(get("restricted", False)),
            limit_params=limit_params,
            events=tuple(str(e) for e in events),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"bad value for config key {key!r}: {exc}") from None


def cmd_simulate(args) -> int:
    import dataclasses

    cfg = load_config_file(args.config_file)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    overrides = {}
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.burn_in is not None:
        overrides["burn_in"] = args.burn_in
    if args.min_visits is not None:
        overrides["min_visits"] = args.min_visits
    if overrides:
        base = cfg.limit_params or LimitParams()
        cfg = dataclasses.replace(cfg, limit_params=dataclasses.replace(base, **overrides))

    space = build_space(cfg.space_spec)
    with _scanning(space):
        result = run_consistency_experiment(cfg, space)
    summary = build_summary(result)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "summary.json"
    try:
        write_report_csv(result, csv_path)
        write_summary_json(result, json_path, summary)
    except BaseException:
        for p in (csv_path, json_path):
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        raise

    rows = cfg.replications * len(cfg.checkpoints)
    print(f"wrote {csv_path} ({rows} rows)")
    print(f"wrote {json_path}")
    failures = 0
    for name, passed, detail in summary_blocks(result, summary):
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        print(f"[{name}] {status} - {detail}")
    print(f"{failures} failing assertion block(s)" if failures else "all assertion blocks passed")
    return 5 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="write the report to a file instead of stdout")


def _add_space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nv", type=int, help="graph space on NV vertices")
    p.add_argument("--grid", nargs=3, metavar=("START", "END", "STEP"),
                   help="interval grid instead of a graph space")
    p.add_argument("--cap-override", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="raise the graph enumeration cap (edge slots)")


@functools.cache  # built once per process: parsing leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frechet-means",
        description="Exact Frechet mean sets over graph spaces and interval grids",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="mean set of a graph sample file")
    p_mean.add_argument("graph_file")
    p_mean.add_argument("--r", type=_order_arg, default=1)
    p_mean.add_argument("--restricted", action="store_true",
                        help="restrict candidates to the observed graphs")
    p_mean.add_argument("--cap-override", type=int, default=DEFAULT_ENUMERATION_CAP)
    _add_format(p_mean)
    p_mean.set_defaults(func=lambda a: cmd_mean(a, a.restricted))

    p_rmean = sub.add_parser("restricted-mean", help="mean set restricted to the sample")
    p_rmean.add_argument("graph_file")
    p_rmean.add_argument("--r", type=_order_arg, default=1)
    p_rmean.add_argument("--cap-override", type=int, default=DEFAULT_ENUMERATION_CAP)
    _add_format(p_rmean)
    p_rmean.set_defaults(func=lambda a: cmd_mean(a, True))

    p_var = sub.add_parser("variance", help="optimal functional value of a graph sample")
    p_var.add_argument("graph_file")
    p_var.add_argument("--r", type=_order_arg, default=1)
    p_var.add_argument("--restricted", action="store_true")
    p_var.add_argument("--cap-override", type=int, default=DEFAULT_ENUMERATION_CAP)
    _add_format(p_var)
    p_var.set_defaults(func=cmd_variance)

    p_enum = sub.add_parser("enumerate", help="list a graph space in canonical order")
    p_enum.add_argument("--nv", type=int, required=True)
    p_enum.add_argument("--cap-override", type=int, default=DEFAULT_ENUMERATION_CAP)
    _add_format(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser("check-metric", help="verify the metric axioms of a space")
    _add_space_args(p_check)
    _add_format(p_check)
    p_check.set_defaults(func=cmd_check_metric)

    p_mod = sub.add_parser("modulus", help="modulus of continuity s(delta)")
    _add_space_args(p_mod)
    p_mod.add_argument("--delta", type=_fraction_arg, required=True)
    p_mod.add_argument("--r", type=_order_arg, default=1)
    _add_format(p_mod)
    p_mod.set_defaults(func=cmd_modulus)

    p_sim = sub.add_parser("simulate", help="run an experiment config file")
    p_sim.add_argument("config_file")
    p_sim.add_argument("--out", required=True, help="output directory for report.csv/summary.json")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--epsilon", type=_fraction_arg, default=None)
    p_sim.add_argument("--burn-in", type=int, dest="burn_in", default=None)
    p_sim.add_argument("--min-visits", type=int, dest="min_visits", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


# The exit code of each error that a command reports on an ``error:`` line,
# the first kind that matches; 0 is success, 5 a failed assertion block of
# ``simulate`` and 141 a closed standard output.
_EXIT_CODES = {
    EnumerationCapError: 3,
    _ScanMemoryError: 3,
    GraphParseError: 2,
    OSError: 2,
    ConfigError: 4,
    _InputError: 2,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped reading (`| head`): stop quietly, with the status
        # a shell gives a process that SIGPIPE ends.  Output still buffered
        # for standard output goes to the null device, so the interpreter's
        # exit flush fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(_EXIT_CODES) as exc:
        overridable = isinstance(exc, EnumerationCapError) and exc.overridable
        _err(f"{exc} (use --cap-override {exc.required_cap})" if overridable else exc)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
