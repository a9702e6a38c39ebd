"""Seeded inputs, command batches and output checks for the three workloads.

Each workload turns a seed into input files under a work directory and
returns the fixed batch of ``frechet-means`` commands that one round of the
benchmark runs.  Every command carries its own output check, written here
without calling the package's solvers, so a wrong answer is caught however
fast it was produced.

Paths in command lines are relative to the repository root, which is the
working directory while the benchmark runs.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# The seed at which the fixture configs run exactly as shipped and at which
# output digests are compared with digests.json.
DEFAULT_SEED = 0

FIXTURES = Path("src/frechet_means/fixtures")

# report.csv header of the experiment-rows-v1 schema.
CSV_COLUMNS = [
    "replication", "n", "sigma_hat", "abs_error", "t_hat_max", "t_star",
    "t_theta_min", "mean_set_size", "included_in_population", "mean_set",
]
CSV_COLUMNS_RESTRICTED = CSV_COLUMNS + [
    "sigma_hat_res", "abs_error_res", "t_res_hat_max", "tr_star", "t_res_upper",
    "mean_set_res_size", "included_in_population_res", "subset_of_sampled",
    "mean_set_res",
]


@dataclass(frozen=True)
class Command:
    """One command of a batch: its argv, the files it writes, how to check them."""

    key: str
    argv: tuple
    outputs: tuple
    # mean: (sample file, r); simulate: (replications, n checkpoints, restricted)
    spec: tuple

    @property
    def kind(self) -> str:
        return self.argv[0]

    def check(self, outputs: list[Path]) -> str | None:
        """None when ``outputs`` (this command's files, possibly copied) are right."""
        if self.kind == "mean":
            return check_mean(outputs[0], *self.spec)
        return check_simulate(outputs[0], outputs[1], *self.spec)


# ---------------------------------------------------------------------------
# graph text format (nv:bitstring, bit k = edge slot k)
# ---------------------------------------------------------------------------


def _slots(nv: int) -> int:
    return nv * (nv - 1) // 2


def _label(nv: int, mask: int) -> str:
    return f"{nv}:" + "".join("1" if mask >> k & 1 else "0" for k in range(_slots(nv)))


def _parse(line: str) -> tuple[int, int]:
    head, _, bits = line.strip().partition(":")
    return int(head), sum(1 << k for k, ch in enumerate(bits) if ch == "1")


def read_sample(path: Path) -> tuple[int, list[int]]:
    graphs = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            graphs.append(_parse(line))
    return graphs[0][0], [m for _, m in graphs]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def exact_mean_set(nv: int, masks: list[int], r: int) -> tuple[Fraction, list[int]]:
    """Optimum and full argmin of (1/n) sum_i d(x, X_i)^r over all graphs on nv vertices.

    Every candidate is scored in int64 with a popcount table built here, so
    the check shares no code with the package.
    """
    import numpy as np  # imported here so that set-up timing sees only the package's imports

    slots = _slots(nv)
    popcount = np.zeros(1 << slots, dtype=np.int64)
    for k in range(slots):
        popcount[1 << k : 2 << k] = popcount[: 1 << k] + 1
    candidates = np.arange(1 << slots, dtype=np.int64)
    scores = np.zeros(1 << slots, dtype=np.int64)
    values, counts = np.unique(np.array(masks, dtype=np.int64), return_counts=True)
    for m, c in zip(values, counts):
        scores += int(c) * popcount[candidates ^ m] ** r
    best = int(scores.min())
    return Fraction(best, len(masks)), [int(i) for i in np.nonzero(scores == best)[0]]


def check_mean(out: Path, sample: Path, r: int) -> str | None:
    nv, masks = read_sample(sample)
    optimum, argmin = exact_mean_set(nv, masks, r)
    lines = out.read_text(encoding="utf-8").splitlines()
    labels = [line for line in lines if line and not line.startswith("#")]
    expected = [_label(nv, m) for m in argmin]
    if f"# optimum: {optimum}" not in lines:
        return f"{out.name}: optimum is not {optimum}"
    if f"# mean set: {len(expected)} graphs" not in lines or labels != expected:
        return f"{out.name}: mean set differs from the {len(expected)}-graph exact argmin"
    return None


def check_simulate(report: Path, summary: Path, replications: int, n_checkpoints: int,
                   restricted: bool) -> str | None:
    data = json.loads(summary.read_text(encoding="utf-8"))
    sandwich = data["sandwich"]
    if sandwich["violations"] != 0:
        return f"{summary.name}: {sandwich['violations']} sandwich violation(s)"
    if restricted and sandwich["violations_restricted"] != 0:
        return f"{summary.name}: {sandwich['violations_restricted']} restricted sandwich violation(s)"
    with open(report, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = CSV_COLUMNS_RESTRICTED if restricted else CSV_COLUMNS
    if rows[0] != header:
        return f"{report.name}: unexpected header {rows[0]}"
    if len(rows) - 1 != replications * n_checkpoints:
        return f"{report.name}: {len(rows) - 1} rows, expected {replications * n_checkpoints}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _simulate(key: str, config: Path, work: Path, extra: tuple = ()) -> Command:
    cfg = json.loads(config.read_text(encoding="utf-8"))
    out = work / key
    return Command(
        key,
        ("simulate", str(config), "--out", str(out), *extra),
        (str(out / "report.csv"), str(out / "summary.json")),
        (cfg["replications"], len(cfg["checkpoints"]), bool(cfg.get("restricted", False))),
    )


def _mean(key: str, sample: Path, r: int, work: Path) -> Command:
    out = work / f"{key}.txt"
    return Command(key, ("mean", str(sample), "--r", str(r), "--out", str(out)), (str(out),),
                   (sample, r))


def mean_g7(work: Path, seed: int) -> list[Command]:
    """Two nv=7 samples of 50 graphs drawn with repeats from a 24-graph pool."""
    rng = random.Random(f"mean-g7/{seed}")
    commands = []
    for key, r in (("mean-a-r1", 1), ("mean-b-r2", 2)):
        pool = [rng.getrandbits(_slots(7)) for _ in range(24)]
        sample = work / f"{key}.graphs"
        sample.write_text("".join(_label(7, rng.choice(pool)) + "\n" for _ in range(50)),
                          encoding="utf-8")
        commands.append(_mean(key, sample, r, work))
    return commands


# Five graphs whose nv=6, r=2 experiment costs about as much as a typical
# random five-graph support.  Random supports differ in how many ties their
# mean sets have, and one draw in six or so doubled the Kuratowski scan work,
# so a seed varies this support only by a Hamming isometry: it keeps the work
# of a run and changes every label and every draw.
G6_SUPPORT = ("6:100000001101000", "6:011011011110010", "6:001100010011010",
              "6:010100101011101", "6:011001110011111")


def simulate_g6(work: Path, seed: int) -> list[Command]:
    """A restricted nv=6, r=2 experiment on a 5-graph uniform support."""
    rng = random.Random(f"simulate-g6/{seed}")
    slots = _slots(6)
    order = rng.sample(range(slots), slots)
    flip = rng.getrandbits(slots)
    support = [sum((m >> k & 1) << order[k] for k in range(slots)) ^ flip
               for m in (_parse(g)[1] for g in G6_SUPPORT)]
    config = work / "g6.json"
    config.write_text(json.dumps({
        "schema": "experiment-config-v1",
        "space": "graph",
        "nv": 6,
        "support": [_label(6, m) for m in sorted(support)],
        "r": 2,
        "n_max": 1000,
        "checkpoints": [10, 100, 1000],
        "replications": 200,
        "seed": rng.randrange(2**32),
        "restricted": True,
        "limits": True,
        "epsilon": "0",
    }, indent=2) + "\n", encoding="utf-8")
    return [_simulate("simulate-g6", config, work)]


def fixtures(work: Path, seed: int) -> list[Command]:
    """The bundled configs as shipped (other seeds via --seed) plus the g4 pair mean."""
    extra = () if seed == DEFAULT_SEED else ("--seed", str(seed))
    commands = [
        _simulate(name, FIXTURES / f"{name}.json", work, extra)
        for name in ("g4_uniform_pair", "grid_r1_oscillation", "grid_r2_convergence")
    ]
    commands.append(_mean("g4_pair-r1", FIXTURES / "g4_pair.graphs", 1, work))
    return commands


WORKLOADS = {"mean-g7": mean_g7, "simulate-g6": simulate_g6, "fixtures": fixtures}
