"""Benchmark of the frechet-means command line on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mean-g7 --seed 0 --seconds 36 --trace 0

One process runs one workload in a closed loop: one client, one command at
a time, each through ``frechet_means.cli.main`` in this process.  After
set-up it repeats the workload's fixed batch of commands until ``--seconds``
have passed, then checks every command's output.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the provenance and per-command details.

``--trace 0`` reports the end-to-end metrics (median batch wall and CPU
time, peak RSS, set-up time).  ``--trace 1`` alternates traced and untraced
batches and reports per-layer self times and counts per traced batch, with
the tracing overhead; its spans are written to ``.perfbench_out/``.

Workloads, metrics and the seed-commit baseline are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
TRACE_OUT = Path(".perfbench_out")
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5

# One set-up in a fresh interpreter: import the package, write the inputs.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import frechet_means.cli
from pathlib import Path
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]](Path(sys.argv[5]), int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    if not (SRC / "frechet_means" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'frechet_means'}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("frechet_means.cli")
    if Path(cli.__file__).resolve().parent != SRC / "frechet_means":
        raise BenchError(f"imported frechet_means from {cli.__file__}, not from {SRC}")
    return cli


def setup_probe(workload: str, seed: int, work: Path) -> float:
    work.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed), str(work)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def git_head() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CommandLog:
    """Every execution of one command: exit codes, assertion blocks, digests, failures."""

    def __init__(self, cmd, checked: Path):
        self.cmd = cmd
        self.checked = checked  # copy of the first complete outputs, checked after the loop
        self.runs = 0
        self.failed = 0
        self.exit_codes: Counter = Counter()
        self.blocks: set = set()
        self.digests: dict | None = None
        self.problems: list = []

    def record(self, rc, stdout: str, stderr: str) -> None:
        self.runs += 1
        self.exit_codes[str(rc)] += 1
        blocks = [line for line in stdout.splitlines() if line.startswith("[")]
        self.blocks.update(blocks)
        outputs = [Path(p) for p in self.cmd.outputs]
        # A simulate run whose assertion blocks print FAIL may exit non-zero
        # once failing checks get their own exit code; that is not judged here.
        judged_rc = rc != 0 and not (self.cmd.kind == "simulate" and any(" FAIL " in b for b in blocks))
        problem = None
        if rc is None or judged_rc:
            problem = f"exit code {rc}: {stderr.strip()}"
        elif not all(p.is_file() for p in outputs):
            problem = "missing output"
        else:
            digests = {p.name: sha256(p) for p in outputs}
            if self.digests is None:
                self.digests = digests
                self.checked.mkdir(parents=True)
                for p in outputs:
                    shutil.copy(p, self.checked / p.name)
            elif digests != self.digests:
                problem = "output differs from the first run of the same command"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def verify(self, expected_digests: dict | None) -> None:
        """Check the first outputs; a wrong output fails every run of the command."""
        if self.digests is None:
            return
        try:
            problems = [self.cmd.check([self.checked / Path(p).name for p in self.cmd.outputs])]
        except Exception:  # malformed output is a failed check, not a crash
            problems = [traceback.format_exc(limit=2)]
        if expected_digests is not None and expected_digests.get(self.cmd.key) != self.digests:
            problems.append("digest differs from the one recorded at the default seed")
        problems = [p for p in problems if p is not None]
        if problems:
            self.failed = self.runs
            self.problems += problems

    def summary(self) -> dict:
        return {
            "command": "frechet-means " + shlex.join(self.cmd.argv),
            "runs": self.runs,
            "failed": self.failed,
            "exit_codes": dict(self.exit_codes),
            "assertion_blocks": sorted(self.blocks),
            "digests": self.digests,
            "problems": self.problems[:3],
        }


def run_command(cli, cmd) -> tuple:
    """Run one command in-process; returns (exit code, wall s, cpu s, stdout, stderr or traceback)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a counted failure; keep going
            rc = None
            err.write(traceback.format_exc(limit=3))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return rc, wall, cpu, out.getvalue(), err.getvalue()


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics per traced batch; times are self times of the named spans."""
    own = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counters
    k = len(traced)

    def seconds(*names):
        return sum(own[n] for n in names) / k

    scanned = counts["set_limits.kuratowski_scanned"]
    values = {
        "graph_space.enumerate_s": (seconds("graph_space.enumerate_space"), "s"),
        "graph_space.enumerate_rss_mb": (tracer.enumerate_rss_kb / 1024, "MB"),
        "metric_core.int_block_s": (seconds("metric_core.MetricSpace.int_block"), "s"),
        "metric_core.int_block_calls": (calls["metric_core.MetricSpace.int_block"] / k, "count"),
        "metric_core.int_block_cells": (counts["metric_core.int_block_cells"] / k, "count"),
        "metric_core.population_values_s": (seconds("metric_core.population_values"), "s"),
        "metric_core.population_values_cells":
            (counts["metric_core.population_values_cells"] / k, "count"),
        "metric_core.label_s": (seconds("metric_core.MetricSpace.label"), "s"),
        "metric_core.label_calls": (calls["metric_core.MetricSpace.label"] / k, "count"),
        "frechet_solver.sample_mean_s": (seconds("frechet_solver.sample_mean_set",
                                                 "frechet_solver.restricted_sample_mean_set"), "s"),
        "frechet_solver.population_mean_s": (
            seconds("frechet_solver.population_mean_set",
                    "frechet_solver.restricted_population_mean_set"), "s"),
        "frechet_solver.argmin_points": (counts["frechet_solver.argmin_points"] / k, "count"),
        "set_limits.kuratowski_s": (seconds("set_limits.kuratowski_limsup"), "s"),
        "set_limits.tail_s": (seconds("set_limits.tail_limsup"), "s"),
        "set_limits.kuratowski_scanned": (scanned / k, "count"),
        "set_limits.kuratowski_hit_ratio":
            (counts["set_limits.kuratowski_hits"] / scanned if scanned else 0.0, "ratio"),
        "consistency_lab.experiment_self_s":
            (seconds("consistency_lab.run_consistency_experiment"), "s"),
        "consistency_lab.checkpoints": (counts["consistency_lab.checkpoints"] / k, "count"),
        "consistency_lab.report_s": (seconds("consistency_lab.build_summary",
                                             "consistency_lab.write_report_csv",
                                             "consistency_lab.write_summary_json"), "s"),
        "consistency_lab.report_bytes": (counts["consistency_lab.report_bytes"] / k, "B"),
        "cli.self_s": (seconds("cli.main"), "s"),
        "cli.commands": (calls["cli.main"] / k, "count"),
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.untraced_wall_s": (statistics.median(untraced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
        "trace.spans": (len(tracer.starts) / k, "count"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    cli = load_package()
    commands = WORKLOADS[workload](work, seed)
    setup_times = [time.perf_counter() - t0]
    setup_times += [setup_probe(workload, seed, work / f"setup-{i}") for i in range(1, SETUP_REPEATS)]

    import numpy  # already loaded by the package

    logs = [CommandLog(cmd, work / "checked" / cmd.key) for cmd in commands]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    walls: dict = {True: [], False: []}  # traced?: batch wall times
    cpus: list = []
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[True]) <= len(walls[False])
        if traced:
            tracer.install()
        wall = cpu = 0.0
        try:
            for cmd, log in zip(commands, logs):
                rc, w, c, stdout, stderr = run_command(cli, cmd)
                wall += w
                cpu += c
                log.record(rc, stdout, stderr)
        finally:
            if traced:
                tracer.remove()
        walls[traced].append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        batch = statistics.median(walls[True] + walls[False])
        enough = not trace or (walls[True] and walls[False])
        if enough and elapsed + batch / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = None
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    for log in logs:
        log.verify(expected)

    if trace:
        TRACE_OUT.mkdir(exist_ok=True)
        spans = TRACE_OUT / f"spans-{workload}-seed{seed}.npz"
        tracer.write(spans)
        metrics = layer_metrics(tracer, walls[True], walls[False])
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    attempted = sum(log.runs for log in logs)
    failed = sum(log.failed for log in logs)
    detail = {
        "provenance": {
            "git_head": git_head(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "commands": [log.summary()["command"] for log in logs],
        },
        "batches": {"traced": walls[True], "untraced": walls[False], "cpu": cpus},
        "setup_s": setup_times,
        "commands": {log.cmd.key: log.summary() for log in logs},
    }
    if trace:
        detail["trace"] = {"spans": str(spans), "unwrapped": tracer.missing}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
