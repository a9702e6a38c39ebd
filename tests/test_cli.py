import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, MEAN_SET_R1_TEXTS
from frechet_means import cli
from frechet_means.cli import load_config_file, main
from frechet_means.consistency_lab import ConfigError, ExperimentConfig, GridSpec
from frechet_means.graph_space import Graph, format_graph, n_edge_slots, read_graph_file
from frechet_means.metric_core import DiscreteMeasure
from oracles import mean_set_by_enumeration


@pytest.fixture()
def pair_file():
    return str(FIXTURE_DIR / "g4_pair.graphs")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# mean / restricted-mean / variance
# ---------------------------------------------------------------------------


def test_mean_text_output(capsys, pair_file):
    code, out, err = run_cli(capsys, "mean", pair_file, "--r", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    graphs = [t for t in lines if not t.startswith("#")]
    assert graphs == list(MEAN_SET_R1_TEXTS)
    assert "# optimum: 1" in lines
    assert "# sample ⊂ mean set: true (proper)" in lines


def test_mean_output_is_itself_a_graph_file(capsys, pair_file, tmp_path):
    from frechet_means import read_graph_file, format_graph

    out_path = tmp_path / "mean.graphs"
    code, _, _ = run_cli(capsys, "mean", pair_file, "--out", str(out_path))
    assert code == 0
    graphs = read_graph_file(out_path)
    assert tuple(format_graph(g) for g in graphs) == MEAN_SET_R1_TEXTS


def test_mean_json_twin_has_identical_numbers(capsys, pair_file):
    code, out, _ = run_cli(capsys, "mean", pair_file, "--r", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 1.0
    assert payload["optimum_exact"] == "1"
    assert payload["mean_set"] == list(MEAN_SET_R1_TEXTS)
    assert payload["sample_proper_subset"] is True
    assert payload["exact"] is True


def test_mean_csv_twin(capsys, pair_file):
    code, out, _ = run_cli(capsys, "mean", pair_file, "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["graph", "optimum", "r", "exact"]
    assert [r[0] for r in rows[1:]] == list(MEAN_SET_R1_TEXTS)
    assert {r[1] for r in rows[1:]} == {"1.0"}


def test_mean_r2_midpoints(capsys, pair_file):
    code, out, _ = run_cli(capsys, "mean", pair_file, "--r", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["mean_set"] == ["4:100001", "4:101101"]
    assert payload["optimum"] == 1.0


def test_restricted_mean_returns_the_sample(capsys, pair_file):
    code, out, _ = run_cli(capsys, "restricted-mean", pair_file, "--format", "json")
    payload = json.loads(out)
    assert payload["mean_set"] == ["4:101001", "4:100101"]
    assert payload["optimum"] == 1.0
    assert payload["domain"] == "sample_support"
    code2, out2, _ = run_cli(capsys, "mean", pair_file, "--restricted", "--format", "json")
    assert json.loads(out2) == payload


def test_single_graph_file(capsys, tmp_path):
    path = tmp_path / "one.graphs"
    path.write_text("4:110100\n")
    code, out, _ = run_cli(capsys, "mean", str(path), "--format", "json")
    payload = json.loads(out)
    assert payload["mean_set"] == ["4:110100"]
    assert payload["optimum"] == 0.0
    assert payload["sample_subset_of_mean"] is True
    assert payload["sample_proper_subset"] is False


def test_variance_command(capsys, pair_file):
    code, out, _ = run_cli(capsys, "variance", pair_file, "--r", "2")
    assert code == 0
    assert "optimum: 1" in out
    code, out, _ = run_cli(capsys, "variance", pair_file, "--r", "2", "--restricted", "--format", "json")
    assert json.loads(out)["optimum"] == 2.0


def test_mean_byte_determinism(capsys, pair_file):
    _, out1, _ = run_cli(capsys, "mean", pair_file, "--r", "2")
    _, out2, _ = run_cli(capsys, "mean", pair_file, "--r", "2")
    assert out1 == out2


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.graphs"
    bad.write_text("4:100101\n4:10x101\n")
    code, out, err = run_cli(capsys, "mean", str(bad))
    assert code == 2
    assert "line 2" in err and "column" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "mean", "/no/such/file.graphs")
    assert code == 2


def test_cap_exceeded_exit_3(capsys, tmp_path):
    path = tmp_path / "big.graphs"
    path.write_text("8:" + "0" * 28 + "\n")
    code, _, err = run_cli(capsys, "mean", str(path))
    assert code == 3
    assert "28" in err and "--cap-override" in err


def test_order1_mean_past_the_default_cap(capsys, tmp_path):
    # nv = 8 has 2^28 graphs; at r = 1 the mean set of two graphs at distance
    # d is the 2^d graphs between them, found per edge slot without a scan
    a, b = 0b1011 << 20 | 0b11, 0b1011 << 20 | 0b11111 << 5 | 0b11
    path = tmp_path / "pair8.graphs"
    path.write_text(f"{format_graph(Graph(8, a))}\n{format_graph(Graph(8, b))}\n")
    code, out, _ = run_cli(capsys, "mean", str(path), "--r", "1", "--cap-override", "28")
    assert code == 0
    diff = [k for k in range(28) if (a ^ b) >> k & 1]
    between = sorted(a & b | sum(1 << k for j, k in enumerate(diff) if s >> j & 1) for s in range(2**len(diff)))
    lines = out.splitlines()
    assert f"# optimum: {Fraction(len(diff), 2)}" in lines
    assert [t for t in lines if not t.startswith("#")] == [format_graph(Graph(8, m)) for m in between]


def test_restricted_mean_works_beyond_cap(capsys, tmp_path):
    path = tmp_path / "big.graphs"
    path.write_text("8:" + "1" + "0" * 27 + "\n" + "8:" + "0" * 27 + "1" + "\n")
    code, out, _ = run_cli(capsys, "restricted-mean", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 1.0 and payload["mean_set_size"] == 2


@pytest.mark.parametrize("nv", [12, 13])
def test_restricted_mean_works_past_64_edge_slots(capsys, tmp_path, nv):
    # 66 and 78 slots: edge bitsets take two 64-bit words
    slots = n_edge_slots(nv)
    low = "1" * 10 + "0" * (slots - 10)
    lines = [low, low[:64] + "1" + low[65:], low[:-1] + "1", "1" * slots, "0" * slots]
    path = tmp_path / "big.graphs"
    path.write_text("".join(f"{nv}:{bits}\n" for bits in lines))
    code, out, _ = run_cli(capsys, "restricted-mean", str(path), "--r", "2", "--format", "json")
    assert code == 0
    graphs = read_graph_file(path)
    optimum, argmin = mean_set_by_enumeration(None, graphs, 2, sorted(set(graphs)))
    payload = json.loads(out)
    assert payload["optimum_exact"] == str(optimum)
    assert payload["mean_set"] == [format_graph(g) for g in argmin]


# nv = 12 has 66 edge slots: past the 62-slot limit of full spaces, so no
# cap override can enumerate it and the error line suggests none.
NV12_GRAPH = "12:" + "0" * 66
NV12_CONFIG = {
    "schema": "experiment-config-v1", "space": "graph", "nv": 12, "enumeration_cap": 66,
    "support": [NV12_GRAPH], "r": 1, "n_max": 10, "checkpoints": [10], "replications": 2,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--nv", "12", "--cap-override", "66"],
        ["check-metric", "--nv", "12", "--cap-override", "66"],
        ["mean", "{graphs}", "--cap-override", "70"],
        ["variance", "{graphs}", "--cap-override", "70"],
        ["simulate", "{config}", "--out", "{out}"],
    ],
)
def test_full_spaces_past_62_slots_exit_3(capsys, tmp_path, argv):
    graphs, config, out_dir = tmp_path / "g12.graphs", tmp_path / "g12.json", tmp_path / "out"
    graphs.write_text(NV12_GRAPH + "\n")
    config.write_text(json.dumps(NV12_CONFIG))
    argv = [a.format(graphs=graphs, config=config, out=out_dir) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "66 edge slots" in err and "--cap-override" not in err
    assert not out_dir.exists()


# A full space past the memory at hand: --cap-override admits it, and the
# command exits 3 with one error line instead of numpy's allocation traceback.
ADDRESS_SPACE_LIMIT = 3 << 30


def _limit_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("command", ["mean", "simulate"])
@pytest.mark.parametrize("r", [1, 2])
def test_full_space_past_memory_exit_3(tmp_path, command, r):
    # a graph and its complement on 11 vertices (2^55 graphs): at r = 1 every
    # slot is free, so the mean set is the whole space; at r = 2 it is the
    # 2 C(55, 27) graphs halfway between them.  Neither fits in a 3 GB
    # address space.
    graphs = [format_graph(Graph(11, m)) for m in (0b1011, (1 << 55) - 1 ^ 0b1011)]
    path, out_dir = tmp_path / "g11.graphs", tmp_path / "out"
    if command == "mean":
        path.write_text("".join(g + "\n" for g in graphs))
        argv = ["mean", str(path), "--r", str(r), "--cap-override", "55"]
    else:
        path.write_text(json.dumps({
            "schema": "experiment-config-v1", "space": "graph", "nv": 11, "enumeration_cap": 55,
            "support": graphs, "r": r, "n_max": 10, "checkpoints": [10], "replications": 2,
        }))
        argv = ["simulate", str(path), "--out", str(out_dir)]
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "frechet_means.cli", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert f"graphs(nv=11) has {2**55} points" in proc.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", ["enumerate", "mean"])
def test_closed_pipe_exits_141_quietly(tmp_path, command, fmt):
    # The reader takes one line and closes the pipe (`| head -1`) while the
    # command still has most of 2^15 graphs to write: a whole nv = 6 space, or
    # the order-1 mean set of a graph and its complement.  This needs a real
    # file descriptor 1, so it runs in a subprocess.
    if command == "mean":
        path = tmp_path / "g6.graphs"
        path.write_text("6:000000000000000\n6:111111111111111\n")
        argv = ["mean", str(path), "--r", "1"]
    else:
        argv = ["enumerate", "--nv", "6"]
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "frechet_means.cli", *argv, "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_invalid_order_rejected_by_argparse(capsys, pair_file):
    with pytest.raises(SystemExit):
        main(["mean", pair_file, "--r", "0.5"])


def test_main_runs_again_after_a_bad_flag(capsys, pair_file):
    # one process builds the parser once: a good command, a bad flag and the
    # good command again give what each gives in a process of its own
    good, bad = ["mean", pair_file, "--r", "2", "--format", "json"], ["mean", pair_file, "--no-such-flag"]
    src = Path(cli.__file__).resolve().parent.parent
    alone = [
        subprocess.run(
            [sys.executable, "-m", "frechet_means.cli", *argv], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        for argv in (good, bad)
    ]
    assert [p.returncode for p in alone] == [0, 2]

    assert run_cli(capsys, *good) == (0, alone[0].stdout, "")
    with pytest.raises(SystemExit) as exc:
        main(bad)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (2, "", alone[1].stderr)
    assert run_cli(capsys, *good) == (0, alone[0].stdout, "")


# ---------------------------------------------------------------------------
# enumerate / check-metric / modulus
# ---------------------------------------------------------------------------


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--nv", "2")
    graphs = [t for t in out.splitlines() if not t.startswith("#")]
    assert graphs == ["2:0", "2:1"]
    code, out, _ = run_cli(capsys, "enumerate", "--nv", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 64
    assert payload["graphs"][0] == "4:000000"


# SHA-256 of `enumerate --nv NV --format FORMAT` as it was when the whole
# output was rendered before any of it was written; streaming keeps the bytes.
ENUMERATE_DIGESTS = {
    (1, "text"): "9a409a50f07f7ae74e793afec9f313a926febcfe3783ce95ddf04e7aaa4d3df3",
    (1, "csv"): "2fd17352786636b76118b5965a9e8dcdc45c25de7550febe370e43c885070ab5",
    (1, "json"): "c5a637f1008f66a8383c001446d6df3b821f0e060f6872f3159f7d34b28f8a8c",
    (2, "text"): "4c8823fa99ad7fd6da76d6557e49d682de8887d272584e087afb08baf32d60e4",
    (2, "csv"): "b03d250f47b0ba980960818cd7006adffed36ff5739fb28d3a2a999d53acd34b",
    (2, "json"): "2efa68dd50a491de4770b9567e6d5d33b52c432394e4c2bbaba4d09e28d1e579",
    (3, "text"): "fb17375c39d3cee37a33b96f75e9569fecb64ef22175cecfeeac80f54258b4fa",
    (3, "csv"): "d25270000927d3c109c5ee812de68f9da291faf55cfb2e32e77df8cdd8f7cee3",
    (3, "json"): "c738717d1cfa21dba292e484f2a783ebca35035028a413e5da3ebe430b6c0af2",
    (4, "text"): "712d199260e00453e54c380c550b3e6d5e573cdc81f4a71e9cbda27984d69071",
    (4, "csv"): "3a02b9e45287b7287cae34b1d745a3b3ffb0245964453c8dc7e2860ec0814857",
    (4, "json"): "2380fa051ed10235a058c805b46d415f2c41894f45392609e729309f8d715a82",
    (5, "text"): "07905a43d81cb13b631c7b58be4affd03c73a62c2f869860d633d14f0b3f7b51",
    (5, "csv"): "a0c9b72f5ac0e69e325e2a4ee00f0651e80fdaf14f0662874d1b72cf97917aee",
    (5, "json"): "02f5f0d48c86d2914e55e076e4ee34836b92d7e49093b01831f4fdbbfe731400",
}


@pytest.mark.parametrize("nv, fmt", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_is_byte_identical(capsys, tmp_path, nv, fmt):
    code, out, _ = run_cli(capsys, "enumerate", "--nv", str(nv), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ENUMERATE_DIGESTS[nv, fmt]
    path = tmp_path / "graphs"
    assert run_cli(capsys, "enumerate", "--nv", str(nv), "--format", fmt, "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ENUMERATE_DIGESTS[nv, fmt]


def test_enumerate_cap_exit_3(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--nv", "8")
    assert code == 3
    # an override of 0 is a cap of 0, not "no override"
    code, out, err = run_cli(capsys, "enumerate", "--nv", "3", "--cap-override", "0")
    assert code == 3 and out == ""


def test_check_metric_graph_space(capsys):
    code, out, _ = run_cli(capsys, "check-metric", "--nv", "4")
    assert code == 0
    assert "all metric axioms hold" in out
    code, out, _ = run_cli(capsys, "check-metric", "--nv", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["ok"] is True and payload["violations"] == []


def test_check_metric_grid(capsys):
    code, out, _ = run_cli(capsys, "check-metric", "--grid", "-1", "1", "0.1")
    assert code == 0 and "all metric axioms hold" in out


def test_check_metric_requires_a_space(capsys):
    # a missing space is a command-line input error (2), as a bad --grid is;
    # 4 is kept for invalid experiment configs
    for argv in (["check-metric"], ["modulus", "--delta", "1"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "pass --nv NV" in err


def test_modulus_values(capsys):
    code, out, _ = run_cli(capsys, "modulus", "--nv", "4", "--delta", "1.5", "--r", "2")
    assert code == 0
    assert "s_delta: 11" in out
    code, out, _ = run_cli(
        capsys, "modulus", "--nv", "4", "--delta", "1.5", "--r", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["s_delta"] == 11.0
    assert payload["lipschitz_bound"] == 27.0
    assert payload["gamma"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["check-metric", "--nv", "6"],  # 32768 points, past the exhaustive-scan guard
        ["check-metric", "--grid", "0", "1", "0.3"],
        ["check-metric", "--grid", "a", "1", "0.1"],
        ["modulus", "--grid", "1", "0", "0.1", "--delta", "1"],
        ["modulus", "--grid", "0", "1", "0.5", "--delta", "0"],
        ["enumerate", "--nv", "0"],
        ["enumerate", "--nv", "-1"],
        ["check-metric", "--nv", "0"],
        ["check-metric", "--nv", "-2"],
        ["modulus", "--nv", "0", "--delta", "1"],
    ],
)
def test_exhaustive_scan_input_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [("check-metric",), ("modulus", "--delta", "1e399")], ids=["check-metric", "modulus"])
def test_grid_past_the_float_range_exits_0(capsys, argv):
    # every point but 0 is past the float range: labels are rendered from the Fractions
    code, out, err = run_cli(capsys, *argv, "--grid", "0", "1e400", "1e399")
    assert (code, err) == (0, "")
    assert f"grid[0.0,{10**400}]/{10**399}" in out


def test_modulus_on_grid(capsys):
    code, out, _ = run_cli(
        capsys, "modulus", "--grid", "0", "1", "0.25", "--delta", "0.6", "--r", "1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["s_delta"] == 0.5


# ---------------------------------------------------------------------------
# exact values past the float range: float fields read inf, exact fields keep the value
# ---------------------------------------------------------------------------

# The two graphs of g4_pair.graphs are 2 apart, so at r = 1025 the restricted
# optimum is 2^1025 / 2 = 2^1024, the first power of two past the float range.
RESTRICTED_PAIR_R1025 = str(2**1024)


@pytest.mark.parametrize("argv", [["restricted-mean"], ["mean", "--restricted"], ["variance", "--restricted"]])
def test_exact_optimum_past_the_float_range_exits_0(capsys, pair_file, argv):
    command = [*argv, pair_file, "--r", "1025"]
    code, out, err = run_cli(capsys, *command)
    assert code == 0 and err == ""
    assert any(line.endswith(f"optimum: {RESTRICTED_PAIR_R1025}") for line in out.splitlines())

    code, out, err = run_cli(capsys, *command, "--format", "json")
    assert code == 0 and err == ""
    assert '"optimum": Infinity' in out
    payload = json.loads(out)
    assert payload["optimum"] == float("inf") and payload["optimum_exact"] == RESTRICTED_PAIR_R1025

    code, out, err = run_cli(capsys, *command, "--format", "csv")
    assert code == 0 and err == ""
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert rows and {row[header.index("optimum")] for row in rows} == {"inf"}


def test_fractional_optimum_past_the_float_range_has_an_inf_decimal_line(capsys, tmp_path):
    path = tmp_path / "three.graphs"
    path.write_text("4:000000\n4:110000\n4:101000\n")  # pairwise 2 apart
    code, out, err = run_cli(capsys, "restricted-mean", str(path), "--r", "1025")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert f"# optimum: {Fraction(2 * 2**1025, 3)}" in lines
    assert "# optimum as decimal: inf" in lines


def test_modulus_past_the_float_range_exits_0(capsys):
    code, out, err = run_cli(capsys, "modulus", "--nv", "4", "--delta", "2", "--r", "1100", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["s_delta"] == payload["lipschitz_bound"] == float("inf")
    assert payload["s_delta_exact"] == str(6**1100 - 5**1100)  # pairs at distance 1, z at 6 and 5 from them

    code, out, err = run_cli(capsys, "modulus", "--nv", "4", "--delta", "1e400")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert f"# delta: {10**400}" in lines and "s_delta: 6" in lines  # exact past the float range
    assert f"# bound (2^r-1) M^(r-1) delta: {10**400} (gamma=1)" in lines

    grid = ["modulus", "--grid", "0", "1e400", "1e399", "--delta", "1e399"]
    code, out, err = run_cli(capsys, *grid, "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["delta"] == payload["lipschitz_bound"] == float("inf")
    assert payload["delta_exact"] == payload["lipschitz_bound_exact"] == str(10**399)  # r = 1: the bound is delta
    code, out, err = run_cli(capsys, *grid, "--format", "csv")
    header, row = csv.reader(out.splitlines())
    assert row[header.index("delta_exact")] == row[header.index("lipschitz_bound_exact")] == str(10**399)


def test_high_orders_on_one_edge_slot_exit_0(capsys, tmp_path):
    # every score of nv = 2 is at most the total weight, but C(70, 35) passes 2^63
    path = tmp_path / "nv2.graphs"
    path.write_text("2:1\n2:0\n2:0\n")
    code, out, err = run_cli(capsys, "mean", str(path), "--r", "70")
    assert (code, err) == (0, "")
    assert {"# optimum: 1/3", "# mean set: 1 graphs", "2:0"} <= set(out.splitlines())
    config = {"schema": "experiment-config-v1", "space": "graph", "nv": 2, "support": ["2:0", "2:1"], "r": 70,
              "n_max": 100, "checkpoints": [10, 100], "replications": 5, "restricted": True}
    (tmp_path / "nv2.json").write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", str(tmp_path / "nv2.json"), "--out", str(tmp_path / "sim"))
    assert (code, err) == (0, ""), err


def test_simulate_past_the_float_range_writes_both_reports(capsys, tmp_path):
    config = json.loads((FIXTURE_DIR / "g4_uniform_pair.json").read_text())
    config.update(r=1100, restricted=True, replications=3)
    path = tmp_path / "r1100.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "sim"
    code, out, err = run_cli(capsys, "simulate", str(path), "--out", str(out_dir))
    assert code == 0 and err == "", err
    assert "all assertion blocks passed" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    restricted = summary["population_restricted"]
    assert restricted["optimum"] == float("inf") and restricted["optimum_exact"] == str(2**1099)
    assert {c["median_abs_error_res"] for c in summary["checkpoints"]} == {float("inf")}
    header, *rows = (out_dir / "report.csv").read_text().splitlines()
    assert len(rows) == 9 and all(row.split(",")[header.split(",").index("sigma_hat_res")] == "inf" for row in rows)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_g4_fixture(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out, err = run_cli(
        capsys, "simulate", str(FIXTURE_DIR / "g4_uniform_pair.json"), "--out", str(out_dir)
    )
    assert code == 0, err
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert "[sandwich] PASS" in out
    assert "[outer-limit] PASS" in out
    assert "[variance-trend] PASS" in out
    assert "all assertion blocks passed" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["events"]["contains:4:100101"][0]["replications"] == 100


def test_simulate_byte_determinism(capsys, tmp_path):
    cfg = FIXTURE_DIR / "g4_uniform_pair.json"
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "simulate", str(cfg), "--out", str(a))
    run_cli(capsys, "simulate", str(cfg), "--out", str(b))
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_simulate_seed_override_changes_report(capsys, tmp_path):
    cfg = FIXTURE_DIR / "g4_uniform_pair.json"
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "simulate", str(cfg), "--out", str(a))
    run_cli(capsys, "simulate", str(cfg), "--out", str(b), "--seed", "999")
    assert (a / "report.csv").read_bytes() != (b / "report.csv").read_bytes()
    summary = json.loads((b / "summary.json").read_text())
    assert summary["config"]["seed"] == 999


def test_simulate_limit_flags_replace_config_keys(capsys, tmp_path):
    def limit_params(fixture, *flags, **keys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads((FIXTURE_DIR / fixture).read_text()), **keys}))
        out_dir = tmp_path / fixture
        code, _, err = run_cli(capsys, "simulate", str(config), "--out", str(out_dir), *flags)
        assert code == 0, err
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "outer_limit" in summary  # a limit flag turns limits on
        return summary["config"]["limit_params"]

    assert limit_params("grid_r1_oscillation.json", "--epsilon", "1/10") == {
        "epsilon": "1/10", "burn_in": None, "min_visits": 2,
    }
    assert limit_params("g4_uniform_pair.json", "--burn-in", "0", "--min-visits", "3") == {
        "epsilon": "0", "burn_in": 0, "min_visits": 3,
    }
    # on a config with limits off, a flag keeps the file's own limit keys
    assert limit_params("grid_r2_convergence.json", "--min-visits", "3", limits=False) == {
        "epsilon": "1/20", "burn_in": 2, "min_visits": 3,
    }
    code, _, err = run_cli(capsys, "simulate", str(FIXTURE_DIR / "g4_uniform_pair.json"),
                           "--out", str(tmp_path / "bad"), "--min-visits", "0")
    assert code == 4 and "min_visits" in err, err
    # a flag that turns limits on still has the file's limits key checked
    config = tmp_path / "limits.json"
    config.write_text(json.dumps({**json.loads((FIXTURE_DIR / "g4_uniform_pair.json").read_text()), "limits": "no"}))
    code, _, err = run_cli(capsys, "simulate", str(config), "--out", str(tmp_path / "bad"), "--epsilon", "0")
    assert code == 4 and "limits" in err, err
    assert not (tmp_path / "bad" / "report.csv").exists()


def test_simulate_grid_fixtures(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        str(FIXTURE_DIR / "grid_r2_convergence.json"),
        "--out",
        str(tmp_path / "e2"),
    )
    assert code == 0
    assert "[outer-limit] PASS" in out
    summary = json.loads((tmp_path / "e2" / "summary.json").read_text())
    assert summary["outer_limit"]["kuratowski_median_target_gap"] <= 0.1


def test_simulate_builds_its_grid_once(capsys, tmp_path, monkeypatch):
    # the config loader checks the grid's bounds without making its points
    from frechet_means import consistency_lab

    built = []
    grid = consistency_lab.interval_grid
    monkeypatch.setattr(consistency_lab, "interval_grid", lambda *bounds: built.append(bounds) or grid(*bounds))
    raw = json.loads((FIXTURE_DIR / "grid_r1_oscillation.json").read_text())
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({**raw, "replications": 5}))
    load_config_file(config)
    assert built == []
    code, _, _ = run_cli(capsys, "simulate", str(config), "--out", str(tmp_path / "sim"))
    assert code == 0 and built == [("-1", "1", "0.01")]


def test_failing_assertion_block_exit_5(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "summary_blocks", lambda result, summary: [("sandwich", False, "forced")])
    out_dir = tmp_path / "sim"
    code, out, _ = run_cli(
        capsys, "simulate", str(FIXTURE_DIR / "g4_uniform_pair.json"), "--out", str(out_dir)
    )
    assert code == 5
    assert "[sandwich] FAIL - forced" in out
    assert "1 failing assertion block(s)" in out
    assert (out_dir / "report.csv").exists() and (out_dir / "summary.json").exists()


# SHA-256 of the reports of each bundled config at its shipped seed, and of
# the text output of `mean g4_pair.graphs --r 1`.  Any change to these bytes
# is a change to the published numbers and must be deliberate.
REPORT_DIGESTS = {
    "g4_uniform_pair": {
        "report.csv": "b5358cea609649a475f9a91dceaa5b4e61c0a8d5ce7ff71784ecb885d0e9ca57",
        "summary.json": "935fc0d26be657f5e82f6e58ffd1762234542d0c2170987e8a4ca9e7b3d8ce87",
    },
    "grid_r1_oscillation": {
        "report.csv": "2c00ba6359ec03e1e24e214f6f1978d8a6e6a91b3293741883acce9257ce6304",
        "summary.json": "16b196238688664fa2ea9fcd8225136b5e54ce2dd979e360c225f0f68f06e652",
    },
    "grid_r2_convergence": {
        "report.csv": "051482b292d857774e36ea13cafc5752334f3375857d4a6f9bdd0a0ed67ae690",
        "summary.json": "726395f73c4bc9a29c8259ceeb89886cb8bfbbc83f5c4cf3ea9a7afaaded756e",
    },
}
MEAN_G4_PAIR_R1_DIGEST = "be5899c9f6707a9a1025a0b4e23079730f648a374e87cd7aa10219d23bca7b5a"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_fixture_reports_are_byte_identical(capsys, tmp_path, name):
    code, _, err = run_cli(capsys, "simulate", str(FIXTURE_DIR / f"{name}.json"), "--out", str(tmp_path))
    assert code == 0, err
    for filename, digest in REPORT_DIGESTS[name].items():
        assert _sha256((tmp_path / filename).read_bytes()) == digest, filename


# The same pin for two configs off the bundled paths: a restricted float run
# (grid_r2_convergence at r = 1.5, no limits, 10 replications; its float
# scores are summed one support column at a time, in support order) and an
# exact run whose weights' denominator 2^62 + 1 puts scores and report values
# on Python ints.
CONFIG_REPORT_CASES = {
    "grid_r1.5_restricted_float": (
        "grid_r2_convergence", {"r": 1.5, "restricted": True, "limits": False, "replications": 10}
    ),
    "g4_pair_r2_bigint": (
        "g4_uniform_pair",
        {
            "weights": ["1/4611686018427387905", "4611686018427387904/4611686018427387905"],
            "r": 2, "n_max": 100, "checkpoints": [10, 50, 100], "replications": 20, "seed": 3,
            "restricted": True, "events": [], "burn_in": None,
        },
    ),
}
CONFIG_REPORT_DIGESTS = {
    "grid_r1.5_restricted_float": {
        "report.csv": "323d1e730e7983ef8b8b541bc2059f8012cdc60980ec87c34d4e7d65443e6e76",
        "summary.json": "d31c697fec2859e28767c430c8ca2c4134bc2675671377728466667a6eb8f2d3",
    },
    "g4_pair_r2_bigint": {
        "report.csv": "abd60d57db9c65e32ef0449c56c6c3b3df165a9b382a51f5d5febe560e2109c6",
        "summary.json": "cb1e01a6e9065ff30c0cbb7895f272148cffe3d8da2a22c8de6db97025002300",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIG_REPORT_DIGESTS))
def test_config_reports_are_byte_identical(capsys, tmp_path, name):
    fixture, overrides = CONFIG_REPORT_CASES[name]
    config = {**json.loads((FIXTURE_DIR / f"{fixture}.json").read_text()), **overrides}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "simulate", str(tmp_path / "config.json"), "--out", str(tmp_path))
    assert code == 0, err
    for filename, digest in CONFIG_REPORT_DIGESTS[name].items():
        assert _sha256((tmp_path / filename).read_bytes()) == digest, filename


# Every assertion block line `simulate` prints, for the bundled configs and a
# restricted epsilon > 0 run, whose two outer-limit blocks judge gaps.
BLOCK_CASES = {
    "g4_uniform_pair": ("g4_uniform_pair", {}, [
        "[sandwich] PASS - 0 violation(s) in 300 checkpoint rows",
        "[variance-trend] PASS - median |sigma_hat - sigma|: 0.2 (n=10) -> 0.021 (n=1000)",
        "[outer-limit] PASS - estimate subset of target in 100.00% of replications",
    ]),
    "grid_r1_oscillation": ("grid_r1_oscillation", {}, [
        "[sandwich] PASS - 0 violation(s) in 4000 checkpoint rows",
        "[variance-trend] PASS - median |sigma_hat - sigma|: 0.2 (n=10) -> 0.08 (n=100)",
    ]),
    "grid_r2_convergence": ("grid_r2_convergence", {}, [
        "[sandwich] PASS - 0 violation(s) in 100 checkpoint rows",
        "[variance-trend] PASS - median |sigma_hat - sigma|: 0.04 (n=10) -> 5.2e-05 (n=10000)",
        "[outer-limit] PASS - median worst estimate-to-target distance 0.05 (budget 2*epsilon = 0.1)",
    ]),
    "g4_pair_restricted_epsilon": ("g4_uniform_pair", {"restricted": True, "r": 2, "epsilon": "3/2"}, [
        "[sandwich] PASS - 0 violation(s) in 300 checkpoint rows",
        "[restricted-sandwich] PASS - 0 violation(s) in 300 checkpoint rows",
        "[variance-trend] PASS - median |sigma_hat - sigma|: 0 (n=10) -> 0 (n=1000)",
        "[restricted-variance-trend] PASS - median |sigma*_hat - sigma*|: 0.4 (n=10) -> 0.042 (n=1000)",
        "[outer-limit] PASS - median worst estimate-to-target distance 1 (budget 2*epsilon = 3)",
        "[restricted-outer-limit] PASS - median worst restricted estimate-to-target distance 1 (budget 2*epsilon = 3)",
        "[restricted-support] PASS - restricted mean sets drawn from sampled points at every checkpoint",
    ]),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_simulate_prints_each_assertion_block(capsys, tmp_path, name):
    fixture, overrides, lines = BLOCK_CASES[name]
    config = {**json.loads((FIXTURE_DIR / f"{fixture}.json").read_text()), **overrides}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", str(tmp_path / "config.json"), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("[")] == lines


def test_mean_output_is_byte_identical(capsys, pair_file):
    code, out, _ = run_cli(capsys, "mean", pair_file, "--r", "1")
    assert code == 0
    assert _sha256(out.encode("utf-8")) == MEAN_G4_PAIR_R1_DIGEST


# `mean --r 1` of an nv = 6 graph and its complement, whose mean set is all
# 2^15 graphs; the text output as it was when each label was made from a Graph.
MEAN_G6_COMPLEMENTS = ("6:101000111001101", "6:010111000110010")
MEAN_G6_COMPLEMENTS_R1_DIGEST = "26e4d2b9b0e3af16c2077913615dbe988e734dbe36bf8b44c079d3a9b19814db"


def test_mean_labels_a_full_space_without_building_graphs(capsys, tmp_path, monkeypatch):
    path = tmp_path / "complements.graphs"
    path.write_text("".join(f"{text}\n" for text in MEAN_G6_COMPLEMENTS))
    built = []
    check = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda g: (built.append(format_graph(g)), check(g))[1])
    code, out, _ = run_cli(capsys, "mean", str(path), "--r", "1")
    assert code == 0
    assert built == list(MEAN_G6_COMPLEMENTS)  # the sample's graphs, as it is read, and no other
    assert f"# mean set: {2**15} graphs" in out.splitlines()
    assert _sha256(out.encode("utf-8")) == MEAN_G6_COMPLEMENTS_R1_DIGEST


# Argument lists of the commands pinned by OUTPUT_DIGESTS; "{pair}" is the
# bundled g4 pair and "{triple}" the pair plus the complete graph, whose r = 3
# optimum is a fraction and whose r = 1.5 path is inexact.
OUTPUT_CASES = {
    "mean-r1": ["mean", "{pair}", "--r", "1"],
    "mean-r2": ["mean", "{pair}", "--r", "2"],
    "mean-r3": ["mean", "{triple}", "--r", "3"],
    "mean-r1.5": ["mean", "{triple}", "--r", "1.5"],
    "mean-restricted": ["mean", "{triple}", "--r", "2", "--restricted"],
    "restricted-mean": ["restricted-mean", "{triple}", "--r", "2"],
    "variance": ["variance", "{triple}", "--r", "2"],
    "variance-restricted": ["variance", "{triple}", "--r", "2", "--restricted"],
    "variance-r1.5": ["variance", "{triple}", "--r", "1.5"],
    "check-metric-nv4": ["check-metric", "--nv", "4"],
    "check-metric-grid": ["check-metric", "--grid", "-1", "1", "0.1"],
    "modulus-nv4": ["modulus", "--nv", "4", "--delta", "1.5", "--r", "2"],
    "modulus-nv4-r1.5": ["modulus", "--nv", "4", "--delta", "1", "--r", "1.5"],
    "modulus-grid": ["modulus", "--grid", "0", "1", "0.25", "--delta", "0.6"],
}

# SHA-256 of each case's output with `--format FORMAT`, as it was when every
# command but `enumerate` joined its whole output into one string.
OUTPUT_DIGESTS = {
    ("mean-r1", "text"): "be5899c9f6707a9a1025a0b4e23079730f648a374e87cd7aa10219d23bca7b5a",
    ("mean-r1", "json"): "260cf9d3fd871ed167d0b3360004ba754529a8611e55dbc73b68508e1bf9102e",
    ("mean-r1", "csv"): "38c68dc48fa7fdef63d803ab9ff9c0d675bca4d2542d1bd357f6b5264934ea7e",
    ("mean-r2", "text"): "8a80a94e723ffd3f2c44a0817143fedb34c5678f87b412e99fc91cf6291a2464",
    ("mean-r2", "json"): "0abe8cf1729c84c128ad7db028f88cbf5d84b166f130cedaa48b9d19621986a0",
    ("mean-r2", "csv"): "3c1b68a8bac3210713a77c3f13b479f0e4f00200ccdb96b7d33cab2a4867a76b",
    ("mean-r3", "text"): "6e4b145209d765085a521e83da76b82c50831671f1d24ac23e4ee4447d155d11",
    ("mean-r3", "json"): "d06ebf3a62c479e43a6468be36b3b5a067140aa8d70cc19559a6f33b9eaa3143",
    ("mean-r3", "csv"): "8580e89fb1157442c578af9ca7ebd453a1c20cfa342e55c3927c1c36ea4691d3",
    ("mean-r1.5", "text"): "3b9ae47d2deb25926493f2ba669d1c84efeec96c5c9f9ab62bd01d9630ed7839",
    ("mean-r1.5", "json"): "8cc4d1b95735767f1d6080b45cbaff006d1735999ba96d118f10b9418387619c",
    ("mean-r1.5", "csv"): "fec51ebd4584717ea2011634e33b1ec4af7c24786be2a7c9c6d53bf71d1e92a8",
    ("mean-restricted", "text"): "fbf3b86a725a3396077138c2f63940f5620dd8e510e34a475e9971b482d2c09a",
    ("mean-restricted", "json"): "cf13ebd0b28987d38bae9907f5384b80643dbf1a138b44421626b9817f7e05d7",
    ("mean-restricted", "csv"): "3adb4e8b0f3ea270bc4ac7367a6e70038ebef23fe753adc55f564153ea3954de",
    ("restricted-mean", "text"): "fbf3b86a725a3396077138c2f63940f5620dd8e510e34a475e9971b482d2c09a",
    ("restricted-mean", "json"): "cf13ebd0b28987d38bae9907f5384b80643dbf1a138b44421626b9817f7e05d7",
    ("restricted-mean", "csv"): "3adb4e8b0f3ea270bc4ac7367a6e70038ebef23fe753adc55f564153ea3954de",
    ("variance", "text"): "d481729dcbaebd3c3778149d22b0084cb62695f2465c717238debf2d84a73b9e",
    ("variance", "json"): "d44198b994496a3e81eb7cc22dcc4c7fab809bc2085109ca7a0aaea381273482",
    ("variance", "csv"): "36c86e6eb82bd1626e28bb9f1e67449cbf004e7a23b201050442eb62fdf849aa",
    ("variance-restricted", "text"): "50a45315839b107f3c2406952ae665ba1e61ea9127f6c23201d44baa1a54bf01",
    ("variance-restricted", "json"): "abd78a4e5b6d361949164d4ca4a0fe56fe938791c5e38af7317255906c109511",
    ("variance-restricted", "csv"): "daa7c957b2a99a4bd9b57663a41fdfe6f12bd46afc5850c8f6e43e5a53464300",
    ("variance-r1.5", "text"): "ce6fd0960da3c594e3da0481087d36eed9613570d51d7a72f059c41631e86670",
    ("variance-r1.5", "json"): "338029b83d9113744c07cf0a9395ee66fc382101356c026a338575484ce584e4",
    ("variance-r1.5", "csv"): "80ff2735f234a54e4e3d3a6cdf21230775625f0e4c6576d73dd3b4e06c6a7545",
    ("check-metric-nv4", "text"): "d78b54c1c6045638fba858d60065724d720e2a017accbd73cca8aa844d6c25f3",
    ("check-metric-nv4", "json"): "0eb225dab99aeb40ed3c825b57884e5a8312c58800726914bf0a7283e936ab86",
    ("check-metric-nv4", "csv"): "e7a790ce5a0d6141e61c0121ba867183311410a770798915bf6df341481aaace",
    ("check-metric-grid", "text"): "109a161b16f6ac78625fb5ae9b2adec7ee3583eed0ecacb916c5c34300518762",
    ("check-metric-grid", "json"): "015a03f6dc63b87b3f41f2135da9b2c963f788bac969a24456ad2755dbbfc2ac",
    ("check-metric-grid", "csv"): "e7a790ce5a0d6141e61c0121ba867183311410a770798915bf6df341481aaace",
    ("modulus-nv4", "text"): "a956e904642677af3bc4938c8d441d75f0c7b25ca891c3920b84dc197978b3ef",
    ("modulus-nv4", "json"): "b82f46be4ff2a0b156e724ee1dbd3100e0adce45722d99864076e399d7ac7d25",
    ("modulus-nv4", "csv"): "418c92f6cfdda61d1e93b8fb4307bf85518a2b619d4ccb2f522d4e5a2d4c0b43",
    ("modulus-nv4-r1.5", "text"): "d976f1d909b2d931bd97279cfedd258227feb202eb363d4346a29374aa3f9977",
    ("modulus-nv4-r1.5", "json"): "86d8a17f4ee638015f4e63f6e35c4a29a2cdd2ff0822b31e329edfd7ef4b413e",
    ("modulus-nv4-r1.5", "csv"): "24d92122c9e088c9b3159d11f5bb9e68a4d95fc509f02837be227690ed2c5188",
    ("modulus-grid", "text"): "7d67d010323a7c8ff8c1d2cd45a4dfda50b9cf4000b0d98077d7de4a9f1fcfd5",
    ("modulus-grid", "json"): "6db18cac40dd8be11dfe7e8c84f20719dcbc482b618f59ee8ece0277aff2ae92",
    ("modulus-grid", "csv"): "f5e8833daa826179c6a25695b4c958b94431e553eb742a9b702501ede005ab25",
}


@pytest.mark.parametrize("case, fmt", sorted(OUTPUT_DIGESTS))
def test_command_output_is_byte_identical(capsys, tmp_path, pair_file, case, fmt):
    triple = tmp_path / "triple.graphs"
    triple.write_text("4:100101\n4:101001\n4:111111\n")
    argv = [a.format(pair=pair_file, triple=triple) for a in OUTPUT_CASES[case]] + ["--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert _sha256(out.encode("utf-8")) == OUTPUT_DIGESTS[case, fmt]
    path = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert _sha256(path.read_bytes()) == OUTPUT_DIGESTS[case, fmt]


def test_simulate_invalid_config_exit_4(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "experiment-config-v1", "space": "graph"}))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(out_dir))
    assert code == 4
    assert not (out_dir / "report.csv").exists()

    bad.write_text(json.dumps({"schema": "nope"}))
    code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(out_dir))
    assert code == 4 and "schema" in err

    bad.write_text("not json")
    code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(out_dir))
    assert code == 4

    # values of the wrong kind fail their conversion (ValueError, TypeError);
    # integer keys refuse fractions and booleans instead of truncating them,
    # and boolean keys refuse anything but true and false
    base = json.loads((FIXTURE_DIR / "g4_uniform_pair.json").read_text())
    grid_base = json.loads((FIXTURE_DIR / "grid_r1_oscillation.json").read_text())
    cases = [(grid_base if key.startswith("grid_") else base, key, value) for key, value in [
        ("replications", "many"),
        ("epsilon", "abc"),
        ("nv", "four"),
        ("checkpoints", [10, "x"]),
        ("seed", "x"),
        ("burn_in", "x"),
        ("weights", 3),
        ("nv", 4.9),
        ("enumeration_cap", 21.5),
        ("n_max", 1000.5),
        ("checkpoints", [10, 100.5]),
        ("replications", 2.7),
        ("seed", 1.5),
        ("burn_in", 1.5),
        ("min_visits", 2.5),
        ("nv", True),
        ("nv", 0),
        ("nv", -1),
        ("seed", False),
        ("checkpoints", [10, True]),
        ("restricted", "false"),
        ("restricted", 0),
        ("limits", "false"),
        ("limits", 1),
        ("grid_start", "x"),
        ("grid_end", "-1"),  # not above grid_start
        ("grid_step", "0.3"),  # does not divide the length 2
    ]]
    # every key given is converted, whatever the space and limits say, and a
    # space key of the other kind is refused
    cases += [
        (base, "grid_step", "x"),
        (grid_base, "nv", "four"),
        (grid_base, "epsilon", "abc"),  # under "limits": false
        (base, "grid_step", "0.5"),
        (base, "space", ["graph"]),
    ]
    for raw, key, value in cases:
        bad.write_text(json.dumps({**raw, key: value}))
        code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(out_dir))
        assert code == 4, key
        assert err.startswith("error:") and key in err, err
        assert not out_dir.exists()

    # an event label must parse and name a point of the space, like a support label
    for raw, event in [
        (grid_base, "contains:abc"),
        (grid_base, "contains:1/0"),
        (base, "contains:4:100"),
        (grid_base, "contains:5"),  # outside [-1, 1]
        (base, "contains:5:1000000000"),  # a graph on 5 vertices in the nv = 4 space
    ]:
        bad.write_text(json.dumps({**raw, "events": [event]}))
        code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(out_dir))
        assert code == 4, event
        assert err.startswith("error:") and event in err, err
        assert not (out_dir / "report.csv").exists()


def test_simulate_unknown_key_exit_4(capsys, tmp_path):
    raw = json.loads((FIXTURE_DIR / "g4_uniform_pair.json").read_text())
    raw["typo_key"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(tmp_path / "o"))
    assert code == 4 and "typo_key" in err


def test_simulate_bad_support_label_exit_4(capsys, tmp_path):
    raw = json.loads((FIXTURE_DIR / "g4_uniform_pair.json").read_text())
    raw["support"] = ["4:100101", "4:10"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(tmp_path / "o"))
    assert code == 4 and "support" in err


def test_simulate_duplicate_support_names_support_key(capsys, tmp_path):
    raw = json.loads((FIXTURE_DIR / "g4_uniform_pair.json").read_text())
    raw["support"] = ["4:100101", "4:100101"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "simulate", str(bad), "--out", str(tmp_path / "o"))
    assert code == 4 and "config key 'support'" in err, err


# ---------------------------------------------------------------------------
# config loader details
# ---------------------------------------------------------------------------


def test_load_config_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "schema": "experiment-config-v1",
                "space": "grid",
                "support": ["-1", "1"],
                "r": 1,
                "n_max": 100,
            }
        )
    )
    cfg = load_config_file(path)
    assert cfg.checkpoints == (10, 100)  # defaults clipped to n_max
    assert cfg.replications == 200
    assert cfg.mu.weights == (0.5, 0.5) or float(cfg.mu.weights[0]) == 0.5
    assert cfg.limit_params is not None
    # every key left out keeps its dataclass default, and nothing else sets one
    assert cfg == ExperimentConfig(GridSpec(), DiscreteMeasure.uniform([Fraction(-1), Fraction(1)]), 1, 100, (10, 100))


def test_load_config_rejects_uniform_weight_mismatch(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "schema": "experiment-config-v1",
                "space": "grid",
                "support": ["-1", "1"],
                "weights": ["1/2", "1/3"],
                "r": 1,
                "n_max": 100,
            }
        )
    )
    with pytest.raises(ConfigError, match="weights"):
        load_config_file(path)
