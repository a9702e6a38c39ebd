import hashlib
import json
from fractions import Fraction

import pytest

from conftest import FIXTURE_DIR, MEAN_SET_R1_TEXTS
from frechet_means import cli
from frechet_means.cli import load_config_file, main
from frechet_means.consistency_lab import ConfigError
from frechet_means.graph_space import Graph, format_graph, n_edge_slots, read_graph_file
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


def test_invalid_order_rejected_by_argparse(capsys, pair_file):
    with pytest.raises(SystemExit):
        main(["mean", pair_file, "--r", "0.5"])


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
    code, _, err = run_cli(capsys, "check-metric")
    assert code == 4


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


def test_modulus_on_grid(capsys):
    code, out, _ = run_cli(
        capsys, "modulus", "--grid", "0", "1", "0.25", "--delta", "0.6", "--r", "1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["s_delta"] == 0.5


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


def test_mean_output_is_byte_identical(capsys, pair_file):
    code, out, _ = run_cli(capsys, "mean", pair_file, "--r", "1")
    assert code == 0
    assert _sha256(out.encode("utf-8")) == MEAN_G4_PAIR_R1_DIGEST


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
    for key, value in [
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
    ]:
        raw = grid_base if key.startswith("grid_") else base
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
