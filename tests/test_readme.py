"""The README's python session and console transcripts run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from frechet_means import Sample, enumerate_space, read_graph_file
from frechet_means.cli import _EXIT_CODES, main
from frechet_means.consistency_lab import _CONFIG_KEYS, _CSV_COLUMNS, _CSV_COLUMNS_RES, _STRUCTURAL_KEYS
from frechet_means.graph_space import _Orbits
from frechet_means.metric_core import _weights

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_session_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the session reads a fixture by its path from the repository root
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "1",
        "['4:100001', '4:101001', '4:100101', '4:101101']",
    ]


def test_readme_console_transcripts_run(monkeypatch, capsys, tmp_path):
    blocks = re.findall(r"```console\n(\$ frechet-means .*?)```", README, re.S)
    assert len(blocks) == 2  # `mean ... --r 1` and `simulate g4_uniform_pair.json`
    monkeypatch.chdir(ROOT)
    for block in blocks:
        command, *expected = block.replace("/tmp/report", str(tmp_path)).splitlines()
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


def test_readme_exit_codes_match_the_cli_table():
    bullet = re.search(r"^\* Exit codes:(.*?)(?=^\S|^\* |\Z)", README, re.S | re.M).group(1)
    # 0 success, 5 a failed assertion block, 141 a closed pipe; the rest are the errors' codes
    assert {int(code) for code in re.findall(r"`(\d+)`", bullet)} == {0, 5, 141, *_EXIT_CODES.values()}


def test_readme_config_keys_match_the_loader():
    section = README.split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
    first_cells = re.findall(r"^\| (.*?) \|", section, re.M)[2:]  # below the header and its rule
    keys = {key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)}
    assert keys == _CONFIG_KEYS.keys() | _STRUCTURAL_KEYS


def test_readme_report_columns_match_the_writer():
    section = README.split("## Report schemas", 1)[1].split("\n## ", 1)[0]
    paragraph = section.strip().split("\n\n", 1)[0]  # the one on report.csv
    lists = [[name.strip() for name in span.split(",")] for span in re.findall(r"`([^`]+,[^`]+)`", paragraph)]
    assert lists == [  # the header write_report_csv writes, and its restricted columns
        ["replication", "n", *(header for header, _, _ in _CSV_COLUMNS)],
        [header for header, _, _ in _CSV_COLUMNS_RES],
    ]


def test_readme_orbit_counts_match_the_scorer(g6_orbits, bench_inputs):
    sentence = r"support of 5 graphs has ([\d,]+)\s+orbits.*?its cut\s+keeps ([\d,]+) of them \((\d+) × (\d+)\)"
    quoted = re.search(sentence, README, re.S)
    size, cut, *tables = (int(number.replace(",", "")) for number in quoted.groups())
    ia, ib = g6_orbits.cut(np.ones((1, 5), dtype=np.int64))  # every support graph drawn
    assert (size, cut, *tables) == (g6_orbits.size, len(ia) * len(ib), len(ia), len(ib))
    # the order-1 bound's rows on the nv = 7 mean sample at r = 2, of both tables whole
    sentence = r"the bound keeps (\d+) × (\d+) of the\s+([\d,]+) × ([\d,]+) table rows: ([\d,]+) of 2\^(\d+) orbits"
    quoted = re.search(sentence, README, re.S)
    kept_a, kept_b, size_a, size_b, cells, slots = (int(number.replace(",", "")) for number in quoted.groups())
    space = enumerate_space(7)
    sup_idx, weights, total, _ = _weights(space, Sample(tuple(read_graph_file(bench_inputs / "mean-b-r2.graphs"))), 2)
    orbits = _Orbits(space, sup_idx)
    kept = orbits.bound(weights[None], 2)[0]
    ia, ib = orbits.cut(weights[None])
    ia, ib = ia[kept[ia]], ib[kept[orbits.sizes[0] + ib]]
    _, (scores,) = orbits.scorer(2, total)[0](weights[None])  # one weight row, one group
    assert (kept_a, kept_b, size_a, size_b) == (len(ia), len(ib), *orbits.sizes)
    assert (cells, 2**slots) == (sum(tile.size for _, tile in scores), orbits.size)
