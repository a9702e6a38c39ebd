import csv
import io
import json
import statistics
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_means import (
    DiscreteMeasure,
    MetricSpace,
    Sample,
    parse_graph,
    sample_iid,
)
from frechet_means.consistency_lab import (
    CSV_SCHEMA,
    SUMMARY_SCHEMA,
    ConfigError,
    ExperimentConfig,
    GraphSpec,
    GridSpec,
    LimitParams,
    build_space,
    build_summary,
    event_contains,
    event_full_space,
    oscillation_stats,
    parse_point_label,
    resolve_event,
    run_consistency_experiment,
    summary_blocks,
    write_report_csv,
    write_summary_json,
    _sandwich_ok,
    _stream_states,
    replication_rng,
)
from conftest import FIXTURE_DIR
from frechet_means.cli import load_config_file
from frechet_means.set_limits import OuterLimitEstimate
from oracles import diagnostic_T, write_report_by_csv_writer


@pytest.fixture(scope="module")
def pair_cfg(mu_pair):
    return ExperimentConfig(
        space_spec=GraphSpec(4),
        mu=mu_pair,
        r=1,
        n_max=500,
        checkpoints=(10, 100, 500),
        replications=40,
        seed=123,
        restricted=True,
        limit_params=LimitParams(epsilon=Fraction(0), burn_in=1, min_visits=2),
    )


@pytest.fixture(scope="module")
def pair_result(pair_cfg, g4):
    return run_consistency_experiment(pair_cfg, g4)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_point_mass_sampling_yields_copies():
    mu = DiscreteMeasure(("x",), (Fraction(1),))
    sample = sample_iid(mu, 7, seed=3)
    assert sample.items == ("x",) * 7


def test_sampling_rejects_zero_draws(mu_pm):
    with pytest.raises(ValueError):
        sample_iid(mu_pm, 0, seed=1)


def test_golden_sample_seed_42(mu_pm):
    sample = sample_iid(mu_pm, 5, seed=42)
    assert sample.items == (Fraction(1), Fraction(-1), Fraction(1), Fraction(1), Fraction(-1))


def test_empirical_frequencies_concentrate(mu_pm):
    # binomial 5-sigma band at n = 1e5 is about +/- 0.0079
    for seed in (0, 1, 2):
        sample = sample_iid(mu_pm, 100_000, seed=seed)
        freq = sum(1 for x in sample.items if x == 1) / sample.n
        assert 0.49 <= freq <= 0.51


def test_same_seed_same_sample(mu_pm):
    a = sample_iid(mu_pm, 100, seed=9)
    b = sample_iid(mu_pm, 100, seed=9)
    assert a == b
    c = sample_iid(mu_pm, 100, seed=10)
    assert a != c


def test_skewed_weights_sampling():
    mu = DiscreteMeasure(("a", "b"), (Fraction(9, 10), Fraction(1, 10)))
    sample = sample_iid(mu, 20_000, seed=4)
    freq_b = sum(1 for x in sample.items if x == "b") / sample.n
    assert abs(freq_b - 0.1) < 0.01


# seeds and replication indices at the edges of numpy's 32-bit entropy words
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 + 3, 2**200)
EDGE_KS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**200)),
    ks=st.lists(st.one_of(st.sampled_from(EDGE_KS), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                min_size=1, max_size=8),
)
def test_stream_states_match_numpy_seeding(seed, ks):
    # k from 2^32 is two entropy words; it is computed, not reached by running replications
    expected = [replication_rng(seed, k).bit_generator.state["state"] for k in ks]
    assert _stream_states(seed, ks) == expected


def test_stream_states_cover_every_edge_seed_and_index():
    for seed in EDGE_SEEDS:
        expected = [replication_rng(seed, k).bit_generator.state["state"] for k in EDGE_KS]
        assert _stream_states(seed, EDGE_KS) == expected


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_diagnostic_T_zero_on_proportional_sample(g4, mu_pair, s1, s2):
    sample = Sample((s1, s2))
    for z in g4.points[::5]:
        value = diagnostic_T(g4, mu_pair, sample, z, 1)
        assert value == 0
        assert isinstance(value, Fraction)


def test_diagnostic_T_grid_median_case(grid201, mu_pm):
    sample = Sample((Fraction(-1), Fraction(1)))
    assert diagnostic_T(grid201, mu_pm, sample, Fraction(0), 1) == 0


def test_diagnostic_T_detects_imbalance(grid201, mu_pm):
    sample = Sample((Fraction(1), Fraction(1)))
    # empirical functional at -1 is 2^r, population is 2^(r-1)
    assert diagnostic_T(grid201, mu_pm, sample, Fraction(-1), 1) == 1


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_determinism_bit_identical_records(pair_cfg, pair_result, g4):
    again = run_consistency_experiment(pair_cfg, g4)
    assert again.records == pair_result.records
    assert again.population == pair_result.population
    shifted = run_consistency_experiment(
        ExperimentConfig(**{**pair_cfg.__dict__, "seed": 124}), g4
    )
    assert shifted.records != pair_result.records


def test_population_targets(pair_result, s1, s2):
    assert pair_result.population.optimum == 1
    assert len(pair_result.population.argmin) == 4
    assert set(pair_result.population_restricted.argmin) == {s1, s2}


def test_per_checkpoint_invariants(pair_result):
    for rec in pair_result.records:
        for stat in rec.stats:
            assert stat.sigma_hat >= 0
            assert len(stat.mean_set) >= 1
            assert stat.sigma_hat_res >= stat.sigma_hat  # restriction inequality
            assert stat.subset_of_sampled
            assert _sandwich_ok(stat.t_hat_max, stat.t_star, stat.t_theta_min, exact=True)
            assert _sandwich_ok(stat.t_res_hat_max, stat.tr_star, stat.t_res_upper, exact=True)


def test_variance_identity_links_t_star(pair_result):
    sigma = pair_result.population.optimum
    for rec in pair_result.records:
        for stat in rec.stats:
            assert abs(stat.sigma_hat - sigma) == abs(stat.t_star)


def test_outer_limit_estimates_recorded(pair_result):
    for rec in pair_result.records:
        assert rec.tail_estimate is not None
        assert rec.kuratowski.epsilon == 0
        assert rec.kuratowski.burn_in == 1
        assert rec.tail_included and rec.kuratowski_included
        assert rec.kuratowski_included_res


def test_restricted_estimates_stay_in_support(pair_result, s1, s2):
    points = pair_result.space.points
    for rec in pair_result.records:
        assert rec.tail_estimate_res <= {s1, s2}
        for stat in rec.stats:
            assert {points[i] for i in stat.mean_set_res} <= {s1, s2}


def test_checkpoints_use_cumulative_prefixes(pair_cfg, pair_result, g4, mu_pair):
    # recompute one record independently from the documented stream
    from frechet_means.consistency_lab import _draw_indices, _support_cdf, replication_rng
    from frechet_means import sample_mean_set

    k = 3
    idx = _draw_indices(_support_cdf(mu_pair), pair_cfg.n_max, replication_rng(pair_cfg.seed, k))
    for pos, n in enumerate(pair_cfg.checkpoints):
        items = tuple(mu_pair.support[i] for i in idx[:n])
        res = sample_mean_set(g4, Sample(items), pair_cfg.r)
        stat = pair_result.records[k].stats[pos]
        assert res.optimum == stat.sigma_hat
        assert res.argmin == tuple(g4.points[i] for i in stat.mean_set)


def test_large_order_engine_uses_bigint_blocks(g4, mu_pair):
    # 6^30 * n overflows int64, forcing the object-dtype block path
    cfg = ExperimentConfig(
        space_spec=GraphSpec(4),
        mu=mu_pair,
        r=30,
        n_max=20,
        checkpoints=(10, 20),
        replications=3,
        seed=8,
        restricted=True,
    )
    result = run_consistency_experiment(cfg, g4)
    for rec in result.records:
        for stat in rec.stats:
            assert isinstance(stat.sigma_hat, Fraction)
            assert _sandwich_ok(stat.t_hat_max, stat.t_star, stat.t_theta_min, exact=True)
            assert _sandwich_ok(stat.t_res_hat_max, stat.tr_star, stat.t_res_upper, exact=True)


def test_float_order_engine(grid201, mu_pm):
    cfg = ExperimentConfig(
        space_spec=GridSpec(),
        mu=mu_pm,
        r=1.5,
        n_max=50,
        checkpoints=(10, 50),
        replications=5,
        seed=1,
    )
    result = run_consistency_experiment(cfg, grid201)
    for rec in result.records:
        for stat in rec.stats:
            assert isinstance(stat.sigma_hat, float)
            assert _sandwich_ok(stat.t_hat_max, stat.t_star, stat.t_theta_min, exact=False)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_errors_surface_before_running(mu_pair, mu_pm, g4):
    base = dict(space_spec=GraphSpec(4), mu=mu_pair, r=1, n_max=100)
    with pytest.raises(ConfigError, match="checkpoints"):
        run_consistency_experiment(
            ExperimentConfig(**base, checkpoints=(100, 10), replications=1), g4
        )
    with pytest.raises(ConfigError, match="exceed"):
        run_consistency_experiment(
            ExperimentConfig(**base, checkpoints=(200,), replications=1), g4
        )
    with pytest.raises(ConfigError, match="replications"):
        run_consistency_experiment(
            ExperimentConfig(**base, checkpoints=(10,), replications=0), g4
        )
    with pytest.raises(ConfigError, match="seed"):
        run_consistency_experiment(
            ExperimentConfig(**base, checkpoints=(10,), replications=1, seed=-1), g4
        )
    with pytest.raises(ConfigError, match="burn_in"):
        run_consistency_experiment(
            ExperimentConfig(
                **base,
                checkpoints=(10,),
                replications=1,
                limit_params=LimitParams(burn_in=5),
            ),
            g4,
        )
    with pytest.raises(ConfigError, match="support"):
        run_consistency_experiment(
            ExperimentConfig(
                space_spec=GraphSpec(4), mu=mu_pm, r=1, n_max=10, checkpoints=(10,), replications=1
            ),
            g4,
        )
    with pytest.raises(ConfigError, match="r must be"):
        run_consistency_experiment(
            ExperimentConfig(**{**base, "r": 0.5}, checkpoints=(10,), replications=1), g4
        )


@pytest.mark.parametrize("epsilon", [Fraction(-1), float("nan")], ids=["negative", "nan"])
def test_config_refuses_an_epsilon_below_zero_or_nan(mu_pair, g4, epsilon):
    # NaN fails every comparison, so a "< 0" test let it run as epsilon 0
    cfg = ExperimentConfig(
        space_spec=GraphSpec(4), mu=mu_pair, r=1, n_max=10, checkpoints=(10,), replications=1,
        limit_params=LimitParams(epsilon=epsilon),
    )
    with pytest.raises(ConfigError, match="epsilon must be >= 0"):
        run_consistency_experiment(cfg, g4)


def test_build_space_dispatch():
    assert len(build_space(GraphSpec(3))) == 8
    assert len(build_space(GridSpec("0", "1", "0.5"))) == 3
    with pytest.raises(ConfigError):
        build_space("nope")


# ---------------------------------------------------------------------------
# oscillation tables
# ---------------------------------------------------------------------------


def test_oscillation_counts_match_hand_count(pair_result, s1):
    points = pair_result.space.points
    pred = event_contains(pair_result.space.index(s1))
    table = oscillation_stats(pair_result, pred, "contains-s1")
    assert sum(row[1] for row in table.rows) > 0
    for pos, (n, successes, reps, freq, se) in enumerate(table.rows):
        manual = sum(1 for rec in pair_result.records if s1 in [points[i] for i in rec.stats[pos].mean_set])
        assert successes == manual
        assert reps == len(pair_result.records)
        assert freq == pytest.approx(manual / reps)
        assert se == pytest.approx(np.sqrt(freq * (1 - freq) / reps))


def test_minus_one_event_is_symmetric_at_odd_n(grid201, mu_pm):
    # at odd n the running sum cannot be zero, so "-1 in the mean set" is
    # exactly the event "minority of +1 draws", of probability 1/2
    cfg = ExperimentConfig(
        space_spec=GridSpec(),
        mu=mu_pm,
        r=1,
        n_max=99,
        checkpoints=(99,),
        replications=4000,
        seed=31,
        limit_params=None,
    )
    result = run_consistency_experiment(cfg, grid201)
    table = oscillation_stats(result, event_contains(grid201.index(Fraction(-1))), "minus-one")
    (_, _, reps, freq, _) = table.rows[0]
    band = 3 * np.sqrt(0.25 / reps)
    assert abs(freq - 0.5) <= band
    for rec in result.records:  # odd n: never the full grid
        assert len(rec.stats[0].mean_set) == 1


def test_resolve_event_names(g4):
    everything = tuple(range(len(g4)))
    assert resolve_event("full_space", g4, GraphSpec(4))(everything)
    pred = resolve_event("contains:4:100101", g4, GraphSpec(4))
    assert pred(everything)
    i = g4.index(parse_graph("4:100101"))
    assert pred((i,)) and not pred(everything[:i] + everything[i + 1 :])
    with pytest.raises(ConfigError, match="unknown event"):
        resolve_event("bogus", g4, GraphSpec(4))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_csv_report_schema_and_rows(pair_result, tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(pair_result, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["replication", "n", "sigma_hat"]
    assert "mean_set_res" in header
    assert len(lines) == 1 + len(pair_result.records) * len(pair_result.config.checkpoints)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "10"
    float(first[2])  # parses as a number


def test_summary_json_content(pair_result, tmp_path):
    path = tmp_path / "summary.json"
    write_summary_json(pair_result, path)
    summary = json.loads(path.read_text())
    assert summary["schema_version"] == SUMMARY_SCHEMA
    assert summary["csv_schema"] == CSV_SCHEMA
    assert summary["population"]["optimum"] == 1.0
    assert summary["population"]["optimum_exact"] == "1"
    assert summary["sandwich"]["violations"] == 0
    assert summary["sandwich"]["violations_restricted"] == 0
    assert summary["outer_limit"]["kuratowski_inclusion_rate"] >= 0.99
    assert summary["config"]["seed"] == 123
    assert len(summary["checkpoints"]) == 3


def test_report_renders_each_label_once(tmp_path):
    calls = Counter()
    hashes = Counter()

    class Point(str):  # counts the hashes taken of it, by dicts and sets among others
        def __hash__(self):
            hashes[str(self)] += 1
            return super().__hash__()

    def label(point):
        calls[str(point)] += 1
        return f"<{point}>"

    points = tuple(map(Point, "abcd"))
    line = MetricSpace.from_int_matrix(points, [[abs(i - j) for j in range(4)] for i in range(4)], label=label)
    cfg = ExperimentConfig(
        space_spec=None, mu=DiscreteMeasure.uniform((points[0], points[3])), r=1, n_max=40,
        checkpoints=(4, 10, 40), replications=20, seed=5, restricted=True,
    )
    result = run_consistency_experiment(cfg, line)
    hashes.clear()
    summary = build_summary(result)  # simulate builds the summary before the report
    write_report_csv(result, tmp_path / "report.csv")
    assert "<a>;<b>;<c>;<d>" in (tmp_path / "report.csv").read_text()  # ties between the support points
    assert summary["config"]["support"] == ["<a>", "<d>"]
    assert summary["population"]["mean_set"] == ["<a>", "<b>", "<c>", "<d>"]
    assert summary["population_restricted"]["mean_set"] == ["<a>", "<d>"]
    assert set(calls) == set("abcd") and max(calls.values()) == 1  # the summary and the report share labels
    assert not hashes  # labels are looked up by space index, not by point

    tested = Counter()

    def holds_a(mean_set):
        tested[mean_set] += 1
        return 0 in mean_set

    table = oscillation_stats(result, holds_a, "holds a")
    assert set(tested) == set(result.sets) and max(tested.values()) == 1  # once per distinct set
    assert len(result.sets) < len(result.records)
    for pos, (n, successes, *_) in enumerate(table.rows):
        assert successes == sum(0 in rec.stats[pos].mean_set for rec in result.records)


def test_report_quotes_cells_as_the_csv_module_does(tmp_path):
    labels = {"a": "a,1", "b": 'say "b"', "c": "c\r\nd", "d": "plain"}
    points = tuple(labels)
    line = MetricSpace.from_int_matrix(points, [[abs(i - j) for j in range(4)] for i in range(4)], label=labels.get)
    cfg = ExperimentConfig(
        space_spec=None, mu=DiscreteMeasure.uniform((points[0], points[3])), r=1, n_max=40,
        checkpoints=(4, 10, 40), replications=20, seed=5, restricted=True,
    )
    path = tmp_path / "report.csv"
    write_report_csv(run_consistency_experiment(cfg, line), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rewritten = io.StringIO(newline="")
    csv.writer(rewritten).writerows(rows)
    assert path.read_bytes() == rewritten.getvalue().encode()
    assert len(rows) == 1 + 20 * 3
    assert {'a,1;say "b";c\r\nd;plain', "a,1", "plain"} <= {cell for row in rows for cell in row}


@pytest.mark.parametrize(
    "spec, support, restricted",
    [
        (GridSpec("0", "2", "0.25"), ("0", "2"), False),  # r = 1 on two ends: whole-grid ties at even n
        (GraphSpec(4), ("4:100101", "4:101001", "4:111111"), True),
    ],
    ids=["grid-r1-ties", "g4-restricted"],
)
def test_report_bytes_equal_the_csv_writer_oracle(spec, support, restricted, tmp_path):
    space = build_space(spec)
    mu = DiscreteMeasure.uniform(tuple(parse_point_label(spec, label) for label in support))
    cfg = ExperimentConfig(
        space_spec=spec, mu=mu, r=1, n_max=40, checkpoints=(3, 4, 10, 40), replications=30, seed=9,
        restricted=restricted,
    )
    result = run_consistency_experiment(cfg, space)
    write_report_csv(result, tmp_path / "report.csv")
    write_report_by_csv_writer(result, tmp_path / "oracle.csv")
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert len(result.sets) < len(cfg.checkpoints) * cfg.replications  # rows repeat their sets


def test_reports_read_columns_without_building_records(pair_cfg, g4, tmp_path):
    result = run_consistency_experiment(pair_cfg, g4)
    write_report_csv(result, tmp_path / "report.csv")
    write_summary_json(result, tmp_path / "summary.json")
    summary_blocks(result)
    assert "records" not in vars(result)  # built on first access only
    assert len(result.records) == pair_cfg.replications


def test_reports_build_no_outer_limit_estimate(monkeypatch, tmp_path):
    # the engine keeps estimates as index tuples; only records build point sets
    built = []
    init = OuterLimitEstimate.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OuterLimitEstimate, "__init__", counting_init)
    cfg = load_config_file(FIXTURE_DIR / "g4_uniform_pair.json")
    result = run_consistency_experiment(cfg)
    summary = build_summary(result)
    write_report_csv(result, tmp_path / "report.csv")
    assert not built
    assert summary["outer_limit"]["mean_kuratowski_size"] == np.mean([len(r.kuratowski.points) for r in result.records])
    assert len(built) == cfg.replications


def test_report_bytes_are_deterministic(pair_result, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(pair_result, a)
    write_report_csv(pair_result, b)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    write_summary_json(pair_result, ja)
    write_summary_json(pair_result, jb)
    assert ja.read_bytes() == jb.read_bytes()


def test_restricted_outer_limit_is_judged_by_its_gap_at_positive_epsilon(g4, mu_pair):
    # at epsilon > 0 the estimate holds points near the restricted target, so
    # inclusion fails; the block judges the median worst distance against
    # 2*epsilon instead, as the unrestricted block does
    cfg = ExperimentConfig(
        space_spec=GraphSpec(4), mu=mu_pair, r=2, n_max=200, checkpoints=(50, 100, 200),
        replications=10, seed=4, restricted=True,
        limit_params=LimitParams(epsilon=Fraction(3, 2), burn_in=1),
    )
    result = run_consistency_experiment(cfg, g4)
    summary = build_summary(result)
    ol = summary["outer_limit"]
    assert ol["kuratowski_inclusion_rate_res"] < 0.99
    gaps = sorted(rec.kuratowski_target_gap_res for rec in result.records)
    assert ol["kuratowski_median_target_gap_res"] == float(statistics.median(gaps)) == 1
    blocks = {name: (passed, detail) for name, passed, detail in summary_blocks(result, summary)}
    assert blocks["restricted-outer-limit"] == (
        True, "median worst restricted estimate-to-target distance 1 (budget 2*epsilon = 3)"
    )
    exact = build_summary(run_consistency_experiment(replace(cfg, limit_params=LimitParams()), g4))
    assert "kuratowski_median_target_gap_res" not in exact["outer_limit"]  # epsilon = 0 judges inclusion


def test_outer_limit_gap_median_is_written_from_its_exact_value():
    # gaps 1/5 and 1/10: averaging their floats gives 0.15000000000000002,
    # the float of the exact median 3/20 is 0.15
    mu = DiscreteMeasure.uniform((Fraction(-1), Fraction(3, 10), Fraction(1)))
    cfg = ExperimentConfig(
        space_spec=GridSpec("-1", "1", "0.1"), mu=mu, r=2, n_max=1000, checkpoints=(10, 100, 1000),
        replications=2, seed=0, limit_params=LimitParams(epsilon=Fraction(1, 5), burn_in=1),
    )
    result = run_consistency_experiment(cfg)
    assert sorted(result.limits["kuratowski_target_gap"]) == [Fraction(1, 10), Fraction(1, 5)]
    ol = build_summary(result)["outer_limit"]
    assert (ol["kuratowski_median_target_gap"], ol["kuratowski_max_target_gap"]) == (0.15, 0.2)


def test_visit_counts_of_replications_on_a_2_to_55_point_space_stay_apart():
    # at nv = 11 a space index takes 55 bits, so keys replication * 2^55 + index
    # wrapped in int64 from replication 257 on and merged the visits of
    # replications 512 apart; every estimate is its own trajectory's
    from frechet_means import Graph, SetTrajectory, tail_limsup

    mu = DiscreteMeasure.uniform(Graph(11, m) for m in (0b1011, 0b0111, 0b1110))
    cfg = ExperimentConfig(
        space_spec=GraphSpec(11, 55), mu=mu, r=2, n_max=20, checkpoints=(2, 3, 5, 8, 13, 20),
        replications=600, seed=1, limit_params=LimitParams(epsilon=0, burn_in=2),
    )
    result = run_consistency_experiment(cfg)
    space = result.space
    for k in range(cfg.replications):
        traj = SetTrajectory.from_indices(space, [result.sets[col[k]] for col in result.stats["mean_set"]])
        own = tuple(sorted(map(space.index, tail_limsup(traj, 2))))
        assert result.limits["tail_estimate"][k] == result.limits["kuratowski"][k] == own, k
    assert result.limits["tail_estimate"][8] == (10, 15)


def test_variance_trend_is_judged_on_exact_medians():
    # 2^60 and 2^60 + 1/den round to one float, printed 1.15292e+18 at both
    # checkpoints; only the exact medians show that the error grew
    result = run_consistency_experiment(load_config_file(FIXTURE_DIR / "g4_uniform_pair.json"))
    reps, first, last = result.config.replications, result.denominators[0], result.denominators[-1]
    result.stats["t_star"][0] = np.full(reps, 2**60 * first, dtype=object)
    result.stats["t_star"][-1] = np.full(reps, 2**60 * last + 1, dtype=object)
    blocks = {name: (passed, detail) for name, passed, detail in summary_blocks(result)}
    assert blocks["variance-trend"] == (
        False, "median |sigma_hat - sigma|: 1.15292e+18 (n=10) -> 1.15292e+18 (n=1000)"
    )


def test_outer_limit_gap_is_judged_on_exact_values():
    # a gap 10^-30 past the budget 2*epsilon = 1/10 is the float 0.1, as the budget is
    result = run_consistency_experiment(load_config_file(FIXTURE_DIR / "grid_r2_convergence.json"))
    budget = 2 * result.config.limit_params.epsilon
    result.limits["kuratowski_target_gap"] = [budget + Fraction(1, 10**30)] * result.config.replications
    summary = build_summary(result)
    assert summary["outer_limit"]["kuratowski_median_target_gap"] == 0.1
    assert summary["outer_limit"]["kuratowski_gap_within_budget_rate"] == 0
    blocks = {name: (passed, detail) for name, passed, detail in summary_blocks(result, summary)}
    assert blocks["outer-limit"] == (False, "median worst estimate-to-target distance 0.1 (budget 2*epsilon = 0.1)")


def test_summary_blocks_all_pass(pair_result):
    blocks = summary_blocks(pair_result)
    names = [name for name, _, _ in blocks]
    assert "sandwich" in names and "outer-limit" in names
    assert all(passed for _, passed, _ in blocks)


def test_engine_scores_full_graph_spaces_without_the_distance_kernel(monkeypatch):
    # exact scores of a full graph space come from two popcount tables, at
    # every order: the engine gathers no |space| x |support| distance block
    from frechet_means import Graph, enumerate_space, restricted_sample_mean_set, sample_mean_set
    from frechet_means.consistency_lab import _Engine

    space = enumerate_space(6)
    mu = DiscreteMeasure.uniform(Graph(6, m) for m in (0, 0b1011, 0x7FFF, 0x1234, 0x4321))
    counts = np.array([3, 1, 2, 0, 4], dtype=np.int64)
    sample = Sample(tuple(g for g, c in zip(mu.support, counts) for _ in range(c)))
    expected = {r: sample_mean_set(space, sample, r) for r in (1, 2, 3)}
    expected_res = {r: restricted_sample_mean_set(space, sample, r) for r in (1, 2, 3)}

    def refuse(self, rows, cols):
        raise AssertionError("int_block called")

    monkeypatch.setattr(MetricSpace, "int_block", refuse)
    for r in (1, 2, 3):
        cfg = ExperimentConfig(space_spec=GraphSpec(6), mu=mu, r=r, n_max=10, checkpoints=(10,),
                               replications=1, restricted=True)
        engine = _Engine(space, cfg.validated(space))
        cols = engine.columns(counts[None], 10)  # a chunk of one replication
        sigma_hat, sigma_hat_res = (
            Fraction(int(cols[v][0]), engine.denominator(10)) for v in ("sigma_hat", "sigma_hat_res")
        )
        mean_set, mean_set_res = (
            tuple(space.points[i] for i in engine.sets[cols[m][0]]) for m in ("mean_set", "mean_set_res")
        )
        assert (sigma_hat, mean_set) == (expected[r].optimum, expected[r].argmin)
        assert (sigma_hat_res, mean_set_res) == (expected_res[r].optimum, expected_res[r].argmin)


def test_float_engine_working_set_stays_within_the_cell_budget():
    # a float simulate on the 2^15 graphs of nv = 6 with a 40-graph support:
    # the engine makes each score tile from its own distance-power block, so
    # its traced peak stays within 8 budgets of float64 cells (4 MB), where
    # one held 2^15 x 40 block of float powers takes 10 MB (20 MB traced)
    import tracemalloc

    from frechet_means import Graph, enumerate_space, metric_core

    space = enumerate_space(6)
    rng = np.random.default_rng(6)
    mu = DiscreteMeasure.uniform(tuple(Graph(6, int(m)) for m in rng.choice(1 << 15, 40, replace=False)))
    cfg = ExperimentConfig(
        space_spec=GraphSpec(6), mu=mu, r=1.5, n_max=100, checkpoints=(10, 100), replications=20, seed=1,
        restricted=True,
    )
    tracemalloc.start()
    try:
        result = run_consistency_experiment(cfg, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.population.exact
    assert peak < 8 * 8 * metric_core._CHUNK_CELLS, peak


def test_exact_engine_score_groups_stay_within_the_cell_budget(cell_budget, monkeypatch):
    # an exact restricted simulate on nv = 6 with a 6-graph support and 2^12
    # score cells: each call of the orbit scorer cuts and bounds the table rows
    # once for all its weight rows, then scores the rows in groups whose
    # factors, k (|ia| + |ib|) cells a row over the kept table rows, hold at
    # most the cell budget (or one row); at n = 5 the distinct count rows miss
    # different support points and take several groups
    from frechet_means import Graph, enumerate_space
    from frechet_means.consistency_lab import _Engine
    from frechet_means.graph_space import _Orbits

    space = enumerate_space(6)
    rng = np.random.default_rng(6)
    mu = DiscreteMeasure.uniform(tuple(Graph(6, int(m)) for m in rng.choice(1 << 15, 6, replace=False)))
    cfg = ExperimentConfig(
        space_spec=GraphSpec(6), mu=mu, r=2, n_max=100, checkpoints=(5, 20, 100), replications=464, seed=1,
        restricted=True,
    )
    groups, calls, current = [], [], [None]  # (checkpoint, rows, cells a row) of each group; rows of each call
    columns, scorer = _Engine.columns, _Orbits.scorer

    def at_checkpoint(engine, counts, n):
        current[0] = n
        return columns(engine, counts, n)

    def recording(orbits, r, total):
        tiles, powers = scorer(orbits, r, total)

        def recorded(weights):
            ia, ib = orbits.cut(weights)
            kept = orbits.bound(weights, r).any(axis=0)
            cells = (2 + (r - 1) * weights.shape[1]) * int(kept[ia].sum() + kept[orbits.sizes[0] + ib].sum())
            calls.append(len(weights))

            def group_of(made):
                for lo, tile in made:
                    if lo == 0:  # a group's first tile
                        groups.append((current[0], len(tile), cells))
                    yield lo, tile

            orbit, made = tiles(weights)
            return orbit, map(group_of, made)

        return recorded, powers

    monkeypatch.setattr(_Engine, "columns", at_checkpoint)
    monkeypatch.setattr(_Orbits, "scorer", recording)
    with cell_budget(1 << 12):
        run_consistency_experiment(cfg, space)
    assert sum(calls) == sum(rows for _, rows, _ in groups)  # the groups of a call hold each of its rows once
    assert all(rows == 1 or rows * cells <= 1 << 12 for _, rows, cells in groups), groups  # or one row
    assert len([rows for n, rows, _ in groups if n == 5]) >= 2


def test_outer_limits_of_a_whole_space_target_end_by_their_verdicts(tmp_path):
    # a graph and its complement at r = 1: the population mean set is all 2^15
    # graphs of nv = 6 and holds every estimate point, each at distance 0 from
    # it, so no point-to-target block is made (one of 2^15 x 2^15 cells made
    # the run exit 3); the address-space cap only makes such a block fail fast
    import resource
    import tracemalloc
    from pathlib import Path

    from frechet_means.cli import main

    config = tmp_path / "complement_pair.json"
    config.write_text(json.dumps({
        "schema": "experiment-config-v1", "space": "graph", "nv": 6,
        "support": ["6:111111100000000", "6:000000011111111"], "r": 1, "n_max": 4, "checkpoints": [2, 4],
        "replications": 20, "seed": 0, "limits": True, "epsilon": "0", "burn_in": 0,
    }))
    limits = resource.getrlimit(resource.RLIMIT_AS)
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = mapped + 2**30 if limits[1] == resource.RLIM_INFINITY else min(mapped + 2**30, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    tracemalloc.start()
    try:
        code = main(["simulate", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert code == 5  # the variance-trend block fails on two checkpoints
    assert peak < 64 * 2**20, peak
