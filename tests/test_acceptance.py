"""End-to-end acceptance gate.

Each test pins one headline guarantee of the package at a fixed tolerance,
checks it against an independent oracle where one exists, and prints a
single pass/fail line (run ``pytest tests/test_acceptance.py -v -s`` to see
them).  Budgets: the four-graph reproduction must answer in under 0.1 s,
the oscillation run in under 60 s, the convergence experiments in under
5 minutes.
"""

import statistics
import time
from fractions import Fraction
from math import comb, pi, sqrt

import numpy as np
import pytest

from conftest import FIXTURE_DIR, MEAN_SET_R1_TEXTS, MEAN_SET_R2_TEXTS
from frechet_means import (
    Graph,
    Sample,
    SetTrajectory,
    enumerate_space,
    graph_subspace,
    interval_grid,
    modulus_of_continuity,
    population_mean_set,
    restricted_sample_mean_set,
    sample_mean_set,
    tail_limsup,
    ziezold_limcsup,
)
from frechet_means.cli import main
from frechet_means.consistency_lab import (
    ExperimentConfig,
    GraphSpec,
    GridSpec,
    LimitParams,
    event_full_space,
    oscillation_stats,
    run_consistency_experiment,
)
from frechet_means.graph_space import n_edge_slots
from frechet_means.metric_core import MetricSpace, power_gamma
from oracles import mean_set_by_enumeration, modulus_by_triple_enumeration


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS - {detail}")


# ---------------------------------------------------------------------------
# shared experiment fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def g4_experiments(g4, mu_pair):
    """Restricted runs carry the unrestricted quantities too, so one
    experiment per order serves the convergence, inclusion, restricted and
    sandwich gates."""
    results = {}
    t0 = time.perf_counter()
    for r in (1, 2):
        cfg = ExperimentConfig(
            space_spec=GraphSpec(4),
            mu=mu_pair,
            r=r,
            n_max=10_000,
            checkpoints=(10, 100, 1000, 10_000),
            replications=200,
            seed=31415,
            restricted=True,
            limit_params=LimitParams(epsilon=Fraction(0), burn_in=2, min_visits=2),
        )
        results[r] = run_consistency_experiment(cfg, g4)
    elapsed = time.perf_counter() - t0
    return results, elapsed


@pytest.fixture(scope="module")
def oscillation_run(grid201, mu_pm):
    cfg = ExperimentConfig(
        space_spec=GridSpec(),
        mu=mu_pm,
        r=1,
        n_max=100,
        checkpoints=(100,),
        replications=10_000,
        seed=20240801,
        limit_params=None,
    )
    t0 = time.perf_counter()
    result = run_consistency_experiment(cfg, grid201)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1-2: the four-graph reproduction and its squared-order variant
# ---------------------------------------------------------------------------


def test_four_graph_mean_set_via_cli(capsys):
    fixture = str(FIXTURE_DIR / "g4_pair.graphs")
    assert main(["mean", fixture, "--r", "1"]) == 0  # warm-up (imports, caches)
    capsys.readouterr()
    t0 = time.perf_counter()
    code = main(["mean", fixture, "--r", "1"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    graphs = [line for line in out.splitlines() if not line.startswith("#")]
    assert graphs == list(MEAN_SET_R1_TEXTS)
    assert "# optimum: 1" in out.splitlines()
    assert "# sample ⊂ mean set: true (proper)" in out.splitlines()
    assert elapsed < 0.1
    report(
        "four-graph mean set (r=1, exact)",
        f"4 graphs, optimum 1, sample is a proper subset, {elapsed * 1000:.1f} ms",
    )


def test_squared_order_mean_set_matches_oracle(g4, s1, s2):
    result = sample_mean_set(g4, Sample((s1, s2)), 2)
    opt, argmin = mean_set_by_enumeration(g4, (s1, s2), 2, g4.points)
    assert result.exact
    assert result.optimum == opt == 1
    assert result.argmin == argmin
    assert tuple(g4.label(g) for g in result.argmin) == MEAN_SET_R2_TEXTS
    report("squared-order mean set vs brute-force oracle", "2 midpoint graphs, optimum 1, exact")


# ---------------------------------------------------------------------------
# 3-4: population mean sets on the 201-point grid
# ---------------------------------------------------------------------------


def test_grid_population_order1_is_the_whole_grid(grid201, mu_pm):
    result = population_mean_set(grid201, mu_pm, 1)
    assert result.exact
    assert result.optimum == Fraction(1)
    assert result.argmin == grid201.points
    assert len(result.argmin) == 201
    report("grid population mean (r=1)", "argmin is the entire 201-point grid, optimum exactly 1")


def test_grid_population_order2_is_the_origin(grid201, mu_pm):
    result = population_mean_set(grid201, mu_pm, 2)
    assert result.exact
    assert result.optimum == Fraction(1)
    assert result.argmin == (Fraction(0),)
    report("grid population mean (r=2)", "argmin is exactly {0}, optimum exactly 1")


# ---------------------------------------------------------------------------
# 5: oscillation frequency against the exact binomial value
# ---------------------------------------------------------------------------


def test_oscillation_rate_matches_exact_binomial(oscillation_run, grid201):
    result, elapsed = oscillation_run
    assert elapsed < 60.0
    p_exact = comb(100, 50) / 2**100
    stirling = 1.0 / sqrt(50 * pi)
    table = oscillation_stats(result, event_full_space(grid201), "full_space")
    (n, successes, reps, freq, _) = table.rows[0]
    assert (n, reps) == (100, 10_000)
    band = 3 * sqrt(p_exact * (1 - p_exact) / reps)
    assert abs(freq - p_exact) <= band
    report(
        "oscillation rate at n=100",
        f"frequency {freq:.4f} vs exact binomial {p_exact:.4f} "
        f"(3 s.e. band +/-{band:.4f}; Stirling comparison {stirling:.4f}); {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 6-9: convergence, inclusion, restricted laws, sandwich identities
# ---------------------------------------------------------------------------


def _median_errors(result, restricted=False):
    sigma = (result.population_restricted if restricted else result.population).optimum
    by_checkpoint = {}
    for pos, n in enumerate(result.config.checkpoints):
        errs = [
            abs((rec.stats[pos].sigma_hat_res if restricted else rec.stats[pos].sigma_hat) - sigma)
            for rec in result.records
        ]
        by_checkpoint[n] = statistics.median(errs)
    return by_checkpoint


def test_variance_convergence_trend(g4_experiments, g4):
    results, elapsed = g4_experiments
    assert elapsed < 300.0
    details = []
    for r, result in results.items():
        med = _median_errors(result)
        band = Fraction(5, 100) * Fraction(g4.bound_M) ** r
        assert med[10_000] < band
        # exact-arithmetic runs can hit the target exactly at both
        # checkpoints, in which case the error trend has already bottomed out
        assert med[10_000] < med[100] or med[10_000] == 0
        details.append(f"r={r}: median err {float(med[100]):.4g} (n=1e2) -> {float(med[10_000]):.4g} (n=1e4)")
    report("variance convergence trend", "; ".join(details) + f"; {elapsed:.1f} s total")


def test_outer_limit_inclusion_rate(g4_experiments):
    results, _ = g4_experiments
    for r, result in results.items():
        rate = sum(1 for rec in result.records if rec.kuratowski_included) / len(result.records)
        assert rate >= 0.99
        for rec in result.records:
            assert rec.kuratowski.epsilon == 0
            assert rec.kuratowski.min_visits == 2
    report("outer-limit inclusion", "visit-count estimate inside the population mean set in >= 99% of runs (r=1,2)")


def test_restricted_convergence_and_inclusion(g4_experiments, g4, s1, s2):
    results, _ = g4_experiments
    details = []
    for r, result in results.items():
        assert set(result.population_restricted.argmin) == {s1, s2}
        med = _median_errors(result, restricted=True)
        band = Fraction(5, 100) * Fraction(g4.bound_M) ** r
        assert med[10_000] < band
        assert med[10_000] < med[100] or med[10_000] == 0
        rate = sum(1 for rec in result.records if rec.kuratowski_included_res) / len(result.records)
        assert rate >= 0.99
        for rec in result.records:
            for stat in rec.stats:
                assert stat.subset_of_sampled  # restricted argmin drawn from observed points
        details.append(f"r={r}: median err* -> {float(med[10_000]):.4g}, inclusion {rate:.0%}")
    report("restricted consistency", "; ".join(details) + "; restricted mean sets always inside the sample")


def test_sandwich_identities_exact(g4_experiments):
    results, _ = g4_experiments
    rows = violations = violations_res = 0
    for result in results.values():
        for rec in result.records:
            for stat in rec.stats:
                rows += 1
                # all quantities are Fractions here: the comparisons are exact
                if not (stat.t_hat_max <= stat.t_star <= stat.t_theta_min):
                    violations += 1
                if not (stat.t_res_hat_max <= stat.tr_star <= stat.t_res_upper):
                    violations_res += 1
                assert isinstance(stat.t_star, Fraction)
    assert violations == 0
    assert violations_res == 0
    report("sandwich identities", f"0 violations in {rows} checkpoint rows (plain and restricted)")


# ---------------------------------------------------------------------------
# 10: the power-difference bound and the modulus of continuity
# ---------------------------------------------------------------------------


def test_power_difference_bound_bulk(g5):
    rng = np.random.Generator(np.random.PCG64(271828))
    checked = 0

    masks = np.arange(1 << n_edge_slots(5), dtype=np.uint32)
    z, x, y = (rng.integers(0, len(masks), size=100_000) for _ in range(3))
    dzx = np.bitwise_count(masks[z] ^ masks[x]).astype(np.int64)
    dzy = np.bitwise_count(masks[z] ^ masks[y]).astype(np.int64)
    dxy = np.bitwise_count(masks[x] ^ masks[y]).astype(np.int64)
    for r in (1, 2, 3):
        lhs = np.abs(dzx**r - dzy**r)
        rhs = power_gamma(r) * 10 ** (r - 1) * dxy
        assert int(np.count_nonzero(lhs > rhs)) == 0
        checked += len(lhs)

    zi, xi, yi = (rng.integers(0, 201, size=100_000) for _ in range(3))
    azx, azy, axy = (np.abs(a - b).astype(np.int64) for a, b in ((zi, xi), (zi, yi), (xi, yi)))
    for r in (1, 2, 3):
        lhs = np.abs(azx**r - azy**r)
        rhs = power_gamma(r) * 200 ** (r - 1) * axy
        assert int(np.count_nonzero(lhs > rhs)) == 0
        checked += len(lhs)

    report("power-difference bound", f"{checked} random triples across both spaces, 0 violations")


def test_modulus_bound_by_exhaustive_enumeration(g4):
    expected = {
        (1, Fraction(1, 2)): 0, (1, Fraction(3, 2)): 1, (1, Fraction(5, 2)): 2,
        (2, Fraction(1, 2)): 0, (2, Fraction(3, 2)): 11, (2, Fraction(5, 2)): 20,
        (3, Fraction(1, 2)): 0, (3, Fraction(3, 2)): 91, (3, Fraction(5, 2)): 152,
    }
    for (r, delta), value in expected.items():
        s = modulus_of_continuity(g4, g4.points, delta, r)
        assert s == value
        assert s == modulus_by_triple_enumeration(g4, g4.points, delta, r)
        assert s <= power_gamma(r) * Fraction(6) ** (r - 1) * delta
    report("modulus of continuity", "exhaustive triples on 64 graphs match the oracle and the Lipschitz bound")


# ---------------------------------------------------------------------------
# 11: the two outer-limit computations agree on finite spaces
# ---------------------------------------------------------------------------


def test_closed_tail_union_route_equals_direct_count():
    rng = np.random.Generator(np.random.PCG64(1618))
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(2, 24))
        pts = tuple(range(m))
        matrix = np.zeros((m, m), dtype=np.int64)
        coords = rng.integers(0, 50, size=m)
        for i in range(m):
            matrix[i] = np.abs(coords - coords[i])
        space = MetricSpace.from_int_matrix(pts, matrix, is_pseudo=True, name="cloud")
        sets = []
        for _ in range(200):
            size = int(rng.integers(0, 5))
            sets.append(frozenset(int(k) for k in rng.integers(0, m, size)))
        traj = SetTrajectory(space, tuple(sets))
        burn = int(rng.integers(0, 200))
        visits = int(rng.integers(1, 4))
        if ziezold_limcsup(traj, burn, visits) != tail_limsup(traj, burn, visits):
            mismatches += 1
    assert mismatches == 0
    report("closed-tail-union equivalence", "1000 random length-200 trajectories, 0 mismatches")


# ---------------------------------------------------------------------------
# 12: bulk oracle equivalence on random instances
# ---------------------------------------------------------------------------


def _random_space(rng):
    kind = rng.choice(["cloud", "grid", "graphs", "full", "pseudo"], p=[0.35, 0.25, 0.2, 0.12, 0.08])
    if kind == "cloud":
        m = int(rng.integers(2, 100))
        dim = int(rng.integers(1, 4))
        pts = {tuple(int(v) for v in rng.integers(-20, 21, dim)) for _ in range(m)}
        pts = tuple(sorted(pts))
        matrix = [[sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts]
        return MetricSpace.from_int_matrix(pts, matrix, name="cloud")
    if kind == "grid":
        step = rng.choice(["0.5", "0.25", "0.1", "1"])
        end = int(rng.integers(2, 30))
        grid = interval_grid("0", str(end), step)
        if rng.random() < 0.5 and len(grid) > 4:
            keep = sorted(set(int(k) for k in rng.integers(0, len(grid), len(grid) // 2)))
            matrix = [[abs(i - j) for j in keep] for i in keep]
            return MetricSpace.from_int_matrix([grid.points[i] for i in keep], matrix, scale=grid.scale)
        return grid
    if kind == "graphs":
        nv = int(rng.choice([5, 6, 7]))
        count = int(rng.integers(2, 80)) if nv < 7 else int(rng.integers(2, 40))
        top = 1 << n_edge_slots(nv)
        masks = {int(v) for v in rng.integers(0, top, count)}
        return graph_subspace([Graph(nv, m) for m in masks])
    if kind == "full":
        return enumerate_space(int(rng.choice([3, 4])))
    # pseudo: an L1 cloud with one duplicated point at distance zero
    m = int(rng.integers(2, 40))
    coords = [int(v) for v in rng.integers(0, 30, m)] + [None]
    coords[-1] = coords[0]
    matrix = [[abs(a - b) for b in coords] for a in coords]
    return MetricSpace.from_int_matrix(tuple(range(m + 1)), matrix, is_pseudo=True, name="pseudo")


def _big_space(rng):
    nv = 6
    top = 1 << n_edge_slots(nv)
    count = int(rng.integers(1024, 4097))
    masks = {int(v) for v in rng.integers(0, top, count)}
    return graph_subspace([Graph(nv, m) for m in masks])


def test_oracle_equivalence_on_random_instances():
    rng = np.random.Generator(np.random.PCG64(31337))
    total = 0
    for case in range(500):
        space = _big_space(rng) if case % 50 == 10 else _random_space(rng)
        assert len(space) <= 4096
        n_items = int(rng.integers(1, 7 if len(space) > 512 else 13))
        items = tuple(space.points[int(i)] for i in rng.integers(0, len(space), n_items))
        r = int(rng.integers(1, 4))
        sample = Sample(items)

        res = sample_mean_set(space, sample, r)
        opt, argmin = mean_set_by_enumeration(space, items, r, space.points)
        assert res.optimum == opt
        assert res.argmin == argmin

        res_r = restricted_sample_mean_set(space, sample, r)
        distinct = sorted(set(items), key=space.index)
        opt_r, argmin_r = mean_set_by_enumeration(space, items, r, distinct)
        assert res_r.optimum == opt_r
        assert res_r.argmin == argmin_r
        total += 1
    assert total == 500
    report("oracle equivalence", "500 random instances (plain and restricted), exact agreement")
