from fractions import Fraction

import numpy as np
import pytest

from frechet_means import (
    MetricSpace,
    SetTrajectory,
    enumerate_space,
    frechet_solver,
    interval_grid,
    kuratowski_limsup,
    population_mean_set,
    tail_limsup,
    ziezold_limcsup,
)
from frechet_means.consistency_lab import (
    ExperimentConfig,
    GridSpec,
    LimitParams,
    _draw_indices,
    _support_cdf,
    run_consistency_experiment,
)
from frechet_means.set_limits import _kuratowski_rows, default_burn_in
from oracles import inclusion_check


@pytest.fixture(scope="module")
def line9():
    return interval_grid("0", "8", "1")


def traj(space, *sets):
    return SetTrajectory(space, tuple(frozenset(s) for s in sets))


def p(k):
    return Fraction(k)


# ---------------------------------------------------------------------------
# tail / ziezold surrogates
# ---------------------------------------------------------------------------


def test_constant_trajectory(line9):
    t = traj(line9, *([{p(3)}] * 8))
    assert tail_limsup(t, burn_in=4) == {p(3)}
    assert ziezold_limcsup(t, burn_in=4) == {p(3)}


def test_alternating_trajectory(line9):
    sets = [{p(1)}, {p(2)}] * 5
    t = traj(line9, *sets)
    assert tail_limsup(t, burn_in=default_burn_in(len(t))) == {p(1), p(2)}
    assert ziezold_limcsup(t, burn_in=5) == {p(1), p(2)}


def test_transient_points_are_forgotten(line9):
    sets = [{p(0)}, {p(0)}, {p(5)}, {p(5)}, {p(5)}, {p(6), p(5)}]
    t = traj(line9, sets[0], *sets[1:])
    # p(0) only appears before the burn-in; p(6) appears once
    assert tail_limsup(t, burn_in=2) == {p(5)}
    assert tail_limsup(t, burn_in=2, min_visits=1) == {p(5), p(6)}


def test_ziezold_equals_tail_on_random_trajectories(line9):
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(60):
        n = int(rng.integers(1, 30))
        sets = []
        for _ in range(n):
            size = int(rng.integers(0, 4))
            sets.append(frozenset(p(int(k)) for k in rng.integers(0, 9, size)))
        t = SetTrajectory(line9, tuple(sets))
        burn = int(rng.integers(0, n))
        for visits in (1, 2, 3):
            assert ziezold_limcsup(t, burn, visits) == tail_limsup(t, burn, visits)


def test_burn_in_bounds_checked(line9):
    t = traj(line9, {p(0)})
    with pytest.raises(ValueError, match="burn_in"):
        tail_limsup(t, burn_in=1)
    with pytest.raises(ValueError, match="burn_in"):
        ziezold_limcsup(t, burn_in=-1)


def test_trajectory_membership_validated(line9):
    with pytest.raises(ValueError, match="not a point"):
        traj(line9, {Fraction(99)})


# ---------------------------------------------------------------------------
# kuratowski estimates
# ---------------------------------------------------------------------------


def test_kuratowski_constant_contains_the_point(line9):
    t = traj(line9, *([{p(3)}] * 6))
    for eps in (Fraction(1, 2), Fraction(1), Fraction(3)):
        est = kuratowski_limsup(t, eps, burn_in=3)
        assert p(3) in est.points
        assert est.epsilon == eps and est.burn_in == 3 and est.min_visits == 2


def test_kuratowski_strict_neighborhoods(line9):
    t = traj(line9, *([{p(3)}] * 6))
    est = kuratowski_limsup(t, Fraction(1), burn_in=0)
    assert est.points == {p(3)}  # d = 1 is not < 1
    est2 = kuratowski_limsup(t, Fraction(2), burn_in=0)
    assert est2.points == {p(2), p(3), p(4)}
    # a float epsilon is compared in floats, as strictly
    assert kuratowski_limsup(t, 1.0, burn_in=0).points == {p(3)}
    assert kuratowski_limsup(t, 2.0, burn_in=0).points == {p(2), p(3), p(4)}


def test_kuratowski_epsilon_zero_is_membership(line9):
    t = traj(line9, {p(1), p(2)}, {p(2)}, {p(2), p(7)})
    est = kuratowski_limsup(t, 0, burn_in=0)
    assert est.points == {p(2)}


@pytest.mark.parametrize("space_name", ["g4", "grid201"])
def test_kuratowski_epsilon_zero_equals_tail_limsup(request, space_name):
    space = request.getfixturevalue(space_name)
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(10):
        sets = [
            frozenset(space.points[int(k)] for k in rng.integers(0, 6, int(rng.integers(0, 4))))
            for _ in range(12)
        ]
        t = SetTrajectory(space, tuple(sets))
        for v in (1, 2, 3):
            for eps in (0, Fraction(0), 0.0):
                assert kuratowski_limsup(t, eps, burn_in=4, min_visits=v).points == tail_limsup(t, 4, v)


def test_kuratowski_epsilon_zero_credits_pseudo_metric_twins():
    # L1 distances on grid spots, as in the engine's pseudo-metric property
    # test: p9 and p6 sit on the same spot, at distance 0 but distinct
    spots = [(0, 0), (1, 2), (3, 1), (0, 0)]
    m = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in spots] for a in spots]
    space = MetricSpace.from_int_matrix(("p9", "p8", "p7", "p6"), m, is_pseudo=True)
    t = traj(space, {"p9"}, {"p9", "p8"}, {"p9"})
    assert tail_limsup(t, 0) == {"p9"}
    assert kuratowski_limsup(t, 0, burn_in=0).points == {"p9", "p6"}


def test_diverging_windows_leave_every_region():
    grid = interval_grid("0", "20", "1")
    n_steps = 60
    sets = []
    for n in range(1, n_steps + 1):
        sets.append(frozenset(q for q in (Fraction(n - 1), Fraction(n + 1)) if q in grid))
    t = SetTrajectory(grid, tuple(sets))
    est = kuratowski_limsup(t, Fraction(1, 2), burn_in=default_burn_in(n_steps))
    assert est.points == frozenset()  # the tail sets are all empty: d(x, {}) = inf
    assert tail_limsup(t, default_burn_in(n_steps)) == frozenset()


def test_empty_sets_grant_no_visits(line9):
    t = traj(line9, frozenset(), frozenset(), frozenset())
    assert kuratowski_limsup(t, Fraction(5), burn_in=0, min_visits=1).points == frozenset()
    assert tail_limsup(t, 0, min_visits=1) == frozenset()


def test_kuratowski_monotone_in_epsilon_and_visits(line9):
    rng = np.random.Generator(np.random.PCG64(21))
    sets = [frozenset(p(int(k)) for k in rng.integers(0, 9, 3)) for _ in range(12)]
    t = SetTrajectory(line9, tuple(sets))
    eps_grid = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    prev = frozenset()
    for eps in eps_grid:
        cur = kuratowski_limsup(t, eps, burn_in=6, min_visits=2).points
        assert prev <= cur
        prev = cur
    for eps in eps_grid:
        by_visits = [
            kuratowski_limsup(t, eps, burn_in=6, min_visits=v).points for v in (1, 2, 3, 4)
        ]
        for smaller, larger in zip(by_visits[1:], by_visits):
            assert smaller <= larger


def test_containment_chain_tail_inside_kuratowski(line9):
    rng = np.random.Generator(np.random.PCG64(22))
    for _ in range(20):
        sets = [frozenset(p(int(k)) for k in rng.integers(0, 9, int(rng.integers(0, 4)))) for _ in range(10)]
        t = SetTrajectory(line9, tuple(sets))
        tail = tail_limsup(t, 5)
        for eps in (Fraction(1, 2), Fraction(3)):
            assert tail <= kuratowski_limsup(t, eps, 5, min_visits=1).points


def test_epsilon_must_be_nonnegative(line9):
    t = traj(line9, {p(0)})
    with pytest.raises(ValueError, match="epsilon"):
        kuratowski_limsup(t, -1, burn_in=0)


def test_nan_epsilon_is_refused(line9):
    # NaN fails every comparison, so a "< 0" test let it run as epsilon 0
    t = traj(line9, {p(0)}, {p(0)})
    with pytest.raises(ValueError, match="epsilon"):
        kuratowski_limsup(t, float("nan"), burn_in=0)


def test_kuratowski_scan_stays_within_the_cell_budget():
    # epsilon = 2 on the 2^15 graphs of nv = 6: each tail set's neighbourhood
    # takes a scan of the space, made a block of at most the cell budget at a
    # time, so the traced peak stays within 8 budgets of int64 cells (4 MB),
    # where one whole 2^15 x 512 block took 128 MB
    import tracemalloc

    space = enumerate_space(6)
    rng = np.random.default_rng(6)
    sets = [tuple(sorted(rng.choice(1 << 15, 512, replace=False).tolist())) for _ in range(2)]
    tracemalloc.start()
    try:
        rows, idx = _kuratowski_rows(space, np.array([[0, 1, 0, 1]]), sets, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * frechet_solver._CHUNK_CELLS, peak
    # d < 2 is Hamming distance at most 1, and each set is visited twice
    near = {x ^ bit for s in sets for x in s for bit in (0, *(1 << k for k in range(15)))}
    assert rows.tolist() == [0] * len(near) and idx.tolist() == sorted(near)


# ---------------------------------------------------------------------------
# inclusion checks
# ---------------------------------------------------------------------------


def test_empty_estimate_is_included_in_anything(line9):
    assert inclusion_check(line9, frozenset(), frozenset()).included
    assert inclusion_check(line9, frozenset(), {p(1)}).included


def test_singleton_inclusion(line9):
    rep = inclusion_check(line9, {p(1)}, {p(1), p(2)})
    assert rep.included and rep.violations == ()


def test_violations_carry_distances(line9):
    rep = inclusion_check(line9, {p(0), p(5)}, {p(1)})
    assert not rep.included
    assert rep.violations == ((p(0), 1), (p(5), 4))
    rep_empty_target = inclusion_check(line9, {p(0)}, frozenset())
    assert rep_empty_target.violations[0][1] == float("inf")


# ---------------------------------------------------------------------------
# scenario fixtures (seeds frozen after a documented search)
# ---------------------------------------------------------------------------


def test_oscillating_median_tail_is_the_two_endpoints(grid201, mu_pm):
    # Seed 227: the running-sign trajectory of the order-1 mean set crosses
    # zero exactly once in the tail half, so interior points are visited only
    # once while both endpoints recur; the tail estimate is exactly {-1, +1}.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(227)))
    idx = _draw_indices(_support_cdf(mu_pm), 10_000, rng)
    sup_idx = grid201.indices(mu_pm.support)
    all_idx = np.arange(len(grid201), dtype=np.intp)
    block = grid201.int_block(all_idx, sup_idx).astype(np.int64)
    counts = np.zeros(2, dtype=np.int64)
    sets = []
    for n in range(1, 10_001):
        counts[idx[n - 1]] += 1
        scores = block @ counts
        best = scores.min()
        sets.append(frozenset(grid201.points[i] for i in np.nonzero(scores == best)[0]))
    t = SetTrajectory(grid201, tuple(sets))
    est = tail_limsup(t, burn_in=default_burn_in(len(t)))
    assert est == {Fraction(-1), Fraction(1)}
    assert ziezold_limcsup(t, burn_in=default_burn_in(len(t))) == est
    # the estimate is a subset of the order-1 population mean set (everything)
    target = set(population_mean_set(grid201, mu_pm, 1).argmin)
    assert inclusion_check(grid201, est, target).included


def test_squared_error_trajectory_concentrates_at_zero(grid201, mu_pm):
    # Seed 7: the checkpoint mean sets for r=2 are singletons at the grid
    # point nearest the running average, and land exactly on 0 at the two
    # tail checkpoints, so the epsilon = 0.05 estimate is the nine grid
    # points strictly within 0.05 of 0.
    cfg = ExperimentConfig(
        space_spec=GridSpec(),
        mu=mu_pm,
        r=2,
        n_max=10_000,
        checkpoints=(10, 100, 1000, 10_000),
        replications=1,
        seed=7,
        limit_params=LimitParams(epsilon=Fraction(1, 20), burn_in=2, min_visits=2),
    )
    result = run_consistency_experiment(cfg, grid201)
    rec = result.records[0]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 0])))
    idx = _draw_indices(_support_cdf(mu_pm), 10_000, rng)
    steps = np.where(idx == 1, 1, -1)
    partial = np.cumsum(steps)
    for stat in rec.stats:
        xbar = Fraction(int(partial[stat.n - 1]), stat.n)
        assert len(stat.mean_set) <= 2
        for point in (grid201.points[i] for i in stat.mean_set):
            assert abs(point - xbar) <= Fraction(1, 200)  # nearest grid point(s)
    expected = frozenset(Fraction(k, 100) for k in range(-4, 5))
    assert rec.kuratowski.points == expected
    assert all(abs(q) < Fraction(1, 20) for q in rec.kuratowski.points)
