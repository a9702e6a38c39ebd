import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import MEAN_SET_R1_TEXTS, MEAN_SET_R2_TEXTS
from frechet_means import (
    DiscreteMeasure,
    Graph,
    MetricSpace,
    Sample,
    enumerate_space,
    format_graph,
    graph_subspace,
    interval_grid,
    population_mean_set,
    restricted_population_mean_set,
    restricted_sample_mean_set,
    sample_mean_set,
)
from oracles import mean_set_by_enumeration, population_by_enumeration


# ---------------------------------------------------------------------------
# the canonical two-graph sample
# ---------------------------------------------------------------------------


def test_pair_mean_set_order1_contains_sample_properly(g4, s1, s2):
    res = sample_mean_set(g4, Sample((s1, s2)), 1)
    assert res.optimum == 1
    assert res.exact and res.candidate_domain == "full_space"
    assert tuple(format_graph(g) for g in res.argmin) == MEAN_SET_R1_TEXTS
    assert {s1, s2} < set(res.argmin)  # proper subset


def test_pair_mean_set_order2_is_the_two_midpoints(g4, s1, s2):
    res = sample_mean_set(g4, Sample((s1, s2)), 2)
    assert res.optimum == 1
    assert tuple(format_graph(g) for g in res.argmin) == MEAN_SET_R2_TEXTS
    opt, argmin = mean_set_by_enumeration(g4, (s1, s2), 2, g4.points)
    assert (res.optimum, res.argmin) == (opt, argmin)


def test_constant_sample_has_zero_optimum(g4, s1):
    res = sample_mean_set(g4, Sample((s1, s1, s1)), 2)
    assert res.optimum == 0
    assert res.argmin == (s1,)  # coincidence holds, so the argmin is unique


def test_restricted_pair_mean_is_the_sample(g4, s1, s2):
    res = restricted_sample_mean_set(g4, Sample((s1, s2)), 1)
    assert res.optimum == 1
    assert set(res.argmin) == {s1, s2}
    assert res.candidate_domain == "sample_support"
    res2 = restricted_sample_mean_set(g4, Sample((s1, s2)), 2)
    assert res2.optimum == 2
    assert set(res2.argmin) == {s1, s2}


def test_single_point_restricted(g4, s1):
    res = restricted_sample_mean_set(g4, Sample((s1,)), 3)
    assert res.argmin == (s1,) and res.optimum == 0


# ---------------------------------------------------------------------------
# grid examples
# ---------------------------------------------------------------------------


def test_grid_population_order1_whole_grid(grid201, mu_pm):
    res = population_mean_set(grid201, mu_pm, 1)
    assert res.optimum == 1
    assert res.argmin == grid201.points
    assert res.exact


def test_grid_population_order2_singleton(grid201, mu_pm):
    res = population_mean_set(grid201, mu_pm, 2)
    assert res.optimum == 1
    assert res.argmin == (Fraction(0),)


def test_grid_population_point_mass(grid201):
    mu = DiscreteMeasure((Fraction(-37, 100),), (Fraction(1),))
    res = population_mean_set(grid201, mu, 2)
    assert Fraction(-37, 100) in res.argmin
    assert res.optimum == 0


def test_restricted_population_excludes_center_of_mass(grid201, mu_pm):
    res = restricted_population_mean_set(grid201, mu_pm, 2)
    assert res.optimum == 2
    assert res.argmin == (Fraction(-1), Fraction(1))
    assert res.candidate_domain == "measure_support"
    unrestricted = population_mean_set(grid201, mu_pm, 2)
    assert unrestricted.optimum == 1  # the restriction strictly costs here


def test_restricted_population_point_mass(grid201):
    mu = DiscreteMeasure((Fraction(1, 4),), (Fraction(1),))
    res = restricted_population_mean_set(grid201, mu, 1)
    assert res.argmin == (Fraction(1, 4),)


def test_restricted_population_on_graphs(g4, mu_pair, s1, s2):
    res = restricted_population_mean_set(g4, mu_pair, 1)
    assert res.optimum == 1
    assert set(res.argmin) == {s1, s2}


def test_restricted_sample_weighted_grid(grid201):
    sample = Sample((Fraction(-1), Fraction(-1), Fraction(-1), Fraction(1)))
    res = restricted_sample_mean_set(grid201, sample, 2)
    assert res.argmin == (Fraction(-1),)
    assert res.optimum == 1  # (0*3 + 4) / 4


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def _random_instance(rng, space):
    n_items = int(rng.integers(1, 9))
    items = tuple(space.points[int(i)] for i in rng.integers(0, len(space), n_items))
    r = int(rng.integers(1, 4))
    return Sample(items), r


def test_restriction_inequality(g4):
    rng = np.random.Generator(np.random.PCG64(41))
    for _ in range(40):
        sample, r = _random_instance(rng, g4)
        full = sample_mean_set(g4, sample, r)
        restricted = restricted_sample_mean_set(g4, sample, r)
        assert restricted.optimum >= full.optimum
        intersects = bool(set(full.argmin) & set(restricted.argmin))
        assert (restricted.optimum == full.optimum) == intersects


def test_sample_equals_population_of_empirical_measure(g4):
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(25):
        sample, r = _random_instance(rng, g4)
        by_sample = sample_mean_set(g4, sample, r)
        by_measure = population_mean_set(g4, DiscreteMeasure.empirical(sample), r)
        assert by_sample.optimum == by_measure.optimum
        assert by_sample.argmin == by_measure.argmin


def test_pseudo_metric_coherence():
    # b duplicates a at distance zero; they must enter or leave argmin together
    m = [[0, 0, 2, 3], [0, 0, 2, 3], [2, 2, 0, 1], [3, 3, 1, 0]]
    space = MetricSpace.from_int_matrix(("a", "b", "c", "d"), m, is_pseudo=True, name="pseudo")
    for items in [("c", "d"), ("a", "d"), ("a", "b", "c"), ("d",)]:
        for r in (1, 2):
            res = sample_mean_set(space, Sample(items), r)
            assert ("a" in res.argmin) == ("b" in res.argmin)


def test_chunking_does_not_change_results(g4, grid201, mu_pm, s1, s2, cell_budget):
    sample = Sample((s1, s2, s1))
    baseline = sample_mean_set(g4, sample, 2)
    for chunk in (1, 3, 17, 64, 10**6):
        with cell_budget(chunk):
            again = sample_mean_set(g4, sample, 2)
        assert again == baseline
    gsample = Sample((Fraction(-1), Fraction(1), Fraction(1)))
    baseline = sample_mean_set(grid201, gsample, 1)
    for chunk in (1, 50, 201):
        with cell_budget(chunk):
            assert sample_mean_set(grid201, gsample, 1) == baseline


def test_sample_items_must_belong_to_space(g4, grid201, s1):
    with pytest.raises(ValueError, match="not a point"):
        sample_mean_set(g4, Sample((Fraction(0),)), 1)
    with pytest.raises(ValueError, match="not a point"):
        restricted_sample_mean_set(grid201, Sample((s1,)), 1)


def test_population_support_must_belong_to_space(g4):
    mu = DiscreteMeasure((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="not a point"):
        population_mean_set(g4, mu, 1)


# ---------------------------------------------------------------------------
# float path
# ---------------------------------------------------------------------------


def _float_space(values):
    n = len(values)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            m[i, j] = abs(values[i] - values[j])
    return MetricSpace.from_float_matrix(tuple(range(n)), m, name="line")


def test_float_path_collects_near_ties():
    # the third point sits 8e-10 above the optimum in relative terms: a tie
    space = _float_space([0.0, 1.0, 1.0 + 4e-10])
    res = sample_mean_set(space, Sample((0, 1)), 1.0)
    assert not res.exact
    assert isinstance(res.optimum, float)
    assert set(res.argmin) == {0, 1, 2}


def test_float_path_excludes_points_past_the_tolerance():
    space = _float_space([0.0, 1.0, 1.0 + 1e-8])  # 2e-8 relative: a loser
    res = sample_mean_set(space, Sample((0, 1)), 1.0)
    assert set(res.argmin) == {0, 1}
    assert res.optimum == pytest.approx(0.5)


def test_non_integer_order_uses_float_path(g4, s1, s2):
    res = sample_mean_set(g4, Sample((s1, s2)), 1.5)
    assert not res.exact
    # for r > 1 only the two equidistant midpoint graphs survive:
    # (1 + 1)/2 beats (0 + 2^r)/2 as soon as r exceeds 1
    assert set(res.argmin) == set(sample_mean_set(g4, Sample((s1, s2)), 2).argmin)
    assert res.optimum == pytest.approx(1.0)


def test_large_order_falls_back_to_bigint(g4, s1, s2):
    res = sample_mean_set(g4, Sample((s1, s2)), 40)  # 6^40 overflows int64
    assert res.exact
    assert res.optimum == 1  # the midpoint graphs still score (1 + 1)/2
    opt, argmin = mean_set_by_enumeration(g4, (s1, s2), 40, g4.points)
    assert (res.optimum, res.argmin) == (opt, argmin)


def test_restricted_beyond_enumeration_via_subspace(s1, s2):
    # nv = 8 cannot be enumerated under the default cap, but restricted
    # candidates are just the observed graphs
    from frechet_means import parse_graph

    a = parse_graph("8:" + "1" + "0" * 27)
    b = parse_graph("8:" + "0" * 27 + "1")
    sub = graph_subspace([a, b])
    res = restricted_sample_mean_set(sub, Sample((a, b, b)), 1)
    assert res.argmin == (b,) if b < a else (b,)
    assert res.optimum == Fraction(2, 3)


def test_oracle_spot_checks_on_random_spaces():
    rng = np.random.Generator(np.random.PCG64(77))
    grid = interval_grid("0", "2", "0.25")
    for _ in range(30):
        sample, r = _random_instance(rng, grid)
        res = sample_mean_set(grid, sample, r)
        opt, argmin = mean_set_by_enumeration(grid, sample.items, r, grid.points)
        assert (res.optimum, res.argmin) == (opt, argmin)
        res2 = restricted_sample_mean_set(grid, sample, r)
        opt2, argmin2 = mean_set_by_enumeration(
            grid, sample.items, r, sorted(set(sample.items))
        )
        assert (res2.optimum, res2.argmin) == (opt2, argmin2)


def test_population_oracle_spot_checks(g4):
    rng = np.random.Generator(np.random.PCG64(78))
    for _ in range(20):
        size = int(rng.integers(1, 6))
        support = sorted({g4.points[int(i)] for i in rng.integers(0, 64, size)})
        raw = [int(v) for v in rng.integers(1, 9, len(support))]
        weights = [Fraction(v, sum(raw)) for v in raw]
        mu = DiscreteMeasure(tuple(support), tuple(weights))
        r = int(rng.integers(1, 4))
        pairs = list(zip(mu.support, mu.weights))
        res = population_mean_set(g4, mu, r)
        opt, argmin = population_by_enumeration(g4, pairs, r, g4.points)
        assert (res.optimum, res.argmin) == (opt, argmin)
        res2 = restricted_population_mean_set(g4, mu, r)
        opt2, argmin2 = population_by_enumeration(g4, pairs, r, mu.support)
        assert (res2.optimum, res2.argmin) == (opt2, argmin2)


# ---------------------------------------------------------------------------
# the headline size: every graph on 7 vertices
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nv7_sample_scores():
    """A seeded 50-graph nv=7 sample and its r=1, r=2 scores over all 2^21
    edge masks, from a popcount table built here with numpy alone."""
    masks = np.arange(1 << 21, dtype=np.int32)
    popcount = np.zeros(1 << 21, dtype=np.uint8)
    for bit in range(21):
        popcount += ((masks >> bit) & 1).astype(np.uint8)
    sample = [int(m) for m in np.random.default_rng(2007).integers(0, 1 << 21, 50)]
    scores = {1: np.zeros(1 << 21, dtype=np.int32), 2: np.zeros(1 << 21, dtype=np.int32)}
    for m in sample:
        d = popcount[masks ^ m].astype(np.int32)
        scores[1] += d
        scores[2] += d * d
    return sample, scores


@pytest.mark.parametrize("r", [1, 2])
def test_nv7_full_space_mean_set_matches_popcount_table(nv7_sample_scores, r):
    sample, scores = nv7_sample_scores
    res = sample_mean_set(enumerate_space(7), Sample(tuple(Graph(7, m) for m in sample)), r)
    best = int(scores[r].min())
    assert res.optimum == Fraction(best, len(sample))
    assert [(g.nv, g.edges) for g in res.argmin] == [(7, int(m)) for m in np.flatnonzero(scores[r] == best)]


def test_exact_full_graph_space_means_skip_the_distance_kernel(monkeypatch):
    # r = 1 reads the mean set off per edge slot and r >= 2 uses the orbit
    # scorer: neither gathers distances, and the orbit scorer reduces its
    # scores a tile of 2^16 cells at a time, so no 2^21-entry score vector
    # (16 MB) is held, let alone a 2^21 x 50 block (100 MB even as uint8)
    def refuse(self, rows, cols):
        raise AssertionError("int_block called")

    monkeypatch.setattr(MetricSpace, "int_block", refuse)
    space = enumerate_space(7)
    rng = np.random.default_rng(2008)
    sample = Sample(tuple(Graph(7, int(m)) for m in rng.integers(0, 1 << 21, 50)))
    mu = DiscreteMeasure.empirical(sample)
    for r in (1, 2, 3):
        tracemalloc.start()
        try:
            res = sample_mean_set(space, sample, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exact and res.argmin
        assert peak < 12 * 2**20, (r, peak)
        assert population_mean_set(space, mu, r) == res
    with pytest.raises(AssertionError, match="int_block called"):
        restricted_sample_mean_set(space, sample, 2)


@pytest.mark.parametrize("distance", [1, 2, 9, 14])
def test_two_graph_population_mean_is_every_midpoint(distance):
    # at r = 2, the mean set of two equally weighted graphs at distance D is
    # every graph that agrees with both where they agree and sits D/2 from
    # each (even D), or (D - 1)/2 from one and (D + 1)/2 from the other (odd D)
    from math import comb

    from frechet_means import ExperimentConfig, GraphSpec, run_consistency_experiment

    rng = np.random.default_rng(distance)
    x = int(rng.integers(0, 1 << 21))
    differ = sum(1 << int(k) for k in rng.choice(21, distance, replace=False))
    space = enumerate_space(7)
    mu = DiscreteMeasure.uniform((Graph(7, x), Graph(7, x ^ differ)))
    size = comb(distance, distance // 2) if distance % 2 == 0 else 2 * comb(distance, (distance - 1) // 2)
    cfg = ExperimentConfig(
        space_spec=GraphSpec(7), mu=mu, r=2, n_max=2, checkpoints=(2,), replications=1, limit_params=None,
    )
    engine_target = run_consistency_experiment(cfg, space).population
    for res in (population_mean_set(space, mu, 2), engine_target):
        assert res.size == size
        assert all((g.edges ^ x) & ~differ == 0 for g in res.argmin)  # agrees with both where they agree
    assert engine_target == population_mean_set(space, mu, 2)


def test_mean_set_builds_no_point_until_argmin_is_read(monkeypatch):
    # a graph and its complement at r = 1 tie on every graph of the space; the
    # result keeps the 2^15 ties as indices and builds graphs only when read
    from frechet_means.graph_space import _AllGraphs

    space = enumerate_space(6)
    built = []
    getitem = _AllGraphs.__getitem__
    monkeypatch.setattr(_AllGraphs, "__getitem__", lambda self, i: built.append(i) or getitem(self, i))
    res = sample_mean_set(space, Sample((Graph(6, 0b101), Graph(6, 0x7FFF ^ 0b101))), 1)
    assert res.size == 2**15 and res.indices == tuple(range(2**15))
    assert not built
    assert res.argmin[-1] == Graph(6, 0x7FFF) and len(built) == 2**15
    assert res.argmin is res.argmin and len(built) == 2**15  # built once
