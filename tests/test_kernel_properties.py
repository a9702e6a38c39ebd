"""Property tests of the exact scoring kernel against the naive oracles.

They cover rational measure weights brought to a common denominator, the
int64 / Python-int switch of the overflow guard, order-1 mean sets of full
graph spaces read off per edge slot, the independence of
sample mean sets from the candidate chunk size, the float path at
non-integer orders against a float oracle, the outer-limit estimators
against a counting oracle, and the consistency engine's agreement with the
solver, the functionals and the counting oracle on exact, float and
pseudo-metric spaces.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_means import (
    DiscreteMeasure,
    ExperimentConfig,
    Graph,
    GraphSpec,
    GridSpec,
    LimitParams,
    MetricSpace,
    Sample,
    SetTrajectory,
    enumerate_space,
    interval_grid,
    kuratowski_limsup,
    population_functional,
    population_mean_set,
    restricted_population_mean_set,
    restricted_sample_mean_set,
    run_consistency_experiment,
    sample_functional,
    sample_mean_set,
    tail_limsup,
    ziezold_limcsup,
)
from frechet_means.consistency_lab import _draw_indices, replication_rng
from frechet_means.graph_space import n_edge_slots
from frechet_means.metric_core import _INT64_SAFE, _exact_power_block, _weights
from frechet_means.set_limits import default_burn_in
from oracles import (
    float_functional_by_enumeration,
    mean_set_by_enumeration,
    population_by_enumeration,
    tail_limsup_by_counting,
    zero_distance_hull,
)

G4 = enumerate_space(4)
GRID = interval_grid("0", "2", "0.25")
SPACES = {"g4": G4, "grid": GRID}

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def measures(draw, space, include=()):
    """A measure on a few distinct points (always on ``include``) whose weights have mixed denominators."""
    positions = draw(st.lists(st.integers(0, len(space) - 1), min_size=1, max_size=5, unique=True))
    positions += [i for i in include if i not in positions]
    raw = [
        Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
        for _ in positions
    ]
    total = sum(raw)
    return DiscreteMeasure(tuple(space.points[i] for i in positions), tuple(w / total for w in raw))


@PROPERTY_SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(SPACES)), r=st.integers(1, 3))
def test_population_means_match_oracle(data, name, r):
    space = SPACES[name]
    mu = data.draw(measures(space))
    pairs = list(zip(mu.support, mu.weights))

    res = population_mean_set(space, mu, r)
    assert res.exact
    assert (res.optimum, res.argmin) == population_by_enumeration(space, pairs, r, space.points)

    res = restricted_population_mean_set(space, mu, r)
    assert res.exact
    assert (res.optimum, res.argmin) == population_by_enumeration(space, pairs, r, mu.support)


# Distances up to 2^20 at r = 3 put max_d**r at 2^60, so a total weight of
# 3 stays below the guard and a total weight of 4 lands exactly on 2^62.
GUARD_MAX_D = 2**20
GUARD_R = 3
GUARD_POINTS = ("a", "b", "c", "d", "e")


@st.composite
def near_guard_spaces(draw):
    n = len(GUARD_POINTS)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = draw(st.integers(GUARD_MAX_D - 8, GUARD_MAX_D))
    return MetricSpace.from_int_matrix(GUARD_POINTS, m, bound_M=GUARD_MAX_D, name="near-guard")


def _assert_guard_side(space, total_weight):
    idx = np.arange(len(space), dtype=np.intp)
    block = _exact_power_block(space, idx, idx, GUARD_R, total_weight)
    below = GUARD_MAX_D**GUARD_R * total_weight < _INT64_SAFE
    assert block.dtype == (np.int64 if below else object)


@PROPERTY_SETTINGS
@given(space=near_guard_spaces(), data=st.data(), n=st.sampled_from([3, 4]))
def test_sample_means_on_both_sides_of_the_guard(space, data, n):
    _assert_guard_side(space, n)
    items = tuple(data.draw(st.lists(st.sampled_from(GUARD_POINTS), min_size=n, max_size=n)))
    sample = Sample(items)

    res = sample_mean_set(space, sample, GUARD_R)
    assert res.exact
    assert (res.optimum, res.argmin) == mean_set_by_enumeration(space, items, GUARD_R, space.points)

    res = restricted_sample_mean_set(space, sample, GUARD_R)
    assert res.exact
    candidates = sorted(set(items), key=space.index)
    assert (res.optimum, res.argmin) == mean_set_by_enumeration(space, items, GUARD_R, candidates)


@PROPERTY_SETTINGS
@given(
    space=near_guard_spaces(),
    data=st.data(),
    weights=st.sampled_from(
        [
            (Fraction(1, 3), Fraction(2, 3)),  # denominator 3: below the guard
            (Fraction(1, 4), Fraction(3, 4)),  # denominator 4: exactly at it
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),  # denominator 6: above it
        ]
    ),
)
def test_population_means_on_both_sides_of_the_guard(space, data, weights):
    support = data.draw(
        st.lists(st.sampled_from(GUARD_POINTS), min_size=len(weights), max_size=len(weights), unique=True)
    )
    mu = DiscreteMeasure(tuple(support), weights)
    _assert_guard_side(space, math.lcm(*(w.denominator for w in weights)))
    pairs = list(zip(mu.support, mu.weights))

    res = population_mean_set(space, mu, GUARD_R)
    assert res.exact
    assert (res.optimum, res.argmin) == population_by_enumeration(space, pairs, GUARD_R, space.points)

    res = restricted_population_mean_set(space, mu, GUARD_R)
    assert res.exact
    assert (res.optimum, res.argmin) == population_by_enumeration(space, pairs, GUARD_R, mu.support)


# Order-1 means of full graph spaces come from per-slot majorities, not from
# scoring every graph, so they are drawn where ties are many: complementary
# graphs split every slot evenly, and an even n can split any slot.
FULL_GRAPH_SPACES = {nv: enumerate_space(nv) for nv in range(1, 6)}


@st.composite
def tie_heavy_samples(draw, nv):
    full = (1 << n_edge_slots(nv)) - 1
    masks = st.integers(0, full)
    kind = draw(st.sampled_from(["any", "even n", "repeated", "complementary pairs", "all free"]))
    if kind == "any":
        items = draw(st.lists(masks, min_size=1, max_size=7))
    elif kind == "even n":
        items = draw(st.lists(masks, min_size=2, max_size=8).filter(lambda xs: len(xs) % 2 == 0))
    elif kind == "repeated":
        items = draw(st.lists(masks, min_size=1, max_size=3)) * draw(st.integers(2, 3))
    else:
        base = draw(st.lists(masks, min_size=1, max_size=3))
        items = base + [m ^ full for m in base]
        if kind == "complementary pairs":
            items += draw(st.lists(masks, max_size=2))
    return [Graph(nv, m) for m in items]


@st.composite
def tie_heavy_measures(draw, nv, big_lcd):
    """Mixed-denominator measures, or (``big_lcd``) measures whose weights
    have a common denominator of at least 2^62; either may charge
    complementary graphs equally, which leaves every slot free."""
    space = FULL_GRAPH_SPACES[nv]
    full = len(space) - 1
    x = Fraction(1, 2**62 + draw(st.integers(0, 99))) if big_lcd else None
    if draw(st.booleans()) and len(space) >= 4:
        half = draw(st.lists(st.integers(0, full >> 1), min_size=2, max_size=3, unique=True))
        raw = [Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12))) for _ in half]
        pair_weights = [w / (2 * sum(raw)) for w in raw]
        if big_lcd:  # the first pair takes x each; the others share the rest
            rest = sum(raw[1:])
            pair_weights = [x] + [w * (Fraction(1, 2) - x) / rest for w in raw[1:]]
        support = half + [m ^ full for m in half]
        weights = pair_weights + pair_weights
    else:
        mu = draw(measures(space))
        if not big_lcd or len(mu.support) < 2:
            return mu
        support = [space.index(g) for g in mu.support]
        weights = [x] + [w * (1 - x) / sum(mu.weights[1:]) for w in mu.weights[1:]]
    return DiscreteMeasure(tuple(Graph(nv, m) for m in support), tuple(weights))


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5))
def test_order1_sample_means_of_full_graph_spaces_match_oracle(data, nv):
    space = FULL_GRAPH_SPACES[nv]
    items = data.draw(tie_heavy_samples(nv))
    res = sample_mean_set(space, Sample(tuple(items)), 1)
    assert res.exact
    assert (res.optimum, res.argmin) == mean_set_by_enumeration(space, items, 1, space.points)


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5), big_lcd=st.booleans())
def test_order1_population_means_of_full_graph_spaces_match_oracle(data, nv, big_lcd):
    space = FULL_GRAPH_SPACES[nv]
    mu = data.draw(tie_heavy_measures(nv, big_lcd))
    weights = _weights(space, mu, 1)[1]
    assert weights.dtype == (object if big_lcd and len(mu.support) > 1 else np.int64)
    res = population_mean_set(space, mu, 1)
    assert res.exact
    pairs = list(zip(mu.support, mu.weights))
    assert (res.optimum, res.argmin) == population_by_enumeration(space, pairs, 1, space.points)


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(sorted(SPACES)),
    data=st.data(),
    r=st.sampled_from([1, 2, 3, 1.5]),
    chunk_size=st.integers(1, 80),
)
def test_sample_mean_set_is_chunk_size_invariant(name, data, r, chunk_size):
    space = SPACES[name]
    items = data.draw(st.lists(st.sampled_from(space.points), min_size=1, max_size=8))
    sample = Sample(tuple(items))
    assert sample_mean_set(space, sample, r, chunk_size=chunk_size) == sample_mean_set(space, sample, r)


# Euclidean distances between points of the plane: a space with no integer lattice.
_PLANE = ((0.0, 0.0), (1.0, 0.3), (0.4, 1.1), (1.7, 1.2), (0.9, 0.8), (2.1, 0.1), (1.3, 2.0))
PLANE = MetricSpace.from_float_matrix(
    tuple("abcdefg"), [[math.dist(p, q) for q in _PLANE] for p in _PLANE], name="plane"
)
FLOAT_PATH_SPACES = {**SPACES, "plane": PLANE}


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(FLOAT_PATH_SPACES)),
    r=st.sampled_from([1.5, 2.5]),
    kind=st.sampled_from(["sample", "rational measure", "float measure"]),
)
def test_float_path_matches_float_oracle(data, name, r, kind):
    space = FLOAT_PATH_SPACES[name]
    if kind == "sample":
        items = tuple(data.draw(st.lists(st.sampled_from(space.points), min_size=1, max_size=8)))
        given_data, pairs = Sample(items), [(x, Fraction(1, len(items))) for x in items]
        functional, mean_set = sample_functional, sample_mean_set
    else:
        mu = data.draw(measures(space))
        if kind == "float measure":
            k = len(mu.support)
            raw = data.draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
            mu = DiscreteMeasure(mu.support, tuple(w / math.fsum(raw) for w in raw))
        given_data, pairs = mu, list(zip(mu.support, mu.weights))
        functional, mean_set = population_functional, population_mean_set
    oracle = {c: float_functional_by_enumeration(space, pairs, r, c) for c in space.points}

    for c in space.points:
        value = functional(space, given_data, c, r)
        assert isinstance(value, float)
        assert math.isclose(value, oracle[c], rel_tol=1e-12)
        if kind == "sample":
            by_measure = population_functional(space, DiscreteMeasure.empirical(given_data), c, r)
            assert math.isclose(value, by_measure, rel_tol=1e-12)

    res = mean_set(space, given_data, r)
    best = min(oracle.values())
    assert not res.exact and math.isclose(res.optimum, best, rel_tol=1e-12)
    # the solver keeps scores within 1e-9 of its optimum; bracketing that
    # tolerance keeps the check off rounding at its edge
    sure = {c for c in space.points if oracle[c] <= best * (1 + 0.5e-9)}
    possible = {c for c in space.points if oracle[c] <= best * (1 + 2e-9)}
    assert sure <= set(res.argmin) <= possible


@st.composite
def pseudo_metric_spaces(draw):
    """L1 distances between points of a small integer grid, with zero-distance twins."""
    spots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=7))
    spots.append(spots[0])  # at least one pair of distinct points at distance 0
    m = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in spots] for a in spots]
    # names sort in reverse index order, so support order is not space order
    names = tuple(f"p{9 - i}" for i in range(len(spots)))
    return MetricSpace.from_int_matrix(names, m, is_pseudo=True, name="l1-twins")


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(SPACES) + ["pseudo"]),
    epsilon=st.sampled_from([0, Fraction(0), 0.0]),
    min_visits=st.integers(1, 3),
)
def test_estimators_match_counting_oracle(data, name, epsilon, min_visits):
    space = data.draw(pseudo_metric_spaces()) if name == "pseudo" else SPACES[name]
    sets = data.draw(st.lists(st.frozensets(st.sampled_from(space.points), max_size=4), min_size=1, max_size=12))
    burn_in = data.draw(st.integers(0, len(sets) - 1))
    traj = SetTrajectory(space, tuple(sets))

    expected = tail_limsup_by_counting(sets, burn_in, min_visits)
    assert tail_limsup(traj, burn_in, min_visits) == expected
    assert ziezold_limcsup(traj, burn_in, min_visits) == expected
    # at epsilon = 0 a visit is d(x, A) = 0: membership, plus zero-distance twins
    hulls = [zero_distance_hull(space, s) for s in sets]
    estimate = kuratowski_limsup(traj, epsilon, burn_in, min_visits)
    assert estimate.points == tail_limsup_by_counting(hulls, burn_in, min_visits)


ENGINE_SPACES = {"g4": (G4, GraphSpec(4)), "grid": (GRID, GridSpec("0", "2", "0.25"))}


def _close(a, b) -> bool:
    return a == b if isinstance(a, Fraction) else math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(ENGINE_SPACES) + ["pseudo"]),
    r=st.sampled_from([1, 2, 1.5]),
    restricted=st.booleans(),
    seed=st.integers(0, 2**16),
    checkpoints=st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_engine_matches_solver(data, name, r, restricted, seed, checkpoints):
    if name == "pseudo":  # the measure charges both twins, so they can tie
        space, spec = data.draw(pseudo_metric_spaces()), None
        mu = data.draw(measures(space, include=(0, len(space) - 1)))
    else:
        space, spec = ENGINE_SPACES[name]
        mu = data.draw(measures(space))
    cfg = ExperimentConfig(
        space_spec=spec, mu=mu, r=r, n_max=checkpoints[-1], checkpoints=tuple(checkpoints),
        replications=2, seed=seed, restricted=restricted, limit_params=LimitParams(),
    )
    result = run_consistency_experiment(cfg, space)

    assert result.population == population_mean_set(space, mu, r)
    if restricted:
        assert result.population_restricted == restricted_population_mean_set(space, mu, r)
    f = {z: population_functional(space, mu, z, r) for z in space.points}
    sigma = min(f.values())
    sigma_res = min(f[x] for x in mu.support)
    burn = default_burn_in(len(checkpoints))
    for rec in result.records:
        idx = _draw_indices(mu, cfg.n_max, replication_rng(seed, rec.replication))
        for stat in rec.stats:
            prefix = Sample(tuple(mu.support[i] for i in idx[: stat.n]))
            res = sample_mean_set(space, prefix, r)
            assert stat.mean_set == res.argmin
            assert _close(stat.sigma_hat, res.optimum)
            # the diagnostics from their definitions, with T_n(z) = Fhat(z) - F(z)
            f_hat = {z: sample_functional(space, prefix, z, r) for z in space.points}
            t = {z: f_hat[z] - f[z] for z in space.points}
            assert _close(stat.t_star, min(f_hat.values()) - sigma)
            assert _close(stat.t_hat_max, max(t[z] for z in stat.mean_set))
            assert _close(stat.t_theta_min, min(t[z] for z in result.population.argmin))
            if restricted:
                res = restricted_sample_mean_set(space, prefix, r)
                assert stat.mean_set_res == res.argmin
                assert _close(stat.sigma_hat_res, res.optimum)
                observed = set(prefix.items)
                assert _close(stat.tr_star, min(f_hat[x] for x in observed) - sigma_res)
                assert _close(stat.t_res_hat_max, max(t[z] for z in stat.mean_set_res))
                upper = min(
                    t[z] + min(abs(f_hat[x] - f_hat[z]) for x in observed)
                    for z in result.population_restricted.argmin
                )
                assert _close(stat.t_res_upper, upper)
        # outer limits of the checkpoint mean sets; epsilon = 0 credits zero-distance twins
        tracks = [("", [s.mean_set for s in rec.stats])]
        if restricted:
            tracks.append(("_res", [s.mean_set_res for s in rec.stats]))
        for suffix, mean_sets in tracks:
            hulls = [zero_distance_hull(space, m) for m in mean_sets]
            assert getattr(rec, f"tail_estimate{suffix}") == tail_limsup_by_counting(mean_sets, burn)
            assert getattr(rec, f"kuratowski{suffix}").points == tail_limsup_by_counting(hulls, burn)
