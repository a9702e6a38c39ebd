"""Property tests of the exact scoring kernel against the naive oracles.

They cover rational measure weights brought to a common denominator, the
int64 / Python-int switch of the overflow guard, the independence of
sample mean sets from the candidate chunk size, and the consistency
engine's agreement with the solver on exact, float and pseudo-metric spaces.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_means import (
    DiscreteMeasure,
    ExperimentConfig,
    GraphSpec,
    GridSpec,
    MetricSpace,
    Sample,
    enumerate_space,
    interval_grid,
    population_mean_set,
    restricted_population_mean_set,
    restricted_sample_mean_set,
    run_consistency_experiment,
    sample_mean_set,
)
from frechet_means.consistency_lab import _draw_indices, replication_rng
from frechet_means.metric_core import _INT64_SAFE, _exact_power_block
from oracles import mean_set_by_enumeration, population_by_enumeration

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


@st.composite
def pseudo_metric_spaces(draw):
    """L1 distances between points of a small integer grid, with zero-distance twins."""
    spots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=7))
    spots.append(spots[0])  # at least one pair of distinct points at distance 0
    m = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in spots] for a in spots]
    # names sort in reverse index order, so support order is not space order
    names = tuple(f"p{9 - i}" for i in range(len(spots)))
    return MetricSpace.from_int_matrix(names, m, is_pseudo=True, name="l1-twins")


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
        replications=2, seed=seed, restricted=restricted, limit_params=None,
    )
    result = run_consistency_experiment(cfg, space)

    assert result.population == population_mean_set(space, mu, r)
    if restricted:
        assert result.population_restricted == restricted_population_mean_set(space, mu, r)
    for rec in result.records:
        idx = _draw_indices(mu, cfg.n_max, replication_rng(seed, rec.replication))
        for stat in rec.stats:
            prefix = Sample(tuple(mu.support[i] for i in idx[: stat.n]))
            res = sample_mean_set(space, prefix, r)
            assert stat.mean_set == res.argmin
            assert _close(stat.sigma_hat, res.optimum)
            if restricted:
                res = restricted_sample_mean_set(space, prefix, r)
                assert stat.mean_set_res == res.argmin
                assert _close(stat.sigma_hat_res, res.optimum)
