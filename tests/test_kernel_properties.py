"""Property tests of the exact scoring kernel against the naive oracles.

They cover rational measure weights brought to a common denominator, the
int64 / Python-int switch of the overflow guard, and the independence of
sample mean sets from the candidate chunk size.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_means import (
    DiscreteMeasure,
    MetricSpace,
    Sample,
    enumerate_space,
    interval_grid,
    population_mean_set,
    restricted_population_mean_set,
    restricted_sample_mean_set,
    sample_mean_set,
)
from frechet_means.metric_core import _INT64_SAFE, _exact_power_block
from oracles import mean_set_by_enumeration, population_by_enumeration

G4 = enumerate_space(4)
GRID = interval_grid("0", "2", "0.25")
SPACES = {"g4": G4, "grid": GRID}

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def measures(draw, space):
    """A measure on a few distinct points whose weights have mixed denominators."""
    positions = draw(st.lists(st.integers(0, len(space) - 1), min_size=1, max_size=5, unique=True))
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
