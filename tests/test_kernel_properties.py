"""Property tests of the exact scoring kernel against the naive oracles.

They cover rational measure weights brought to a common denominator, the
int64 / Python-int switch of the overflow guard, order-1 mean sets of full
graph spaces read off per edge slot, higher orders scored by splitting the
edge slots in each of the three dtype tiers, the expansion of many
slot-type orbits at once against a brute-force grouping of every mask, the independence of
sample mean sets from the cell budget of the score tiles, the tile-by-tile
reducer against the enumeration oracle on tiles of a few candidates, the
float path at non-integer orders against a float oracle (and the float
functional against the solver's optimum, bit for bit), the outer-limit estimators
against a counting oracle, and the consistency engine's agreement with the
solver, the functionals and the counting oracle on exact, float and
pseudo-metric spaces, whatever the size of its score chunks and draw
blocks and however often count rows repeat (each distinct count row is
scored once), with its batched outer limits equal to the per-replication
estimators at epsilon = 0 and above.  The order-1 bound of the orbit tables
is checked against an integer oracle, and the inclusion flags against the
strong laws' certificate (a deviation below half the population's gap).
"""

import collections
import math
import statistics
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR
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
from frechet_means import consistency_lab, frechet_solver, metric_core
from frechet_means.cli import load_config_file
from frechet_means.consistency_lab import (
    _draw_indices,
    _median_and_max,
    _support_cdf,
    build_summary,
    replication_rng,
    summary_blocks,
    write_report_csv,
    write_summary_json,
)
from frechet_means.graph_space import _Orbits, n_edge_slots
from frechet_means.metric_core import _INT64_SAFE, _power_block, _to_float, _weights
from frechet_means.set_limits import _kuratowski_rows, default_burn_in
from oracles import (
    certificate_by_enumeration,
    epsilon_hull,
    float_functional_by_enumeration,
    functional_by_enumeration,
    mean_set_by_enumeration,
    median_and_max_by_sorting,
    order1_bound_by_enumeration,
    population_by_enumeration,
    restricted_upper_by_enumeration,
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
    block = _power_block(space, idx, idx, GUARD_R, True, total_weight)
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


# Exact means of order r >= 2 on full graph spaces come from the split
# scorer (two popcount tables and one matmul).  nv = 1..5 has 0, 1, 3, 6 and
# 10 edge slots: no split, odd and even splits.  Its dtype follows
# max(M, 1)^r * lcd past 2^53 (float64 -> int64) and 2^62 (-> Python ints), so
# one family of measures puts exactly that product on a drawn side of either.
TIER_LIMITS = (2**53, 2**62)


@st.composite
def tier_measures(draw, nv, r, limit, above):
    """Weights over the common denominator D with ``max(M, 1)^r * D`` below
    ``limit`` or not (``above``); when D is even, complementary pairs may
    share their weight.  nv = 1 has one graph, so there D = 1."""
    space = FULL_GRAPH_SPACES[nv]
    if len(space) < 2:
        return DiscreteMeasure(space.points, (Fraction(1),))
    m_r = max(space.bound_M, 1) ** r
    delta = draw(st.integers(0, 5))
    d = -(-limit // m_r) + delta if above else (limit - 1) // m_r - delta
    full = len(space) - 1
    if d % 2 == 0 and len(space) >= 4 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, full >> 1), min_size=2, max_size=2, unique=True))
        support, numerators = [a, a ^ full, b, b ^ full], [1, 1, (d - 2) // 2, (d - 2) // 2]
    else:
        support = draw(st.lists(st.integers(0, full), min_size=2, max_size=min(4, len(space)), unique=True))
        cuts = sorted(draw(st.lists(st.integers(1, d - 2), min_size=len(support) - 2,
                                    max_size=len(support) - 2, unique=True)))
        numerators = [1] + [hi - lo for lo, hi in zip([0, *cuts], [*cuts, d - 1])]
    weights = tuple(Fraction(k, d) for k in numerators)  # the weight 1/D makes D the lcd
    return DiscreteMeasure(tuple(Graph(nv, m) for m in support), weights)


def _tier(space, r, total_weight):
    bound = max(space.bound_M, 1) ** r * total_weight
    return np.float64 if bound < 2**53 else np.int64 if bound < 2**62 else object


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5), r=st.integers(2, 4))
def test_split_scored_sample_means_of_full_graph_spaces_match_oracle(data, nv, r):
    space = FULL_GRAPH_SPACES[nv]
    items = data.draw(tie_heavy_samples(nv))
    res = sample_mean_set(space, Sample(tuple(items)), r)
    assert res.exact
    assert (res.optimum, res.argmin) == mean_set_by_enumeration(space, items, r, space.points)


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5), r=st.integers(2, 4), big_lcd=st.booleans())
def test_split_scored_population_means_of_full_graph_spaces_match_oracle(data, nv, r, big_lcd):
    space = FULL_GRAPH_SPACES[nv]
    mu = data.draw(tie_heavy_measures(nv, big_lcd))
    res = population_mean_set(space, mu, r)
    assert res.exact
    pairs = list(zip(mu.support, mu.weights))
    assert (res.optimum, res.argmin) == population_by_enumeration(space, pairs, r, space.points)


@pytest.mark.parametrize("limit", TIER_LIMITS, ids=["2^53", "2^62"])
@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(2, 5), r=st.integers(2, 4))
def test_split_scorer_is_exact_in_each_dtype_tier(limit, above, data, nv, r):
    space = FULL_GRAPH_SPACES[nv]
    mu = data.draw(tier_measures(nv, r, limit, above))
    sup_idx, weights, lcd, exact = _weights(space, mu, r)
    assert (max(space.bound_M, 1) ** r * lcd < limit) != above
    tiles, _ = _Orbits(space, sup_idx).scorer(r, lcd)
    assert next(next(tiles(weights[None])[1]))[1].dtype == _tier(space, r, lcd)  # the first group's first tile
    res = population_mean_set(space, mu, r)
    assert res.exact
    pairs = list(zip(mu.support, mu.weights))
    assert (res.optimum, res.argmin) == population_by_enumeration(space, pairs, r, space.points)


@st.composite
def orbit_samples(draw, nv):
    """Samples whose slots share types: repeated graphs, complementary
    graphs, or graphs made of a few blocks of slots (each block one type)."""
    slots = n_edge_slots(nv)
    full = (1 << slots) - 1
    kind = draw(st.sampled_from(["repeated", "complementary", "same type"]))
    if kind == "same type":
        block_of = draw(st.lists(st.integers(0, 2), min_size=slots, max_size=slots))  # each slot's block
        blocks = [sum(1 << k for k, b in enumerate(block_of) if b == i) for i in range(3)]
        picks = draw(st.lists(st.lists(st.booleans(), min_size=3, max_size=3), min_size=1, max_size=5))
        flip = draw(st.integers(0, full))  # keeps every slot's type
        items = [sum(b for b, on in zip(blocks, pick) if on) ^ flip for pick in picks]
    else:
        base = draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
        items = base * draw(st.integers(2, 3)) if kind == "repeated" else base + [m ^ full for m in base]
    return [Graph(nv, m) for m in items]


def _orbit_scores(space, items, r):
    """The orbits of a sample's support and their scores, with the scores' normalizer."""
    sup_idx, weights, normalizer, exact = _weights(space, Sample(tuple(items)), r)
    assert exact
    orbits = _Orbits(space, sup_idx)
    tiles, _ = orbits.scorer(r, normalizer)
    # beside a row of no positive weight, which cuts no orbit, the tiles score every orbit
    _, (scores,) = tiles(np.stack([weights, 0 * weights]))  # both rows fit one group at nv <= 5
    return orbits, np.concatenate([tile[0].copy() for _, tile in scores]), normalizer


def _stacked_ties(groups) -> tuple:
    """The row groups of one ``tiles`` call, each reduced alone by ``_min_ties``
    and stacked as one matrix's: the minima, rows, positions and row starts."""
    best, rows, positions = [], [], []
    for group in groups:
        low, row, position, _ = frechet_solver._min_ties(group, True)
        rows.append(row + sum(map(len, best)))
        best.append(low)
        positions.append(position)
    rows = np.concatenate(rows)
    return np.concatenate(best), rows, np.concatenate(positions), np.searchsorted(rows, np.arange(sum(map(len, best))))


def _masks(orbits, ids) -> list:
    """The edge masks of every graph in the orbits ``ids``, in ascending order."""
    return sorted(orbits.graphs(ids)[0].tolist())


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5), r=st.integers(1, 4))
def test_orbit_scores_match_every_masks_oracle_score(data, nv, r):
    space = FULL_GRAPH_SPACES[nv]
    items = data.draw(st.one_of(tie_heavy_samples(nv), orbit_samples(nv)))
    orbits, scores, normalizer = _orbit_scores(space, items, r)
    assert scores.shape == (orbits.size,)
    pairs = [(x, Fraction(1, len(items))) for x in items]
    seen = []
    for orbit, score in enumerate(scores.tolist()):
        masks = _masks(orbits, [orbit])
        assert masks and masks == sorted(masks)
        seen += masks
        for m in masks:
            assert Fraction(int(score), normalizer) == functional_by_enumeration(space, pairs, r, Graph(nv, m))
    assert sorted(seen) == list(range(len(space)))  # the orbits partition the space
    assert _masks(orbits, orbits.support) == sorted({g.edges for g in items})  # each support graph alone


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5), r=st.integers(1, 4))
def test_expanded_orbit_ties_match_oracle(data, nv, r):
    space = FULL_GRAPH_SPACES[nv]
    items = data.draw(orbit_samples(nv))
    orbits, scores, normalizer = _orbit_scores(space, items, r)
    (best,), _, tied, _ = frechet_solver._min_ties(scores[None], True)
    optimum, argmin = mean_set_by_enumeration(space, items, r, space.points)
    assert Fraction(int(best), normalizer) == optimum
    assert _masks(orbits, tied) == [g.edges for g in argmin]


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5), r=st.integers(1, 4))
def test_orbit_count_is_a_hamming_invariant(data, nv, r):
    space = FULL_GRAPH_SPACES[nv]
    slots = n_edge_slots(nv)
    items = data.draw(st.one_of(tie_heavy_samples(nv), orbit_samples(nv)))
    order = data.draw(st.permutations(range(slots)))
    flip = data.draw(st.integers(0, len(space) - 1))
    moved = [Graph(nv, sum((g.edges >> k & 1) << order[k] for k in range(slots)) ^ flip) for g in items]
    orbits = _orbit_scores(space, items, r)[0]
    assert _orbit_scores(space, moved, r)[0].size == orbits.size
    counts = orbits.counts.tolist()
    assert orbits.size == math.prod(c + 1 for c in counts) <= len(space)
    assert (orbits.size == len(space)) == all(c == 1 for c in counts)


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5))
def test_orbits_expand_together_to_the_masks_of_each_orbit(data, nv):
    space = FULL_GRAPH_SPACES[nv]
    items = data.draw(st.one_of(tie_heavy_samples(nv), orbit_samples(nv)))
    orbits = _Orbits(space, np.array(list(dict.fromkeys(g.edges for g in items))[:5]))
    counts, strides = orbits.counts, orbits.strides
    # brute force: mask x sets j_t = popcount((x ^ X_1) & type t's slots), and its orbit is sum_t j_t strides_t
    j = np.bitwise_count((np.arange(len(space), dtype=np.uint64) ^ orbits.base)[:, None] & orbits.type_masks)
    owner = j.astype(np.int64) @ strides
    whole_type = [int(c * s) for c, s in zip(counts, strides)]  # every slot of one type, none of the others
    single = [*orbits.support.tolist(), int(counts @ strides), *whole_type]  # orbits of one graph
    requested = data.draw(st.lists(st.one_of(st.integers(0, orbits.size - 1), st.sampled_from(single)), min_size=1))
    requested += data.draw(st.lists(st.sampled_from(requested), min_size=1, max_size=3))  # repeats
    masks, offsets = orbits.graphs(requested)
    assert offsets.tolist() == [0, *np.cumsum([np.count_nonzero(owner == k) for k in requested]).tolist()]
    for k, orbit in enumerate(requested):
        digits = orbit // strides % (counts + 1)
        assert offsets[k + 1] - offsets[k] == math.prod(map(math.comb, counts.tolist(), digits.tolist()))
        assert sorted(masks[offsets[k] : offsets[k + 1]].tolist()) == np.flatnonzero(owner == orbit).tolist()


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    nv=st.integers(1, 5),
    r=st.integers(1, 4),
    cells=st.sampled_from([1 << 16, 40]),
    scale=st.sampled_from([1, 2**60, 2**98]),
    zero_row=st.booleans(),
)
def test_cut_tables_hold_every_minimum_of_each_weight_row(data, nv, r, cells, scale, zero_row, cell_budget):
    # rows of one matrix with different zeros: a rule taken from their common
    # active set alone would cut some row's minimizers.  Weights up to 3 keep
    # the order-1 bound's float64 sums exact; weights near 2^62 (int64) and
    # 2^100 (Python ints) do not, and a row of no weight keeps every table row
    space = FULL_GRAPH_SPACES[nv]
    sup_idx = np.unique([g.edges for g in data.draw(orbit_samples(nv))])
    orbits = _Orbits(space, sup_idx)
    weight = st.integers(0, 3) if scale == 1 else st.one_of(st.just(0), st.integers(scale, 4 * scale))
    rows = data.draw(st.lists(st.lists(weight, min_size=len(sup_idx), max_size=len(sup_idx)), min_size=1, max_size=4))
    rows += [[0] * len(sup_idx)] * zero_row
    weights = np.array(rows, dtype=object if scale > 2**60 else np.int64)
    tiles, powers = orbits.scorer(r, max(1, *map(sum, rows)))
    best, tie_rows, ties, starts = frechet_solver._min_ties(
        frechet_solver._product(weights, powers(np.arange(orbits.size)), True), True
    )  # every orbit scored, by its distances to the support
    with cell_budget(cells):
        ia, ib = orbits.cut(weights)
        assert set(ties.tolist()) <= set((ib[:, None] * orbits.sizes[0] + ia).ravel().tolist())
        orbit_of, groups = tiles(weights)
        cut_best, cut_rows, cut_ties, cut_starts = _stacked_ties(groups)
    assert cut_best.tolist() == best.tolist() and cut_starts.tolist() == starts.tolist()
    assert cut_rows.tolist() == tie_rows.tolist() and orbit_of(cut_ties).tolist() == ties.tolist()
    # each row's bound is the same alone as among the other rows, and within the oracle's (one graph per orbit)
    masks, offsets = orbits.graphs(np.arange(orbits.size))
    distances = [[(x ^ s).bit_count() for s in sup_idx.tolist()] for x in masks[offsets[:-1]].tolist()]
    kept = orbits.bound(weights, r)
    for k, row in enumerate(rows):
        assert kept[k].tolist() == orbits.bound(weights[k : k + 1], r)[0].tolist()
        must, may = order1_bound_by_enumeration(distances, orbits.sizes, row, r)
        assert (kept[k] >= must).all() and (kept[k] <= may).all()


@PROPERTY_SETTINGS
@given(data=st.data(), nv=st.integers(1, 5), r=st.integers(1, 4), group=st.integers(1, 3))
def test_grouped_orbit_ties_match_each_weight_row_alone(data, nv, r, group, cell_budget):
    # tie-heavy integer weights of 0 to 2 on a tie-heavy support, more rows
    # than a group holds under a budget of ``group`` rows' factors: the rows'
    # ties, reduced a group at a time and stacked, are each row's alone, and
    # the first row's mean set is the enumeration oracle's
    space = FULL_GRAPH_SPACES[nv]
    items = data.draw(tie_heavy_samples(nv))
    sup_idx = np.unique([g.edges for g in items])
    row = st.lists(st.integers(0, 2), min_size=len(sup_idx), max_size=len(sup_idx))
    rows = [data.draw(row.filter(any))] + data.draw(st.lists(row, min_size=group, max_size=group + 3))
    weights = np.array(rows, dtype=np.int64)
    total = max(map(sum, rows))
    orbits = _Orbits(space, sup_idx)
    ia, ib = orbits.cut(weights)
    kept = orbits.bound(weights, r).any(axis=0)
    cells = (2 + (r - 1) * len(sup_idx)) * int(kept[ia].sum() + kept[orbits.sizes[0] + ib].sum())  # a row's factors
    ties, _, _, expand = frechet_solver._scorer(space, sup_idx, r, True, total)
    with cell_budget(group * cells):
        best, tie_rows, positions, starts = ties(weights)
    assert tie_rows.tolist() == sorted(tie_rows.tolist()) and len(best) == len(rows)
    ends = [*starts[1:].tolist(), len(positions)]
    for k in range(len(rows)):
        (low,), _, alone, _ = ties(weights[k : k + 1])
        assert best[k] == low and positions[starts[k] : ends[k]].tolist() == alone.tolist()
    sample = [Graph(nv, int(mask)) for mask, w in zip(sup_idx.tolist(), rows[0]) for _ in range(w)]
    expected = mean_set_by_enumeration(space, sample, r, space.points)
    argmin = tuple(space.points[i] for i in sorted(expand(positions[: starts[1]])[0].tolist()))
    assert (Fraction(int(best[0]), sum(rows[0])), argmin) == expected


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    nv=st.integers(1, 5),
    r=st.integers(1, 4),
    family=st.sampled_from(["tie-heavy", "big lcd", "tiers"]),
    restricted=st.booleans(),
    seed=st.integers(0, 2**16),
    checkpoints=st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_engine_matches_solver_on_full_graph_spaces(data, nv, r, family, restricted, seed, checkpoints):
    space = FULL_GRAPH_SPACES[nv]
    if family == "tiers":
        mu = data.draw(tier_measures(nv, r, data.draw(st.sampled_from(TIER_LIMITS)), data.draw(st.booleans())))
    else:
        mu = data.draw(tie_heavy_measures(nv, family == "big lcd"))
    cfg = ExperimentConfig(
        space_spec=GraphSpec(nv), mu=mu, r=r, n_max=checkpoints[-1], checkpoints=tuple(checkpoints),
        replications=2, seed=seed, restricted=restricted, limit_params=None,
    )
    result = run_consistency_experiment(cfg, space)

    assert result.population == population_mean_set(space, mu, r)
    if restricted:
        assert result.population_restricted == restricted_population_mean_set(space, mu, r)
    for rec in result.records:
        idx = _draw_indices(_support_cdf(mu), cfg.n_max, replication_rng(seed, rec.replication))
        for stat in rec.stats:
            prefix = Sample(tuple(mu.support[i] for i in idx[: stat.n]))
            res = sample_mean_set(space, prefix, r)
            assert (stat.sigma_hat, _points(space, stat.mean_set)) == (res.optimum, res.argmin)
            assert stat.t_star == res.optimum - result.population.optimum
            if restricted:
                res = restricted_sample_mean_set(space, prefix, r)
                assert (stat.sigma_hat_res, _points(space, stat.mean_set_res)) == (res.optimum, res.argmin)


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(sorted(SPACES)),
    data=st.data(),
    r=st.sampled_from([1, 2, 3, 1.5]),
    chunk_size=st.integers(1, 80),
)
def test_sample_mean_set_is_chunk_size_invariant(name, data, r, chunk_size, cell_budget):
    space = SPACES[name]
    items = data.draw(st.lists(st.sampled_from(space.points), min_size=1, max_size=8))
    sample = Sample(tuple(items))
    with cell_budget(chunk_size):
        chunked = sample_mean_set(space, sample, r)
    assert chunked == sample_mean_set(space, sample, r)


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(["g4", "grid", "g5"]),
    positions=st.lists(st.integers(0, 2**20), min_size=1, max_size=8),
    r=st.integers(1, 3),
    cells=st.integers(1, 16),
)
# grid points 0.5 and 1.5 at r = 1, one candidate per tile: the minimum falls
# in the second and third tiles, and the five tied points take five tiles
@example(name="grid", positions=[2, 6], r=1, cells=2)
def test_streaming_reducer_matches_oracle_across_tiles(name, positions, r, cells, cell_budget):
    # budgets this small cut the scores into tiles of a few candidates, or of
    # one row of the orbit scorer's table b, so ties span tiles and a lower
    # minimum arrives in a later tile
    space = {**SPACES, "g5": FULL_GRAPH_SPACES[5]}[name]
    r += name == "g5"  # graph spaces score orbits from r = 2 on
    items = [space.points[i % len(space)] for i in positions]
    with cell_budget(cells):
        res = sample_mean_set(space, Sample(tuple(items)), r)
    assert res.exact
    assert (res.optimum, res.argmin) == mean_set_by_enumeration(space, items, r, space.points)


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


@PROPERTY_SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(FLOAT_PATH_SPACES)), r=st.sampled_from([1.5, 2.5, 3.7]))
def test_float_functional_over_the_mean_set_reaches_the_optimum_exactly(data, name, r):
    # the functional sums its terms in support order, as the scorer does, so
    # its least value over the mean set is the optimum to the last bit
    space = FLOAT_PATH_SPACES[name]
    sample = Sample(tuple(data.draw(st.lists(st.sampled_from(space.points), min_size=1, max_size=8))))
    res = sample_mean_set(space, sample, r)
    assert min(sample_functional(space, sample, x, r) for x in res.argmin) == res.optimum


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


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(SPACES) + ["pseudo"]),
    epsilon=st.sampled_from([Fraction(1, 4), Fraction(1, 2), 0.5, 1, Fraction(5, 2), 2.0]),
    min_visits=st.integers(1, 3),
)
def test_kuratowski_limsup_matches_neighborhood_oracle(data, name, epsilon, min_visits):
    space = data.draw(pseudo_metric_spaces()) if name == "pseudo" else SPACES[name]
    sets = data.draw(st.lists(st.frozensets(st.sampled_from(space.points), max_size=4), min_size=1, max_size=12))
    burn_in = data.draw(st.integers(0, len(sets) - 1))
    # a visit is d(x, A) < epsilon, whether epsilon is exact or a float
    hulls = [epsilon_hull(space, s, epsilon) for s in sets]
    estimate = kuratowski_limsup(SetTrajectory(space, tuple(sets)), epsilon, burn_in, min_visits)
    assert estimate.points == tail_limsup_by_counting(hulls, burn_in, min_visits)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(SPACES) + ["pseudo"]),
    # grid step 1/4: a lattice bound of 0 at 1/8 and 1/4; Hamming: at 1
    epsilon=st.sampled_from([0, Fraction(1, 8), Fraction(1, 4), 1, Fraction(5, 2), 0.5, 2.0]),
    min_visits=st.integers(1, 3),
)
def test_neighbourhood_counter_matches_hull_visits(data, name, epsilon, min_visits):
    # many rows sharing their distinct sets, the engine's form of the tails
    space = data.draw(pseudo_metric_spaces()) if name == "pseudo" else SPACES[name]
    sets = data.draw(st.lists(st.frozensets(st.sampled_from(space.points), max_size=4), min_size=1, max_size=6))
    rows = data.draw(st.lists(st.lists(st.integers(0, len(sets) - 1), min_size=4, max_size=4), min_size=1, max_size=5))
    index_sets = [tuple(sorted(space.indices(s).tolist())) for s in sets]
    got_rows, got_idx = _kuratowski_rows(space, np.array(rows), index_sets, epsilon, min_visits)
    hulls = [epsilon_hull(space, s, epsilon) for s in sets]
    for k, row in enumerate(rows):
        expected = tail_limsup_by_counting([hulls[i] for i in row], 0, min_visits)
        assert {space.points[i] for i in got_idx[got_rows == k]} == expected


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(FLOAT_PATH_SPACES) + ["pseudo"]),
    cells=st.sampled_from([1, 7, 40, 1 << 16]),
)
def test_nearest_is_the_least_block_entry_within_the_cell_budget(data, name, cells, cell_budget):
    # the one d(x, A): each row's least entry of its distance block to A, +inf
    # for an empty A, from blocks of at most the cell budget; set_distance is
    # its one-row case
    space = data.draw(pseudo_metric_spaces()) if name == "pseudo" else FLOAT_PATH_SPACES[name]
    rows = data.draw(st.lists(st.integers(0, len(space) - 1), min_size=1, max_size=30))
    cols = data.draw(st.lists(st.integers(0, len(space) - 1), max_size=50, unique=True))
    kind = "int_block" if space.exact else "float_block"
    block, made = getattr(space, kind), []

    def counting(r, c):
        made.append(len(r) * len(c))
        return block(r, c)

    with cell_budget(cells), mock.patch.object(space, kind, counting):
        near = space.nearest(np.array(rows), np.array(cols, dtype=np.intp))
        d = space.set_distance(space.points[rows[0]], [space.points[i] for i in cols])
    expected = block(rows, cols).min(axis=1) if cols else np.full(len(rows), np.inf)
    assert near.tolist() == expected.tolist()
    assert d == (space.as_distance(expected[0]) if cols else math.inf)
    assert max(made, default=0) <= cells


def test_kuratowski_visits_at_a_zero_lattice_bound_compute_no_distance(monkeypatch):
    # epsilon = 1 on a Hamming space: d < 1 iff d = 0, so a visit is membership;
    # a float epsilon is compared as the Fraction it equals
    space = enumerate_space(6)
    traj = SetTrajectory.from_indices(space, [(3,), (3, 40), (), (40, 7000), (3, 40)])
    expected = tail_limsup(traj, 1, 2)
    assert len(expected) == 2

    def refuse(name):
        def block(self, rows, cols):
            raise AssertionError(f"{name} called")

        return block

    monkeypatch.setattr(MetricSpace, "int_block", refuse("int_block"))
    monkeypatch.setattr(MetricSpace, "float_block", refuse("float_block"))
    for epsilon in (1, Fraction(1), Fraction(1, 2), 1.0):
        assert kuratowski_limsup(traj, epsilon, 1, 2).points == expected


@PROPERTY_SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(SPACES) + ["pseudo"]))
def test_trajectory_from_indices_equals_trajectory_from_points(data, name):
    space = data.draw(pseudo_metric_spaces()) if name == "pseudo" else SPACES[name]
    sets = data.draw(st.lists(st.frozensets(st.sampled_from(space.points), max_size=4), min_size=1, max_size=12))
    index_sets = tuple(tuple(sorted(space.indices(s).tolist())) for s in sets)
    assert SetTrajectory.from_indices(space, index_sets) == SetTrajectory(space, tuple(sets))


@PROPERTY_SETTINGS
@given(
    values=st.one_of(
        st.lists(st.fractions(min_value=0, max_denominator=10**6), min_size=1, max_size=40),
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40),
    )
)
def test_summary_median_and_max_match_sorting(values):
    if isinstance(values[0], Fraction):  # integer numerators over a shared denominator
        common = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (common // v.denominator) for v in values]
        args = (np.array(nums, dtype=np.int64 if max(nums) < 2**63 else object), common)  # as the columns hold them
    else:
        args = (np.array(values),)
    exact = _median_and_max(*args)  # Fractions of the numerators, floats of floats
    assert exact == (statistics.median(values), max(values))
    assert tuple(map(_to_float, exact)) == median_and_max_by_sorting(values)


@PROPERTY_SETTINGS
@given(
    num=st.one_of(st.integers(-(2**1100), 2**1100), st.integers(-(2**60), 2**60)),
    den=st.one_of(st.integers(1, 2**1100), st.integers(1, 2**60)),
)
def test_to_float_rounds_as_float_of_fraction_and_saturates_past_it(num, den):
    try:
        expected = float(Fraction(num, den))
        assert num / den == expected  # int division rounds alike
    except OverflowError:
        expected = math.inf if num > 0 else -math.inf
    assert _to_float(num, den) == expected
    assert _to_float(Fraction(num, den)) == expected
    assert _to_float(Fraction(num, den), 1) == expected
    assert _to_float(expected) == expected


ENGINE_SPACES = {"g4": (G4, GraphSpec(4)), "grid": (GRID, GridSpec("0", "2", "0.25"))}


def _points(space, mean_set) -> tuple:
    """A checkpoint mean set, given as space indices, as its points."""
    return tuple(space.points[i] for i in mean_set)


def _close(a, b) -> bool:
    return a == b if isinstance(a, Fraction) else math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@st.composite
def small_weight_measures(draw, space):
    """Measures on one to four points with weights of 1 to 3 parts, so that
    the counts of a few draws can match them."""
    positions = draw(st.lists(st.integers(0, len(space) - 1), min_size=1, max_size=4, unique=True))
    parts = draw(st.lists(st.integers(1, 3), min_size=len(positions), max_size=len(positions)))
    return DiscreteMeasure(tuple(space.points[i] for i in positions), tuple(Fraction(w, sum(parts)) for w in parts))


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["g3", *sorted(ENGINE_SPACES)]),
    r=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_certified_rows_lie_in_the_population_mean_sets(data, name, r, seed):
    # the proof of the strong laws: whenever sup_x |Fhat_n(x) - F(x)| is below
    # half the gap between F's optimum and its least value off the mean set,
    # the sample mean set lies inside the population's (the restricted track's
    # over the support, once a point of its population mean set is drawn).
    # So a replication certified at every checkpoint from the burn-in on has
    # its epsilon = 0 outer-limit estimates inside that mean set too.
    # Checkpoints at multiples of the weights' denominator let the counts of
    # the draws match the weights, where the deviation is 0
    space, spec = ENGINE_SPACES[name] if name in ENGINE_SPACES else (FULL_GRAPH_SPACES[3], GraphSpec(3))
    mu = data.draw(small_weight_measures(space))
    parts = math.lcm(*(w.denominator for w in mu.weights))
    n = st.one_of(st.integers(1, 6).map(parts.__mul__), st.integers(1, 24))
    checkpoints = sorted(data.draw(st.sets(n, min_size=1, max_size=4)))
    cfg = ExperimentConfig(
        space_spec=spec, mu=mu, r=r, n_max=checkpoints[-1], checkpoints=tuple(checkpoints),
        replications=6, seed=seed, restricted=True, limit_params=LimitParams(epsilon=0),
    )
    result = run_consistency_experiment(cfg, space)
    pairs = list(zip(mu.support, mu.weights))
    for rec in result.records:
        idx = _draw_indices(_support_cdf(mu), cfg.n_max, replication_rng(seed, rec.replication))
        certified = []  # each checkpoint's (certified, certified on the restricted track)
        for stat in rec.stats:
            counts = [(mu.support[i], c) for i, c in sorted(collections.Counter(idx[: stat.n].tolist()).items())]
            deviation, delta, _ = certificate_by_enumeration(space, pairs, counts, r, space.points)
            whole = delta is None or deviation < delta / 2
            if whole:
                assert stat.included_in_population
            deviation, delta, theta = certificate_by_enumeration(space, pairs, counts, r, mu.support)
            res = (delta is None or deviation < delta / 2) and any(x in theta for x, _ in counts)
            if res:
                assert stat.included_in_population_res
            certified.append((whole, res))
        tail = certified[result.burn_in :]
        if all(c for c, _ in tail):
            assert rec.tail_included and rec.kuratowski_included
        if all(c for _, c in tail):
            assert rec.tail_included_res and rec.kuratowski_included_res


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
        idx = _draw_indices(_support_cdf(mu), cfg.n_max, replication_rng(seed, rec.replication))
        for stat in rec.stats:
            prefix = Sample(tuple(mu.support[i] for i in idx[: stat.n]))
            res = sample_mean_set(space, prefix, r)
            mean_set = _points(space, stat.mean_set)
            assert mean_set == res.argmin
            assert _close(stat.sigma_hat, res.optimum)
            # the diagnostics from their definitions, with T_n(z) = Fhat(z) - F(z)
            f_hat = {z: sample_functional(space, prefix, z, r) for z in space.points}
            t = {z: f_hat[z] - f[z] for z in space.points}
            assert _close(stat.t_star, min(f_hat.values()) - sigma)
            assert _close(stat.t_hat_max, max(t[z] for z in mean_set))
            assert _close(stat.t_theta_min, min(t[z] for z in result.population.argmin))
            if restricted:
                res = restricted_sample_mean_set(space, prefix, r)
                mean_set_res = _points(space, stat.mean_set_res)
                assert mean_set_res == res.argmin
                assert _close(stat.sigma_hat_res, res.optimum)
                observed = set(prefix.items)
                assert _close(stat.tr_star, min(f_hat[x] for x in observed) - sigma_res)
                assert _close(stat.t_res_hat_max, max(t[z] for z in mean_set_res))
                upper = min(
                    t[z] + min(abs(f_hat[x] - f_hat[z]) for x in observed)
                    for z in result.population_restricted.argmin
                )
                assert _close(stat.t_res_upper, upper)
        # outer limits of the checkpoint mean sets; epsilon = 0 credits zero-distance twins
        tracks = [("", [_points(space, s.mean_set) for s in rec.stats])]
        if restricted:
            tracks.append(("_res", [_points(space, s.mean_set_res) for s in rec.stats]))
        for suffix, mean_sets in tracks:
            hulls = [zero_distance_hull(space, m) for m in mean_sets]
            assert getattr(rec, f"tail_estimate{suffix}") == tail_limsup_by_counting(mean_sets, burn)
            assert getattr(rec, f"kuratowski{suffix}").points == tail_limsup_by_counting(hulls, burn)


def _outputs(result) -> tuple:
    """An experiment's records and the bytes of both of its report files."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp, "report.csv"), Path(tmp, "summary.json")
        write_report_csv(result, csv_path)
        write_summary_json(result, json_path)
        return result.records, csv_path.read_bytes(), json_path.read_bytes()


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(ENGINE_SPACES)),
    r=st.sampled_from([1, 2, 1.5]),
    restricted=st.booleans(),
    seed=st.integers(0, 2**16),
    replications=st.integers(1, 7),
    checkpoints=st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_results_do_not_depend_on_the_chunk_budget(
    data, name, r, restricted, seed, replications, checkpoints, cell_budget
):
    space, spec = ENGINE_SPACES[name]
    cfg = ExperimentConfig(
        space_spec=spec, mu=data.draw(measures(space)), r=r, n_max=checkpoints[-1],
        checkpoints=tuple(checkpoints), replications=replications, seed=seed, restricted=restricted,
        limit_params=LimitParams(epsilon=data.draw(st.sampled_from([Fraction(0), Fraction(1, 2)]))),
    )
    outputs = []
    for cells in (1, 2**40):  # one replication per chunk, then all replications in one
        with cell_budget(cells):
            outputs.append(_outputs(run_consistency_experiment(cfg, space)))
    assert outputs[0] == outputs[1]


def _assert_replications_match_oracle(result):
    """Every replication's mean sets and variances equal the solver's on its own stream."""
    space, cfg = result.space, result.config
    mu, r = cfg.mu, cfg.r
    for rec in result.records:
        idx = _draw_indices(_support_cdf(mu), cfg.n_max, replication_rng(cfg.seed, rec.replication))
        for stat in rec.stats:
            prefix = Sample(tuple(mu.support[i] for i in idx[: stat.n]))
            res = sample_mean_set(space, prefix, r)
            assert (stat.sigma_hat, _points(space, stat.mean_set)) == (res.optimum, res.argmin)
            if cfg.restricted:
                res = restricted_sample_mean_set(space, prefix, r)
                assert (stat.sigma_hat_res, _points(space, stat.mean_set_res)) == (res.optimum, res.argmin)


def _run_counting_tiles(cfg, space) -> tuple:
    """The experiment's result, and how many score tiles each checkpoint's count rows filled."""
    tiles, reduce, columns = collections.Counter(), frechet_solver._min_ties, consistency_lab._Engine.columns
    at = [None]  # the checkpoint being scored; None while the engine scores the population

    def counting(scores, exact):
        def seen():
            for lo, tile in scores:
                tiles[at[0]] += 1
                yield lo, tile

        return reduce(seen(), exact)

    def scoring(engine, counts, n):
        at[0] = n
        return columns(engine, counts, n)

    with mock.patch.object(frechet_solver, "_min_ties", counting), mock.patch.object(consistency_lab._Engine, "columns", scoring):
        return run_consistency_experiment(cfg, space), tiles


def _distinct_count_rows(cfg, space) -> list:
    """The number of distinct count rows at each checkpoint of an experiment."""
    counts = consistency_lab._draw_counts(cfg.validated(space))
    return [len(np.unique(counts[:, pos], axis=0)) for pos in range(counts.shape[1])]


@pytest.mark.parametrize(
    "spec, support, checkpoints, replications, restricted, cells, repeated",
    [
        # 2001 grid points: 70 distinct count rows take 936 candidates per score
        # tile, 3 tiles; 7 replications per draw block
        (
            GridSpec("-1", "1", "0.001"), {"-1": "1/5", "1/4": "3/10", "1": "1/2"}, (10, 1000, 9000), 70, False,
            metric_core._CHUNK_CELLS, 0,
        ),
        # 2^15 graphs in 432 = 24 x 18 slot-type orbits, restricted: once all
        # four points are drawn the cut keeps 72 = 9 x 8; with 2^6 score cells
        # each of the 5 count rows is a chunk of its own, scored in 2 tiles
        # (7 rows of the cut b and 1); each stream is a draw block of its
        # own, drawn 64 draws at a time
        (
            GraphSpec(6),
            {"6:" + "1" * 15: "1/10", "6:" + "10" * 7 + "1": "2/5", "6:" + "0" * 15: "3/10", "6:" + "110" * 5: "1/5"},
            (10, 1000, 70_000),
            5,
            True,
            1 << 6,
            0,
        ),
        # a 2-point support at small checkpoints: most count rows repeat, and
        # with 2^6 score cells on 11 grid points the 18 distinct ones still
        # take 3 candidates per tile, 4 tiles; one replication per draw block
        (GridSpec("0", "1", "0.1"), {"0": "1/3", "7/10": "2/3"}, (4, 15, 50), 200, True, 1 << 6, 0.8),
    ],
    ids=["grid", "g6-restricted", "pair-repeats"],
)
def test_engine_matches_solver_across_draw_blocks_and_score_chunks(
    spec, support, checkpoints, replications, restricted, cells, repeated, cell_budget
):
    space = consistency_lab.build_space(spec)
    mu = DiscreteMeasure(
        tuple(consistency_lab.parse_point_label(spec, label) for label in support),
        tuple(Fraction(w) for w in support.values()),
    )
    cfg = ExperimentConfig(
        space_spec=spec, mu=mu, r=2, n_max=checkpoints[-1] + 1000, checkpoints=checkpoints,
        replications=replications, seed=2**70 + 5, restricted=restricted, limit_params=None,
    )
    with cell_budget(cells):
        distinct = _distinct_count_rows(cfg, space)
        assert sum(distinct) <= (1 - repeated) * replications * len(checkpoints)  # the share of repeated rows
        assert -(-replications // max(1, cells // checkpoints[-1])) > 2  # several draw blocks
        result, tiles = _run_counting_tiles(cfg, space)
        assert max(tiles[n] for n in checkpoints) > 2  # a checkpoint's distinct count rows fill several score tiles
        _assert_replications_match_oracle(result)


@pytest.mark.parametrize("name", ["g4_uniform_pair", "grid_r1_oscillation", "grid_r2_convergence"])
def test_engine_scores_each_distinct_count_row_once(name, monkeypatch):
    cfg = load_config_file(FIXTURE_DIR / f"{name}.json")
    space = consistency_lab.build_space(cfg.space_spec)
    received = []  # the rows of each score call after the population's
    engine_init = consistency_lab._Engine.__init__

    def counting_init(self, space, cfg):
        engine_init(self, space, cfg)
        ties = self.ties
        self.ties = lambda weights: received.append(len(weights)) or ties(weights)

    monkeypatch.setattr(consistency_lab._Engine, "__init__", counting_init)
    run_consistency_experiment(cfg, space)
    distinct = _distinct_count_rows(cfg, space)
    assert sum(received) == sum(distinct) < cfg.replications * len(cfg.checkpoints)


def _per_replication_outer_limits(result, suffix, target):
    """The outer-limit fields of each record, from the estimators run on its own trajectory."""
    space, lp = result.space, result.config.limit_params
    burn = default_burn_in(len(result.config.checkpoints)) if lp.burn_in is None else lp.burn_in
    for rec in result.records:
        traj = SetTrajectory.from_indices(space, [getattr(s, f"mean_set{suffix}") for s in rec.stats])
        tail = tail_limsup(traj, burn, lp.min_visits)
        kura = kuratowski_limsup(traj, lp.epsilon, burn, lp.min_visits)
        gap = max((space.set_distance(p, target.argmin) for p in kura.points), default=0)
        yield rec, (tail, tail <= frozenset(target.argmin), kura, kura.points <= frozenset(target.argmin), gap)


@pytest.mark.parametrize(
    "name, epsilon",
    [
        ("g4", Fraction(0)), ("g4", Fraction(2)), ("grid", Fraction(0)), ("grid", Fraction(1, 2)), ("grid", 0.5),
        ("plane", 0.0), ("plane", Fraction(3, 4)),
    ],
    ids=["g4-0", "g4-2", "grid-0", "grid-1/2", "grid-0.5", "plane-0", "plane-3/4"],
)
def test_outer_limits_equal_the_per_replication_estimators(name, epsilon):
    space, spec = {**ENGINE_SPACES, "plane": (PLANE, None)}[name]
    support = (0, 1, 2) if name == "plane" else (0, 3, len(space) - 1)  # each gives empty tail estimates too
    mu = DiscreteMeasure(tuple(space.points[i] for i in support), (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)))
    lp = LimitParams(epsilon=epsilon, burn_in=2, min_visits=2)
    cfg = ExperimentConfig(
        space_spec=spec, mu=mu, r=2, n_max=20, checkpoints=(2, 3, 5, 8, 13, 20),
        replications=150, seed=11, restricted=True, limit_params=lp,
    )
    result = run_consistency_experiment(cfg, space)
    seen, grown = set(), 0
    for suffix, target in (("", result.population), ("_res", result.population_restricted)):
        fields = ("tail_estimate", "tail_included", "kuratowski", "kuratowski_included", "kuratowski_target_gap")
        for rec, expected in _per_replication_outer_limits(result, suffix, target):
            got = tuple(getattr(rec, field + suffix) for field in fields)
            assert got == expected
            assert [type(value) for value in got] == [type(value) for value in expected]
            seen.add((bool(got[0]), got[1]))
            grown += bool(got[2].points - got[0])
    assert seen == {(False, True), (True, True), (True, False)}  # empty, inside and outside estimates
    assert (grown > 0) == (epsilon > 0)  # epsilon > 0 credits points near the mean sets


@pytest.mark.parametrize("epsilon", [0.0, Fraction(3, 4)], ids=["plane-0", "plane-3/4"])
def test_summary_gap_statistics_equal_those_of_the_gaps_as_fractions(epsilon):
    # the plane runs above, on a float space: at epsilon 0 some Kuratowski
    # estimates are empty, so the gaps mix the int 0 with floats, and the
    # summary sorts them as they are
    mu = DiscreteMeasure(tuple(PLANE.points[i] for i in (0, 1, 2)), (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)))
    lp = LimitParams(epsilon=epsilon, burn_in=2, min_visits=2)
    cfg = ExperimentConfig(
        space_spec=None, mu=mu, r=2, n_max=20, checkpoints=(2, 3, 5, 8, 13, 20),
        replications=150, seed=11, restricted=True, limit_params=lp,
    )
    result = run_consistency_experiment(cfg, PLANE)
    summary = build_summary(result)
    block, verdicts = summary["outer_limit"], {name: passed for name, passed, _ in summary_blocks(result, summary)}
    gaps, budget = result.limits["kuratowski_target_gap"], 2 * Fraction(epsilon)
    assert len(gaps) % 2 == 0 and (int in set(map(type, gaps))) == (epsilon == 0)  # the median averages two gaps
    fractions = [Fraction(g) for g in gaps]
    assert block["kuratowski_median_target_gap"] == _to_float(statistics.median(fractions))
    assert block["kuratowski_max_target_gap"] == _to_float(max(fractions))
    assert block["kuratowski_gap_within_budget_rate"] == sum(f <= budget for f in fractions) / len(fractions)
    if budget > 0:  # the restricted median, and each track's verdict on its median
        for suffix, prefix in (("", ""), ("_res", "restricted-")):
            median = statistics.median(map(Fraction, result.limits[f"kuratowski_target_gap{suffix}"]))
            assert verdicts[f"{prefix}outer-limit"] == (median <= budget)
        assert block["kuratowski_median_target_gap_res"] == _to_float(median)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    name=st.sampled_from(sorted(ENGINE_SPACES)),
    r=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    checkpoints=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True).map(sorted),
)
def test_restricted_upper_bound_matches_enumeration(data, name, r, seed, checkpoints):
    space, spec = ENGINE_SPACES[name]
    mu = data.draw(measures(space))
    cfg = ExperimentConfig(
        space_spec=spec, mu=mu, r=r, n_max=checkpoints[-1], checkpoints=tuple(checkpoints),
        replications=3, seed=seed, restricted=True, limit_params=None,
    )
    _assert_restricted_upper_matches_enumeration(run_consistency_experiment(cfg, space))


def _assert_restricted_upper_matches_enumeration(result) -> int:
    """Every row's ``t_res_upper`` equals the oracle's on its own draws; returns
    how many rows have not drawn some point of the restricted population mean set."""
    space, cfg = result.space, result.config
    pairs, missed = list(zip(cfg.mu.support, cfg.mu.weights)), 0
    for rec in result.records:
        idx = _draw_indices(_support_cdf(cfg.mu), cfg.n_max, replication_rng(cfg.seed, rec.replication))
        for stat in rec.stats:
            drawn = [cfg.mu.support[i] for i in idx[: stat.n]]
            assert stat.t_res_upper == restricted_upper_by_enumeration(space, pairs, drawn, cfg.r)
            missed += not set(result.population_restricted.argmin) <= set(drawn)
    return missed


@pytest.mark.parametrize("name", sorted(ENGINE_SPACES))
def test_restricted_upper_bound_counts_undrawn_mean_points(name):
    # a 3-point line whose restricted mean set is its midpoint, drawn least:
    # early rows miss it, and at r = 3 a row that drew both ends scores each
    # end 4 times farther than the midpoint, so only the drawn points may
    # close the midpoint's gap (one undrawn, as if at score 0, would halve it)
    space, spec = ENGINE_SPACES[name]
    points = tuple(space.points[i] for i in {"g4": (0, 1, 3), "grid": (0, 4, 8)}[name])
    mu = DiscreteMeasure(points, (Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)))
    cfg = ExperimentConfig(
        space_spec=spec, mu=mu, r=3, n_max=6, checkpoints=(1, 2, 6), replications=12, seed=3, restricted=True,
    )
    result = run_consistency_experiment(cfg, space)
    assert result.population_restricted.argmin == (points[1],)
    assert _assert_restricted_upper_matches_enumeration(result) > 3


@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(2)], ids=["0", "2"])
def test_outer_limits_credit_pseudo_metric_twins(epsilon):
    # p4 is p0's zero-distance twin and is never drawn
    line = (0, 1, 2, 3, 0)
    space = MetricSpace.from_int_matrix(
        tuple(f"p{i}" for i in range(5)), [[abs(a - b) for b in line] for a in line], is_pseudo=True, name="twins"
    )
    mu = DiscreteMeasure(("p0", "p1", "p3"), (Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)))
    lp = LimitParams(epsilon=epsilon, burn_in=1, min_visits=2)
    cfg = ExperimentConfig(
        space_spec=None, mu=mu, r=2, n_max=20, checkpoints=(2, 3, 5, 8, 13, 20),
        replications=120, seed=5, restricted=True, limit_params=lp,
    )
    result = run_consistency_experiment(cfg, space)
    credited = 0
    for suffix, target in (("", result.population), ("_res", result.population_restricted)):
        for rec, (tail, _, kura, included, gap) in _per_replication_outer_limits(result, suffix, target):
            assert getattr(rec, f"tail_estimate{suffix}") == tail
            assert getattr(rec, f"kuratowski{suffix}") == kura
            assert getattr(rec, f"kuratowski_included{suffix}") == included
            assert getattr(rec, f"kuratowski_target_gap{suffix}") == gap
            credited += "p4" in kura.points - tail
    assert credited > 0


@pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(2)], ids=["1", "2"])
def test_graph_outer_limits_at_positive_epsilon_equal_the_per_replication_estimators(epsilon):
    space = FULL_GRAPH_SPACES[5]
    support = tuple(Graph(5, m) for m in (0, 0b1011, 0x3F0))
    mu = DiscreteMeasure(support, (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)))
    lp = LimitParams(epsilon=epsilon, burn_in=2, min_visits=2)
    cfg = ExperimentConfig(
        space_spec=GraphSpec(5), mu=mu, r=2, n_max=20, checkpoints=(2, 3, 5, 8, 13, 20),
        replications=60, seed=3, restricted=True, limit_params=lp,
    )
    result = run_consistency_experiment(cfg, space)
    grown = 0
    for suffix, target in (("", result.population), ("_res", result.population_restricted)):
        fields = ("tail_estimate", "tail_included", "kuratowski", "kuratowski_included", "kuratowski_target_gap")
        for rec, expected in _per_replication_outer_limits(result, suffix, target):
            got = tuple(getattr(rec, field + suffix) for field in fields)
            assert got == expected
            grown += bool(got[2].points - got[0])
    assert (grown > 0) == (epsilon > 1)  # at epsilon = 1 a visit is membership
