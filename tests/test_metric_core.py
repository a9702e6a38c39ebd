from fractions import Fraction

import numpy as np
import pytest

from frechet_means import (
    DiscreteMeasure,
    MetricSpace,
    Sample,
    check_metric_axioms,
    check_order,
    equicontinuity_bound,
    interval_grid,
    modulus_of_continuity,
    population_functional,
    power_gamma,
    sample_functional,
)
from frechet_means import metric_core
from oracles import modulus_by_triple_enumeration


def two_point_space(d=1, pseudo=False):
    return MetricSpace.from_int_matrix(("a", "b"), [[0, d], [d, 0]], is_pseudo=pseudo, name="pair")


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_valid_two_point_space_has_empty_report():
    report = check_metric_axioms(two_point_space())
    assert report.ok
    assert report.violations == ()


def test_coincidence_violation_reports_witness():
    report = check_metric_axioms(two_point_space(d=0))
    assert not report.ok
    (v,) = report.violations
    assert v.axiom == "coincidence"
    assert set(v.witness) == {"a", "b"}


def test_pseudo_flag_skips_coincidence():
    report = check_metric_axioms(two_point_space(d=0, pseudo=True))
    assert report.ok


def test_triangle_violation_reports_witness_triple():
    m = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    space = MetricSpace.from_int_matrix(("a", "b", "c"), m, name="broken")
    report = check_metric_axioms(space)
    axioms = {v.axiom: v for v in report.violations}
    assert "triangle" in axioms
    assert len(axioms["triangle"].witness) == 3


def test_symmetry_and_bound_violations_detected():
    m = np.array([[0, 2], [1, 0]])
    space = MetricSpace(
        ("a", "b"),
        int_block=lambda r, c: m[np.ix_(r, c)],
        bound_M=1,
        name="asym",
    )
    report = check_metric_axioms(space)
    axioms = {v.axiom for v in report.violations}
    assert "symmetry" in axioms
    assert "boundedness" in axioms


def test_graph_and_grid_spaces_satisfy_all_axioms(g4, grid201):
    assert check_metric_axioms(g4).ok
    assert check_metric_axioms(grid201).ok


def test_axiom_check_point_guard():
    with pytest.raises(ValueError, match="guard"):
        check_metric_axioms(two_point_space(), max_points=1)


# ---------------------------------------------------------------------------
# order validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, 0.5, -1, float("inf"), float("nan"), "2"])
def test_orders_below_one_or_nonfinite_rejected(bad):
    with pytest.raises(ValueError):
        check_order(bad)


def test_integer_and_real_orders_accepted():
    check_order(1)
    check_order(2)
    check_order(1.5)


def test_power_gamma_is_two_to_r_minus_one():
    assert [power_gamma(r) for r in (1, 2, 3, 4)] == [1, 3, 7, 15]


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def test_sample_functional_pair_of_graphs(g4, s1, s2):
    value = sample_functional(g4, Sample((s1, s2)), s1, 1)
    assert value == 1  # (0 + 2) / 2
    assert isinstance(value, Fraction)


def test_sample_functional_identity_is_zero(g4, s1):
    assert sample_functional(g4, Sample((s1,)), s1, 5) == 0


def test_sample_functional_grid_squared(grid201):
    sample = Sample((Fraction(-1), Fraction(1)))
    assert sample_functional(grid201, sample, Fraction(0), 2) == 1


def test_sample_functional_rejects_foreign_candidate(g4, grid201, s1):
    with pytest.raises(ValueError, match="not a point"):
        sample_functional(grid201, Sample((Fraction(0),)), s1, 1)
    with pytest.raises(ValueError, match="not a point"):
        sample_functional(g4, Sample((Fraction(0),)), s1, 1)


def test_population_functional_is_constant_one_for_order1(grid201, mu_pm):
    for candidate in (Fraction(-1), Fraction(0), Fraction(37, 100), Fraction(1)):
        assert population_functional(grid201, mu_pm, candidate, 1) == 1


def test_population_functional_point_mass_is_zero(grid201):
    mu = DiscreteMeasure((Fraction(1, 2),), (Fraction(1),))
    assert population_functional(grid201, mu, Fraction(1, 2), 3) == 0


def test_population_functional_squared_values(grid201, mu_pm):
    assert population_functional(grid201, mu_pm, Fraction(0), 2) == 1
    assert population_functional(grid201, mu_pm, Fraction(1), 2) == 2
    assert population_functional(grid201, mu_pm, Fraction(-1), 2) == 2


def test_sample_equals_population_on_proportional_sample(g4, s1, s2):
    # weights 3/4, 1/4 realized as a sample of 4 items
    sample = Sample((s1, s1, s1, s2))
    mu = DiscreteMeasure((s1, s2), (Fraction(3, 4), Fraction(1, 4)))
    for r in (1, 2, 3):
        for candidate in g4.points[::7]:
            assert sample_functional(g4, sample, candidate, r) == population_functional(
                g4, mu, candidate, r
            )


def test_functional_is_permutation_invariant(g4, s1, s2):
    items = (s1, s2, s1, s1, s2)
    shuffled = (s2, s1, s1, s2, s1)
    for candidate in g4.points[::9]:
        assert sample_functional(g4, Sample(items), candidate, 2) == sample_functional(
            g4, Sample(shuffled), candidate, 2
        )


def test_float_space_functionals():
    m = [[0.0, 0.5, 1.0], [0.5, 0.0, 0.7], [1.0, 0.7, 0.0]]
    space = MetricSpace.from_float_matrix(("a", "b", "c"), m, name="floaty")
    value = sample_functional(space, Sample(("a", "b")), "c", 1.5)
    assert isinstance(value, float)
    assert value == pytest.approx((1.0**1.5 + 0.7**1.5) / 2)


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------


def test_modulus_trivial_when_delta_below_resolution():
    assert modulus_of_continuity(two_point_space(), ("a", "b"), 0.5, 1) == 0


def test_modulus_on_g4_matches_triple_oracle(g4):
    support = g4.points
    for r, delta, expected in [(1, 1.5, 1), (2, 1.5, 11), (3, 1.5, 91), (2, 2.5, 20)]:
        got = modulus_of_continuity(g4, support, delta, r)
        assert got == expected
        assert got == modulus_by_triple_enumeration(g4, support, delta, r)


def test_modulus_with_a_delta_past_every_float(g4):
    # every pair is close; the powers stay float64-exact while delta**r is
    # far past what a float holds
    delta = Fraction(10**400)
    for r in (1, 3):
        got = modulus_of_continuity(g4, g4.points, delta, r)
        assert got == 6**r == modulus_by_triple_enumeration(g4, g4.points[:8] + g4.points[-8:], delta, r)


def test_modulus_monotone_in_delta(g4):
    deltas = [0.5, 1.5, 2.5, 3.5, 6.5]
    values = [modulus_of_continuity(g4, g4.points, d, 2) for d in deltas]
    assert values == sorted(values)


def test_modulus_respects_lipschitz_bound(g4):
    for r in (1, 2, 3):
        for delta in (0.5, 1.5, 2.5):
            s = modulus_of_continuity(g4, g4.points, delta, r)
            assert s <= equicontinuity_bound(Fraction(g4.bound_M), r, Fraction(str(delta)))


def test_modulus_restricted_support(grid201):
    # with support {-1, 1} the only close pairs are identical ones
    support = (Fraction(-1), Fraction(1))
    assert modulus_of_continuity(grid201, support, 1.5, 2) == 0
    assert modulus_of_continuity(grid201, support, 2.5, 1) == 2


def test_modulus_rejects_bad_inputs(g4, grid201, monkeypatch):
    with pytest.raises(ValueError, match="non-empty"):
        modulus_of_continuity(g4, (), 1.0, 1)
    with pytest.raises(ValueError, match="delta"):
        modulus_of_continuity(g4, g4.points, 0, 1)
    # the O(n^3) scan shares the point guard of the axiom check
    monkeypatch.setattr(metric_core, "_EXHAUSTIVE_MAX_POINTS", 200)
    with pytest.raises(ValueError, match="201 support points exceed the 200-point guard"):
        modulus_of_continuity(grid201, grid201.points, 1, 1)
    assert modulus_of_continuity(grid201, grid201.points[:200], 1, 1) == Fraction(99, 100)


# ---------------------------------------------------------------------------
# equicontinuity / boundedness properties
# ---------------------------------------------------------------------------


def test_power_difference_bound_on_random_triples(g4, grid201):
    rng = np.random.Generator(np.random.PCG64(1234))
    for space in (g4, grid201):
        n = len(space)
        z, x, y = (rng.integers(0, n, size=2000) for _ in range(3))
        all_idx = np.arange(n, dtype=np.intp)
        d = space.int_block(all_idx, all_idx)
        m_units = int(Fraction(space.bound_M) / space.scale)
        for r in (1, 2, 3):
            lhs = np.abs(d[z, x].astype(np.int64) ** r - d[z, y].astype(np.int64) ** r)
            rhs = power_gamma(r) * m_units ** (r - 1) * d[x, y].astype(np.int64)
            assert np.all(lhs <= rhs)
            assert np.all(d[z, x].astype(np.int64) ** r <= m_units**r)


# ---------------------------------------------------------------------------
# measures, samples, grids
# ---------------------------------------------------------------------------


def test_measure_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        DiscreteMeasure(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match="sum"):
        DiscreteMeasure(("a", "b"), (0.5, 0.5 + 1e-9))
    DiscreteMeasure(("a", "b"), (0.5, 0.5))  # float weights, exact sum


def test_measure_weights_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        DiscreteMeasure(("a", "b"), (Fraction(1), Fraction(0)))


def test_measure_support_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        DiscreteMeasure(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))


def test_measure_sorts_support_canonically():
    mu = DiscreteMeasure((Fraction(1), Fraction(-1)), (Fraction(1, 4), Fraction(3, 4)))
    assert mu.support == (Fraction(-1), Fraction(1))
    assert mu.weights == (Fraction(3, 4), Fraction(1, 4))


def test_empirical_measure_from_sample(s1, s2):
    mu = DiscreteMeasure.empirical(Sample((s1, s2, s1, s1)))
    assert mu.support == tuple(sorted((s1, s2)))
    assert sum(mu.weights) == 1
    assert mu.weights[mu.support.index(s1)] == Fraction(3, 4)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        Sample(())


def test_interval_grid_validation():
    with pytest.raises(ValueError, match="divide"):
        interval_grid("0", "1", "0.3")
    grid = interval_grid("0", "1", "0.25")
    assert len(grid) == 5
    assert grid.bound_M == 1
    assert grid.distance(Fraction(0), Fraction(3, 4)) == Fraction(3, 4)


def test_empty_space_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        MetricSpace.from_int_matrix((), np.zeros((0, 0)))


def test_float_triangle_check_tolerates_rounding():
    # 0.1 + 0.7 rounds just below 0.8; a correct metric must not be flagged
    values = [0.0, 0.1, 0.8]
    m = [[abs(a - b) for b in values] for a in values]
    space = MetricSpace.from_float_matrix(("a", "b", "c"), m, name="roundy")
    assert check_metric_axioms(space).ok
