"""Independent brute-force oracles, kept deliberately naive.

Everything here recomputes functionals with Fraction arithmetic (floats
summed by ``math.fsum`` for non-integer orders) and plain double loops,
using its own distance definitions where the space has one (edge-set
symmetric difference for graphs, |x - y| for grid points), so the solver
under test shares no minimization or tie-handling code with it.  It also
holds the helpers only tests use: ``hamming_distance`` on two graphs, the
diagnostic ``diagnostic_T`` from the package's functionals, and
``inclusion_check``, a subset test with the distances of the points outside.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from frechet_means import population_functional, sample_functional
from frechet_means.graph_space import Graph


def hamming_by_edge_sets(g1: Graph, g2: Graph) -> int:
    """Symmetric-difference cardinality of the two edge sets."""
    return len(set(g1.edge_list()) ^ set(g2.edge_list()))


def hamming_distance(g1: Graph, g2: Graph) -> int:
    """Number of edge slots on which two graphs differ (popcount of XOR)."""
    if g1.nv != g2.nv:
        raise ValueError(f"vertex counts differ: {g1.nv} != {g2.nv}")
    return (g1.edges ^ g2.edges).bit_count()


def diagnostic_T(space, mu, sample, z, r):
    """T_n(z): empirical minus population functional at z (exact when possible)."""
    return sample_functional(space, sample, z, r) - population_functional(space, mu, z, r)


@dataclass(frozen=True)
class InclusionReport:
    included: bool
    violations: tuple  # (point, distance to target) for points outside the target

    def __bool__(self) -> bool:
        return self.included


def inclusion_check(space, estimate, target) -> InclusionReport:
    """Is estimate a subset of target?  Violating points carry d(x, target).

    The empty estimate is included in anything; an empty target makes every
    estimate point a violation at distance +inf.
    """
    est = frozenset(estimate)
    tgt = frozenset(target)
    for p in est | tgt:
        space.index(p)
    outside = sorted(est - tgt, key=space.index)
    violations = tuple((p, space.set_distance(p, tgt)) for p in outside)
    return InclusionReport(included=not violations, violations=violations)


def oracle_distance(space, x, y):
    """Ground-truth distance as an exact number."""
    if isinstance(x, Graph):
        return hamming_by_edge_sets(x, y)
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return abs(x - y)
    if isinstance(x, tuple) and isinstance(y, tuple):  # integer L1 point clouds
        return sum(abs(a - b) for a, b in zip(x, y))
    return Fraction(space.distance(x, y))  # matrix-backed spaces: matrix is the truth


def mean_set_by_enumeration(space, items, r, candidates):
    """Exact argmin of (1/n) sum d(item, c)^r over the candidates.

    Returns (optimum as Fraction, argmin tuple in candidate order).
    """
    n = len(items)
    best = None
    argmin = []
    for c in candidates:
        total = Fraction(0)
        for x in items:
            total += Fraction(oracle_distance(space, x, c)) ** r
        value = total / n
        if best is None or value < best:
            best, argmin = value, [c]
        elif value == best:
            argmin.append(c)
    return best, tuple(argmin)


def population_by_enumeration(space, pairs, r, candidates):
    """Exact argmin of sum d(x, c)^r w(x) over candidates; pairs = (point, weight)."""
    best = None
    argmin = []
    for c in candidates:
        value = sum(Fraction(oracle_distance(space, x, c)) ** r * Fraction(w) for x, w in pairs)
        if best is None or value < best:
            best, argmin = value, [c]
        elif value == best:
            argmin.append(c)
    return best, tuple(argmin)


def functional_by_enumeration(space, pairs, r, candidate):
    """sum d(x, candidate)^r w(x) as a Fraction; pairs = (point, weight)."""
    return sum(Fraction(oracle_distance(space, x, candidate)) ** r * Fraction(w) for x, w in pairs)


def float_functional_by_enumeration(space, pairs, r, candidate):
    """sum d(x, candidate)^r w(x) in floats, for any real r; pairs = (point, weight)."""
    return math.fsum(float(oracle_distance(space, x, candidate)) ** r * float(w) for x, w in pairs)


def modulus_by_triple_enumeration(space, support, delta, r):
    """sup over z and pairs with d(x, y) < delta of |d(z,x)^r - d(z,y)^r|."""
    support = list(support)
    delta = Fraction(delta)  # a float delta is the fraction it equals, as in the package
    close_pairs = [
        (x, y)
        for x in support
        for y in support
        if Fraction(oracle_distance(space, x, y)) < delta
    ]
    best = Fraction(0)
    for z in support:
        dz = {p: Fraction(oracle_distance(space, z, p)) for p in support}
        for x, y in close_pairs:
            v = abs(dz[x] ** r - dz[y] ** r)
            if v > best:
                best = v
    return best


def tail_limsup_by_counting(sets, burn_in, min_visits=2):
    """Points lying in at least ``min_visits`` of the sets ``sets[burn_in:]``, counted in a dict."""
    counts: dict = {}
    for s in sets[burn_in:]:
        for p in s:
            counts[p] = counts.get(p, 0) + 1
    return frozenset(p for p, c in counts.items() if c >= min_visits)


def zero_distance_hull(space, points):
    """Every point of the space at distance 0 from one of ``points``."""
    return frozenset(x for x in space.points if any(oracle_distance(space, x, p) == 0 for p in points))


def epsilon_hull(space, points, epsilon):
    """Every point of the space at distance < ``epsilon`` from one of ``points``
    (at distance 0 when ``epsilon`` = 0)."""
    return frozenset(
        x for x in space.points if any(d < epsilon or d == 0 for d in (oracle_distance(space, x, p) for p in points))
    )


def median_and_max_by_sorting(values):
    """``float`` of the median and of the maximum, by sorting the values themselves."""
    return float(statistics.median(values)), float(max(values))


def write_report_by_csv_writer(result, path):
    """report.csv as the csv module's default writer renders it, one row per
    replication and checkpoint of ``result.records``."""
    space = result.space

    def labels(mean_set):
        return ";".join(space.label(space.points[i]) for i in mean_set)

    def flag(value):
        return "true" if value else "false"

    header = ["replication", "n", "sigma_hat", "abs_error", "t_hat_max", "t_star", "t_theta_min",
              "mean_set_size", "included_in_population", "mean_set"]
    if result.config.restricted:
        header += ["sigma_hat_res", "abs_error_res", "t_res_hat_max", "tr_star", "t_res_upper",
                   "mean_set_res_size", "included_in_population_res", "subset_of_sampled", "mean_set_res"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in result.records:
            for s in rec.stats:
                row = [rec.replication, s.n, float(s.sigma_hat), abs(float(s.t_star)), float(s.t_hat_max),
                       float(s.t_star), float(s.t_theta_min), len(s.mean_set), flag(s.included_in_population),
                       labels(s.mean_set)]
                if result.config.restricted:
                    row += [float(s.sigma_hat_res), abs(float(s.tr_star)), float(s.t_res_hat_max),
                            float(s.tr_star), float(s.t_res_upper), len(s.mean_set_res),
                            flag(s.included_in_population_res), flag(s.subset_of_sampled), labels(s.mean_set_res)]
                writer.writerow(row)
