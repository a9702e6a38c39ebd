"""Independent brute-force oracles, kept deliberately naive.

Everything here recomputes functionals with Fraction arithmetic (floats
summed by ``math.fsum`` for non-integer orders) and plain double loops,
using its own distance definitions where the space has one (edge-set
symmetric difference for graphs, |x - y| for grid points), so the solver
under test shares no minimization or tie-handling code with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from frechet_means.graph_space import Graph


def hamming_by_edge_sets(g1: Graph, g2: Graph) -> int:
    """Symmetric-difference cardinality of the two edge sets."""
    return len(set(g1.edge_list()) ^ set(g2.edge_list()))


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


def float_functional_by_enumeration(space, pairs, r, candidate):
    """sum d(x, candidate)^r w(x) in floats, for any real r; pairs = (point, weight)."""
    return math.fsum(float(oracle_distance(space, x, candidate)) ** r * float(w) for x, w in pairs)


def modulus_by_triple_enumeration(space, support, delta, r):
    """sup over z and pairs with d(x, y) < delta of |d(z,x)^r - d(z,y)^r|."""
    support = list(support)
    delta = Fraction(str(delta))
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
