"""Exact Frechet mean sets and variances by exhaustive minimization.

Every operation returns the *full* argmin set in canonical space order --
ties are the object of study here, never collapsed to a representative.

Sample means, restricted sample means and (restricted) population means all
run through :func:`_solve`, one path for both arithmetics.  It hands the
sample or the measure to :func:`metric_core._weights`, which decides the
arithmetic once: integer weights over a normalizer on exact spaces with an
integer order and rational weights, float weights summing to one otherwise.
Its tail, :func:`_mean_set`, turns the minimum and the tie indices into a
result.  A result keeps the sorted tie indices (``indices``) and builds the
points (``argmin``) only when they are first read.

One factory, :func:`_scorer`, scores for the solver and the consistency
engine alike.  Exact scores over a full graph space come per slot-type orbit
of the support from :class:`graph_space._Orbits`, only for the orbits that
a cut and a bound admit for some weight row, the rows in groups whose factors
fit the cell budget, and the tied orbits expand to their graphs (at r = 1
the solver reads the argmin cube off per-slot weights instead,
:func:`_order1_cube`); every other case scores each
candidate as ``d**r @ weights``, with ``d**r`` from
:func:`metric_core._power_block`.  Exact scores are integers in the dtype
:func:`metric_core._exact_dtype` picks, so BLAS sums them exactly in any
order; a float score is summed one support column at a time, in support
order.  Scores are made a tile of at most ``metric_core._CHUNK_CELLS`` cells
at a time, into one buffer, and one reducer, :func:`_min_ties`, takes each
tile as it is made and keeps each row's running minimum and ties; no score
row is held whole, and no result depends on the tiles.  Exact ties are the
scores equal to the exact minimum, so tie sets are bit-reproducible; float
ties are the scores <= optimum * (1 + 1e-9), a tolerance of the contract.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import metric_core
from .graph_space import _AllGraphs, _mask_labels, _Orbits
from .metric_core import (
    DiscreteMeasure,
    MetricSpace,
    Sample,
    _exact_dtype,
    _power_block,
    _score_value,
    _weights,
)

__all__ = [
    "MeanSetResult",
    "FLOAT_TIE_RTOL",
    "sample_mean_set",
    "population_mean_set",
    "restricted_sample_mean_set",
    "restricted_population_mean_set",
]

FLOAT_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class MeanSetResult:
    """Optimal functional value plus the full argmin set.

    ``optimum`` is a Fraction on the exact path and a float otherwise;
    ``indices`` are the argmin's sorted indices into ``space``, and
    ``argmin`` its points in that canonical order, built when first read;
    ``candidate_domain`` records which points were allowed to compete.
    """

    order_r: int | float
    optimum: Fraction | float
    indices: tuple
    candidate_domain: str  # full_space | sample_support | measure_support
    exact: bool
    space: MetricSpace = field(compare=False, repr=False)

    @functools.cached_property
    def argmin(self) -> tuple:
        return tuple(map(self.space.points.__getitem__, self.indices))

    @property
    def size(self) -> int:
        return len(self.indices)


def _tied(scores: np.ndarray, best, exact: bool) -> np.ndarray:
    """Where ``scores`` tie with ``best``: equal when exact, within ``FLOAT_TIE_RTOL`` otherwise."""
    return scores == best if exact else scores <= best * (1.0 + FLOAT_TIE_RTOL)


def _min_ties(tiles, exact: bool) -> tuple:
    """Each row's minimum score and the positions tied with it.

    ``tiles`` yields ``(lo, tile)`` in ascending ``lo``, ``tile[k, c]`` being
    row k's score at position ``lo + c`` (an array is one tile at 0), and
    each tile is reduced as it comes: a lower minimum drops the row's ties,
    and the tile's scores tied with the minimum join them.  Returns the
    minima and the ties as ``rows``, ``cols`` in row-major order, with
    ``starts[k]`` the first tie of row k.
    """
    if isinstance(tiles, np.ndarray):
        tiles = ((0, tiles),)
    best, merged = None, False
    rows = cols = np.empty(0, dtype=np.intp)
    for lo, tile in tiles:
        low = tile.min(axis=1)
        if best is None:
            best, values = low, tile[:0, 0]
        elif (low < best).any():
            best = np.minimum(best, low)
            keep = _tied(values, best[rows], exact)
            rows, cols, values = rows[keep], cols[keep], values[keep]
        if not _tied(low, best, exact).any():
            continue  # no row's minimum is in this tile
        tied = _tied(tile, best[:, None], exact)
        r, c = np.divmod(np.flatnonzero(tied), tile.shape[1])  # np.nonzero is slow on 2-D masks
        if len(rows):
            rows, cols, values = (np.concatenate(pair) for pair in ((rows, r), (cols, c + lo), (values, tile[r, c])))
            merged = True
        else:
            rows, cols, values = r, c + lo, tile[r, c]
    if merged:  # rows of several tiles, each row's ties in ascending position
        order = np.argsort(rows, kind="stable")
        rows, cols = rows[order], cols[order]
    return best, rows, cols, np.searchsorted(rows, np.arange(len(best)))


def _order1_cube(space: MetricSpace, sup_idx: np.ndarray, weights: np.ndarray, total: int) -> tuple:
    """Minimum and ties of the exact order-1 scores over a full graph space, per edge slot.

    Point i is edge mask i, so ``sup_idx`` are the support's masks.  With
    ``c_k`` the weight of the support graphs that set slot k, the score of x
    is ``sum_k (x_k ? total - c_k : c_k)``: the minimum is
    ``sum_k min(c_k, total - c_k)`` and the ties form a cube, slot k fixed to
    1 where ``2 c_k > total``, to 0 where ``2 c_k < total``, and free where
    they are equal.
    """
    slots = np.arange(space.bound_M)
    c = (weights @ ((sup_idx[:, None] >> slots) & 1)).tolist()  # Python ints either way
    free = [k for k, ck in enumerate(c) if 2 * ck == total]
    ties = np.empty(1 << len(free), dtype=np.intp)
    ties[0] = sum(1 << k for k, ck in enumerate(c) if 2 * ck > total)
    for j, k in enumerate(free):  # ascending free slots keep the ties in ascending mask order
        ties[1 << j : 2 << j] = ties[: 1 << j] | (1 << k)
    return sum(min(ck, total - ck) for ck in c), ties


def _product(weights: np.ndarray, powers: np.ndarray, exact: bool, out=None, term=None) -> np.ndarray:
    """``weights @ powers``: the scores of weight rows at the positions of
    ``powers``' columns, ``d**r`` with one row per support point.  Exact
    scores are integers, summed in any order; float scores are summed one
    support column at a time, in support order, so no score depends on the
    positions scored beside it."""
    if exact:
        return np.matmul(weights.astype(powers.dtype, copy=False), powers, out=out)
    out = np.multiply(weights[:, :1], powers[0], out=out)
    for j in range(1, len(powers)):
        out += np.multiply(weights[:, j : j + 1], powers[j], out=term)
    return out


def _scorer(space: MetricSpace, sup_idx: np.ndarray, r, exact: bool, total: int, full: bool = True) -> tuple:
    """``(ties, powers, support, expand)``: the scores of weights on the
    support ``sup_idx`` at every point (``full``) or support point.

    The scores stand for positions, slot-type orbits on a full graph space
    with exact scores and candidates elsewhere; ``support`` holds each
    support point's.  ``ties(weights)`` gives each weight row's minimum and
    tied positions as :func:`_min_ties` does, from tiles of at most
    ``_CHUNK_CELLS`` cells.  On the orbits only those that the slot-swap cut
    and the order-1 bound keep for some row are scored, and the rows come in
    groups whose factors fit the same budget
    (:meth:`graph_space._Orbits.scorer`), each group reduced alone and the
    results stacked; off them a tile is a range of candidates, made from its
    power block.  ``powers(positions)`` gives the positions' ``d**r`` for
    :func:`_product`, and ``expand(positions)`` each position's space indices
    and the offsets where they start.
    """
    if exact and full and isinstance(space.points, _AllGraphs):
        orbits = _Orbits(space, sup_idx)
        tiles, powers = orbits.scorer(r, total)

        def ties(weights: np.ndarray) -> tuple:
            orbit_of, groups = tiles(weights)
            parts, lo = [], 0
            for group in groups:
                best, rows, positions, _ = _min_ties(group, True)
                parts.append((best, rows + lo, positions))
                lo += len(best)
            best, rows, positions = map(np.concatenate, zip(*parts))
            return best, rows, orbit_of(positions), np.searchsorted(rows, np.arange(len(best)))

        return ties, powers, orbits.support, orbits.graphs
    size, m = len(space) if full else len(sup_idx), len(sup_idx)
    dtype = _exact_dtype(space, r, total) if exact else np.float64

    def powers(positions: np.ndarray) -> np.ndarray:
        rows = positions if full else sup_idx[positions]
        return np.ascontiguousarray(_power_block(space, rows, sup_idx, r, exact, total).T)

    def tiles(weights: np.ndarray):
        weights = weights.astype(dtype)
        step = max(1, metric_core._CHUNK_CELLS // max(len(weights), m))  # candidates per tile
        buffers = np.empty((2, len(weights) * min(step, size)), dtype)
        for lo in range(0, size, step):
            block = powers(np.arange(lo, min(lo + step, size)))
            out, term = (b[: len(weights) * block.shape[1]].reshape(len(weights), -1) for b in buffers)
            yield lo, _product(weights, block, exact, out, term)

    def expand(positions: np.ndarray) -> tuple:
        return positions if full else sup_idx[positions], np.arange(len(positions) + 1)

    return lambda w: _min_ties(tiles(w), exact), powers, sup_idx if full else np.arange(m), expand


def _labels(space: MetricSpace, indices: Sequence) -> Iterator[str]:
    """The label of each point ``space.points[i]`` of ``indices``, in order, made as they are read:
    on a full graph space from the edge masks i, within the cell budget and with no Graph built
    (:func:`graph_space._mask_labels`); elsewhere by the space's ``label``."""
    if isinstance(space.points, _AllGraphs):
        return _mask_labels(space.points.nv, indices)
    return map(space.label, map(space.points.__getitem__, indices))


def _solve(space: MetricSpace, data: Sample | DiscreteMeasure, r, domain: str) -> MeanSetResult:
    """Argmin of the functional of a sample or a measure ``data``.

    The candidates are the whole space for the ``full_space`` domain and
    the support of ``data`` otherwise.  Exact order-1 means over a full
    graph space come from :func:`_order1_cube`; every other case reduces
    the tiles of :func:`_scorer` and expands the tied positions.
    """
    sup_idx, weights, normalizer, exact = _weights(space, data, r)
    full = domain == "full_space"
    if exact and full and r == 1 and isinstance(space.points, _AllGraphs):
        best, ties = _order1_cube(space, sup_idx, weights, normalizer)
    else:
        ties_of, _, _, expand = _scorer(space, sup_idx, r, exact, normalizer, full)
        (best,), _, tied, _ = ties_of(weights[None])
        ties = np.sort(expand(tied)[0])
    return _mean_set(space, best, ties, r, normalizer, exact, domain)


def _mean_set(
    space: MetricSpace, best, ties: np.ndarray, r, normalizer: int, exact: bool, domain: str
) -> MeanSetResult:
    """The mean set of the minimum score ``best`` (over ``normalizer``) and its
    ties, the sorted space indices ``ties``; no point is built."""
    return MeanSetResult(
        order_r=r,
        optimum=_score_value(best, normalizer, exact, space.scale**r),
        indices=tuple(ties.tolist()),
        candidate_domain=domain,
        exact=exact,
        space=space,
    )


def sample_mean_set(space: MetricSpace, sample: Sample, r) -> MeanSetResult:
    """Argmin over the whole space of (1/n) sum_i d(X_i, x')^r, with all ties."""
    return _solve(space, sample, r, "full_space")


def restricted_sample_mean_set(space: MetricSpace, sample: Sample, r) -> MeanSetResult:
    """Argmin restricted to the distinct points occurring in the sample.

    Never empty: the candidates always exist, no matter how large the
    ambient space is.
    """
    return _solve(space, sample, r, "sample_support")


def population_mean_set(space: MetricSpace, mu: DiscreteMeasure, r) -> MeanSetResult:
    """Argmin over the whole space of sum_x d(x, x')^r mu(x), with all ties."""
    return _solve(space, mu, r, "full_space")


def restricted_population_mean_set(space: MetricSpace, mu: DiscreteMeasure, r) -> MeanSetResult:
    """Argmin restricted to the support of the measure (closed, being finite)."""
    return _solve(space, mu, r, "measure_support")
