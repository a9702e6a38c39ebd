"""Exact Frechet mean sets and variances by exhaustive minimization.

Every operation returns the *full* argmin set in canonical space order --
ties are the object of study here, never collapsed to a representative.

Sample means, restricted sample means and (restricted) population means all
run through :func:`_solve`, one path for both arithmetics.  It hands the
sample or the measure to :func:`metric_core._weights`, which decides the
arithmetic once: integer weights over a normalizer on exact spaces with an
integer order and rational weights, float weights summing to one otherwise.
Its tail, :func:`_mean_set`, turns the minimum and the tie indices into a
result; the consistency harness calls it on the population scores its
checkpoints use.  A result keeps the sorted tie indices (``indices``) and
builds the points (``argmin``) only when they are first read.

Exact means over a full graph space use the Hamming structure instead of a
distance block.  At r = 1 the functional splits over edge slots, so
:func:`_order1_cube` reads the argmin cube off per-slot weights without
scoring any graph.  At r >= 2, :class:`graph_space._Orbits` scores each
slot-type orbit of the support once, with one matmul of two small distance
tables, and the tied orbits expand to the sorted masks of their graphs.
Every other case scores each candidate as ``d**r @ weights``, with ``d**r``
from :func:`metric_core._power_block`.  On the exact path the scores are
integers in the dtype :func:`metric_core._exact_dtype` picks (float64, int64
or Python ints, each exact at its size).

One reducer, :func:`_min_ties`, picks the argmin set of every row of a
score block: the solver calls it on one row, the consistency engine on one
row per replication.  On the exact path it keeps every score equal to the
exact minimum, so tie sets are bit-reproducible; on the float path it keeps
every score <= optimum * (1 + 1e-9), a tolerance that is part of the
contract.

Distance blocks are scored in chunks of candidates only to bound their
working set, and the reducer sees all scores at once.  Exact scores are
integers, so exact results do not depend on the chunk size; a float score
is a BLAS matvec sum, whose rounding can change with the chunk.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph_space import _AllGraphs, _Orbits
from .metric_core import (
    DiscreteMeasure,
    MetricSpace,
    Sample,
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

# Candidate chunk size for vectorized evaluation; it bounds the distance-block
# working set, and any value gives identical exact results.
_DEFAULT_CHUNK = 65536


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


def _min_ties(scores: np.ndarray, exact: bool, competes: np.ndarray | None = None) -> tuple:
    """Each row's minimum score and the positions tied with it, among the
    positions where ``competes`` holds (None: all; each row has at least one).

    Exact scores tie only when equal, float scores within ``FLOAT_TIE_RTOL``.
    Returns the minima and the tied positions as ``rows``, ``cols`` in
    row-major order, with ``starts[k]`` the first tie of row k.
    """
    masked = scores if competes is None else np.where(competes, scores, scores.max())
    best = masked.min(axis=1)[:, None]
    tied = scores == best if exact else scores <= best * (1.0 + FLOAT_TIE_RTOL)
    if competes is not None:
        tied &= competes
    rows, cols = np.divmod(np.flatnonzero(tied), scores.shape[1])  # np.nonzero is slow on 2-D masks
    return best[:, 0], rows, cols, np.searchsorted(rows, np.arange(len(scores)))


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


def _solve(space: MetricSpace, data: Sample | DiscreteMeasure, r, domain: str) -> MeanSetResult:
    """Argmin of the functional of a sample or a measure ``data``.

    The candidates are the whole space for the ``full_space`` domain and
    the support of ``data`` otherwise.  Exact means over a full graph space
    come from :func:`_order1_cube` at r = 1 and otherwise from the orbit
    scorer, whose tied orbits expand to the sorted masks of their graphs;
    every other case scores distance blocks.
    """
    sup_idx, weights, normalizer, exact = _weights(space, data, r)
    if exact and domain == "full_space" and isinstance(space.points, _AllGraphs):
        if r == 1:
            best, ties = _order1_cube(space, sup_idx, weights, normalizer)
        else:
            orbits = _Orbits(space, sup_idx)
            (best,), _, tied, _ = _min_ties(orbits.scorer(r, normalizer)(weights)[None], exact)
            ties = orbits.masks(tied)
    else:
        candidates_idx = np.arange(len(space), dtype=np.intp) if domain == "full_space" else sup_idx
        chunks = (candidates_idx[lo : lo + _DEFAULT_CHUNK] for lo in range(0, len(candidates_idx), _DEFAULT_CHUNK))
        scores = [_power_block(space, c, sup_idx, r, exact, normalizer) @ weights for c in chunks]
        (best,), _, pos, _ = _min_ties(np.concatenate(scores)[None], exact)
        ties = np.sort(candidates_idx[pos])
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
