"""Exact Frechet mean sets and variances by exhaustive minimization.

Every operation returns the *full* argmin set in canonical space order --
ties are the object of study here, never collapsed to a representative.

The one exception to exhaustive scoring is the exact order-1 mean of a full
graph space: the Hamming functional splits over edge slots, so
:func:`_order1_cube` reads the argmin cube off per-slot weights without
scoring the 2^slots graphs, and returns the same pair :func:`_min_ties`
would.

Sample means, restricted sample means and (restricted) population means all
run through :func:`_solve`, one path for both arithmetics.  It hands the
sample or the measure to :func:`metric_core._weights`, which decides the
arithmetic once: integer weights over a normalizer on exact spaces with an
integer order and rational weights, float weights summing to one otherwise.
Every candidate is then scored as ``d**r @ weights`` with ``d**r`` from
:func:`metric_core._power_block`, whose exact branch keeps the scores in
int64 or Python ints as their size requires.  Its tail, :func:`_mean_set`,
turns the minimum and the tie indices into a result; the consistency harness
calls it on the population scores of the block its checkpoints use.  One reducer,
:func:`_min_ties`, picks the argmin set as sorted space indices: on the exact
path it keeps every score equal to the exact minimum, so tie sets are
bit-reproducible; on the float path it keeps every score <= optimum *
(1 + 1e-9), a tolerance that is part of the contract.

Candidates are scored in chunks only to bound the distance-block working
set; the reducer sees all scores at once, so results do not depend on the
chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_space import _AllGraphs
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

# Candidate chunk size for vectorized evaluation; any value gives identical
# results, this one just bounds the distance-block working set.
_DEFAULT_CHUNK = 65536


@dataclass(frozen=True)
class MeanSetResult:
    """Optimal functional value plus the full argmin set.

    ``optimum`` is a Fraction on the exact path and a float otherwise;
    ``argmin`` is in canonical space order; ``candidate_domain`` records
    which points were allowed to compete.
    """

    order_r: int | float
    optimum: Fraction | float
    argmin: tuple
    candidate_domain: str  # full_space | sample_support | measure_support
    exact: bool

    @property
    def size(self) -> int:
        return len(self.argmin)


def _min_ties(scores: np.ndarray, exact: bool, candidates_idx: np.ndarray | None = None) -> tuple:
    """Minimum score and the sorted space indices of all candidates tied with it.

    ``scores[k]`` belongs to ``candidates_idx[k]`` (None: to point k).  Exact
    scores tie only when equal, float scores within ``FLOAT_TIE_RTOL``.
    """
    best = scores.min()
    ties = np.flatnonzero(scores == best if exact else scores <= best * (1.0 + FLOAT_TIE_RTOL))
    return best, ties if candidates_idx is None else np.sort(candidates_idx[ties])


def _order1_cube(space: MetricSpace, sup_idx: np.ndarray, weights: np.ndarray, total: int) -> tuple:
    """:func:`_min_ties` of the exact order-1 scores over a full graph space, per edge slot.

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


def _solve(
    space: MetricSpace, data: Sample | DiscreteMeasure, r, domain: str, chunk_size: int = _DEFAULT_CHUNK
) -> MeanSetResult:
    """Argmin of the functional of a sample or a measure ``data``.

    The candidates are the whole space for the ``full_space`` domain and
    the support of ``data`` otherwise.  Exact order-1 means over a full
    graph space are read off per edge slot by :func:`_order1_cube`; every
    other case scores each candidate.
    """
    sup_idx, weights, normalizer, exact = _weights(space, data, r)
    if exact and r == 1 and domain == "full_space" and isinstance(space.points, _AllGraphs):
        minimum = _order1_cube(space, sup_idx, weights, normalizer)
    else:
        candidates_idx = np.arange(len(space), dtype=np.intp) if domain == "full_space" else sup_idx
        chunks = (candidates_idx[lo : lo + chunk_size] for lo in range(0, len(candidates_idx), chunk_size))
        scores = [_power_block(space, c, sup_idx, r, exact, normalizer) @ weights for c in chunks]
        minimum = _min_ties(np.concatenate(scores), exact, candidates_idx)
    return _mean_set(space, minimum, r, normalizer, exact, domain)[0]


def _mean_set(
    space: MetricSpace, minimum: tuple, r, normalizer: int, exact: bool, domain: str
) -> tuple[MeanSetResult, np.ndarray]:
    """Mean set and its sorted space indices from the ``(best, ties)`` pair of
    :func:`_min_ties`, ``best`` being a score over ``normalizer``."""
    best, ties = minimum
    return MeanSetResult(
        order_r=r,
        optimum=_score_value(best, normalizer, exact, space.scale**r),
        argmin=tuple(space.points[i] for i in ties),
        candidate_domain=domain,
        exact=exact,
    ), ties


def sample_mean_set(
    space: MetricSpace, sample: Sample, r, *, chunk_size: int = _DEFAULT_CHUNK
) -> MeanSetResult:
    """Argmin over the whole space of (1/n) sum_i d(X_i, x')^r, with all ties."""
    return _solve(space, sample, r, "full_space", chunk_size)


def restricted_sample_mean_set(
    space: MetricSpace, sample: Sample, r, *, chunk_size: int = _DEFAULT_CHUNK
) -> MeanSetResult:
    """Argmin restricted to the distinct points occurring in the sample.

    Never empty: the candidates always exist, no matter how large the
    ambient space is.
    """
    return _solve(space, sample, r, "sample_support", chunk_size)


def population_mean_set(space: MetricSpace, mu: DiscreteMeasure, r) -> MeanSetResult:
    """Argmin over the whole space of sum_x d(x, x')^r mu(x), with all ties."""
    return _solve(space, mu, r, "full_space")


def restricted_population_mean_set(space: MetricSpace, mu: DiscreteMeasure, r) -> MeanSetResult:
    """Argmin restricted to the support of the measure (closed, being finite)."""
    return _solve(space, mu, r, "measure_support")
