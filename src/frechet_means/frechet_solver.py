"""Exact Frechet mean sets and variances by exhaustive minimization.

Every operation returns the *full* argmin set in canonical space order --
ties are the object of study here, never collapsed to a representative.

Sample means, restricted sample means and (restricted) population means all
run through :func:`_solve`, one path for both arithmetics.  It hands the
sample or the measure to :func:`metric_core._weights`, which decides the
arithmetic once: integer weights over a normalizer on exact spaces with an
integer order and rational weights, float weights summing to one otherwise.
Every candidate is then scored as ``d**r @ weights`` with ``d**r`` from
:func:`metric_core._power_block`, whose exact branch keeps the scores in
int64 or Python ints as their size requires.  Its tail, :func:`_mean_set`,
turns scores into a result; the consistency harness calls it on population
scores of the block its checkpoints use.  One reducer, :func:`_min_ties`,
picks the argmin set: on the exact path it keeps every score equal to the
exact minimum, so tie sets are bit-reproducible; on the float path it keeps
every score <= optimum * (1 + 1e-9), a tolerance that is part of the
contract.

Candidates are scored in chunks only to bound the distance-block working
set; the reducer sees all scores at once, so results do not depend on the
chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def _min_ties(scores: np.ndarray, exact: bool) -> tuple:
    """Minimum score and the positions of all scores tied with it.

    Exact scores (int64 or Python ints) tie only when equal; float scores
    tie when within ``FLOAT_TIE_RTOL`` of the minimum.
    """
    best = scores.min()
    keep = scores == best if exact else scores <= best * (1.0 + FLOAT_TIE_RTOL)
    return best, np.flatnonzero(keep)


def _solve(
    space: MetricSpace, data: Sample | DiscreteMeasure, r, domain: str, chunk_size: int = _DEFAULT_CHUNK
) -> MeanSetResult:
    """Argmin of the functional of a sample or a measure ``data``.

    The candidates are the whole space for the ``full_space`` domain and
    the support of ``data`` otherwise.
    """
    sup_idx, weights, normalizer, exact = _weights(space, data, r)
    candidates_idx = np.arange(len(space), dtype=np.intp) if domain == "full_space" else sup_idx
    chunks = (candidates_idx[lo : lo + chunk_size] for lo in range(0, len(candidates_idx), chunk_size))
    scores = [_power_block(space, c, sup_idx, r, exact, normalizer) @ weights for c in chunks]
    return _mean_set(space, np.concatenate(scores), candidates_idx, r, normalizer, exact, domain)


def _mean_set(
    space: MetricSpace, scores, candidates_idx, r, normalizer: int, exact: bool, domain: str
) -> MeanSetResult:
    """Mean set from the scores of the candidates, ``scores[k]`` for ``candidates_idx[k]``.

    Scores are over ``normalizer``, on the path ``exact`` names.
    """
    best, pos = _min_ties(scores, exact)
    ties = np.sort(candidates_idx[pos])
    return MeanSetResult(
        order_r=r,
        optimum=_score_value(best, normalizer, exact, space.scale**r),
        argmin=tuple(space.points[i] for i in ties),
        candidate_domain=domain,
        exact=exact,
    )


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
