"""Exact Frechet mean sets and variances by exhaustive minimization.

Every operation returns the *full* argmin set in canonical space order --
ties are the object of study here, never collapsed to a representative.

Sample means, restricted sample means and (restricted) population means all
run through :func:`_solve`.  It scores every candidate as ``block**r @ w``,
where ``w`` are integer weights over a normalizer -- sample multiplicities
over n, or a rational measure's weights over their least common denominator
-- and ``block**r`` comes from :func:`metric_core._exact_power_block`, which
keeps the scores in int64 or Python ints as their size requires.  The
consistency harness scores its checkpoints with the same block.  One
reducer, :func:`_min_ties`, then picks the argmin set: on exact spaces
(integer lattice distances, integer order, rational weights) it keeps every
score equal to the exact minimum, so tie sets are bit-reproducible; on the
float path it keeps every score <= optimum * (1 + 1e-9), a tolerance that is
part of the contract.

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
    _counts_from_sample,
    _exact_power_block,
    _integer_weights,
    check_order,
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
    space: MetricSpace,
    sup_idx: np.ndarray,
    weights: np.ndarray,
    r,
    candidates_idx: np.ndarray,
    domain: str,
    normalizer: int,
    chunk_size: int = _DEFAULT_CHUNK,
) -> MeanSetResult:
    """Argmin of sum_j d(candidate, sup_j)^r * weights_j / normalizer.

    Integer weights keep the exact path on exact spaces with integer r;
    float weights (from a measure with float weights) take the float path.
    """
    if len(candidates_idx) == 0:
        raise ValueError("candidate domain is empty; the argmin set would be undefined")
    exact = space.exact and isinstance(r, int) and weights.dtype.kind != "f"
    if not exact:
        float_weights = np.array([w / normalizer for w in weights.tolist()])
    chunks = []
    for lo in range(0, len(candidates_idx), chunk_size):
        idx = candidates_idx[lo : lo + chunk_size]
        if exact:
            chunks.append(_exact_power_block(space, idx, sup_idx, r, normalizer) @ weights)
        else:
            chunks.append(space.float_block(idx, sup_idx) ** float(r) @ float_weights)
    best, pos = _min_ties(np.concatenate(chunks), exact)
    if exact:
        optimum = Fraction(int(best), normalizer) * space.scale**r
    else:
        optimum = float(best)
    ties = np.sort(candidates_idx[pos])
    return MeanSetResult(
        order_r=r,
        optimum=optimum,
        argmin=tuple(space.points[i] for i in ties),
        candidate_domain=domain,
        exact=exact,
    )


def sample_mean_set(
    space: MetricSpace, sample: Sample, r, *, chunk_size: int = _DEFAULT_CHUNK
) -> MeanSetResult:
    """Argmin over the whole space of (1/n) sum_i d(X_i, x')^r, with all ties."""
    check_order(r)
    sup_idx, counts = _counts_from_sample(space, sample)
    candidates = np.arange(len(space), dtype=np.intp)
    return _solve(space, sup_idx, counts, r, candidates, "full_space", sample.n, chunk_size)


def restricted_sample_mean_set(
    space: MetricSpace, sample: Sample, r, *, chunk_size: int = _DEFAULT_CHUNK
) -> MeanSetResult:
    """Argmin restricted to the distinct points occurring in the sample.

    Never empty: the candidates always exist, no matter how large the
    ambient space is.
    """
    check_order(r)
    sup_idx, counts = _counts_from_sample(space, sample)
    return _solve(space, sup_idx, counts, r, sup_idx, "sample_support", sample.n, chunk_size)


def population_mean_set(space: MetricSpace, mu: DiscreteMeasure, r) -> MeanSetResult:
    """Argmin over the whole space of sum_x d(x, x')^r mu(x), with all ties."""
    check_order(r)
    weights, lcd = _integer_weights(mu)
    candidates = np.arange(len(space), dtype=np.intp)
    return _solve(space, space.indices(mu.support), weights, r, candidates, "full_space", lcd)


def restricted_population_mean_set(space: MetricSpace, mu: DiscreteMeasure, r) -> MeanSetResult:
    """Argmin restricted to the support of the measure (closed, being finite)."""
    check_order(r)
    weights, lcd = _integer_weights(mu)
    sup_idx = space.indices(mu.support)
    return _solve(space, sup_idx, weights, r, sup_idx, "measure_support", lcd)
