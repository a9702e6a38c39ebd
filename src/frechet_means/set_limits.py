"""Limit operators on finite sequences of finite subsets.

True set limits are statements about infinite sequences; a recorded
trajectory only supports finite-horizon *estimates*.  The surrogate used
throughout approximates "infinitely often" by "recurrently in the tail":
a point counts as recurrent when it is visited at least ``min_visits``
times at indices >= ``burn_in`` (defaults: burn_in = N/2, min_visits = 2).

Three estimators are provided:

* :func:`tail_limsup` -- recurrence of exact set membership, computed by
  direct visit counting (classical set-theoretic outer limit surrogate);
* :func:`ziezold_limcsup` -- the same object computed through closures of
  tail unions (the closed-tail-union outer limit); on a finite space the
  closure is the identity, so the two must agree exactly;
* :func:`kuratowski_limsup` -- metric recurrence: a visit is d(x, A_n) <
  epsilon, so points merely approached by the sets also qualify.  With
  epsilon = 0 a visit degenerates to zero-distance membership.

The convention d(x, {}) = +inf means an empty set never grants visits.

Each estimator is the one-row case of a counter that takes many rows of
tail sets at once, one row per replication in the experiment engine, each
row given as ids into a list of distinct sets: ``_recurrent_rows`` counts
memberships and ``_kuratowski_rows`` metric visits, so the engine and the
estimators count visits with the same code.  A metric visit is membership
in the set's neighbourhood {x : d(x, A) < epsilon}, found once per distinct
set and then counted by ``_recurrent_rows``.  On an exact space d < epsilon
is ``d_int <= bound`` for an integer lattice bound, a finite float epsilon
taken as the Fraction it equals (``MetricSpace._below``, which
``modulus_of_continuity`` shares).  On a proper metric, where that bound is 0
(epsilon = 0, or epsilon at most the lattice step, as epsilon = 1 on Hamming
spaces), the neighbourhood is the set itself and no distance is computed.
Pseudo-metrics and positive bounds scan the space once per distinct set, in
blocks of at most ``metric_core._CHUNK_CELLS`` cells (``MetricSpace.nearest``).

A :class:`SetTrajectory` holds each set as the tuple of its sorted space
indices, the form in which the solver and the experiment engine produce
mean sets, so :meth:`SetTrajectory.from_indices` takes those tuples as they
are; the estimators return sets of points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metric_core import MetricSpace

__all__ = [
    "SetTrajectory",
    "OuterLimitEstimate",
    "default_burn_in",
    "tail_limsup",
    "ziezold_limcsup",
    "kuratowski_limsup",
]


@dataclass(frozen=True, init=False)
class SetTrajectory:
    """Indexed sequence of finite subsets of one space (indices 0..N-1).

    ``sets[n]`` is set n as the tuple of its sorted space indices; its
    points are ``space.points[i]``.  ``SetTrajectory(space, point_sets)``
    builds it from sets of points, :meth:`from_indices` from index tuples.
    """

    space: MetricSpace
    sets: tuple

    def __init__(self, space: MetricSpace, point_sets):
        index_sets = (tuple(sorted(set(map(space.index, s)))) for s in point_sets)
        self._init(space, tuple(index_sets))

    @classmethod
    def from_indices(cls, space: MetricSpace, index_sets) -> "SetTrajectory":
        """A trajectory of sets given as tuples of sorted space indices, the form
        of the solver's and the engine's mean sets; no point is looked up."""
        traj = object.__new__(cls)
        traj._init(space, tuple(index_sets))
        return traj

    def _init(self, space: MetricSpace, sets: tuple) -> None:
        if len(sets) == 0:
            raise ValueError("a trajectory needs at least one set")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "sets", sets)

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class OuterLimitEstimate:
    """Points judged recurrent, together with the estimator parameters."""

    points: frozenset
    epsilon: float | Fraction
    burn_in: int
    min_visits: int


def default_burn_in(n_sets: int) -> int:
    return n_sets // 2


def _check_tail(traj: SetTrajectory, burn_in: int, min_visits: int) -> None:
    if not 0 <= burn_in < len(traj):
        raise ValueError(f"burn_in must lie in [0, {len(traj) - 1}], got {burn_in}")
    if min_visits < 1:
        raise ValueError("min_visits must be >= 1")


def _one_row(sets) -> tuple:
    """The counters' input for the single row ``sets`` (index tuples): the
    row as ids into the distinct sets, and those sets."""
    ids = {}
    row = [ids.setdefault(s, len(ids)) for s in sets]
    return np.array([row], dtype=np.intp), list(ids)


def _recurrent_rows(rows: np.ndarray, sets: list, min_visits: int) -> tuple:
    """The indices appearing in at least ``min_visits`` sets of each row.

    ``rows[k]`` holds row k's sets as ids into ``sets``, each set a sequence
    of distinct indices.  One ``np.unique`` counts every visit by its key
    ``k * |seen| + rank``, the index ranked among the distinct visited ones.
    Returns the recurrent pairs' rows and indices, by row and then by index.
    """
    lengths = np.fromiter(map(len, sets), np.intp, len(sets))[rows]
    visits = itertools.chain.from_iterable(map(sets.__getitem__, rows.ravel().tolist()))
    seen, rank = np.unique(np.fromiter(visits, np.int64, lengths.sum()), return_inverse=True)
    keys, counts = np.unique(np.repeat(np.arange(len(rows)) * len(seen), lengths.sum(1)) + rank, return_counts=True)
    row, pos = np.divmod(keys[counts >= min_visits], len(seen))
    return row, seen[pos]


def _kuratowski_rows(space: MetricSpace, rows: np.ndarray, sets: list, epsilon, min_visits: int) -> tuple:
    """The points of ``space`` visited by at least ``min_visits`` sets of each row.

    ``rows[k]`` holds row k's sets as ids into ``sets``, each set a tuple of
    space indices.  A point x is visited by a set A when it lies in A's
    neighbourhood {x : d(x, A) < epsilon}, or {x : d(x, A) = 0} at epsilon = 0,
    with d(x, {}) = +inf.  Each set's neighbourhood is found once, and
    :func:`_recurrent_rows` counts the memberships.  Returns the rows and
    indices of the recurrent pairs, sorted by row and then by index.
    """
    bound = space._below(epsilon)[1]
    # On a proper metric d(x, A) = 0 iff x is in A, so at a zero bound each set
    # is its own neighbourhood; a pseudo-metric must still credit its
    # zero-distance twins, and a positive bound takes a scan of the space.
    if bound != 0 or space.is_pseudo:
        all_idx = np.arange(len(space), dtype=np.intp)
        sets = [np.flatnonzero(space.nearest(all_idx, s) <= bound).tolist() for s in sets]
    return _recurrent_rows(rows, sets, min_visits)


def tail_limsup(traj: SetTrajectory, burn_in: int, min_visits: int = 2) -> frozenset:
    """Points appearing in at least ``min_visits`` tail sets (direct count)."""
    _check_tail(traj, burn_in, min_visits)
    idx = _recurrent_rows(*_one_row(traj.sets[burn_in:]), min_visits)[1]
    return frozenset(traj.space.points[i] for i in idx)


def ziezold_limcsup(traj: SetTrajectory, burn_in: int, min_visits: int = 2) -> frozenset:
    """Closed-tail-union route to the same recurrence set as :func:`tail_limsup`.

    Builds cl(union of sets[t:]) for every tail start t, then peels one
    visit per pass: a point has >= k visits in the tail iff it appears in
    some set whose own tail (strictly after it) still certifies k-1 visits.
    On finite spaces the closure is the identity map, so this must coincide
    with the direct count exactly -- that equivalence is asserted in the
    test suite, not here.
    """
    _check_tail(traj, burn_in, min_visits)
    n = len(traj)
    closure = frozenset  # finite subspace of a metric space is closed

    # tails[t] = cl( sets[t] | sets[t+1] | ... ), for t in [burn_in, n]
    tails = [frozenset()] * (n + 1)
    for t in range(n - 1, burn_in - 1, -1):
        tails[t] = closure(tails[t + 1].union(traj.sets[t]))

    certified = tails  # >= 1 visit at index >= t
    for _ in range(min_visits - 1):
        nxt = [frozenset()] * (n + 1)
        for t in range(n - 1, burn_in - 1, -1):
            nxt[t] = nxt[t + 1] | certified[t + 1].intersection(traj.sets[t])
        certified = nxt
    return frozenset(traj.space.points[i] for i in certified[burn_in])


def kuratowski_limsup(
    traj: SetTrajectory, epsilon, burn_in: int, min_visits: int = 2
) -> OuterLimitEstimate:
    """Visit-count estimate of the Kuratowski outer limit.

    A point x is visited at index n when d(x, sets[n]) < epsilon (strict
    neighborhoods), with d(x, {}) = +inf.  ``epsilon = 0`` degenerates to
    zero-distance membership, which on a proper metric is plain membership.
    The estimate collects every space point with at least ``min_visits``
    visits in the tail.
    """
    _check_tail(traj, burn_in, min_visits)
    if not epsilon >= 0:  # NaN too
        raise ValueError("epsilon must be >= 0")
    idx = _kuratowski_rows(traj.space, *_one_row(traj.sets[burn_in:]), epsilon, min_visits)[1]
    pts = frozenset(traj.space.points[i] for i in idx)
    return OuterLimitEstimate(points=pts, epsilon=epsilon, burn_in=burn_in, min_visits=min_visits)
