"""Bounded (pseudo-)metric spaces over finite point sets.

A :class:`MetricSpace` couples an ordered finite point set with a distance
oracle, a certified upper bound ``M`` on all distances, and a pseudo-metric
flag.  Whenever the distances live on a rational lattice -- Hamming distances
on graphs, interval grids with a rational step -- the space keeps distances as
integers times a rational ``scale``, which lets every downstream functional
comparison run in exact arithmetic.  Spaces that cannot be expressed this way
fall back to floating point with documented tie tolerances.

On top of the space abstraction, this module provides the empirical and
population Frechet functionals, the modulus of continuity of the family of
exponentiated point functions, and the metric-axiom checker.

The functionals, the solver and the consistency engine share one scoring
path for both arithmetics: :func:`_weights` decides exact-or-float once per
sample or measure, a score is ``_power_block(...) @ weights``, and
:func:`_score_value` turns a score over its normalizer into a value.
:func:`_to_float` is the one conversion of an exact value to a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "MetricSpace",
    "DiscreteMeasure",
    "Sample",
    "AxiomViolation",
    "AxiomReport",
    "interval_grid",
    "check_metric_axioms",
    "check_order",
    "sample_functional",
    "population_functional",
    "modulus_of_continuity",
    "power_gamma",
    "equicontinuity_bound",
]

# Exact scores are sums of non-negative integer terms, each partial sum at
# most the whole score.  Below 2^53 every such integer is a float64, so float64
# products and sums -- BLAS in any summation order, with or without FMA -- stay
# exact; below _INT64_SAFE int64 holds them; anything bigger is computed with
# Python big ints (see _exact_dtype).
_FLOAT64_EXACT = 2**53
_INT64_SAFE = 2**62

# Largest point set the exhaustive O(n^3) scans accept (check_metric_axioms,
# modulus_of_continuity); their n x n blocks stay a few hundred MB at most.
_EXHAUSTIVE_MAX_POINTS = 4096


def _to_float(value, denominator: int = 1) -> float:
    """``value / denominator`` as a float: ``value`` an int, a Fraction or a
    float and ``denominator`` a positive int.

    It rounds as ``float(Fraction)`` and Python's int division do (correctly,
    whatever the size of the integers), and where they would raise
    ``OverflowError``, past the float range, it gives ``inf`` or ``-inf``.
    """
    if isinstance(value, Fraction):
        value, denominator = value.numerator, value.denominator * denominator
    try:
        return float(value / denominator)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_order(r) -> None:
    """Validate a moment order: a finite real number with r >= 1.

    Integer orders unlock the exact-arithmetic path; any other finite
    ``r >= 1`` is evaluated in floating point.  Orders below one are
    rejected outright because the consistency guarantees computed by this
    package only cover ``r >= 1``.
    """
    if isinstance(r, bool) or not isinstance(r, (int, float)):
        raise ValueError(f"order r must be an int or float, got {type(r).__name__}")
    if not np.isfinite(float(r)):
        raise ValueError("order r must be finite")
    if r < 1:
        raise ValueError(f"order r must be >= 1, got {r}")


def power_gamma(r: int) -> int:
    """Lipschitz factor of x -> x^r on a bounded metric: 1 + sum_k C(r,k) = 2^r - 1."""
    if not isinstance(r, int) or r < 1:
        raise ValueError("power_gamma is defined for integer r >= 1")
    return 2**r - 1


def equicontinuity_bound(bound_m, r: int, dxy):
    """Upper bound (2^r - 1) * M^(r-1) * d(x,y) for |d(z,x)^r - d(z,y)^r|."""
    return power_gamma(r) * bound_m ** (r - 1) * dxy


class MetricSpace:
    """Finite point set with a bounded (pseudo-)metric.

    ``points`` is the canonical ordering of the space: mean sets, reports
    and argmin ties are always emitted in this order.  ``bound_M`` is a
    certified bound on all pairwise distances (it is not recomputed per
    call; ``check_metric_axioms`` verifies it on demand).

    ``points`` may be any read-only sequence.  Without ``index`` it is
    copied into a tuple and positions are looked up in a dict built over it,
    so its items must be distinct and hashable.  With ``index``, the sequence
    is kept as given and ``index(point)`` must return the position of a
    point and raise ``KeyError``, ``TypeError`` or ``ValueError`` for
    anything that is not one; this lets a space address its points through a
    codec instead of materialising them.

    Exact spaces additionally satisfy ``d(x, y) = int_distance(x, y) * scale``
    with integer lattice distances and a positive rational scale.
    """

    def __init__(
        self,
        points: Sequence,
        *,
        int_block: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        float_block: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        scale: Fraction = Fraction(1),
        bound_M,
        is_pseudo: bool = False,
        label: Callable | None = None,
        name: str = "",
        index: Callable[[object], int] | None = None,
    ):
        if len(points) == 0:
            raise ValueError("a metric space needs at least one point")
        if int_block is None and float_block is None:
            raise ValueError("a distance backend is required")
        if scale <= 0:
            raise ValueError("scale must be positive")
        if index is None:
            points = tuple(points)
            positions = {p: i for i, p in enumerate(points)}
            if len(positions) != len(points):
                raise ValueError("points must be distinct identifiers")
            index = positions.__getitem__
        self.points = points
        self._position = index
        self.bound_M = bound_M
        self.is_pseudo = bool(is_pseudo)
        self.name = name or f"space({len(self.points)} points)"
        self.scale = Fraction(scale)
        self.exact = int_block is not None
        self._int_block_fn = int_block
        self._float_block_fn = float_block
        self._label_fn = label

    # -- indexing ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point) -> bool:
        try:
            self.index(point)
        except ValueError:
            return False
        return True

    def index(self, point) -> int:
        try:
            return self._position(point)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{point!r} is not a point of {self.name}") from None

    def indices(self, points: Iterable) -> np.ndarray:
        return np.array([self.index(p) for p in points], dtype=np.intp)

    def label(self, point) -> str:
        if self._label_fn is not None:
            return self._label_fn(point)
        return str(point)

    # -- distances --------------------------------------------------------

    @property
    def max_int_distance(self) -> int:
        """Smallest integer lattice bound compatible with bound_M (exact spaces)."""
        if not self.exact:
            raise ValueError("max_int_distance is only defined for exact spaces")
        return math.ceil(Fraction(self.bound_M) / self.scale)

    def int_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Integer lattice distances for rows x cols (exact spaces only)."""
        if not self.exact:
            raise ValueError(f"{self.name} has no exact integer distance lattice")
        return self._int_block_fn(np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))

    def float_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if self._float_block_fn is not None:
            return self._float_block_fn(rows, cols)
        return self._int_block_fn(rows, cols).astype(np.float64) * float(self.scale)

    def nearest(self, rows, cols, cells: int) -> np.ndarray:
        """Each row point's least distance-block entry to the points ``cols``
        (+inf for none), from blocks of at most ``cells`` entries reduced as
        they are made: the package's one d(x, A).  By symmetry a block's rows
        are ``cols``, so a minimum runs down contiguous columns (~40x faster)."""
        block, width = self.int_block if self.exact else self.float_block, max(1, min(len(cols), cells))
        step = max(1, cells // width)  # a block: width points of cols by step of rows
        near = np.full(len(rows), np.iinfo(np.int64).max if self.exact and len(cols) else np.inf)
        for lo in range(0, len(rows), step):
            for at in range(0, len(cols), width):
                part = near[lo : lo + step]
                np.minimum(part, block(cols[at : at + width], rows[lo : lo + step]).min(axis=0), out=part)
        return near

    def as_distance(self, entry):
        """The distance an entry of a distance block stands for: on exact spaces
        a lattice entry times ``scale`` (an int at scale 1, else a Fraction),
        elsewhere, and for +inf, a float."""
        if self.exact and entry != math.inf:
            d = int(entry)
            return d if self.scale == 1 else d * self.scale
        return float(entry)

    def _below(self, threshold) -> tuple:
        """``(block, bound)`` such that ``d < threshold`` (``d = 0`` at threshold 0)
        iff ``block(rows, cols) <= bound``.

        On an exact space a finite threshold is read as the Fraction it equals,
        a float as its exact binary value, and the bound is the largest lattice
        integer below it; otherwise it is the largest float below the threshold.
        """
        if self.exact and (isinstance(threshold, (int, Fraction)) or np.isfinite(threshold)):
            return self.int_block, math.ceil(Fraction(threshold) / self.scale) - 1 if threshold > 0 else 0
        return self.float_block, np.nextafter(_to_float(threshold), -np.inf) if threshold > 0 else 0.0

    def distance(self, x, y):
        """Distance between two points; exact spaces return int or Fraction."""
        return self.set_distance(x, (y,))

    def set_distance(self, x, points: Iterable):
        """d(x, A), the one-row case of :meth:`nearest` (so d(x, empty) = +inf)."""
        from .frechet_solver import _CHUNK_CELLS  # the cell budget; that module imports this one
        return self.as_distance(self.nearest([self.index(x)], self.indices(points), _CHUNK_CELLS)[0])

    @classmethod
    def _from_matrix(cls, points: Sequence, matrix, dtype, backend: str, bound_M, **options) -> "MetricSpace":
        """The space of the square distance matrix ``matrix`` over ``points``, served
        as its ``backend`` block; ``bound_M`` defaults to its largest entry."""
        if len(points) == 0:
            raise ValueError("a metric space needs at least one point")
        m = np.asarray(matrix, dtype=dtype)
        if m.shape != (len(points), len(points)):
            raise ValueError("distance matrix must be square and match the point count")
        space = cls(points, **{backend: lambda r, c: m[np.ix_(r, c)]}, bound_M=bound_M, **options)
        if bound_M is None:
            space.bound_M = space.as_distance(m.max())
        return space

    @classmethod
    def from_int_matrix(
        cls, points: Sequence, matrix, *, scale: Fraction = Fraction(1), bound_M=None,
        is_pseudo: bool = False, label=None, name: str = "",
    ) -> "MetricSpace":
        return cls._from_matrix(
            points, matrix, np.int64, "int_block", bound_M, scale=scale, is_pseudo=is_pseudo, label=label, name=name
        )

    @classmethod
    def from_float_matrix(
        cls, points: Sequence, matrix, *, bound_M=None, is_pseudo: bool = False, label=None, name: str = ""
    ) -> "MetricSpace":
        return cls._from_matrix(
            points, matrix, np.float64, "float_block", bound_M, is_pseudo=is_pseudo, label=label, name=name
        )

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "float"
        return f"MetricSpace({self.name!r}, n={len(self.points)}, M={self.bound_M}, {kind})"


def _decimal_label(x: Fraction) -> str:
    """The float's repr when that float is x and x's denominator is 2^a * 5^b, else 'p/q'."""
    q = x.denominator
    for p in (2, 5):
        while q % p == 0:
            q //= p
    if q != 1:
        return str(x)
    f = _to_float(x)
    if math.isfinite(f) and (Fraction(str(f)) == x or Fraction(f) == x):
        return repr(f)
    return str(x)


def _grid_bounds(start, end, step) -> tuple:
    """The checked bounds of :func:`interval_grid`: start, end and step as
    Fractions and the point count, made without any point."""
    lo, hi, st = Fraction(str(start)), Fraction(str(end)), Fraction(str(step))
    if hi <= lo:
        raise ValueError("end must exceed start")
    if st <= 0:
        raise ValueError("step must be positive")
    span = (hi - lo) / st
    if span.denominator != 1:
        raise ValueError(f"step {st} does not divide the interval length {hi - lo}")
    return lo, hi, st, int(span) + 1


def interval_grid(start="-1", end="1", step="0.01") -> MetricSpace:
    """Uniform rational grid on [start, end] with |x - y| as the metric.

    ``step`` must divide ``end - start`` exactly; points are Fractions so
    functionals over the grid stay in exact arithmetic.  bound_M is the
    interval length.
    """
    lo, hi, st, count = _grid_bounds(start, end, step)
    den = math.lcm(lo.denominator, st.denominator)  # point k is (a + k b) / den
    a, b = lo.numerator * (den // lo.denominator), st.numerator * (den // st.denominator)
    points = [Fraction(a + k * b, den) for k in range(count)]
    idx = np.arange(count, dtype=np.int64)

    def block(rows, cols):
        return np.abs(idx[rows][:, None] - idx[cols][None, :])

    return MetricSpace(
        points,
        int_block=block,
        scale=st,
        bound_M=hi - lo,
        is_pseudo=False,
        label=_decimal_label,
        name=f"grid[{_decimal_label(lo)},{_decimal_label(hi)}]/{_decimal_label(st)}",
    )


# ---------------------------------------------------------------------------
# samples and measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """Ordered multiset of observed points (duplicates allowed)."""

    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) == 0:
            raise ValueError("a sample must contain at least one item")

    @property
    def n(self) -> int:
        return len(self.items)

    def distinct(self) -> tuple:
        seen = dict.fromkeys(self.items)
        return tuple(seen)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finite support; weights are all positive.

    Support points are stored in canonical (sorted) order so inverse-CDF
    sampling is reproducible.  Rational weights keep the measure on the
    exact-arithmetic path; float weights must sum to 1 within 1e-12.
    """

    support: tuple
    weights: tuple

    def __post_init__(self):
        support = tuple(self.support)
        weights = tuple(self.weights)
        if len(support) == 0:
            raise ValueError("measure support must be non-empty")
        if len(support) != len(weights):
            raise ValueError("support and weights must have equal length")
        if len(set(support)) != len(support):
            raise ValueError("support points must be distinct")
        order = sorted(range(len(support)), key=lambda i: support[i])
        support = tuple(support[i] for i in order)
        weights = tuple(weights[i] for i in order)
        for w in weights:
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")
        if all(isinstance(w, Rational) for w in weights):
            if sum(weights) != 1:
                raise ValueError(f"rational weights must sum to exactly 1, got {sum(weights)}")
        else:
            total = float(sum(float(w) for w in weights))
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1 within 1e-12, got {total}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def is_rational(self) -> bool:
        return all(isinstance(w, Rational) for w in self.weights)

    @classmethod
    def uniform(cls, points: Iterable) -> "DiscreteMeasure":
        pts = tuple(points)
        return cls(pts, tuple(Fraction(1, len(pts)) for _ in pts))

    @classmethod
    def empirical(cls, sample: Sample) -> "DiscreteMeasure":
        counts: dict = {}
        for item in sample.items:
            counts[item] = counts.get(item, 0) + 1
        pts = tuple(counts)
        return cls(pts, tuple(Fraction(counts[p], sample.n) for p in pts))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple
    detail: str
    count: int = 1


@dataclass(frozen=True)
class AxiomReport:
    space_name: str
    n_points: int
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"all metric axioms hold on {self.space_name} ({self.n_points} points)"
        lines = [f"{len(self.violations)} axiom violation kind(s) on {self.space_name}:"]
        for v in self.violations:
            lines.append(f"  {v.axiom}: {v.detail} [witness {v.witness}, {v.count} case(s)]")
        return "\n".join(lines)


def check_metric_axioms(space: MetricSpace, max_points: int = _EXHAUSTIVE_MAX_POINTS) -> AxiomReport:
    """Exhaustively verify the (pseudo-)metric axioms and the bound M.

    Violations are returned as data, one entry per violated axiom with a
    concrete witness and the total violation count.  The coincidence axiom
    (d(x,y)=0 implies x=y) is only checked when the space is not flagged
    pseudo.  The scan is O(n^2) in memory and O(n^3) in time, hence the
    ``max_points`` guard.
    """
    n = len(space)
    if n > max_points:
        raise ValueError(
            f"exhaustive axiom check on {n} points exceeds the {max_points}-point guard"
        )
    all_idx = np.arange(n, dtype=np.intp)
    if space.exact:
        d = space.int_block(all_idx, all_idx).astype(np.int64)
        # d_int > M/scale as a pure integer comparison
        bound_exceeded = d > math.floor(Fraction(space.bound_M) / space.scale)
    else:
        d = space.float_block(all_idx, all_idx)
        bound_exceeded = d > float(space.bound_M)

    def dist_value(i, j):
        return space.as_distance(d[i, j])

    violations = []

    def add(axiom, mask_pairs, detail_fn):
        idx = np.argwhere(mask_pairs)
        if idx.size:
            wit = tuple(space.points[k] for k in idx[0])
            violations.append(
                AxiomViolation(axiom, wit, detail_fn(tuple(int(k) for k in idx[0])), len(idx))
            )

    add("non-negativity", d < 0, lambda w: f"d{w} = {dist_value(*w)} < 0")
    diag = np.diag(d)
    if np.any(diag != 0):
        i = int(np.nonzero(diag != 0)[0][0])
        violations.append(
            AxiomViolation(
                "identity",
                (space.points[i],),
                f"d(x,x) = {dist_value(i, i)} != 0",
                int(np.count_nonzero(diag != 0)),
            )
        )
    add("symmetry", d != d.T, lambda w: f"d{w} = {dist_value(*w)} != d(swapped) = {dist_value(w[1], w[0])}")
    add("boundedness", bound_exceeded, lambda w: f"d{w} = {dist_value(*w)} > M = {space.bound_M}")

    # Triangle inequality, chunked over the middle point to bound memory.
    # The float path gets an absolute 1e-12 * max(1, M) slack so rounding in
    # the sum d(x,y) + d(y,z) cannot manufacture violations.
    slack = 0 if space.exact else 1e-12 * max(1.0, float(space.bound_M))
    tri_count = 0
    tri_witness = None
    for k in range(n):
        viol = d > d[:, k][:, None] + d[k, :][None, :] + slack
        if np.any(viol):
            tri_count += int(np.count_nonzero(viol))
            if tri_witness is None:
                i, j = np.argwhere(viol)[0]
                tri_witness = (int(i), k, int(j))
    if tri_witness:
        i, k, j = tri_witness
        violations.append(
            AxiomViolation(
                "triangle",
                (space.points[i], space.points[k], space.points[j]),
                f"d(x,z) = {dist_value(i, j)} > d(x,y) + d(y,z) = {dist_value(i, k)} + {dist_value(k, j)}",
                tri_count,
            )
        )

    if not space.is_pseudo:
        off_zero = (d == 0) & ~np.eye(n, dtype=bool)
        add("coincidence", off_zero, lambda w: "d(x,y) = 0 for distinct points")

    return AxiomReport(space.name, n, tuple(violations))


# ---------------------------------------------------------------------------
# Frechet functionals
# ---------------------------------------------------------------------------


def _weights(
    space: MetricSpace, data: Sample | DiscreteMeasure, r
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Support indices, weights, normalizer and exactness of a sample or a measure.

    This is where every score decides its arithmetic.  A sample weighs its
    distinct items, in canonical space order, by multiplicity over n.  The
    path is exact iff the space is exact, ``r`` is an int and the weights are
    rational; then the weights are integers over their least common
    denominator, the normalizer.  Otherwise they are floats summing to 1,
    over 1.
    """
    check_order(r)
    if isinstance(data, Sample):
        sup_idx, counts = np.unique(space.indices(data.items), return_counts=True)
        weights, rational = [Fraction(int(c), data.n) for c in counts], True
    else:
        sup_idx, weights, rational = space.indices(data.support), data.weights, data.is_rational
    if not (space.exact and isinstance(r, int) and rational):
        return sup_idx, np.array([float(w) for w in weights]), 1, False
    lcd = math.lcm(*(Fraction(w).denominator for w in weights))
    ints = [int(Fraction(w) * lcd) for w in weights]
    return sup_idx, np.array(ints, dtype=np.int64 if lcd < _INT64_SAFE else object), lcd, True


def _exact_dtype(space: MetricSpace, r: int, total_weight: int):
    """The package's one overflow guard: the dtype of exact scores on ``space``.

    A score is ``sum_i w_i * d_i**r`` with integer lattice distances and
    non-negative integer weights summing to at most ``total_weight``, so every
    term and partial sum is a non-negative integer of at most
    ``max(M_int, 1)**r * total_weight``.  Below ``_FLOAT64_EXACT`` that bound
    makes float64 arithmetic exact whatever the summation order, below
    ``_INT64_SAFE`` int64 holds it, and past that the scores are Python ints.
    """
    bound = max(space.max_int_distance, 1) ** r * total_weight
    return np.float64 if bound < _FLOAT64_EXACT else np.int64 if bound < _INT64_SAFE else object


def _power_block(space: MetricSpace, rows, cols, r, exact: bool, total_weight: int) -> np.ndarray:
    """``d**r`` for rows x cols on the path ``_weights`` chose.

    Off the exact path these are float powers.  On it they are the integer
    lattice distances raised to the integer power r, in the dtype
    :func:`_exact_dtype` picks for weights summing to at most
    ``total_weight``: float64, int64 or Python ints, each exact at its size.
    The power is taken in integers, so no floating-point ``pow`` is involved.
    """
    if not exact:
        return space.float_block(rows, cols) ** float(r)
    dtype = _exact_dtype(space, r, total_weight)
    block = space.int_block(rows, cols).astype(object if dtype is object else np.int64, copy=False)
    return (block**r).astype(dtype, copy=False)


def _score_value(score, normalizer: int, exact: bool, scale_r):
    """A score over its normalizer as a value: an exact Fraction times ``scale**r``, or a float.

    The Fraction is built once from integers, ``scale**r`` folded into its
    numerator and denominator.
    """
    if exact:
        return Fraction(int(score) * scale_r.numerator, normalizer * scale_r.denominator)
    return float(score) / normalizer


def _functional(space: MetricSpace, data: Sample | DiscreteMeasure, candidate, r):
    sup_idx, weights, normalizer, exact = _weights(space, data, r)
    c = np.array([space.index(candidate)], dtype=np.intp)
    score = np.cumsum(_power_block(space, c, sup_idx, r, exact, normalizer)[0] * weights)[-1]  # in support order
    return _score_value(score, normalizer, exact, space.scale**r)


def sample_functional(space: MetricSpace, sample: Sample, candidate, r):
    """Empirical functional (1/n) * sum_i d(X_i, candidate)^r.

    On exact spaces with integer r the distance powers are accumulated as
    integers and divided once at the end, so the result is an exact
    Fraction; otherwise a float is returned.
    """
    return _functional(space, sample, candidate, r)


def population_functional(space: MetricSpace, mu: DiscreteMeasure, candidate, r):
    """Population functional sum_x d(x, candidate)^r * mu(x).

    An exact Fraction on exact spaces with integer r and rational weights;
    otherwise a float.
    """
    return _functional(space, mu, candidate, r)


def modulus_of_continuity(space: MetricSpace, support: Iterable, delta, r):
    """Worst-case change of any exponentiated point function over close pairs.

    s(delta) = sup over z in support and pairs x, y in support with
    d(x, y) < delta of |d(z,x)^r - d(z,y)^r|, computed by exact enumeration
    of all qualifying triples.  Returns 0 when only identical pairs qualify.
    ``d(x, y) < delta`` is decided as the Kuratowski estimator decides
    ``d < epsilon``: on an exact space, for integer and float r alike, it is
    exact, with a float delta read as the Fraction it equals (the float 0.1 is
    a little above 1/10); on a float space it compares floats.
    The scan is O(n^3) in time over the n support points, so it shares the
    ``_EXHAUSTIVE_MAX_POINTS`` guard of :func:`check_metric_axioms`.
    """
    check_order(r)
    sup = list(support)
    if not sup:
        raise ValueError("modulus_of_continuity needs a non-empty support")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if len(sup) > _EXHAUSTIVE_MAX_POINTS:
        raise ValueError(f"{len(sup)} support points exceed the {_EXHAUSTIVE_MAX_POINTS}-point guard")
    idx = space.indices(sup)
    exact = space.exact and isinstance(r, int)
    block, bound = space._below(delta)
    close = block(idx, idx) <= bound
    powed = _power_block(space, idx, idx, r, exact, 1)
    best = 0
    for p in powed:
        masked = np.abs(p[:, None] - p[None, :])[close]
        if masked.size:
            best = max(best, masked.max())
    return _score_value(best, 1, exact, space.scale**r)
