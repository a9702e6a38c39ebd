"""Labeled simple graphs on a fixed vertex count, under the Hamming metric.

A graph is encoded as a bitmask over the upper-triangular edge slots, ordered
lexicographically by (i, j) with 1 <= i < j <= nv.  The encoding makes loops,
multi-edges and weights unrepresentable, and the ascending bitmask order is
the canonical order of the enumerated space (and therefore of every mean set
printed by the CLI).

The text format is one graph per line, ``nv:bitstring`` -- e.g. ``4:100101``
is the path v1-v2-v3-v4.  In sample files, blank lines and ``#`` comments are
ignored and all lines must share the same vertex count.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import metric_core
from .metric_core import _INT64_SAFE, MetricSpace, _exact_dtype, _to_float

__all__ = [
    "Graph",
    "GraphSpaceConfig",
    "GraphParseError",
    "EnumerationCapError",
    "DEFAULT_ENUMERATION_CAP",
    "n_edge_slots",
    "slot_pairs",
    "enumerate_space",
    "graph_subspace",
    "parse_graph",
    "format_graph",
    "read_graph_lines",
    "read_graph_file",
]

# 21 edge slots = all graphs on up to 7 vertices (2^21 points); beyond this,
# full enumeration is refused unless the caller raises the cap explicitly.
DEFAULT_ENUMERATION_CAP = 21

# Point i of a full space is edge mask i, and a space's size must fit in a
# signed 64-bit index, so no cap admits more than 62 slots (nv <= 11).
_MAX_FULL_SPACE_SLOTS = 62


def n_edge_slots(nv: int) -> int:
    return nv * (nv - 1) // 2


def slot_pairs(nv: int) -> tuple:
    """Edge slots in canonical order: (1,2), (1,3), ..., (nv-1,nv)."""
    return tuple(combinations(range(1, nv + 1), 2))


@dataclass(frozen=True, order=True)
class Graph:
    """Simple labeled graph: vertex count and an edge bitmask.

    Bit k of ``edges`` corresponds to slot k of :func:`slot_pairs`.  Ordering
    is by (nv, edges), i.e. ascending bitmask within a space.
    """

    nv: int
    edges: int

    def __post_init__(self):
        if self.nv < 1:
            raise ValueError("a graph needs at least one vertex")
        slots = n_edge_slots(self.nv)
        if not 0 <= self.edges < (1 << slots):
            raise ValueError(f"edge mask {self.edges:#x} has bits beyond the {slots} slots of nv={self.nv}")

    @classmethod
    def from_edges(cls, nv: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        index = {pair: k for k, pair in enumerate(slot_pairs(nv))}
        mask = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) is not representable")
            key = (u, v) if u < v else (v, u)
            if key not in index:
                raise ValueError(f"edge {key} is outside vertices 1..{nv}")
            mask |= 1 << index[key]
        return cls(nv, mask)

    def edge_list(self) -> tuple:
        pairs = slot_pairs(self.nv)
        return tuple(pairs[k] for k in range(len(pairs)) if self.edges >> k & 1)

    def __repr__(self) -> str:
        return f"Graph({format_graph(self)!r})"


@dataclass(frozen=True)
class GraphSpaceConfig:
    nv: int
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.nv < 1:
            raise ValueError("nv must be >= 1")


class EnumerationCapError(ValueError):
    """Full enumeration refused; carries the cap that would be required.

    ``overridable`` is False when the space is past the 62-slot limit of full
    spaces (nv >= 12), where no cap can admit it.
    """

    def __init__(self, nv: int, cap: int):
        self.nv = nv
        self.required_cap = n_edge_slots(nv)
        self.cap = cap
        self.overridable = self.required_cap <= _MAX_FULL_SPACE_SLOTS
        slots = self.required_cap
        if self.overridable:
            why = f"above the enumeration cap {cap}; raise the cap to at least {slots} to enumerate it"
        else:
            why = f"past the {_MAX_FULL_SPACE_SLOTS}-slot limit of full spaces (nv <= 11), which no cap lifts"
        super().__init__(f"graph space on {nv} vertices has {slots} edge slots (2^{slots} graphs), {why}")


def _mask_backend(words: np.ndarray):
    """Hamming distances of edge bitsets ``words[point, k]`` (slots 64k..64k+63):
    popcounts of the XOR, summed over the words."""
    first, *rest = [np.ascontiguousarray(words[:, k]) for k in range(words.shape[1])]

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out = np.bitwise_count(first[rows][:, None] ^ first[cols][None, :]).astype(np.int64)
        for c in rest:
            out += np.bitwise_count(c[rows][:, None] ^ c[cols][None, :])
        return out

    return block


def _full_space_block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Hamming distances in a full space, where point i is edge mask i: no word array to gather from."""
    return np.bitwise_count(
        rows.astype(np.uint64)[:, None] ^ cols.astype(np.uint64)[None, :]
    ).astype(np.int64)  # the XOR block is freed before the int64 copy is made


class _Orbits:
    """The slot-type orbits of the full graph space ``space`` relative to its
    points ``sup_idx``, and their exact order-r scores (:meth:`scorer`), with
    no ``|space| x |support|`` block.

    Point x is edge mask x.  Slot k's type is its pattern ``(X_1k ^ X_ik)_i``
    over the support ``X_i = sup_idx[i]``; taken relative to ``X_1``, a type
    and its complement are one, so the orbit count is the same for every
    Hamming isometry of the support.  Write ``x = X_1 ^ y`` and let y set
    ``j_t`` of the ``c_t`` slots of type t (``counts``): then ``d(x, X_i) =
    sum_t (P_ti ? c_t - j_t : j_t)``, so every score depends on x only
    through its orbit j, one of ``size = prod_t (c_t + 1)``.  Each support
    graph is an orbit of its own (``support``), and orbit j holds
    ``prod_t C(c_t, j_t)`` graphs (:meth:`graphs`).  The types are split into
    two groups of balanced orbit counts, and orbit ``jb * |a| + ja`` sets
    ``ja`` in the first group's mixed radix and ``jb`` in the second's.
    """

    def __init__(self, space: MetricSpace, sup_idx: np.ndarray):
        self.space = space
        self.base = np.uint64(sup_idx[0])
        self._choices = {}  # (t, j) -> the masks of :meth:`_chosen`
        slot_bits = np.uint64(1) << np.arange(space.bound_M, dtype=np.uint64)
        patterns = ((sup_idx[0] ^ sup_idx).astype(np.uint64) & slot_bits[:, None] > 0).astype(np.int64)
        ids = {}  # each pattern's type, numbered in order of its first slot
        self.slot_type = np.array([ids.setdefault(p.tobytes(), len(ids)) for p in patterns], dtype=np.intp)
        _, first = np.unique(self.slot_type, return_index=True)
        self.types, self.counts = patterns[first], np.bincount(self.slot_type, minlength=len(ids))
        top = range(self.counts.max(initial=0) + 1)  # binomial[t, j] = C(c_t, j), the size of :meth:`_chosen`
        self.binomial = np.array([[math.comb(c, j) for j in top] for c in self.counts.tolist()], np.int64)
        self.binomial.shape = (len(ids), len(top))  # (0, 1) when there is no slot
        self.type_masks = np.zeros(len(ids), dtype=np.uint64)
        np.bitwise_or.at(self.type_masks, self.slot_type, slot_bits)
        self.groups, self.sizes = ([], []), [1, 1]  # sizes: each group's table rows
        for t in np.argsort(-self.counts, kind="stable").tolist():  # greedy balance of the two orbit counts
            g = int(self.sizes[1] < self.sizes[0])
            self.groups[g].append(t)
            self.sizes[g] *= int(self.counts[t]) + 1
        self.size = self.sizes[0] * self.sizes[1]
        self.strides = np.empty(len(ids), dtype=np.int64)  # each type's stride in the orbit id
        for group, stride in zip(self.groups, (1, self.sizes[0])):
            for t in group:
                self.strides[t] = stride
                stride *= int(self.counts[t]) + 1
        self.support = (self.types.T * self.counts) @ self.strides  # X_i sets every slot of the types it differs on
        self.tables = []  # each group's distance table over its orbits, filled by doubling over its types
        for group, size in zip(self.groups, self.sizes):
            table = np.empty((size, len(sup_idx)), dtype=np.int64)
            table[0] = self.counts[group] @ self.types[group]  # y sets no slot; X_1 ^ X_i sets its types'
            n = 1
            for t in group:  # setting one more slot of type t moves one slot towards or away from each X_i
                for j in range(1, self.counts[t] + 1):
                    table[j * n : (j + 1) * n] = table[(j - 1) * n : j * n] + (1 - 2 * self.types[t])
                n *= self.counts[t] + 1
            self.tables.append(table)
        self.floats = [table.astype(np.float64) for table in self.tables]  # for :meth:`bound`

    def scorer(self, r: int, total_weight: int) -> tuple:
        """The exact order-r scores of the orbits that can hold a minimum
        (:meth:`cut` and :meth:`bound`), a tile at a time: ``(tiles, powers)``.

        Orbit ``jb * |a| + ja`` has ``d = a[ja] + b[jb]`` in the ``tables`` a
        and b.  ``powers(orbits)`` gives the orbits' ``d^r``, a row per support
        graph, in the dtype :func:`metric_core._exact_dtype` picks (Python ints
        once the binomials pass int64), so a float64 matmul is exact.
        ``tiles(weights)`` takes integer weights on the support (a matrix,
        each row summing to at most ``total_weight``), runs the cut and the
        bound once for all its rows, and gives the orbit id of each position
        it scores (the product of the table rows ia and ib that both keep)
        and the tiles of each group of consecutive rows.  A group holds at
        most ``_CHUNK_CELLS // (k (|ia| + |ib|))`` rows (at least one), so its
        factors below hold at most ``_CHUNK_CELLS`` cells, and its tiles are
        ``(lo, tile)`` pairs, ``tile[k]`` holding the group's row k's scores
        of the positions from ``lo`` on, at most ``_CHUNK_CELLS`` cells or one
        row of ``b`` per weight row.  A tile is a range of b's kept rows of
        ``sum_j C(r, j) (b^(r-j) * w) @ (a^j).T``, the scores by the binomial
        theorem, whose ``j = 0`` and ``j = r`` terms are outer sums, made by
        one matmul into one buffer from the kept rows' powers (when every
        ``c_t`` is 1 the orbits are the graphs).
        """
        # the binomials C(r, j) pass int64 from r = 67, where M = 1 keeps the scores themselves small
        dtype = object if math.comb(r, r // 2) >= _INT64_SAFE else _exact_dtype(self.space, r, total_weight)
        ints = object if dtype is object else np.int64  # powers are taken in integers
        a, b = self.tables
        m, k = a.shape[1], 2 + (r - 1) * a.shape[1]  # k: each factor's length, 2 outer-sum slots and m per middle term

        def tiles(weights: np.ndarray) -> tuple:
            (ia, ib), kept = self.cut(weights), self.bound(weights, r).any(axis=0)
            ia, ib = ia[kept[ia]], ib[kept[len(a) + ib]]
            ka, kb, weights = a[ia].astype(ints), b[ib].astype(ints), weights.astype(dtype)

            def orbit(positions: np.ndarray) -> np.ndarray:
                return ib[positions // len(ia)] * len(a) + ia[positions % len(ia)]

            def made(rows: np.ndarray):
                left = np.empty((len(rows), len(ib), k), dtype)
                left[:, :, 0] = rows @ (kb**r).T  # the j = 0 term, sum_i w_i b^r, is an outer sum
                left[:, :, 1] = 1
                right = np.empty((len(rows), k, len(ia)), dtype)
                right[:, 0] = 1
                right[:, 1] = rows @ (ka**r).T  # and so is the j = r term, sum_i w_i a^r
                for j in range(1, r):  # term j: C(r, j) b^(r-j) beside each weight on the left, a^j on the right
                    middle = slice(2 + (j - 1) * m, 2 + j * m)
                    np.multiply(math.comb(r, j) * kb ** (r - j), rows[:, None], out=left[:, :, middle])
                    right[:, middle] = (ka**j).T
                step = min(len(ib), max(1, metric_core._CHUNK_CELLS // (len(rows) * len(ia))))  # rows of b per tile
                buffer = np.empty(len(rows) * step * len(ia), dtype)
                for lo in range(0, len(ib), step):
                    out = buffer[: len(rows) * min(step, len(ib) - lo) * len(ia)].reshape(len(rows), -1, len(ia))
                    yield lo * len(ia), np.matmul(left[:, lo : lo + step], right, out=out).reshape(len(rows), -1)

            group = max(1, metric_core._CHUNK_CELLS // (k * (len(ia) + len(ib))))  # weight rows per group
            return orbit, (made(weights[lo : lo + group]) for lo in range(0, len(weights), group))

        def powers(orbits: np.ndarray) -> np.ndarray:
            jb, ja = np.divmod(orbits, len(a))
            return ((a[ja] + b[jb]).astype(ints) ** r).T.astype(dtype)

        return tiles, powers

    def bound(self, weights: np.ndarray, r: int) -> np.ndarray:
        """The rows of a, then of b, that the order-1 bound keeps: masks per weight row w.

        With W = sum(w), Jensen gives ``F_r >= F_1^r / W^(r-1)``, and ``F_1 =
        A1[ja] + B1[jb]`` (``A1 = a w``, ``B1 = b w``) is least at the orbit
        (argmin A1, argmin B1), whose F_r score U is at least the minimum: no
        row ja with ``(A1[ja] + min B1)^r > U W^(r-1)`` holds a minimizer (and
        so for b).  Each row is bounded alone (F_1 summed exactly, or else in
        support order), in float64 with a slack of 1e-9 that errs towards keeping;
        one whose ``U W^(r-1)`` passes the float range keeps every row.
        """
        w = (np.frompyfunc(_to_float, 1, 1)(weights) if weights.dtype == object else weights).astype(np.float64)
        a, b = self.floats
        exact = w.sum(axis=1).max() * self.space.bound_M < 2**52  # so no row's F_1 depends on the rows beside it
        ones = [w @ t.T if exact else sum(w[:, i, None] * t[:, i] for i in range(w.shape[1])) for t in (a, b)]
        best = [np.argmin(one, axis=1) for one in ones]
        low = [one[np.arange(len(w)), j, None] for one, j in zip(ones, best)]
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.einsum("nm,nm->n", w, (a[best[0]] + b[best[1]]) ** r)
            limit = ((u * w.sum(axis=1) ** (r - 1)) ** (1 / r) * (1 + 1e-9))[:, None]
        return np.hstack([ones[0] <= limit - low[1], ones[1] <= limit - low[0]]) | ~np.isfinite(limit)

    def cut(self, weights: np.ndarray) -> tuple:
        """The ascending rows of each distance table, ``a`` and ``b``, that
        can hold a minimum of some row of ``weights``: all of them for a row
        of no positive weight.

        Let A be a row's support points of positive weight and P_t the points
        that differ from ``X_1`` on type t.  If x differs from ``X_1`` on a
        slot of type p and agrees with it on one of type q, flipping both
        brings x 2 closer to each point of ``P_q \\ P_p`` and 2 farther from
        each point of ``P_p \\ P_q``.  So where A meets the first and not the
        second, the score falls at every order r > 0, and no minimizer has
        ``j_p > 0`` with ``j_q < c_q``.  Flipping one slot likewise rules out
        ``j_t > 0`` where P_t misses A, and ``j_t < c_t`` where P_t holds A.
        A table keeps the rows that break no rule among its group's types for
        some row's A, so the product of the kept rows holds every row's
        minimizers.  Each distinct A is checked once, in blocks of about
        ``_CHUNK_CELLS`` cells.
        """
        active = np.ascontiguousarray(weights > 0)
        data, m = active.tobytes(), active.shape[1]
        sets = np.frombuffer(b"".join(dict.fromkeys(data[i : i + m] for i in range(0, len(data), m))), bool)
        sets = sets.reshape(-1, m)
        step = max(1, metric_core._CHUNK_CELLS // ((sum(self.sizes) + m) * max(1, len(self.counts))))  # sets per check
        keep = np.logical_or.reduce([self._kept(sets[lo : lo + step]).any(axis=0) for lo in range(0, len(sets), step)])
        return np.flatnonzero(keep[: self.sizes[0]]), np.flatnonzero(keep[self.sizes[0] :])

    def _kept(self, sets: np.ndarray) -> np.ndarray:
        """The rows of a, then of b, that break no rule of :meth:`cut` for each active set (a row of ``sets``)."""
        differs = self.types.astype(bool)  # P_t, a row per type
        inside = sets[:, None, :] & differs  # the points of A in P_t
        apart = inside.astype(np.int64) @ ~differs.T  # |A & P_p \ P_q| at [set, p, q]
        some = sets.any(axis=1)[:, None]  # an empty A cuts nothing
        count = inside.sum(axis=2)
        empty, full = (count == 0) & some, (count == sets.sum(axis=1)[:, None]) & some
        second = np.zeros(len(self.counts), dtype=bool)
        second[self.groups[1]] = True
        swap = (apart == 0) & (apart.transpose(0, 2, 1) > 0) & (second[:, None] == second)  # j_p > 0 forces j_q = c_q
        ruled = empty.any(axis=0) | full.any(axis=0) | swap.any(axis=(0, 2)) | swap.any(axis=(0, 1))
        if not ruled.any():
            return np.ones((len(sets), sum(self.sizes)), dtype=bool)
        bound = np.flatnonzero(ruled)  # the types some rule binds
        ids = np.concatenate([np.arange(self.sizes[0]), np.arange(self.sizes[1]) * self.sizes[0]])  # each row's orbit
        digits = ids[:, None] // self.strides[bound] % (self.counts[bound] + 1)
        own = np.repeat([False, True], self.sizes)[:, None] == second[bound]  # the types of the row's own table
        set_ = (digits > 0).astype(np.float32)  # j_t > 0, in floats so that BLAS counts the broken rules
        short = ((digits < self.counts[bound]) & own).astype(np.float32)  # j_t < c_t
        broken = np.einsum("srq,rq->sr", set_ @ swap[:, bound][:, :, bound], short)
        return broken + (set_ @ empty[:, bound].T + short @ full[:, bound].T).T == 0

    def graphs(self, orbits) -> tuple:
        """The edge masks of every graph in the given orbits, orbit by orbit,
        and the offsets where each orbit's masks start (one more, the end).

        All the orbits are expanded at once, one array pass per split type
        (the first one's choices of :meth:`_chosen` varying slowest), into an
        output allocated at its full size first, so a set past the memory at
        hand fails at once with ``MemoryError``.
        """
        digits = np.asarray(orbits, dtype=np.int64)[:, None] // self.strides % (self.counts + 1)
        whole = np.where(digits == self.counts, self.type_masks, np.uint64(0))  # j_t = c_t sets every slot of t
        starts = np.bitwise_xor.reduce(whole, axis=1) ^ self.base
        split = (digits > 0) & (digits < self.counts)  # types with some of their slots set, each a choice
        types = np.flatnonzero(split.any(axis=0))  # the types split in some orbit
        radix = self.binomial[types, digits[:, types]]  # choices per split type, 1 where it is not split
        sizes = radix.prod(axis=1)
        after = sizes[:, None] // np.cumprod(radix, axis=1)  # choices of the split types after it
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        owner = np.repeat(np.arange(len(digits)), sizes)  # each mask's orbit
        rank = np.arange(offsets[-1]) - offsets[owner]
        out = starts[owner]
        for k, t in enumerate(types.tolist()):
            js = np.flatnonzero(np.bincount(digits[split[:, t], t]))  # the j_t chosen among
            table = np.concatenate([np.zeros(1, np.uint64), *(self._chosen(t, j) for j in js.tolist())])
            first = np.zeros(self.counts[t] + 1, dtype=np.int64)  # where each j_t's choices start in table
            first[js] = 1 + np.cumsum(self.binomial[t, js]) - self.binomial[t, js]  # unsplit: 0, no slot
            out ^= table[first[digits[owner, t]] + rank // after[owner, k] % radix[owner, k]]
        return out.view(np.intp), offsets

    def _chosen(self, t: int, j: int) -> np.ndarray:
        """Every mask that sets ``j`` of the slots of type t, memoised."""
        if (t, j) not in self._choices:
            bits = (1 << k for k in np.flatnonzero(self.slot_type == t).tolist())
            size = math.comb(int(self.counts[t]), j)
            self._choices[t, j] = np.fromiter(map(sum, combinations(bits, j)), np.uint64, size)
        return self._choices[t, j]


class _AllGraphs(Sequence):
    """Every graph on ``nv`` vertices, addressed by edge mask: position i is
    ``Graph(nv, i)``.  Graphs are built on access, never stored."""

    def __init__(self, nv: int):
        self.nv = nv
        self._len = 1 << n_edge_slots(nv)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(Graph(self.nv, m) for m in range(*i.indices(self._len)))
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"graph index {i} out of range for nv={self.nv}")
        return Graph(self.nv, i)

    def __contains__(self, g) -> bool:
        return isinstance(g, Graph) and g.nv == self.nv

    def index(self, g) -> int:
        if g not in self:
            raise ValueError(f"{g!r} is not a graph on {self.nv} vertices")
        return g.edges


def enumerate_space(cfg: GraphSpaceConfig | int) -> MetricSpace:
    """All 2^(nv(nv-1)/2) simple graphs on nv vertices, Hamming metric.

    Points come in ascending bitmask order; bound_M is the slot count.  The
    space is index-addressed: point i is the graph with edge mask i, so no
    graph is built until a caller reads one and distances are popcounts of
    XORed indices.  Spaces past the cap, or past 62 edge slots whatever the
    cap, raise :class:`EnumerationCapError`.
    """
    if isinstance(cfg, int):
        cfg = GraphSpaceConfig(cfg)
    slots = n_edge_slots(cfg.nv)
    if slots > min(cfg.enumeration_cap, _MAX_FULL_SPACE_SLOTS):
        raise EnumerationCapError(cfg.nv, cfg.enumeration_cap)
    points = _AllGraphs(cfg.nv)
    return MetricSpace(
        points,
        index=points.index,
        int_block=_full_space_block,
        bound_M=slots,
        is_pseudo=False,
        label=format_graph,
        name=f"graphs(nv={cfg.nv})",
    )


def graph_subspace(graphs: Sequence[Graph]) -> MetricSpace:
    """Hamming space restricted to the given graphs, without full enumeration.

    Useful for restricted means when nv is past the enumeration cap: the
    candidates are observed graphs, so the ambient space is never built.
    """
    distinct = sorted(set(graphs))
    if not distinct:
        raise ValueError("need at least one graph")
    nv = distinct[0].nv
    if any(g.nv != nv for g in distinct):
        raise ValueError("all graphs must share the same vertex count")
    n_words = max(1, -(-n_edge_slots(nv) // 64))  # nv=1 has no slots but still one word
    words = [[(g.edges >> 64 * k) & (2**64 - 1) for k in range(n_words)] for g in distinct]
    return MetricSpace(
        distinct,
        int_block=_mask_backend(np.array(words, dtype=np.uint64)),
        bound_M=n_edge_slots(nv),
        is_pseudo=False,
        label=format_graph,
        name=f"graphs(nv={nv})|{len(distinct)} observed",
    )


class GraphParseError(ValueError):
    """Malformed graph line; ``column`` is 1-based where that is meaningful."""

    def __init__(self, message: str, column: int | None = None):
        self.column = column
        if column is not None:
            message = f"column {column}: {message}"
        super().__init__(message)


def parse_graph(text: str) -> Graph:
    """Parse one ``nv:bitstring`` line into a Graph."""
    line = text.strip()
    if not line:
        raise GraphParseError("empty graph line", column=1)
    head, sep, bits = line.partition(":")
    if not sep:
        raise GraphParseError("missing ':' separator", column=len(line) + 1)
    if not head.isdigit():
        bad = next((i for i, ch in enumerate(head) if not ch.isdigit()), 0)
        raise GraphParseError(f"vertex count {head!r} is not a number", column=bad + 1)
    nv = int(head)
    if nv < 1:
        raise GraphParseError("vertex count must be >= 1", column=1)
    slots = n_edge_slots(nv)
    offset = len(head) + 2  # 1-based column of the first bit
    for i, ch in enumerate(bits):
        if ch not in "01":
            raise GraphParseError(f"invalid bit {ch!r}", column=offset + i)
    if len(bits) != slots:
        raise GraphParseError(
            f"bit string has {len(bits)} slots, nv={nv} needs exactly {slots}"
        )
    return Graph(nv, int(bits[::-1] or "0", 2))  # slot k is bit k, written k-th


def format_graph(g: Graph) -> str:
    # the sentinel bit above the top slot pads bin() to exactly one digit per
    # slot (none for nv = 1); reversed, slot 0 comes first
    return f"{g.nv}:{bin(g.edges | 1 << n_edge_slots(g.nv))[:2:-1]}"


def _mask_labels(nv: int, masks: Sequence) -> Iterator[str]:
    """The label :func:`format_graph` gives the graph on ``nv`` vertices of
    each edge mask of ``masks``, in order, written from the masks' bits a block
    of at most ``metric_core._CHUNK_CELLS`` characters at a time: no Graph is built."""
    head, slots = np.frombuffer(f"{nv}:".encode(), np.uint8), n_edge_slots(nv)
    width = len(head) + slots
    step = max(1, metric_core._CHUNK_CELLS // width)  # labels per block
    for lo in range(0, len(masks), step):
        octets = np.asarray(masks[lo : lo + step], dtype="<u8").view(np.uint8).reshape(-1, 8)  # bit k: slot k
        text = np.empty((len(octets), width), dtype=np.uint8)  # one label per row
        text[:, : len(head)] = head
        np.add(np.unpackbits(octets, axis=1, count=slots, bitorder="little"), ord("0"), out=text[:, len(head) :])
        block = text.tobytes().decode()  # ASCII, one label every width characters
        yield from (block[i : i + width] for i in range(0, len(block), width))


def read_graph_lines(lines: Iterable[str], source: str = "<input>") -> list[Graph]:
    """Parse a graph sample: one graph per line, '#' comments, blank lines skipped."""
    graphs: list[Graph] = []
    first_nv_line = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            g = parse_graph(line)
        except GraphParseError as exc:
            raise GraphParseError(f"{source}, line {lineno}: {exc}", column=exc.column) from None
        if graphs and g.nv != graphs[0].nv:
            raise GraphParseError(
                f"{source}, line {lineno}: vertex count {g.nv} differs from "
                f"{graphs[0].nv} (line {first_nv_line})"
            )
        if not graphs:
            first_nv_line = lineno
        graphs.append(g)
    if not graphs:
        raise GraphParseError(f"{source}: no graphs found")
    return graphs


def read_graph_file(path) -> list[Graph]:
    with open(path, "r", encoding="utf-8") as fh:
        return read_graph_lines(fh, source=str(path))
