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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .metric_core import MetricSpace, _exact_dtype

__all__ = [
    "Graph",
    "GraphSpaceConfig",
    "GraphParseError",
    "EnumerationCapError",
    "DEFAULT_ENUMERATION_CAP",
    "n_edge_slots",
    "slot_pairs",
    "hamming_distance",
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


def hamming_distance(g1: Graph, g2: Graph) -> int:
    """Number of edge slots on which two graphs differ (popcount of XOR)."""
    if g1.nv != g2.nv:
        raise ValueError(f"vertex counts differ: {g1.nv} != {g2.nv}")
    return (g1.edges ^ g2.edges).bit_count()


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


def _popcount_table(masks: np.ndarray, bits: int, dtype) -> np.ndarray:
    """``t[v, i] = popcount(v ^ masks[i])`` over the low ``bits`` bits, for every
    ``v < 2^bits``: one array in ``dtype``, filled by doubling over the bits."""
    t = np.empty((1 << bits, len(masks)), dtype=dtype)
    t[0] = np.bitwise_count(masks & ((1 << bits) - 1)).astype(dtype)
    for k in range(bits):  # setting bit k of v moves it one slot towards or away from each mask
        t[1 << k : 2 << k] = t[: 1 << k] + (1 - 2 * (masks >> k & 1)).astype(dtype)
    return t


def _split_scorer(space: MetricSpace, sup_idx: np.ndarray, r: int, total_weight: int) -> Callable:
    """Exact order-r scores of every point of the full graph space ``space``
    against its points ``sup_idx``, with no ``|space| x |support|`` block.

    Point x is edge mask x; split it as ``x = hi * 2^low + lo`` with
    ``low = ceil(slots / 2)``.  Then ``d(x, X_i) = a[lo, i] + b[hi, i]`` for
    popcount tables ``a`` (``2^low`` rows) and ``b`` (``2^(slots - low)``
    rows), and by the binomial theorem the scores ``sum_i w_i d(x, X_i)^r``
    form the matrix ``sum_j C(r, j) (b^(r-j) * w) @ (a^j).T``, whose row-major
    ravel is in ascending mask order.  The ``j = 0`` and ``j = r`` terms are
    outer sums; all terms go through one matmul.  The tables are built once;
    the returned function maps integer weights on ``sup_idx``, summing to at
    most ``total_weight``, to the score vector in the dtype
    :func:`metric_core._exact_dtype` picks, so a float64 matmul is exact.  A
    weight matrix gets one score row per weight row, each row scored by its
    own matmul straight into the output.
    """
    dtype = _exact_dtype(space, r, total_weight)
    ints = object if dtype is object else np.int64  # powers are taken in integers, then cast
    low = (space.bound_M + 1) // 2
    a = _popcount_table(sup_idx, low, ints)
    b = _popcount_table(sup_idx >> low, space.bound_M - low, ints)
    a_pows = [(a**j).astype(dtype) for j in range(1, r + 1)]  # a^j, j = 1..r
    b_terms = [(math.comb(r, j) * b ** (r - j)).astype(dtype) for j in range(r)]  # C(r, j) b^(r-j), j = 0..r-1
    ones_a, ones_b = np.ones(len(a), dtype), np.ones(len(b), dtype)

    def scores(weights: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(weights).astype(dtype)
        out = np.empty((len(rows), len(b), len(a)), dtype)
        for w, block in zip(rows, out):
            left = np.column_stack([b_terms[0] @ w, ones_b, *(t * w for t in b_terms[1:])])
            right = np.column_stack([ones_a, a_pows[-1] @ w, *a_pows[:-1]])
            np.matmul(left, right.T, out=block)
        return out.reshape(len(rows), -1) if weights.ndim == 2 else out.reshape(-1)

    return scores


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
