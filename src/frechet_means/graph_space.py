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

from .metric_core import MetricSpace, _exact_dtype

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
        self.groups, sizes = ([], []), [1, 1]
        for t in np.argsort(-self.counts, kind="stable").tolist():  # greedy balance of the two orbit counts
            g = int(sizes[1] < sizes[0])
            self.groups[g].append(t)
            sizes[g] *= int(self.counts[t]) + 1
        self.size = sizes[0] * sizes[1]
        self.strides = np.empty(len(ids), dtype=np.int64)  # each type's stride in the orbit id
        for group, stride in zip(self.groups, (1, sizes[0])):
            for t in group:
                self.strides[t] = stride
                stride *= int(self.counts[t]) + 1
        self.support = (self.types.T * self.counts) @ self.strides  # X_i sets every slot of the types it differs on

    def scorer(self, r: int, total_weight: int) -> tuple:
        """The exact order-r scores of every orbit, one tile at a time.

        Each group of types has a distance table over its orbits, ``a`` and
        ``b``, filled by doubling over its types, and orbit ``jb * |a| + ja``
        has ``d = a[ja] + b[jb]``.  By the binomial theorem the scores
        ``sum_i w_i d(x, X_i)^r`` form the matrix ``sum_j C(r, j) (b^(r-j) *
        w) @ (a^j).T``, whose ``j = 0`` and ``j = r`` terms are outer sums.
        Returns a function and the cells each weight row holds beside its
        tiles.  The function maps integer weights on the support (a matrix,
        each row summing to at most ``total_weight``) and a cell budget to
        ``(lo, tile)`` pairs: ``tile[k]`` holds row k's scores of the orbits
        from ``lo`` on, a range of ``b``'s rows, made by one matmul into one
        buffer in the dtype :func:`metric_core._exact_dtype` picks, so a
        float64 matmul is exact.  A tile holds at most ``cells`` cells, or
        one row of ``b`` per weight row.  When every ``c_t`` is 1 the orbits
        are the graphs, and the tables have ``2^ceil(slots/2)`` and
        ``2^floor(slots/2)`` rows.
        """
        dtype = _exact_dtype(self.space, r, total_weight)
        m = self.types.shape[1]
        tables = []
        for group in self.groups:
            table = np.empty((math.prod(self.counts[group] + 1), m), dtype=np.int64)
            table[0] = self.counts[group] @ self.types[group]  # y sets no slot; X_1 ^ X_i sets its types'
            n = 1
            for t in group:  # setting one more slot of type t moves one slot towards or away from each X_i
                for j in range(1, self.counts[t] + 1):
                    table[j * n : (j + 1) * n] = table[(j - 1) * n : j * n] + (1 - 2 * self.types[t])
                n *= self.counts[t] + 1
            tables.append(table.astype(object if dtype is object else np.int64, copy=False))  # powers in integers
        a, b = tables
        a_r, b_r = (a**r).astype(dtype), (b**r).astype(dtype)
        # the middle terms j = 1..r-1: C(r, j) b^(r-j) beside each weight on the left, a^j on the right
        k = 2 + (r - 1) * m
        b_mid, a_mid = np.empty((len(b), k - 2), dtype), np.empty((k - 2, len(a)), dtype)
        for j in range(1, r):  # term j's weight i at (j - 1) m + i
            b_mid[:, (j - 1) * m : j * m] = math.comb(r, j) * b ** (r - j)
            a_mid[(j - 1) * m : j * m] = (a**j).T

        def tiles(weights: np.ndarray, cells: int):
            rows = weights.astype(dtype)
            left = np.empty((len(rows), len(b), k), dtype)
            left[:, :, 0] = rows @ b_r.T  # the j = 0 term, sum_i w_i b^r, is an outer sum
            left[:, :, 1] = 1
            np.multiply(b_mid, np.tile(rows, r - 1)[:, None, :], out=left[:, :, 2:])
            right = np.empty((len(rows), k, len(a)), dtype)
            right[:, 0] = 1
            right[:, 1] = rows @ a_r.T  # and so is the j = r term, sum_i w_i a^r
            right[:, 2:] = a_mid
            step = min(len(b), max(1, cells // (len(rows) * len(a))))  # rows of b per tile
            buffer = np.empty(len(rows) * step * len(a), dtype)
            for lo in range(0, len(b), step):
                out = buffer[: len(rows) * min(step, len(b) - lo) * len(a)].reshape(len(rows), -1, len(a))
                yield lo * len(a), np.matmul(left[:, lo : lo + step], right, out=out).reshape(len(rows), -1)

        return tiles, k * (len(a) + len(b))

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


def _mask_labels(nv: int, masks: Sequence, cells: int) -> Iterator[str]:
    """The label :func:`format_graph` gives the graph on ``nv`` vertices of
    each edge mask of ``masks``, in order, written from the masks' bits a
    block of at most ``cells`` characters at a time: no Graph is built."""
    head, slots = np.frombuffer(f"{nv}:".encode(), np.uint8), n_edge_slots(nv)
    width = len(head) + slots
    step = max(1, cells // width)  # labels per block
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
