import tracemalloc

import numpy as np
import pytest

from frechet_means import (
    EnumerationCapError,
    Sample,
    Graph,
    GraphParseError,
    GraphSpaceConfig,
    check_metric_axioms,
    enumerate_space,
    format_graph,
    graph_subspace,
    parse_graph,
    read_graph_lines,
    restricted_sample_mean_set,
)
from frechet_means.frechet_solver import _CHUNK_CELLS, _labels
from frechet_means.graph_space import n_edge_slots, slot_pairs
from oracles import hamming_by_edge_sets, hamming_distance, mean_set_by_enumeration


def test_slot_order_is_row_major_upper_triangular():
    assert slot_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert n_edge_slots(7) == 21


def test_hamming_distance_of_canonical_pair(s1, s2):
    assert hamming_distance(s1, s2) == 2


def test_hamming_distance_identity(s1):
    assert hamming_distance(s1, s1) == 0


def test_hamming_empty_vs_complete():
    empty = Graph(4, 0)
    complete = Graph(4, (1 << 6) - 1)
    assert hamming_distance(empty, complete) == 6


def test_hamming_rejects_mismatched_vertex_counts():
    with pytest.raises(ValueError, match="vertex counts differ"):
        hamming_distance(Graph(4, 0), Graph(5, 0))


def test_hamming_matches_edge_set_oracle():
    rng = np.random.Generator(np.random.PCG64(99))
    for nv in (4, 5):
        top = 1 << n_edge_slots(nv)
        for _ in range(200):
            g1 = Graph(nv, int(rng.integers(0, top)))
            g2 = Graph(nv, int(rng.integers(0, top)))
            assert hamming_distance(g1, g2) == hamming_by_edge_sets(g1, g2)


def test_enumerate_small_spaces():
    sp2 = enumerate_space(2)
    assert len(sp2) == 2 and sp2.bound_M == 1
    sp4 = enumerate_space(4)
    assert len(sp4) == 64 and sp4.bound_M == 6
    masks = [g.edges for g in sp4.points]
    assert masks == sorted(masks) and len(set(masks)) == 64


def test_full_space_codec_round_trip():
    space = enumerate_space(7)
    last = len(space) - 1
    picks = [0, 1, last, *np.random.default_rng(7).integers(0, last, 50)]
    for i in picks:
        g = space.points[i]
        assert g == Graph(7, int(i)) and g in space
        assert space.index(g) == i
    assert space.points[-1] == Graph(7, last)
    with pytest.raises(IndexError):
        space.points[last + 1]


def test_full_space_rejects_foreign_points():
    space = enumerate_space(7)
    for foreign in (Graph(6, 0), "7:" + "0" * 21, None):
        assert foreign not in space
        with pytest.raises(ValueError, match="not a point"):
            space.index(foreign)


def test_full_space_slices_and_iteration_match_the_graph_tuple():
    points = enumerate_space(4).points
    expected = tuple(Graph(4, m) for m in range(64))
    assert tuple(points) == expected
    assert points[::5] == expected[::5]
    assert points[60:] == expected[60:] and points[-3:1:-7] == expected[-3:1:-7]


def test_full_space_is_not_materialised():
    # 2^21 Graph objects plus a position dict take over 400 MB
    tracemalloc.start()
    try:
        enumerate_space(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_full_space_holds_no_arrays():
    # point i is edge mask i, so the distance kernel needs no 2^21-entry word array
    tracemalloc.start()
    try:
        enumerate_space(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("nv", [1, 2, 3, 4, 5])
def test_bulk_labels_match_format_graph(nv):
    space = enumerate_space(nv)
    labels = list(_labels(space, range(len(space))))
    assert labels == [format_graph(Graph(nv, m)) for m in range(len(space))]
    assert nv > 1 or labels == ["1:"]  # no slots, an empty bit string


def test_bulk_labels_match_format_graph_across_blocks():
    space = enumerate_space(7)
    step = _CHUNK_CELLS // (len("7:") + n_edge_slots(7))  # labels per block
    rng = np.random.default_rng(22)
    sample = np.unique(np.concatenate([rng.integers(0, len(space), 3 * step), [0, len(space) - 1]]))
    assert len(sample) > 2 * step
    assert list(_labels(space, sample)) == [format_graph(Graph(7, m)) for m in sample.tolist()]
    for lo, hi in (0, 2 * step + 1), (len(space) - 2 * step - 1, len(space)):  # block edges at both ends
        assert list(_labels(space, range(lo, hi))) == [format_graph(Graph(7, m)) for m in range(lo, hi)]


def test_bulk_labels_reach_the_top_slot():
    space = enumerate_space(GraphSpaceConfig(11, 62))  # 55 slots, every mask bit but the top 9
    masks = [0, 1, 1 << 54, len(space) - 1, 0x55AA55AA55AA55 & (len(space) - 1)]
    assert list(_labels(space, masks)) == [format_graph(Graph(11, m)) for m in masks]


def test_full_spaces_stop_at_62_edge_slots():
    space = enumerate_space(GraphSpaceConfig(11, enumeration_cap=62))
    assert len(space) == 2**55
    assert space.distance(Graph(11, 0), Graph(11, 2**55 - 1)) == 55
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_space(GraphSpaceConfig(12, enumeration_cap=66))
    assert exc.value.required_cap == 66 and not exc.value.overridable
    assert "62" in str(exc.value)


def test_enumeration_cap_refusal_names_required_cap():
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_space(8)
    assert exc.value.required_cap == 28
    assert "28" in str(exc.value)


def test_enumeration_cap_override():
    with pytest.raises(EnumerationCapError):
        enumerate_space(GraphSpaceConfig(5, enumeration_cap=9))
    sp = enumerate_space(GraphSpaceConfig(5, enumeration_cap=10))
    assert len(sp) == 1024


def test_g4_space_satisfies_all_axioms_exhaustively(g4):
    # includes coincidence: distinct labeled graphs are at positive distance
    for nv in (2, 3):
        assert check_metric_axioms(enumerate_space(nv)).ok
    assert check_metric_axioms(g4).ok


def test_parse_examples():
    g = parse_graph("4:011000")
    assert g.edge_list() == ((1, 3), (1, 4))
    g2 = parse_graph("4:110100")
    assert format_graph(g2) == "4:110100"


def test_parse_format_round_trip():
    rng = np.random.Generator(np.random.PCG64(5))
    for nv in (1, 2, 4, 5, 12):  # nv = 12 has 66 slots, past one 64-bit word
        for _ in range(50):
            g = Graph(nv, int.from_bytes(rng.bytes(9), "little") >> 72 - n_edge_slots(nv))
            assert parse_graph(format_graph(g)) == g
    assert format_graph(Graph(1, 0)) == "1:"
    assert format_graph(Graph(12, 1 << 65)) == "12:" + "0" * 65 + "1"
    assert format_graph(Graph(12, 1)) == "12:1" + "0" * 65


def test_parse_length_error():
    with pytest.raises(GraphParseError, match="5 slots.*needs exactly 6"):
        parse_graph("4:11010")


def test_parse_bad_bit_reports_column():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("4:11x100")
    assert exc.value.column == 5  # 1-based: "4", ":", then third bit slot


def test_parse_missing_colon_and_bad_nv():
    with pytest.raises(GraphParseError, match="missing ':'"):
        parse_graph("4100101")
    with pytest.raises(GraphParseError, match="not a number"):
        parse_graph("x:10")


def test_graph_mask_bounds_enforced():
    with pytest.raises(ValueError, match="beyond"):
        Graph(3, 0b1000)
    with pytest.raises(ValueError, match="vertex"):
        Graph(0, 0)


def test_from_edges_and_edge_list_round_trip():
    g = Graph.from_edges(4, [(2, 1), (3, 4)])
    assert format_graph(g) == "4:100001"
    assert g.edge_list() == ((1, 2), (3, 4))
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(4, [(2, 2)])
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(4, [(1, 5)])


def test_read_graph_lines_skips_comments_and_blanks(s1, s2):
    lines = [
        "# leading comment",
        "",
        "4:100101   # trailing comment",
        "   ",
        "4:101001",
    ]
    assert read_graph_lines(lines) == [s1, s2]


def test_read_graph_lines_rejects_mixed_nv():
    with pytest.raises(GraphParseError, match="line 2.*vertex count 5 differs from 4"):
        read_graph_lines(["4:100101", "5:1001010000"])


def test_read_graph_lines_rejects_empty_input():
    with pytest.raises(GraphParseError, match="no graphs"):
        read_graph_lines(["# nothing", ""])


def test_read_graph_lines_reports_line_and_column():
    with pytest.raises(GraphParseError, match="line 3"):
        read_graph_lines(["4:100101", "", "4:10x101"])


def test_graph_subspace_matches_ambient_distances(g4, s1, s2):
    sub = graph_subspace([s2, s1, s2])
    assert len(sub) == 2
    assert sub.points == tuple(sorted((s1, s2)))
    assert sub.distance(s1, s2) == hamming_distance(s1, s2)
    assert sub.bound_M == 6


def test_graph_subspace_rejects_mixed_nv(s1):
    with pytest.raises(ValueError, match="same vertex count"):
        graph_subspace([s1, Graph(5, 0)])


@pytest.mark.parametrize("nv", [12, 13])
@pytest.mark.parametrize("r", [1, 2])
def test_graph_subspace_past_64_edge_slots_matches_oracle(nv, r):
    # 66 and 78 slots need two 64-bit words; the first three graphs share
    # every slot below 64 and differ only above it
    slots = n_edge_slots(nv)
    rng = np.random.default_rng(nv)
    base = int(rng.integers(0, 2**63)) | 1 << 63
    high = [base | int(b) << 64 for b in (0, 1, 2**(slots - 64) - 1)]
    other = [int.from_bytes(rng.bytes(10)) % 2**slots for _ in range(3)]
    graphs = [Graph(nv, m) for m in high + other + high[:1]]
    sub = graph_subspace(graphs)
    idx = np.arange(len(sub), dtype=np.intp)
    assert sub.int_block(idx, idx).tolist() == [
        [hamming_by_edge_sets(a, b) for b in sub.points] for a in sub.points
    ]
    res = restricted_sample_mean_set(sub, Sample(tuple(graphs)), r)
    assert (res.optimum, res.argmin) == mean_set_by_enumeration(sub, graphs, r, sub.points)
