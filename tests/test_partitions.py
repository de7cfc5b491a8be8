import pytest

import oracles
from conftest import fixture_path, get_tree
from treestab import gc_vectors, partitions as pt, string_modules as sm
from treestab.nc_complex import facets
from treestab.tree_core import ConventionError, Segment, load_tree


def test_partition_construction():
    p = pt.TreePartition([("v2",), ("v3", "v1")])
    assert p.blocks == (("v1", "v3"), ("v2",))
    assert oracles.block_of(p, "v3") == ("v1", "v3")
    with pytest.raises(ValueError):
        pt.TreePartition([("v1", "v2"), ("v2",)])


def test_refinement():
    top = pt.TreePartition([("v1", "v2", "v3")])
    bot = pt.TreePartition([("v1",), ("v2",), ("v3",)])
    mid = pt.TreePartition([("v1", "v2"), ("v3",)])
    assert oracles.refinement_leq(bot, mid)
    assert oracles.refinement_leq(mid, top)
    assert not oracles.refinement_leq(top, mid)
    assert not oracles.refinement_leq(
        mid, pt.TreePartition([("v1", "v3"), ("v2",)]))


A2_TABLE = {
    (("v1",), ("v2",), ("v3",)): (("v1", "v2", "v3"),),
    (("v1",), ("v2", "v3")): (("v1", "v2"), ("v3",)),
    (("v1", "v2"), ("v3",)): (("v1", "v3"), ("v2",)),
    (("v1", "v3"), ("v2",)): (("v1",), ("v2", "v3")),
    (("v1", "v2", "v3"),): (("v1",), ("v2",), ("v3",)),
}


def test_a2_partitions_and_complement():
    tree = get_tree("a2")
    ncps = pt.noncrossing_partitions(tree)
    assert {p.blocks for p in ncps} == set(A2_TABLE)
    for p in ncps:
        kr = pt.kreweras_complement(tree, p)
        assert kr.blocks == A2_TABLE[p.blocks]
    assert pt.kreweras_orbits(tree) == [3, 2]


def test_complement_is_green_side(suite_tree):
    for f in facets(suite_tree):
        r = oracles.red_partition(f)
        g = oracles.green_partition(f)
        assert pt.kreweras_complement(suite_tree, r) == g


def test_partitions_distinct_both_sides(suite_tree):
    fs = facets(suite_tree)
    reds = [oracles.red_partition(f) for f in fs]
    greens = [oracles.green_partition(f) for f in fs]
    assert len(set(reds)) == len(fs)
    assert len(set(greens)) == len(fs)


def test_unknown_partition_raises():
    tree = get_tree("a2")
    with pytest.raises(ValueError):
        pt.kreweras_complement(
            tree, pt.TreePartition([("v1", "v2", "v3", "v4")]))


def test_block_segments_minimal_pairs():
    tree = get_tree("a2")
    segs = oracles.block_segments(tree, ("v1", "v2", "v3"))
    # v1..v3 passes through v2, so only the two short segments qualify
    assert {s.vertices for s in segs} == {("v1", "v2"), ("v2", "v3")}
    segs2 = oracles.block_segments(tree, ("v1", "v3"))
    assert {s.vertices for s in segs2} == {("v1", "v2", "v3")}


def test_block_segments_rejects_unrealizable():
    # v2..v4 in the bigger tree is not a segment, so a block {v2, v4}
    # cannot be drawn
    tree = get_tree("big8")
    with pytest.raises(ValueError):
        oracles.block_segments(tree, ("v2", "v4"))


def test_redgreen_tree(suite_tree):
    """Red segments of B plus green segments of Kr(B) always form a
    spanning tree on the interior vertices."""
    for f in facets(suite_tree)[:40]:
        r = oracles.red_partition(f)
        rg = oracles.redgreen_tree(suite_tree, r)
        count = len(rg.red_segments) + len(rg.green_segments)
        assert count == len(suite_tree.interior_vertices) - 1


def test_redgreen_tree_path():
    tree = get_tree("a2")
    B = pt.TreePartition([("v1", "v3"), ("v2",)])
    rg = oracles.redgreen_tree(tree, B)
    path = rg.tree_path("v1", "v2")
    assert [color for _, color in path] == ["red", "green"]
    assert rg.tree_path("v1", "v1") == []


def test_closure_and_biclosed():
    tree = get_tree("a2")
    e1 = Segment.canonical(("v1", "v2"))
    e2 = Segment.canonical(("v2", "v3"))
    both = Segment.canonical(("v1", "v2", "v3"))
    closed = pt.segment_closure(tree, {e1, e2})
    assert closed == {e1, e2, both}
    assert oracles.is_biclosed(tree, closed)
    assert oracles.is_biclosed(tree, set())
    # {e1, e2} misses the composite, so it is not closed
    assert not oracles.is_closed(tree, {e1, e2})


def test_sub_quotient_sets_biclosed(small_tree):
    """C and K of any segment are biclosed set families."""
    for s in small_tree.all_segments:
        assert oracles.is_biclosed(
            small_tree, gc_vectors.submodule_segments(small_tree, s))
        assert oracles.is_biclosed(
            small_tree, gc_vectors.quotient_segments(small_tree, s))


def test_join_biclosed():
    tree = get_tree("subseg")
    s = Segment.canonical(("2", "3"))
    t = Segment.canonical(("3", "4"))
    joined = oracles.join_biclosed(tree, {s}, {t})
    assert Segment.canonical(("2", "3", "4")) in joined


def test_torsion_pair_a2():
    tree = get_tree("a2")
    B = pt.TreePartition([("v1", "v3"), ("v2",)])
    T, F = pt.torsion_pair(tree, B)
    assert {m.segment.vertices for m in T} == {("v2", "v3")}
    assert {m.segment.vertices for m in F} == \
        {("v1", "v2"), ("v1", "v2", "v3")}


def test_torsion_decompose_a2():
    tree = get_tree("a2")
    B = pt.TreePartition([("v1", "v3"), ("v2",)])
    M11 = sm.string_module(tree, Segment.canonical(("v1", "v2", "v3")))
    sub, quot = pt.torsion_decompose(tree, B, M11)
    assert len(sub) == 0
    assert quot == sm.ModuleSum([M11])
    M01 = sm.string_module(tree, Segment.canonical(("v2", "v3")))
    sub, quot = pt.torsion_decompose(tree, B, M01)
    assert sub == sm.ModuleSum([M01])
    assert len(quot) == 0


def test_torsion_pairs_orthogonal_and_decompose(small_tree):
    """Every noncrossing partition gives a working pair: zero homs from
    T to F (asserted inside) and a unique canonical sequence for every
    indecomposable, with dimensions adding up (asserted inside)."""
    inds = sm.indecomposables(small_tree)
    for p in pt.noncrossing_partitions(small_tree):
        pt.torsion_pair(small_tree, p)
        for m in inds:
            pt.torsion_decompose(small_tree, p, m)


def test_torsion_decompose_checks_dimensions(monkeypatch):
    """Each (module, submodule) pair's edge counts are checked once, when
    the decomposition table is built: a quotient that loses its runs
    fails there."""
    tree = load_tree(fixture_path("a2"))
    real = sm._build_submodules
    monkeypatch.setattr(sm, "_build_submodules", lambda tree: [
        [(sub, ()) for sub, _ in options] for options in real(tree)])
    B = pt.noncrossing_partitions(tree)[0]
    with pytest.raises(ConventionError,
                       match="dimension mismatch in decomposition"):
        pt.torsion_decompose(tree, B, sm.indecomposables(tree)[0])


def test_wide_from_partition_a2():
    tree = get_tree("a2")
    got = {p.blocks: frozenset(m.segment.vertices
                               for m in oracles.wide_from_partition(tree, p))
           for p in pt.noncrossing_partitions(tree)}
    assert got[(("v1",), ("v2",), ("v3",))] == frozenset()
    assert got[(("v1", "v3"), ("v2",))] == {("v1", "v2", "v3")}
    assert got[(("v1", "v2", "v3"),)] == \
        {("v1", "v2"), ("v2", "v3"), ("v1", "v2", "v3")}


def test_ncp_poset_a2():
    po = pt.ncp_poset(get_tree("a2"))
    assert len(po) == 5
    assert po.is_lattice()
    assert len(po.covers()) == 6


def test_poset_rejects_duplicates():
    with pytest.raises(ValueError, match="elements 0 and 1 are order-equal"):
        pt.Poset([1, 1], [0b1, 0b1])
    with pytest.raises(ValueError, match="elements 1 and 2 are order-equal"):
        pt.Poset("abc", [0b1, 0b11, 0b11])
    # the lowest element with a twin, though a later pair repeats first
    with pytest.raises(ValueError, match="elements 0 and 3 are order-equal"):
        pt.Poset("abcd", [0b1, 0b10, 0b10, 0b1])
