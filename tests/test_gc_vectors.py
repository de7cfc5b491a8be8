import itertools

import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import fixture_path, get_tree
from treestab import gc_vectors, string_modules
from treestab.nc_complex import arcs, facets
from treestab.string_modules import algebra_dimension
from treestab.gc_vectors import (
    c_vector,
    g_vector,
    kreweras_theta,
    pairing_matrix,
    quotient_segments,
    segment_of,
    submodule_segments,
    zigzag,
    zigzag_dominance_check,
)
from treestab.tree_core import (ConventionError, EmbeddedTree, Segment,
                                load_tree)


def _facet_by_leaves(tree, leaf_pairs):
    for f in facets(tree):
        if frozenset(d.leaves for d in f.colored) == frozenset(leaf_pairs):
            return f
    raise AssertionError("no facet with colored arcs %r" % (leaf_pairs,))


# the worked two-edge example: both vector pairs of the facet
# {l1~l4, l1~l5}, plus the all-green facet for contrast
def test_a2_worked_vectors():
    tree = get_tree("a2")
    f = _facet_by_leaves(tree, [("l1", "l4"), ("l1", "l5")])
    by_leaves = {d.leaves: d for d in f.colored}
    gamma = by_leaves[("l1", "l5")]
    delta = by_leaves[("l1", "l4")]
    assert g_vector(tree, gamma) == (-1, 0)
    assert c_vector(f, gamma) == (-1, -1)
    assert f.color[gamma] == "red"
    assert g_vector(tree, delta) == (-1, 1)
    assert c_vector(f, delta) == (0, 1)
    assert f.color[delta] == "green"
    assert kreweras_theta(f) == (-1, 1)


A2_THETAS = {
    frozenset({("l3", "l2"), ("l4", "l2")}): (1, 1),
    frozenset({("l3", "l5"), ("l3", "l2")}): (1, 0),
    frozenset({("l1", "l4"), ("l4", "l2")}): (0, 1),
    frozenset({("l1", "l4"), ("l1", "l5")}): (-1, 1),
    frozenset({("l1", "l5"), ("l3", "l5")}): (0, 0),
}


def test_a2_thetas():
    tree = get_tree("a2")
    for f in facets(tree):
        key = frozenset(d.leaves for d in f.colored)
        assert kreweras_theta(f) == A2_THETAS[key]


def test_pairing_identity(suite_tree):
    """<g(delta), c(gamma)> = 1 iff delta = gamma, on every facet."""
    for f in facets(suite_tree):
        mat = pairing_matrix(f)
        k = len(f.colored)
        for i in range(k):
            for j in range(k):
                assert mat[i][j] == (1 if i == j else 0)


def dominance_verdicts(tree):
    """Per qualifying (facet, red arc) pair, the dominance verdict read
    off the count table, checked against the zigzag oracle."""
    verdicts = []
    for f in facets(tree):
        for d in f.reds():
            if len(f.segment[d]) >= 2:
                got = zigzag_dominance_check(f, d)
                assert got == oracles.dominance_by_zigzags(f, d), (f.index, d)
                verdicts.append(got)
    return verdicts


def assert_counts_match_oracles(tree):
    """The g-vector table, the pairing matrix of every facet, every
    dominance verdict and the algebra dimension, as counted, against
    the walk, vector and path routes."""
    assert [g_vector(tree, d) for d in arcs(tree)] \
        == [oracles.g_vector_by_turns(tree, d) for d in arcs(tree)]
    for f in facets(tree):
        assert pairing_matrix(f) == oracles.pairing_by_vectors(f), f.index
    assert all(dominance_verdicts(tree))
    assert algebra_dimension(tree) == oracles.algebra_dimension_by_paths(tree)


def test_counts_match_oracles(suite_tree):
    assert_counts_match_oracles(suite_tree)


@settings(max_examples=15, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_counts_match_oracles(rotation):
    assert_counts_match_oracles(EmbeddedTree(rotation))


@pytest.mark.parametrize("name", ["subseg", "deg45", "caterpillar4"])
def test_doctored_g_vectors_fail_like_the_oracles(name, monkeypatch):
    """With every g-vector negated, the pairing check names the first
    pair the dot products get wrong, and dominance fails on every
    qualifying pair, as it does on the zigzags."""
    real = gc_vectors._g_vectors
    monkeypatch.setattr(gc_vectors, "_g_vectors", lambda tree: tuple(
        tuple(-x for x in g) for g in real(tree)))
    tree = load_tree(fixture_path(name))  # fresh: nothing memoized
    for f in facets(tree):
        mat = oracles.pairing_by_vectors(f)
        i, j = next((i, j) for i, row in enumerate(mat)
                    for j, x in enumerate(row) if x != (i == j))
        with pytest.raises(ConventionError) as err:
            pairing_matrix(f)
        assert str(err.value) == "pairing <g(%r), c(%r)> = %d, " \
            "expected %d" % (f.colored[i], f.colored[j], mat[i][j], i == j)
    verdicts = dominance_verdicts(tree)
    assert verdicts and not any(verdicts)


def test_g_vector_rejects_arcs_not_of_the_tree():
    """The g table is read by arc id, so an arc of another tree must
    not read the vector of the arc that has its id here."""
    tree, other = get_tree("a2"), get_tree("big8")
    mine = arcs(tree)
    strangers = [d for d in arcs(other)
                 if d.id >= len(mine) or mine[d.id] != d]
    assert any(d.id < len(mine) for d in strangers)
    for d in strangers:
        with pytest.raises(ValueError, match="not an arc of this tree"):
            g_vector(tree, d)


def test_g_vector_boundary_arcs_are_zero():
    tree = get_tree("a2")
    for f in facets(tree):
        for d in f.boundary:
            assert g_vector(tree, d) == (0, 0)
            with pytest.raises(ValueError):
                segment_of(f, d)


def test_zigzag_disjoint_and_signed():
    tree = get_tree("deg45")
    for f in facets(tree):
        for d in f.colored:
            plus, minus = zigzag(tree, d)
            assert not (plus & minus)
            g = g_vector(tree, d)
            for e, val in zip(tree.interior_edges, g):
                assert (val == 1) == (e in plus)
                assert (val == -1) == (e in minus)


# C and K of the reference segment [2,8] in the five-vertex path tree,
# matching the worked sub/quotient listing
def test_subseg_reference_sets():
    tree = get_tree("subseg")
    s = Segment.canonical(("2", "3", "4", "7", "8"))
    C = submodule_segments(tree, s)
    K = quotient_segments(tree, s)
    want_C = {("2", "3", "4", "7", "8"), ("2", "3", "4", "7"),
              ("3", "4", "7", "8"), ("3", "4", "7"),
              ("4", "7", "8"), ("4", "7")}
    want_K = {("2", "3"), ("2", "3", "4"), ("2", "3", "4", "7", "8"),
              ("7", "8")}
    assert {c.vertices for c in C} == want_C
    assert {k.vertices for k in K} == want_K
    # the middle sub-segment [3,4] sits in neither
    mid = Segment.canonical(("3", "4"))
    assert mid not in C and mid not in K


def test_a2_c_and_k():
    tree = get_tree("a2")
    s = Segment.canonical(("v1", "v2", "v3"))
    assert {c.vertices for c in submodule_segments(tree, s)} == \
        {("v1", "v2", "v3"), ("v1", "v2")}
    assert {k.vertices for k in quotient_segments(tree, s)} == \
        {("v1", "v2", "v3"), ("v2", "v3")}


def test_count_identity_only_for_short_segments():
    """|C| + |K| = proper sub-segments + 2 holds when every proper
    sub-segment keeps an end, which fails from three edges up."""
    a2 = get_tree("a2")
    for s in a2.all_segments:
        C = submodule_segments(a2, s)
        K = quotient_segments(a2, s)
        proper = sum(1 for t in a2.all_segments
                     if t != s and t.edge_set() < s.edge_set())
        assert len(C) + len(K) == proper + 2
    sub = get_tree("subseg")
    s = Segment.canonical(("2", "3", "4", "7", "8"))
    C = submodule_segments(sub, s)
    K = quotient_segments(sub, s)
    assert (len(C), len(K)) == (6, 4)
    proper = sum(1 for t in sub.all_segments
                 if t != s and t.edge_set() < s.edge_set())
    assert proper == 9
    assert len(C) + len(K) != proper + 2


def test_sub_and_quotient_sets_contain_s(suite_tree):
    for s in suite_tree.all_segments:
        C = submodule_segments(suite_tree, s)
        K = quotient_segments(suite_tree, s)
        assert s in C and s in K
        assert (len(C) > 1) == (len(s) >= 2)
        assert (len(K) > 1) == (len(s) >= 2)


DOMINANCE_PAIRS = {"a2": 1, "star3": 0, "subseg": 32, "cyc3": 6,
                   "deg45": 7, "caterpillar4": 6, "big8": 1681}


def test_dominance_all_qualifying(suite_tree):
    """Every red arc with a 2+ edge segment passes the per-submodule
    zigzag counting check."""
    from conftest import get_tree as gt, SUITE
    name = [n for n in SUITE if gt(n) is suite_tree][0]
    count = 0
    for f in facets(suite_tree):
        for d in f.reds():
            if len(f.segment[d]) >= 2:
                assert zigzag_dominance_check(f, d), (name, f.index)
                count += 1
    assert count == DOMINANCE_PAIRS[name]


def test_dominance_single_witness_fails_somewhere():
    """Regression: no single green arc witnesses every proper
    sub-segment at once in the deg45 facet whose red segment is the
    full zigzag x-u-w-y; the per-submodule form is the right one."""
    tree = get_tree("deg45")
    found = False
    for f in facets(tree):
        for d in f.reds():
            s = f.segment[d]
            if s.vertices != ("x", "u", "w", "y") and \
                    s.vertices != ("y", "w", "u", "x"):
                continue
            found = True
            C = submodule_segments(tree, s) - {s}
            universal = []
            for garc in f.greens():
                plus, minus = zigzag(tree, garc)
                good = all(
                    len(minus & t.edge_set()) ==
                    len(plus & t.edge_set()) + 1
                    and (plus | minus) & t.edge_set()
                    for t in C)
                universal.append(good)
            assert not any(universal)
            assert zigzag_dominance_check(f, d)
    assert found


def test_dominance_preconditions():
    tree = get_tree("a2")
    f = _facet_by_leaves(tree, [("l1", "l4"), ("l1", "l5")])
    by_leaves = {d.leaves: d for d in f.colored}
    with pytest.raises(ValueError):
        zigzag_dominance_check(f, by_leaves[("l1", "l4")])  # green


def test_orientation_mismatch_raises(monkeypatch):
    """C_s and K_s carry Hom and Ext, so a turn word that is not the
    mirror of the one read backward is an error, not a warning: it fails
    the sub-segment table, and so every read of it."""
    tree = load_tree(fixture_path("a2"))  # fresh: nothing memoized
    real = gc_vectors.turn

    def lopsided(tree, path, i):  # reads every path one way round
        if path[0] > path[-1]:
            path, i = path[::-1], len(path) - 1 - i
        return real(tree, path, i)

    monkeypatch.setattr(gc_vectors, "turn", lopsided)
    seg = Segment.canonical(("v1", "v2", "v3"))
    for read in (submodule_segments, quotient_segments,
                 lambda tree, seg: string_modules._graph_map(tree, seg, seg)):
        with pytest.raises(ConventionError, match="turn word of v1-v2-v3 "
                           "differs between orientations"):
            read(tree, seg)
