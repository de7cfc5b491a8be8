import itertools
import random

import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import get_tree, SMALL
from treestab import gc_vectors, partitions, semistable, \
    string_modules as sm
from treestab.tree_core import EmbeddedTree, Segment, _bits, compose, \
    segment_turns

ALGEBRA_DIMS = {"a2": 3, "star3": 0, "subseg": 8, "cyc3": 6,
                "deg45": 5, "caterpillar4": 6, "big8": 16}


def test_algebra_dimensions():
    for name, want in ALGEBRA_DIMS.items():
        assert sm.algebra_dimension(get_tree(name)) == want, name


def test_a2_quiver():
    alg = sm.tiling_algebra(get_tree("a2"))
    assert len(alg.arrows) == 1
    ar = alg.arrows[0]
    assert (ar.source, ar.target) == (("v2", "v3"), ("v1", "v2"))
    assert not alg.relations


def test_cyc3_quiver_is_a_bound_cycle():
    """Three edges around the center compose cyclically and every
    length-2 path is killed, so dim = 3 + 3."""
    alg = sm.tiling_algebra(get_tree("cyc3"))
    assert len(alg.arrows) == 3
    assert len(alg.relations) == 3
    assert all(a.vertex == "c" for a in alg.arrows)
    assert alg.dimension() == 6


def test_relations_pivot_at_one_vertex():
    for name in SMALL:
        alg = sm.tiling_algebra(get_tree(name))
        for first, second in alg.relations:
            assert first.target == second.source
            assert first.vertex == second.vertex


def test_indecomposables_match_segments(small_tree):
    inds = sm.indecomposables(small_tree)
    assert [m.segment for m in inds] == list(small_tree.all_segments)
    for m in inds:
        assert sum(m.dim_vector) == len(m.segment)


def test_string_words_avoid_relations(small_tree):
    """Consecutive letters of a string never pivot at one vertex, read
    in either direction, and never cancel."""
    alg = sm.tiling_algebra(small_tree)
    for s in small_tree.all_segments:
        letters = oracles._letters(small_tree, s)
        for (a1, d1), (a2, d2) in zip(letters, letters[1:]):
            assert a1 != a2  # no immediate inverse pair
            assert a1.vertex != a2.vertex
        word = sm.string_word(small_tree, s)
        assert word  # display form exists


def test_string_words_match_oracle(suite_tree):
    """The arrow names made once per algebra give the words that names
    made afresh on each call give."""
    for s in suite_tree.all_segments:
        assert sm.string_word(suite_tree, s) == \
            oracles.string_word(suite_tree, s)


def test_hom_frozen_a2():
    tree = get_tree("a2")
    M10 = sm.string_module(tree, Segment.canonical(("v1", "v2")))
    M01 = sm.string_module(tree, Segment.canonical(("v2", "v3")))
    M11 = sm.string_module(tree, Segment.canonical(("v1", "v2", "v3")))
    table = {(X, Y): sm.hom_dim(tree, X, Y)
             for X in (M10, M01, M11) for Y in (M10, M01, M11)}
    for (X, Y), d in table.items():
        if X is Y or (X, Y) in ((M10, M11), (M11, M01)):
            assert d == 1
        else:
            assert d == 0


def assert_subsegment_table_matches(tree):
    """The sub-segment table's C_s and K_s masks against the
    matrix-invariant shapes, and Hom read off it against the shared-run
    route: K_s and C_t meet in at most one segment, the run the graph
    map M(s) -> M(t) is the identity on."""
    segs = tree.all_segments
    C, K = gc_vectors._subsegments(tree)
    for s, seg in enumerate(segs):
        assert {segs[t] for t in _bits(C[s])} == oracles.indec_subs(tree, seg)
        assert {segs[t] for t in _bits(K[s])} == \
            oracles.indec_quots(tree, seg)
    for s, x in enumerate(segs):
        for t, y in enumerate(segs):
            shared = [segs[u] for u in _bits(K[s] & C[t])]
            want = oracles.graph_map_by_shared_run(tree, x, y)
            assert len(shared) <= 1, (x, y)
            assert shared == ([] if want is None else [want]), (x, y)
            assert sm._graph_map(tree, x, y) == want


def test_hom_dim_matches_graph_map_count(suite_tree):
    """Hom dimension equals the count of quotient shapes of the source
    that are sub shapes of the target, and the table it is read off
    matches the oracles."""
    for s in suite_tree.all_segments:
        for t in suite_tree.all_segments:
            X = sm.string_module(suite_tree, s)
            Y = sm.string_module(suite_tree, t)
            assert sm.hom_dim(suite_tree, X, Y) == \
                oracles.hom_count(suite_tree, s, t), (s, t)
    assert_subsegment_table_matches(suite_tree)


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_subsegment_table_matches_oracles_random(rotation):
    assert_subsegment_table_matches(EmbeddedTree(rotation))


def test_non_segments_are_rejected(a2):
    """Turn words, string words, modules, compositions, C_s, K_s, Hom,
    submodules, quotients and torsion decompositions name a segment
    that is not the tree's, as `is_wide` does, instead of answering for
    it."""
    stranger = Segment(("v1", "v3"))
    M, good = sm.StringModule(stranger, (0, 0)), sm.indecomposables(a2)[0]
    for read in (lambda: segment_turns(a2, stranger),
                 lambda: sm.string_word(a2, stranger),
                 lambda: sm.string_module(a2, stranger),
                 lambda: compose(a2, stranger, good.segment),
                 lambda: compose(a2, good.segment, stranger),
                 lambda: gc_vectors.submodule_segments(a2, stranger),
                 lambda: gc_vectors.quotient_segments(a2, stranger),
                 lambda: sm.hom_dim(a2, M, good),
                 lambda: sm.hom_dim(a2, good, M),
                 lambda: sm.hom_basis(a2, M, good),
                 lambda: sm.hom_basis(a2, good, M),
                 lambda: sm.is_wide(a2, [stranger]),
                 lambda: sm.all_submodules(a2, M),
                 lambda: sm.quotient_by(a2, M, sm.ModuleSum()),
                 lambda: partitions.torsion_decompose(
                     a2, partitions.noncrossing_partitions(a2)[0], M)):
        with pytest.raises(ValueError,
                           match="^not a segment of this tree: v1-v3$"):
            read()


def test_hom_basis_maps_commute(small_tree):
    """Each basis element satisfies every arrow's commutation rule."""
    alg = sm.tiling_algebra(small_tree)
    for s in small_tree.all_segments:
        for t in small_tree.all_segments:
            X = sm.string_module(small_tree, s)
            Y = sm.string_module(small_tree, t)
            for f in sm.hom_basis(small_tree, X, Y):
                for ar in alg.arrows:
                    xa = 1 if oracles._acts(s, ar) else 0
                    ya = 1 if oracles._acts(t, ar) else 0
                    lhs = xa * f.get(ar.target, 0)
                    rhs = ya * f.get(ar.source, 0)
                    assert lhs == rhs


def test_hom_dim_additive_over_sums():
    tree = get_tree("a2")
    M10 = sm.string_module(tree, Segment.canonical(("v1", "v2")))
    M11 = sm.string_module(tree, Segment.canonical(("v1", "v2", "v3")))
    S = sm.ModuleSum([M10, M11])
    assert sm.hom_dim(tree, S, S) == \
        sum(sm.hom_dim(tree, X, Y) for X in S for Y in S)


def test_submodules_match_matrix_oracle(small_tree):
    """Arrow-closed subsets = matrix-invariant coordinate patterns."""
    for s in small_tree.all_segments:
        M = sm.string_module(small_tree, s)
        got = set()
        for sub in sm.all_submodules(small_tree, M):
            used = frozenset(e for m in sub for e in m.support)
            got.add(used)
        assert got == oracles.submodule_edge_sets(small_tree, s)


def assert_submodule_table_matches(tree):
    """The submodule table, and `all_submodules` and `quotient_by` read
    off it, against sums of strings built from segment vertices on the
    runs of each invariant pattern, in the same order."""
    table = sm._submodules(tree)
    for s, M in enumerate(sm.indecomposables(tree)):
        want = oracles.submodules_by_runs(tree, M)
        assert [(sm._module_sum(tree, sub), sm._module_sum(tree, quot))
                for sub, quot in table[s]] == want, M
        assert sm.all_submodules(tree, M) == [sub for sub, _ in want]
        assert [sm.quotient_by(tree, M, sub) for sub, _ in want] == \
            [quot for _, quot in want]


def test_submodule_table_matches_runs(suite_tree):
    assert_submodule_table_matches(suite_tree)


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_submodule_table_matches_runs_random(rotation):
    assert_submodule_table_matches(EmbeddedTree(rotation))


def test_indec_subs_quots_match_oracle(small_tree):
    for s in small_tree.all_segments:
        M = sm.string_module(small_tree, s)
        assert {m.segment for m in
                sm.indecomposable_submodules(small_tree, M)} == \
            oracles.indec_subs(small_tree, s)
        assert {m.segment for m in
                sm.indecomposable_quotients(small_tree, M)} == \
            oracles.indec_quots(small_tree, s)


def test_quotient_by():
    """A sum of summands, or one indecomposable read as the sum of one,
    as in `hom_dim`."""
    tree = get_tree("a2")
    M10 = sm.string_module(tree, Segment.canonical(("v1", "v2")))
    M01 = sm.string_module(tree, Segment.canonical(("v2", "v3")))
    M11 = sm.string_module(tree, Segment.canonical(("v1", "v2", "v3")))
    q = sm.quotient_by(tree, M11, sm.ModuleSum([M10]))
    assert q == sm.ModuleSum([M01])
    with pytest.raises(ValueError):
        sm.quotient_by(tree, M11, sm.ModuleSum([M01]))
    assert sm.quotient_by(tree, M11, M11) == sm.ModuleSum()
    assert sm.quotient_by(tree, M11, M10) == sm.ModuleSum([M01])
    with pytest.raises(ValueError, match=r"^M\(v2-v3\) is not a submodule "
                       r"of M\(v1-v2-v3\)$"):
        sm.quotient_by(tree, M11, M01)


def test_quotient_dim_additive(small_tree):
    for s in small_tree.all_segments:
        M = sm.string_module(small_tree, s)
        for sub in sm.all_submodules(small_tree, M):
            quot = sm.quotient_by(small_tree, M, sub)
            total = tuple(a + b for a, b in
                          zip(sub.dim_vector(small_tree),
                              quot.dim_vector(small_tree)))
            assert total == M.dim_vector


# all eight subsets of the two-edge path: the five wide sets are the
# empty set, the three singletons, and everything
def test_is_wide_a2_complete_table():
    tree = get_tree("a2")
    inds = sm.indecomposables(tree)
    wide_count = 0
    for r in range(len(inds) + 1):
        for combo in itertools.combinations(inds, r):
            got = sm.is_wide(tree, set(combo))
            want = len(combo) in (0, 1, 3)
            assert got == want, combo
            wide_count += got
    assert wide_count == 5


def test_middle_terms_a2():
    tree = get_tree("a2")
    M10 = sm.string_module(tree, Segment.canonical(("v1", "v2")))
    M01 = sm.string_module(tree, Segment.canonical(("v2", "v3")))
    s11 = Segment.canonical(("v1", "v2", "v3"))
    forward = sm.middle_terms(tree, M10, M01)
    assert (s11,) in forward  # the nonsplit sequence exists
    backward = sm.middle_terms(tree, M01, M10)
    assert (s11,) not in backward
    assert len(backward) == 1  # split only


def test_is_wide_rejects_unknown_module():
    tree = get_tree("a2")
    with pytest.raises(ValueError):
        sm.is_wide(tree, {Segment.canonical(("v1", "v9"))})


def assert_middle_terms_exact(tree):
    """For every ordered pair: the split sum is a middle term, the
    non-split terms are as many as dim Ext^1 by cocycle ranks, and each
    one carries a short exact sequence."""
    for s in tree.all_segments:
        for t in tree.all_segments:
            X = sm.string_module(tree, s)
            Y = sm.string_module(tree, t)
            split = tuple(sorted((s, t), key=lambda x: x.vertices))
            terms = sm.middle_terms(tree, X, Y)
            assert split in terms, (s, t, terms)
            nonsplit = [c for c in terms if c != split]
            assert len(nonsplit) == oracles.ext_dim(tree, s, t), (s, t)
            for c in nonsplit:
                assert oracles.is_short_exact(tree, s, c, t), (s, c, t)


def test_middle_terms_match_ext_oracle(suite_tree):
    assert_middle_terms_exact(suite_tree)


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_middle_terms_match_ext_oracle_random(rotation):
    assert_middle_terms_exact(EmbeddedTree(rotation))


def assert_wide_matches(tree, sets):
    """`is_wide` against closure under graph-map kernels, cokernels and
    composition, and against the route through Ext; returns how many
    sets are wide."""
    wide = 0
    for members in sets:
        got = sm.is_wide(tree, members)
        assert got == oracles.closed_under_graph_maps(tree, members), members
        assert got == oracles.is_wide_by_extensions(tree, members), members
        wide += got
    return wide


def sample_sets(tree, rng, count):
    """`count` each of random segment sets, semistable sets of random
    weights, and composition closures of a few random segments."""
    segs = tree.all_segments
    for _ in range(count):
        yield set(rng.sample(segs, rng.randint(0, len(segs))))
        theta = [rng.randint(-4, 4) for _ in range(tree.n)]
        yield {m.segment for m in semistable.semistable_modules(tree, theta)}
        yield partitions.segment_closure(
            tree, rng.sample(segs, min(rng.randint(1, 4), len(segs))))


def test_is_wide_matches_oracle(small_tree):
    segs = small_tree.all_segments
    assert_wide_matches(small_tree, (
        set(combo) for r in range(len(segs) + 1)
        for combo in itertools.combinations(segs, r)))


def test_is_wide_matches_oracle_big8():
    tree = get_tree("big8")
    assert assert_wide_matches(tree, sample_sets(tree, random.Random(7),
                                                 200)) >= 200


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_is_wide_matches_oracle_random(rotation):
    tree = EmbeddedTree(rotation)
    assert_wide_matches(tree, sample_sets(tree, random.Random(0), 10))
