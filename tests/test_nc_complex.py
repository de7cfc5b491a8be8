import itertools
import random

import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import get_tree, payload_columns, SUITE
from treestab import nc_complex
from treestab.nc_complex import (
    Facet,
    arcs,
    boundary_arcs,
    crossing,
    facets,
    flip_neighbors,
)
from treestab.tree_core import ConventionError, EmbeddedTree

FACET_COUNTS = {"a2": 5, "star3": 1, "subseg": 42, "cyc3": 14,
                "deg45": 14, "caterpillar4": 14, "big8": 1074}


def test_a2_arcs():
    tree = get_tree("a2")
    ds = arcs(tree)
    assert len(ds) == 10
    assert len(boundary_arcs(tree)) == 5
    # boundary arcs pair cyclically adjacent leaves
    for d in boundary_arcs(tree):
        assert d.is_boundary


def test_crossing_definitions_agree(small_tree):
    ds = arcs(small_tree)
    for d1, d2 in itertools.combinations(ds, 2):
        assert crossing(d1, d2) == \
            oracles.crossing_by_regions(small_tree, d1, d2)
        assert crossing(d1, d2) == crossing(d2, d1)
    for d in ds:
        assert not crossing(d, d)


def test_boundary_arcs_cross_nothing(small_tree):
    ds = arcs(small_tree)
    for b in boundary_arcs(small_tree):
        assert not any(crossing(b, d) for d in ds)


def test_facet_counts(suite_tree):
    name = [n for n in SUITE if get_tree(n) is suite_tree][0]
    assert len(facets(suite_tree)) == FACET_COUNTS[name]


def test_facet_purity(suite_tree):
    """Every facet has the same size: leaves + interior - 1, of which
    interior - 1 arcs are colored."""
    tree = suite_tree
    L = len(tree.leaves)
    I = len(tree.interior_vertices)
    for f in facets(tree):
        assert len(f.arcs) == L + I - 1
        assert len(f.colored) == I - 1
        assert len(f.boundary) == L


def test_facets_are_noncrossing_and_maximal(small_tree):
    all_ds = arcs(small_tree)
    for f in facets(small_tree):
        members = set(f.arcs)
        for d1, d2 in itertools.combinations(f.arcs, 2):
            assert not crossing(d1, d2)
        for d in all_ds:
            if d not in members:
                assert any(crossing(d, m) for m in f.arcs), \
                    "facet %d is not maximal" % f.index


def test_brute_force_facets_a2():
    tree = get_tree("a2")
    brute = oracles.brute_facets(tree, arcs(tree), crossing)
    assert brute == {frozenset(f.arcs) for f in facets(tree)}


def test_brute_force_facets_star3():
    tree = get_tree("star3")
    brute = oracles.brute_facets(tree, arcs(tree), crossing)
    assert brute == {frozenset(f.arcs) for f in facets(tree)}


def test_every_corner_marked_once(suite_tree):
    tree = suite_tree
    corners = set(tree.corners)
    for f in facets(tree):
        marked = [c for d in f.arcs for c in f.marks[d]]
        assert sorted(marked) == sorted(corners)
        for d in f.boundary:
            assert len(f.marks[d]) == 1
        for d in f.colored:
            assert len(f.marks[d]) == 2


# frozen colors and segments for the five a2 facets, keyed by the
# colored arcs' leaf pairs
A2_FACETS = {
    frozenset({("l3", "l2"), ("l4", "l2")}):
        {("l3", "l2"): ("green", ("v1", "v2")),
         ("l4", "l2"): ("green", ("v2", "v3"))},
    frozenset({("l3", "l5"), ("l3", "l2")}):
        {("l3", "l5"): ("red", ("v2", "v3")),
         ("l3", "l2"): ("green", ("v1", "v2"))},
    frozenset({("l1", "l4"), ("l4", "l2")}):
        {("l1", "l4"): ("red", ("v1", "v2")),
         ("l4", "l2"): ("green", ("v1", "v2", "v3"))},
    frozenset({("l1", "l4"), ("l1", "l5")}):
        {("l1", "l4"): ("green", ("v2", "v3")),
         ("l1", "l5"): ("red", ("v1", "v2", "v3"))},
    frozenset({("l1", "l5"), ("l3", "l5")}):
        {("l1", "l5"): ("red", ("v1", "v2")),
         ("l3", "l5"): ("red", ("v2", "v3"))},
}


def test_a2_colors_and_segments():
    tree = get_tree("a2")
    seen = set()
    for f in facets(tree):
        key = frozenset(d.leaves for d in f.colored)
        assert key in A2_FACETS, key
        seen.add(key)
        for d in f.colored:
            color, seg = A2_FACETS[key][d.leaves]
            assert f.color[d] == color
            assert f.segment[d].vertices == seg
    assert len(seen) == 5


def test_paper_facet_marks():
    """The worked facet {l1~l4, l1~l5}: l1~l5 hugs three corners on its
    big side chain and takes the largest one."""
    tree = get_tree("a2")
    target = None
    for f in facets(tree):
        if frozenset(d.leaves for d in f.colored) == \
                frozenset({("l1", "l4"), ("l1", "l5")}):
            target = f
    assert target is not None
    marks = {d.leaves: set(target.marks[d]) for d in target.colored}
    assert marks[("l1", "l4")] == {("v3", 1), ("v2", 3)}
    assert marks[("l1", "l5")] == {("v1", 0), ("v3", 3)}


def transposed(rows, width):
    """The columns of `rows`, `width` bits wide, as bitmasks."""
    return list(map(nc_complex._as_int, nc_complex._transpose(rows, width)))


def test_transpose_twice_gives_back_the_rows():
    """Bit r of column c is bit c of row r, and transposing the columns
    gives back the rows: no rows, width 0, all-zero rows, rows narrower
    than the width, and seeded random rows and widths."""
    rng = random.Random(17)
    cases = [([], 0), ([], 5), ([0, 0, 0], 0), ([0, 0], 4), ([0b1, 0b10], 9)]
    for _ in range(300):
        width = rng.randint(0, 70)
        cases.append(([rng.getrandbits(rng.randint(0, width))
                       for _ in range(rng.randint(0, 12))], width))
    for rows, width in cases:
        cols = transposed(rows, width)
        assert [[c >> r & 1 for r in range(len(rows))] for c in cols] == \
            [[row >> c & 1 for row in rows] for c in range(width)]
        assert transposed(cols, len(rows)) == rows


def test_pick_gives_each_position_the_items_holding_it():
    def picked(items, columns, width):
        return [list(p) for p in nc_complex._pick(items, columns, width)]

    items = "abcdef"
    assert picked(items, [0b01, 0, 0b11, 0, 0, 0], 2) == [["a", "c"], ["c"]]
    assert picked([], [], 3) == [[], [], []]
    assert picked(items, [0] * 6, 0) == []
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randint(0, 9)
        columns = [rng.getrandbits(width) if width else 0 for _ in items]
        assert picked(items, columns, width) == [
            [x for x, c in zip(items, columns) if c >> p & 1]
            for p in range(width)]


def assert_marks_match_scan(tree, fs):
    for f in fs:
        assert f.marks == oracles.scan_marks(tree, f.arcs)
        for d, (color, segment, support) in \
                oracles.scan_facet(tree, f.arcs).items():
            assert f.color[d] == color
            assert f.segment[d] == segment
            assert oracles.supporting_arcs(f, d) == support


def test_marks_match_scan(suite_tree):
    assert_marks_match_scan(suite_tree, facets(suite_tree))


@settings(max_examples=15, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_marks_match_scan(rotation):
    tree = EmbeddedTree(rotation)
    assert_marks_match_scan(tree, facets(tree))


def assert_arcs_match_leaf_pairs(tree):
    """The arcs of the walk from each leaf against a breadth-first
    search between every two boundary leaves: the same positions,
    paths, hugged corners and turns, in boundary order."""
    every = arcs(tree)
    assert arcs(tree) is every
    assert [(d.pos, d.path, d.corners, d.turns) for d in every] \
        == oracles.arcs_by_leaf_pairs(tree)
    L = len(tree.boundary_leaves)
    for i, d in enumerate(every):
        assert d.id == i
        assert d.leaves == tuple(tree.boundary_leaves[p] for p in d.pos)
        assert d.is_boundary == (d.pos[1] - d.pos[0] in (1, L - 1))
    assert set(boundary_arcs(tree)) <= set(every)


def test_arcs_match_leaf_pairs(suite_tree):
    assert_arcs_match_leaf_pairs(suite_tree)


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=7))
def test_random_tree_arcs_match_leaf_pairs(rotation):
    assert_arcs_match_leaf_pairs(EmbeddedTree(rotation))


def test_supporting_arcs_chain():
    tree = get_tree("a2")
    for f in facets(tree):
        for d in f.colored:
            support = oracles.supporting_arcs(f, d)
            assert len(support) == 2
            for s in support:
                assert s in f.arcs


def test_flip_regularity(small_tree):
    """Each colored arc of a facet flips to exactly one neighbor."""
    fs = facets(small_tree)
    I = len(small_tree.interior_vertices)
    for f in fs:
        assert len(flip_neighbors(f, fs)) == I - 1


def test_a2_flip_graph_is_pentagon():
    tree = get_tree("a2")
    fs = facets(tree)
    degs = sorted(len(flip_neighbors(f, fs)) for f in fs)
    assert degs == [2, 2, 2, 2, 2]
    # connected 2-regular on five nodes = the pentagon
    seen = {fs[0]}
    frontier = [fs[0]]
    while frontier:
        f = frontier.pop()
        for g in flip_neighbors(f, fs):
            if g not in seen:
                seen.add(g)
                frontier.append(g)
    assert len(seen) == 5


def test_flip_neighbors_match_scan(suite_tree):
    fs = facets(suite_tree)
    for f in fs:
        assert flip_neighbors(f, fs) == oracles.scan_flip_neighbors(f, fs)


def test_flip_neighbors_need_all_facets():
    fs = facets(get_tree("a2"))
    assert flip_neighbors(fs[0], list(fs)) == flip_neighbors(fs[0], fs)
    with pytest.raises(ValueError):
        flip_neighbors(fs[0], fs[1:])


@settings(max_examples=15, deadline=None)
@given(randtrees.rotations())
def test_random_tree_flips_match_scan(rotation):
    fs = facets(EmbeddedTree(rotation))
    for f in fs:
        assert flip_neighbors(f, fs) == oracles.scan_flip_neighbors(f, fs)


@settings(max_examples=15, deadline=None)
@given(randtrees.rotations())
def test_random_tree_facets(rotation):
    tree = EmbeddedTree(rotation)
    fs = facets(tree)
    L = len(tree.leaves)
    I = len(tree.interior_vertices)
    for f in fs:
        assert len(f.arcs) == L + I - 1
    corners = sorted(tree.corners)
    for f in fs[:10]:
        marked = sorted(c for d in f.arcs for c in f.marks[d])
        assert marked == corners


# -- clique search on masks, and marking in facet order ------------------


def cliques_both_ways(tree):
    """The maximal cliques of the colored arcs that do not cross, as
    arc-id masks, from the mask search and from the set search."""
    colored = [d for d in arcs(tree) if not d.is_boundary]
    adjacent = [0] * len(arcs(tree))
    for d in colored:
        adjacent[d.id] = sum(1 << e.id for e in colored
                             if e is not d and not crossing(d, e))
    by_masks = nc_complex._max_cliques(
        adjacent, sum(1 << d.id for d in colored))
    neighbours = {d.id: {e.id for e in colored if adjacent[d.id] >> e.id & 1}
                  for d in colored}
    by_sets = [sum(1 << i for i in clique) for clique in
               oracles.max_cliques_by_sets(neighbours, neighbours)]
    return by_masks, by_sets


def assert_cliques_match(tree):
    by_masks, by_sets = cliques_both_ways(tree)
    assert len(by_masks) == len(set(by_masks))
    assert set(by_masks) == set(by_sets) and len(by_sets) == len(by_masks)
    bnd = sum(1 << d.id for d in boundary_arcs(tree))
    assert sorted(bnd | m for m in by_masks) == \
        sorted(f._mask for f in facets(tree))
    colored = [d for d in arcs(tree) if not d.is_boundary]
    if len(colored) > 12:
        return False
    brute = oracles.brute_facets(tree, colored, crossing)
    assert {sum(1 << d.id for d in s) for s in brute} == set(by_masks)
    return True


def test_cliques_match_set_search(suite_tree):
    assert_cliques_match(suite_tree)


@pytest.mark.parametrize("name", ["a2", "star3", "cyc3", "deg45",
                                  "caterpillar4"])
def test_cliques_match_brute_force(name):
    """The fixtures with at most 12 colored arcs are also checked
    against the subset scan."""
    assert assert_cliques_match(get_tree(name))


@settings(max_examples=25, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_cliques_match_set_search(rotation):
    assert_cliques_match(EmbeddedTree(rotation))


def facet_rows(tree):
    return [(f.index, f._mask, f.payload) for f in facets(tree)]


@pytest.mark.parametrize("name", ["a2", "cyc3", "deg45", "big8"])
def test_facets_do_not_follow_clique_order(name, monkeypatch):
    """With the clique search's list reversed, `facets()` gives the
    same masks, payloads and indices."""
    want = facet_rows(EmbeddedTree(get_tree(name).rotation))
    real = nc_complex._max_cliques
    monkeypatch.setattr(nc_complex, "_max_cliques",
                        lambda adjacent, vertices:
                        real(adjacent, vertices)[::-1])
    assert facet_rows(EmbeddedTree(get_tree(name).rotation)) == want


# -- the record table of marking ------------------------------------------


def assert_record_table_matches_lone_facets(tree):
    """Marking all facets at once keeps each record's column, in record
    order: the table equals the one read off the payloads of each facet
    marked alone, and the one read back off the payloads built from it,
    which are those facets' payloads.  Facets come in leaf-pair order."""
    fs = facets(tree)
    alone = [Facet(tree, f._mask, f.index) for f in fs]
    records = nc_complex._marking(tree)[2]
    assert list(records) == sorted(records)
    assert records == payload_columns(alone) == payload_columns(fs)
    assert [f.payload for f in fs] == [g.payload for g in alone]
    assert [f.key() for f in fs] == sorted(f.key() for f in fs)


def test_record_table_matches_lone_facets(suite_tree):
    assert_record_table_matches_lone_facets(suite_tree)


@settings(max_examples=20, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_record_table_matches_lone_facets(rotation):
    assert_record_table_matches_lone_facets(EmbeddedTree(rotation))


@pytest.mark.parametrize("name", ["a2", "cyc3", "big8"])
def test_payloads_are_built_on_first_read_all_at_once(name, monkeypatch):
    """Building the facets and their flip graph builds no payload; the
    first payload read builds every facet's, once."""
    built = []
    real = nc_complex._payloads
    monkeypatch.setattr(nc_complex, "_payloads",
                        lambda tree: built.append(tree) or real(tree))
    tree = EmbeddedTree(get_tree(name).rotation)
    fs = facets(tree)
    for f in fs:
        flip_neighbors(f, fs)
    assert built == []
    payloads = [f.payload for f in fs]
    assert built == [tree]
    assert payloads == [Facet(tree, f._mask).payload for f in fs]


def lowest_failing_message(tree, clean):
    """The chain oracle's message on the lowest-index facet of `clean`
    (the same tree, undoctored) that fails on `tree`; None if none."""
    for f in facets(clean):
        members = [d for d in arcs(tree) if f._mask >> d.id & 1]
        try:
            oracles.chain_facet(tree, members)
        except ConventionError as e:
            return str(e)
    return None


def flipped_flags(tree, corner):
    """`tree` with the flag color at `corner` swapped."""
    real = tree.flag_color

    def flag_color(v, edge_neighbor, face_index):
        color = real(v, edge_neighbor, face_index)
        if (v, face_index) == corner:
            return {"red": "green", "green": "red"}[color]
        return color

    tree.flag_color = flag_color
    return tree


@pytest.mark.parametrize("name", ["a2", "subseg", "cyc3", "caterpillar4"])
def test_flag_fault_names_the_lowest_facet(name):
    """With the flags at one corner recolored, `facets()` fails with
    the chain oracle's message on the lowest-index failing facet."""
    clean = get_tree(name)
    failed = 0
    for corner in clean.corners:
        tree = flipped_flags(EmbeddedTree(clean.rotation), corner)
        want = lowest_failing_message(tree, clean)
        try:
            facets(tree)
            got = None
        except ConventionError as e:
            got = str(e)
        assert got == want, corner
        failed += want is not None
    assert failed


def dropped_from_chain(tree, k, i):
    """`tree` with arc i taken out of the chain of corner k, in both the
    id chains that `_mark` reads and the object chains of the oracle."""
    chains = list(nc_complex._chains(tree))
    chains[k] = tuple((j, inside, tuple(c for c in clash if c != i))
                      for j, inside, clash in chains[k] if j != i)
    tree.memo("chains", lambda t: tuple(chains))
    corner, arc = tree.corners[k], arcs(tree)[i]
    table = oracles.object_chains(tree)
    table[corner] = [e for e in table[corner] if e[0] is not arc]
    return tree


@pytest.mark.parametrize("name", ["a2", "subseg", "cyc3", "deg45"])
def test_chain_fault_names_the_lowest_facet(name):
    """With one arc taken out of one corner's chain, `facets()` fails
    with the chain oracle's message on the lowest-index failing facet."""
    clean = get_tree(name)
    rng = random.Random(5)
    chains = nc_complex._chains(clean)
    picks = [(k, i) for k, chain in enumerate(chains) for i, _, _ in chain]
    failed = 0
    for k, i in rng.sample(picks, min(12, len(picks))):
        tree = dropped_from_chain(EmbeddedTree(clean.rotation), k, i)
        want = lowest_failing_message(tree, clean)
        try:
            facets(tree)
            got = None
        except ConventionError as e:
            got = str(e)
        assert got == want, (k, i)
        failed += want is not None
    assert failed
