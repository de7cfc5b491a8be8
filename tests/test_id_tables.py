"""The Theorem-1 path on integer ids against the routes on objects.

Facets mark corners through arc-id masks, and partitions, closures,
torsion pairs and stability run on segment-id masks.  Each is compared
with the route it replaced (kept in `oracles`) on every fixture and on
hypothesis trees, and one `verify-thm1` is checked to build each id
table once and then to stop calling the object-level helpers."""

import itertools
import random
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import (SMALL, doctor_marking, fixture_path, get_tree,
                      payload_columns)
from treestab import (cli, gc_vectors, nc_complex, partitions, semistable,
                      string_modules, tree_core)
from treestab.nc_complex import Facet, arcs, facets
from treestab.tree_core import ConventionError, EmbeddedTree, Segment


def assert_facets_match_chain_oracle(tree):
    ids = tree_core._segment_table(tree).ids
    for f in facets(tree):
        marks, colors, segments = oracles.chain_facet(tree, f.arcs)
        assert f.payload == tuple(
            (d.id, ids[segments[d]], colors[d] == "green")
            for d in f.arcs if not d.is_boundary)
        assert f.marks == marks
        assert f.color == colors
        assert f.segment == segments
        red = partitions.noncrossing_partitions(tree)[f.index]
        for color, glued in (
                ("red", red), ("green", partitions.kreweras_complement(
                    tree, red))):
            assert glued == oracles.endpoint_partition(
                tree, [s for d, s in segments.items() if colors[d] == color])


def assert_segment_table_matches(tree):
    """The one-walk segment table against the face definition of
    segments, the path walk for vertex pairs, the S x S endpoint
    lookup for composition, and vertex slicing for splits and steps."""
    table = tree_core._segment_table(tree)
    segs = tree.all_segments
    assert list(segs) == sorted(oracles.face_extreme_paths(tree),
                                key=lambda s: s.vertices)
    assert table.pairs == oracles.vertex_pairs_by_paths(tree)
    assert list(table.compose) == oracles.compose_table_by_ends(tree)
    for s, seg in enumerate(segs):
        vs = seg.vertices
        assert table.splits[s] == tuple(
            tuple((i, segs.index(Segment.canonical(vs[i:j + 1])))
                  for i in range(j)) for j in range(1, len(vs)))
    done = set()
    for s, prefix, e in table.steps:
        assert prefix == -1 or prefix in done
        assert len(segs[s]) == 1 + (prefix >= 0 and len(segs[prefix]))
        assert segs[s].edge_set() == {tree.interior_edges[e]} | (
            segs[prefix].edge_set() if prefix >= 0 else set())
        done.add(s)
    assert done == set(range(len(segs)))


def assert_partitions_match(tree):
    segs = tree.all_segments
    for s in segs:
        for family in (gc_vectors.submodule_segments(tree, s),
                       gc_vectors.quotient_segments(tree, s)):
            assert partitions.segment_closure(tree, family) == \
                oracles.closure_by_sets(tree, family)
    for p in partitions.noncrossing_partitions(tree):
        blocks = [oracles.block_segments(tree, b) for b in p.blocks]
        assert blocks == [oracles.block_segments_by_paths(tree, b)
                          for b in p.blocks]
        reds = oracles.partition_segments(tree, p)
        assert reds == set().union(*blocks)
        closure = oracles.closure_by_sets(tree, reds)
        assert partitions.segment_closure(tree, reds) == closure
        assert {m.segment for m in oracles.wide_from_partition(tree, p)} \
            == closure


def assert_stability_matches(tree, thetas):
    inds = string_modules.indecomposables(tree)
    for theta in thetas:
        semi = {m for m in inds if oracles.theta_semistable(tree, theta, m)}
        assert semistable.semistable_modules(tree, theta) == semi
        assert semistable.stable_modules(tree, theta) == {
            m for m in inds if oracles.theta_stable(tree, theta, m)}
        for m in inds:
            assert semistable.is_semistable(tree, theta, m) == (m in semi)
            assert semistable.is_stable(tree, theta, m) == \
                oracles.theta_stable(tree, theta, m)


def assert_decompositions_match(tree, seed=5):
    """On every partition's closure, and on random part sets, where a
    segment may break up in several ways."""
    ids = tree_core._segment_table(tree).ids
    rng = random.Random(seed)
    families = [oracles.partition_segments(tree, p)
                for p in partitions.noncrossing_partitions(tree)]
    families += [{s for s in tree.all_segments if rng.random() < 0.6}
                 for _ in range(10)] + [set(tree.all_segments)]
    for parts in families:
        mask = oracles.id_mask(tree, parts)
        # one column of width one: position 0 holds the parts
        lengths = semistable._length_columns(
            tree, [mask >> t & 1 for t in range(len(tree.all_segments))])
        for s in partitions.segment_closure(tree, parts):
            assert {k for k, c in lengths[ids[s]].items() if c} \
                == oracles.decomposition_lengths(s, parts) \
                == oracles.decomposition_length_mask(tree, ids[s], mask)


def assert_columns_match(tree, seed=5):
    """The column tables over all facets against their per-facet
    forms: payload records, weights, gluings and closures."""
    fs = facets(tree)
    glued = partitions._gluing(tree)
    records = glued.records
    assert records == payload_columns(fs)
    assert {r for f in fs for r in f.payload} == set(records)
    for r, col in records.items():
        assert col == sum(1 << f.index for f in fs if r in f.payload)
    theta = gc_vectors.theta_columns(tree, records, len(fs))
    for f in fs:
        assert tuple(next(v for v, c in col.items() if c >> f.index & 1)
                     for col in theta) == gc_vectors.kreweras_theta(f)
    ivs = tree.interior_vertices
    ids = range(len(ivs))
    for green, color in enumerate(("red", "green")):
        for f in fs:
            want = oracles.glued_partition(f, color)
            p = f.index + len(fs) * green
            mask = oracles.segment_mask(tree, want)
            assert sum((c >> f.index & 1) << s for s, c
                       in enumerate(glued.blocks[green])) == mask
            assert glued.rows[p] == bytes(
                b"01"[any({ivs[a], ivs[b]} <= set(block)
                          for block in want.blocks)]
                for a in ids for b in ids)
    rng = random.Random(seed)
    thetas = weights(tree, count=12, seed=seed)
    theta = [{} for _ in range(tree.n)]
    for p, t in enumerate(thetas):
        for e, v in enumerate(t):
            theta[e][v] = theta[e].get(v, 0) | 1 << p
    semi, stable = semistable._semistable_columns(
        tree, semistable._segment_weights(tree, theta))
    for p, t in enumerate(thetas):
        assert [sum((c >> p & 1) << s for s, c in enumerate(cols))
                for cols in (semi, stable)] == \
            list(semistable._stability(tree, t)[1:])
    S = len(tree.all_segments)
    columns = [rng.getrandbits(12) & rng.getrandbits(12) for _ in range(S)]
    closed = partitions._closure_columns(tree, columns)
    for p in range(12):
        assert sum((c >> p & 1) << s for s, c in enumerate(closed)) == \
            oracles.closure_mask(
                tree, sum((c >> p & 1) << s for s, c in enumerate(columns)))


def assert_table_matches_oracle(tree):
    """The partition table built from the gluing's rows, and the
    Kreweras map on it, against gluing facet by facet, in facet
    order."""
    reds, complement = oracles.partition_table(tree)
    assert partitions.noncrossing_partitions(tree) == reds
    assert [partitions.kreweras_complement(tree, p) for p in reds] == \
        [complement[p] for p in reds]


def assert_torsion_matches(tree):
    """The torsion table's T and F masks, and the frozensets
    `torsion_pair` builds from them, against each partition's pair built
    and checked by itself; its T and F columns against the masks; and
    every (partition, module) decomposition read off the decomposition
    table against filtering the module's submodules."""
    inds = string_modules.indecomposables(tree)
    T, F, rows = tree.memo("torsion", partitions._torsion_table)
    ncps = partitions.noncrossing_partitions(tree)
    assert len(rows) == len(ncps)
    for row, p in zip(rows, ncps):
        want = oracles.torsion_masks_by_partition(tree, p)
        assert row == want
        assert partitions.torsion_pair(tree, p) == tuple(
            frozenset(inds[i] for i in tree_core._bits(m)) for m in want)
    tmasks, fmasks = zip(*rows)
    for s in range(len(inds)):
        assert (T[s], F[s]) == tuple(
            sum((m >> s & 1) << f for f, m in enumerate(masks))
            for masks in (tmasks, fmasks))
    for p in ncps:
        for m in inds:
            assert partitions.torsion_decompose(tree, p, m) == \
                oracles.decompose_by_filter(tree, p, m)


def weights(tree, count=8, seed=3):
    rng = random.Random(seed)
    return ([gc_vectors.kreweras_theta(f) for f in facets(tree)]
            + [tuple(rng.randint(-3, 3) for _ in range(tree.n))
               for _ in range(count)])


def test_facets_match_chain_oracle(suite_tree):
    assert_facets_match_chain_oracle(suite_tree)


def test_segment_table_matches_oracles(suite_tree):
    assert_segment_table_matches(suite_tree)


def test_partitions_and_closures_match(suite_tree):
    assert_table_matches_oracle(suite_tree)
    assert_partitions_match(suite_tree)
    assert_decompositions_match(suite_tree)
    assert_columns_match(suite_tree)
    assert_torsion_matches(suite_tree)


def test_stability_matches_theta_oracle(suite_tree):
    assert_stability_matches(suite_tree, weights(suite_tree))


@settings(max_examples=15, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_id_routes_match(rotation):
    tree = EmbeddedTree(rotation)
    assert_segment_table_matches(tree)
    assert_facets_match_chain_oracle(tree)
    assert_table_matches_oracle(tree)
    assert_partitions_match(tree)
    assert_decompositions_match(tree)
    assert_columns_match(tree)
    assert_torsion_matches(tree)
    assert_stability_matches(tree, weights(tree, count=4))


@pytest.mark.parametrize("name", SMALL)
def test_block_segments_raise_like_path_walk(name):
    """Every vertex set of a small tree gets the same segments, or the
    same ValueError, from the pair table as from walking paths."""
    tree = get_tree(name)
    ivs = tree.interior_vertices
    for r in range(1, len(ivs) + 1):
        for block in itertools.combinations(ivs, r):
            try:
                want = oracles.block_segments_by_paths(tree, block)
            except ValueError:
                with pytest.raises(ValueError, match="no segment joins"):
                    oracles.block_segments(tree, block)
            else:
                assert oracles.block_segments(tree, block) == want


def marking_outcome(build):
    try:
        build()
    except ConventionError as e:
        return str(e)
    return None


@pytest.mark.parametrize("name", SMALL)
def test_marking_rejects_what_the_chain_oracle_rejects(name):
    """Member masks one arc off a facet (one dropped, or one crossing
    arc added) fail marking exactly when the frozenset route does, and
    with the same message."""
    tree = get_tree(name)
    every = arcs(tree)
    failed = 0
    for f in facets(tree):
        for i, d in enumerate(every):
            if d.is_boundary:
                continue
            mask = f._mask ^ 1 << i
            members = [e for j, e in enumerate(every) if mask >> j & 1]
            want = marking_outcome(lambda: oracles.chain_facet(tree, members))
            assert marking_outcome(lambda: Facet(tree, mask)) == want
            failed += want is not None
    assert failed or len(facets(tree)) == 1


@pytest.mark.parametrize("name", SMALL)
def test_batch_marking_fails_on_the_first_bad_mask(name):
    """Marking all facets at once, with one or two of them one arc off,
    fails with the chain oracle's message for the first mask in list
    order that the oracle rejects, and succeeds when it rejects none."""
    tree = get_tree(name)
    every = arcs(tree)
    colored = [d.id for d in every if not d.is_boundary]
    rng = random.Random(7)
    failed = 0
    for _ in range(12):
        masks = [f._mask for f in facets(tree)]
        for place in rng.sample(range(len(masks)), min(2, len(masks))):
            if colored and rng.random() < 0.8:
                masks[place] ^= 1 << rng.choice(colored)
        want = None
        for mask in masks:
            members = [e for e in every if mask >> e.id & 1]
            want = marking_outcome(lambda: oracles.chain_facet(tree, members))
            if want is not None:
                break
        assert marking_outcome(lambda: nc_complex._mark(tree, masks)) == want
        failed += want is not None
    assert failed or not colored


def test_nine_vertex_table_matches_oracle():
    assert_table_matches_oracle(randtrees.grow_full(random.Random(9), 9))


def test_nine_vertex_torsion_matches_oracle():
    assert_torsion_matches(randtrees.grow_full(random.Random(9), 9))


# doctored sub-segment tables (C, K): segment 0 in every C_s and K_s,
# which makes every Hom space nonzero; C and K swapped; one
# pseudo-random extra member in each K_s; and each K_s cut down to s
# itself, which leaves some simple outside both classes
TABLE_DOCTORS = {
    "every": lambda C, K: ([c | 1 for c in C], [k | 1 for k in K]),
    "swapped": lambda C, K: (K, C),
    "sparse": lambda C, K: (C, [k | 1 << zlib.crc32(b"%d" % s) % len(K)
                                for s, k in enumerate(K)]),
    "cut": lambda C, K: (C, [1 << s for s in range(len(K))]),
}


@pytest.mark.parametrize("name", ["subseg", "cyc3", "deg45", "caterpillar4"])
def test_torsion_failures_match_partition_route(name, monkeypatch):
    """Under each doctored sub-segment table, which both routes read for
    C_s, K_s and Hom, one `torsion_pair` call raises the message of the
    first partition, in facet order, whose pair fails by itself: its
    first failing Hom pair, and a missing simple only when no Hom pair
    fails there."""
    seen = set()
    real = gc_vectors._build_subsegments
    for doctor in [None, *TABLE_DOCTORS]:
        with monkeypatch.context() as m:
            if doctor:
                m.setattr(gc_vectors, "_build_subsegments",
                          lambda tree, d=TABLE_DOCTORS[doctor]: d(*real(tree)))
            tree = tree_core.load_tree(fixture_path(name))
            ncps = partitions.noncrossing_partitions(tree)
            want = next(filter(None, (marking_outcome(
                lambda: oracles.torsion_masks_by_partition(tree, p))
                for p in ncps)), None)
            assert marking_outcome(
                lambda: partitions.torsion_pair(tree, ncps[-1])) == want
            seen.add(want and want.split(":")[0])
    assert seen == {None, "torsion class maps onto its own free class",
                    "simple module outside both classes"}


# doctored submodule table: for every module of two or more edges, the
# whole module listed twice (two options wherever the module lies in T),
# or the zero submodule left out (none wherever it lies in F)
SUBMODULE_DOCTORS = {
    "twice": lambda subs: subs + subs[-1:],
    "none": lambda subs: subs[1:],
}


@pytest.mark.parametrize("doctor", sorted(SUBMODULE_DOCTORS))
@pytest.mark.parametrize("name", ["subseg", "cyc3", "deg45", "caterpillar4"])
def test_non_unique_decomposition_matches_filter(name, doctor, monkeypatch):
    """With a module given two qualifying submodules, or none, under
    some partitions, any `torsion_decompose` call raises the message of
    the first failing (partition, module) pair, partition-major, that
    filtering the submodules finds."""
    real = string_modules._build_submodules
    monkeypatch.setattr(string_modules, "_build_submodules", lambda tree: [
        SUBMODULE_DOCTORS[doctor](options) if len(seg) > 1 else options
        for seg, options in zip(tree.all_segments, real(tree))])
    tree = tree_core.load_tree(fixture_path(name))
    ncps = partitions.noncrossing_partitions(tree)
    inds = string_modules.indecomposables(tree)
    want = next(filter(None, (marking_outcome(
        lambda: oracles.decompose_by_filter(tree, p, m))
        for p in ncps for m in inds)))
    assert want.startswith("torsion decomposition of ")
    assert marking_outcome(
        lambda: partitions.torsion_decompose(tree, ncps[-1], inds[0])) == want


def test_glued_partition_rejects_segment_through_its_block():
    """A red segment passing through a vertex of its own block is a
    convention failure, in the gluing facet by facet on vertex masks
    and in the column gluing, where it fails a lone facet too."""
    tree = get_tree("a2")
    ids = tree_core._segment_table(tree).ids
    short, long = (Segment.canonical(vs) for vs in
                   (("v1", "v2"), ("v1", "v2", "v3")))
    fake = SimpleNamespace(tree=tree, index=0, payload=(
        (-1, ids[short], False), (-1, ids[long], False)))
    for route in (oracles.red_partition,
                  lambda f: partitions._glue_columns(
                      tree, payload_columns((f,)), 1, False),
                  lambda f: semistable.check_facet(tree, f)):
        with pytest.raises(ConventionError, match="red segment v1-v2-v3 "
                           "not minimal in its block"):
            route(fake)
    assert oracles.green_partition(fake).blocks == \
        (("v1",), ("v2",), ("v3",))


def test_green_gluing_outside_the_red_partitions_fails(monkeypatch):
    """The red-to-green map is checked when it is built: a facet whose
    green segments glue a crossing partition, which is no facet's red
    partition, fails there, not later in `kreweras_orbits`.  The fake
    facet carries its segments both as views and as payload records
    (with no arc id), whose column the gluing reads."""
    tree = tree_core.load_tree(fixture_path("caterpillar4"))
    fs = list(facets(tree))
    k = next(i for i, f in enumerate(fs) if not f.reds())
    segment = {"x": Segment.canonical(("a", "b", "c")),
               "y": Segment.canonical(("b", "c", "d"))}
    ids = tree_core._segment_table(tree).ids
    fs[k] = SimpleNamespace(tree=tree, index=k, segment=segment,
                            color=dict.fromkeys(segment, "green"),
                            payload=tuple((-1, ids[s], True)
                                          for s in segment.values()))
    assert oracles.green_partition(fs[k]).blocks == \
        (("a", "c"), ("b", "d"))
    doctor_marking(monkeypatch, tree, fs)
    with pytest.raises(ConventionError, match="green partition of facet "
                       "%d is no red partition" % k):
        partitions.noncrossing_partitions(tree)


def test_unrealizable_gluing_fails_like_partition_route():
    """A facet whose red segments glue a block no segment set can draw
    (v1 and v4 of big8 share a block, and their path is no segment)
    fails the column route with the per-partition route's error."""
    tree = get_tree("big8")
    ids = tree_core._segment_table(tree).ids
    glued = [Segment.canonical(vs) for vs in (("v1", "v2", "v3", "v6"),
                                              ("v4", "v3", "v6"))]
    fake = SimpleNamespace(index=0, payload=tuple((-1, ids[s], False)
                                                  for s in glued))
    with pytest.raises(ValueError, match="no segment joins them") as want:
        oracles.segment_mask(tree, oracles.endpoint_partition(tree, glued))
    with pytest.raises(ValueError) as got:
        semistable.check_facet(tree, fake)
    assert str(got.value) == str(want.value)


def doctored(tree, payloads):
    """The tree's facets, with the payload of facet k replaced by
    payloads[k], in record order like every payload."""
    out = []
    for f in facets(tree):
        g = Facet.__new__(Facet)
        g.tree, g.index, g._mask = tree, f.index, f._mask
        g.payload = tuple(sorted(payloads.get(f.index, f.payload)))
        out.append(g)
    return tuple(out)


def gluing_outcome(name, payloads, monkeypatch):
    """The partition table and its Kreweras map of a fresh tree whose
    facets carry `payloads` (see `doctored`), from the column gluing of
    their record table and facet by facet: both must agree, or both
    raise the same error, which is returned in words."""
    tree = tree_core.load_tree(fixture_path(name))
    fs = doctored(tree, payloads)

    def columns():
        reds = partitions.noncrossing_partitions(tree)
        return reds, [partitions.kreweras_complement(tree, p) for p in reds]

    def per_facet():
        reds, complement = oracles.partition_table(tree)
        return reds, [complement[p] for p in reds]

    outcomes = []
    with monkeypatch.context() as m:
        doctor_marking(m, tree, fs)
        for run in (per_facet, columns):
            try:
                outcomes.append(run())
            except (ConventionError, ValueError) as e:
                outcomes.append("%s: %s" % (type(e).__name__, e))
    assert outcomes[1] == outcomes[0]
    return outcomes[0]


GLUING_FAILURES = {"not minimal in its block": "minimal",
                   "no segment joins them": "undrawn",
                   "red partitions repeat": "repeat",
                   "is no red partition": "no-red"}


def test_gluing_failures_match_facet_by_facet_route(monkeypatch):
    """One or two facets' payloads doctored (a record's color flipped, a
    record dropped, a record added, another facet's payload copied):
    the column gluing raises each of its four failures exactly when the
    gluing facet by facet does, with the same message, or gives the
    same table."""
    rng = random.Random(12)
    seen = set()
    for name in SMALL + ["big8"]:
        fs = facets(get_tree(name))
        segments = len(get_tree(name).all_segments)
        for _ in range(8 if name == "big8" else 30):
            payloads = {}
            for k in rng.sample(range(len(fs)), min(2, len(fs))):
                records = list(fs[k].payload)
                move = rng.randrange(4)
                if move == 0 and records:
                    i, s, green = records.pop(rng.randrange(len(records)))
                    records.append((i, s, not green))
                elif move == 1 and records:
                    records.pop(rng.randrange(len(records)))
                elif move == 2 and segments:
                    records.append((-1, rng.randrange(segments),
                                    rng.random() < 0.5))
                else:
                    records = list(rng.choice(fs).payload)
                payloads[k] = tuple(records)
            got = gluing_outcome(name, payloads, monkeypatch)
            seen.add(next((kind for words, kind in GLUING_FAILURES.items()
                           if words in got), "other")
                     if isinstance(got, str) else "pass")
    assert seen == {"pass", *GLUING_FAILURES.values()}


def test_gluing_failure_precedence(monkeypatch):
    """All red checks come before the green ones, the lowest failing
    facet first; at one facet a segment through its own block comes
    before a block no segment draws or a repeated partition; and an
    undrawable partition names the first such pair of its first such
    block.  On a2, the last facet (4) glues all three vertices red along
    v1-v2 and v2-v3, and the first glues them green, so v1-v2-v3 passes
    through its own block."""
    fs = facets(get_tree("a2"))
    ids = tree_core._segment_table(get_tree("a2")).ids
    through = ids[Segment.canonical(("v1", "v2", "v3"))]
    assert [len(b) for b in
            oracles.glued_partition(fs[4], "red").blocks] == [3]
    assert [len(b) for b in
            oracles.glued_partition(fs[0], "green").blocks] == [3]
    red_through = fs[4].payload + ((-1, through, False),)
    crossing = "ConventionError: red segment v1-v2-v3 not minimal in " \
        "its block"
    # green fault at facet 0, red fault at facet 3
    assert gluing_outcome("a2", {0: fs[0].payload + ((-1, through, True),),
                                 3: red_through},
                          monkeypatch) == crossing
    # a repeat at facet 2, a segment through its block at facet 4
    assert gluing_outcome("a2", {2: fs[0].payload, 4: red_through},
                          monkeypatch) == \
        "ConventionError: red partitions repeat across facets"
    # both at facet 4, which glues what facet 2 now glues
    assert gluing_outcome("a2", {2: fs[4].payload, 4: red_through},
                          monkeypatch) == crossing
    # big8: blocks v1/v5/v7 and v2/v4/v6, neither drawable; the first
    # block names its pair, and a segment through its block comes first
    ids = tree_core._segment_table(get_tree("big8")).ids
    undrawn = tuple((-1, ids[Segment.canonical(vs)], False) for vs in (
        ("v1", "v2", "v3", "v6", "v7"), ("v5", "v4", "v3", "v6", "v7"),
        ("v2", "v3", "v6"), ("v4", "v3", "v6")))
    assert gluing_outcome("big8", {7: undrawn}, monkeypatch) == (
        "ValueError: block ['v1', 'v5', 'v7'] needs a curve from 'v1' to "
        "'v5' but no segment joins them")
    assert gluing_outcome("big8", {7: undrawn[2:] + (
        (-1, ids[Segment.canonical(("v2", "v3", "v6", "v7"))], False),)},
        monkeypatch) == ("ConventionError: red segment v2-v3-v6-v7 not "
                         "minimal in its block")
    # green faults only, at two facets of caterpillar4 that keep their
    # red records and glue the crossing partition ac/bd green
    fs = facets(get_tree("caterpillar4"))
    ids = tree_core._segment_table(get_tree("caterpillar4")).ids
    ac_bd = tuple((-1, ids[Segment.canonical(vs)], True)
                  for vs in (("a", "b", "c"), ("b", "c", "d")))
    assert gluing_outcome("caterpillar4", {
        k: tuple(r for r in fs[k].payload if not r[2]) + ac_bd
        for k in (9, 4)}, monkeypatch) == \
        "ConventionError: green partition of facet 4 is no red partition"


@pytest.mark.parametrize("name", ["a2", "cyc3", "deg45", "caterpillar4"])
def test_check_facet_failures_match_object_route(name, monkeypatch):
    """With every facet handed its neighbour's weight, most claims fail,
    and check_facet, on the facet alone or among all facets, reports the
    same failures, in the same words and order, as the route on segment
    and module sets.  The weight is shifted where the column route reads
    it, in `theta_columns`: the facet at each position, known by its
    payload records, hands over the records of the facet before it."""
    tree = get_tree(name)
    fs = facets(tree)
    shifted = {f.index: gc_vectors.kreweras_theta(fs[f.index - 1])
               for f in fs}
    real = gc_vectors.theta_columns
    index = {frozenset(f.payload): f.index for f in fs}

    def theta_columns(tree, records, width):
        held = [frozenset(r for r, col in records.items() if col >> p & 1)
                for p in range(width)]
        return real(tree, payload_columns(
            [fs[index[h] - 1] for h in held]), width)

    monkeypatch.setattr(gc_vectors, "theta_columns", theta_columns)
    failing = 0
    every = semistable.verify_kreweras_stability(tree).results
    for f in fs:
        got = semistable.check_facet(tree, f)
        assert got.theta == every[f.index].theta == shifted[f.index]
        assert got.failures == every[f.index].failures \
            == oracles.check_facet_by_objects(tree, f, shifted[f.index])
        failing += bool(got.failures)
    assert failing > len(fs) // 2


ID_TABLES = [(tree_core, "_build_segment_table"),
             (gc_vectors, "_build_subsegments"),
             (nc_complex, "_chains")]


def test_verify_thm1_reads_id_tables_only(monkeypatch, capsys):
    """One verify-thm1 on big8 builds each id table once and reads the
    record table of marking: it builds no facet's payload; after the
    last table exists it never sums a weight over edges (`indicator`)
    or composes two segments, and it builds no noncrossing partition."""
    events = []

    def spy(kind, name, real):
        def wrapped(*args, **kwargs):
            out = real(*args, **kwargs)
            events.append((kind, name))
            return out
        return wrapped

    for module, name in ID_TABLES:
        monkeypatch.setattr(module, name,
                            spy("built", name, getattr(module, name)))
    monkeypatch.setattr(gc_vectors, "indicator",
                        spy("called", "indicator", gc_vectors.indicator))
    monkeypatch.setattr(nc_complex, "_payloads",
                        spy("payload", "_payloads", nc_complex._payloads))
    partition = partitions.TreePartition
    monkeypatch.setattr(partition, "__init__", spy(
        "called", "TreePartition", partition.__init__))
    compose = spy("called", "compose", tree_core.compose)
    for module in (tree_core, partitions, string_modules):
        if getattr(module, "compose", None) is tree_core.compose:
            monkeypatch.setattr(module, "compose", compose)
    assert cli.main(["verify-thm1", fixture_path("big8")]) == 0
    assert capsys.readouterr().out == "1074/1074 facets pass\n"
    built = [name for kind, name in events if kind == "built"]
    assert sorted(built) == sorted(name for _, name in ID_TABLES)
    assert [kind for kind, _ in events].count("payload") == 0
    assert ("called", "TreePartition") not in events
    last = max(i for i, (kind, _) in enumerate(events) if kind == "built")
    assert [e for e in events[last:] if e[0] == "called"] == []


VIEWS = ("arcs", "colored", "boundary", "color", "segment", "marks")


@pytest.mark.parametrize("argv", [["facets", "--format", "json"],
                                  ["verify-thm1"]])
def test_hot_path_reads_record_table_only(argv, monkeypatch, capsys):
    """`facets --format json` and `verify-thm1` on big8 read the record
    table of marking: they read no facet's payload, build no facet view
    and hash no arc, and they work out each (arc, corner, corner)
    triple's record once."""
    events, triples = [], []
    for name in VIEWS + ("payload",):
        monkeypatch.setattr(Facet, name, property(
            lambda self, name=name: events.append(name)))
    real_hash = nc_complex.Arc.__hash__
    real_segment = nc_complex._arc_segment

    def hashing(arc):
        events.append("hash")
        return real_hash(arc)

    def arc_segment(tree, *triple):
        triples.append(triple)
        return real_segment(tree, *triple)

    monkeypatch.setattr(nc_complex.Arc, "__hash__", hashing)
    monkeypatch.setattr(nc_complex, "_arc_segment", arc_segment)
    assert cli.main(argv + [fixture_path("big8")]) == 0
    assert capsys.readouterr().out
    assert events == []
    assert triples and len(set(triples)) == len(triples)


def test_check_all_pairing_and_dominance_read_counts(monkeypatch, capsys):
    """The pairing and dominance steps of `check-all` on big8 read the
    facets' payloads and the arc count table: up to the next step they
    build no facet view, hash no arc and call neither `c_vector` nor
    `zigzag`."""
    events = []

    def spy(name, real):
        def wrapped(*args):
            events.append(name)
            return real(*args)
        return wrapped

    for name in VIEWS:
        monkeypatch.setattr(Facet, name, property(
            lambda self, name=name: events.append(name)))
    for owner, name in ((Facet, "greens"), (Facet, "reds"),
                        (nc_complex.Arc, "__hash__"),
                        (gc_vectors, "c_vector"), (gc_vectors, "zigzag")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    monkeypatch.setattr(semistable, "verify_kreweras_stability", spy(
        "kreweras-stability", semistable.verify_kreweras_stability))
    cli.main(["check-all", "--samples", "0", fixture_path("big8")])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["pairing-identity     ok  1074 facets",
                         "zigzag-dominance     ok  1681 qualifying pairs"]
    assert events.index("kreweras-stability") == 0
