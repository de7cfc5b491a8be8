"""Per-tree derived tables: built once, immutable, shared, reproducible,
and freed with their tree."""

import gc
import json
import weakref

import pytest

import oracles
from conftest import SMALL, SUITE, fixture_path, get_tree, outcome
from treestab import (cli, gc_vectors, nc_complex, partitions, semistable,
                      string_modules)
from treestab.gc_vectors import quotient_segments, submodule_segments
from treestab.nc_complex import facets
from treestab.partitions import (
    kreweras_complement,
    noncrossing_partitions,
    segment_closure,
    torsion_pair,
)
from treestab.semistable import (
    check_semistable_wide,
    semistable_poset,
    verify_kreweras_stability,
)
from treestab.tree_core import Segment, compose, load_tree


def facet_view(f):
    return f.key(), tuple((d.leaves, f.color[d], f.segment.get(d))
                          for d in f.arcs)


def torsion_view(tree):
    out = {}
    for p in noncrossing_partitions(tree):
        T, F = torsion_pair(tree, p)
        out[p] = (frozenset(m.segment for m in T),
                  frozenset(m.segment for m in F))
    return out


@pytest.mark.parametrize("name", SUITE)
def test_cached_tables_are_immutable_and_shared(name):
    tree = get_tree(name)
    fs = facets(tree)
    assert isinstance(fs, tuple)
    assert facets(tree) is fs
    ncps = noncrossing_partitions(tree)
    assert isinstance(ncps, tuple)
    assert noncrossing_partitions(tree) is ncps
    for p in ncps:
        assert kreweras_complement(tree, p) is kreweras_complement(tree, p)
        # read off the torsion table's id rows on each call, not kept
        pair = torsion_pair(tree, p)
        assert torsion_pair(tree, p) == pair
        assert all(isinstance(side, frozenset) for side in pair)
    # C_s and K_s are id masks in one shared table; the frozensets are
    # views of it, made afresh on each call
    table = gc_vectors._subsegments(tree)
    assert gc_vectors._subsegments(tree) is table
    assert [type(side) for side in table] == [tuple, tuple]
    assert all(isinstance(m, int) for side in table for m in side)
    stranger = Segment(("no-such-vertex", "nor-this-one"))
    for seg in tree.all_segments:
        for fn in (submodule_segments, quotient_segments):
            got = fn(tree, seg)
            assert isinstance(got, frozenset)
            before = set(got)
            got |= {stranger}  # rebinds; the table stays as it was
            assert fn(tree, seg) == before
    assert gc_vectors._subsegments(tree) is table


@pytest.mark.parametrize("name", SUITE)
def test_fresh_tree_gives_equal_tables(name):
    used, fresh = get_tree(name), load_tree(fixture_path(name))
    assert ([facet_view(f) for f in facets(used)]
            == [facet_view(f) for f in facets(fresh)])
    assert ({p: kreweras_complement(used, p)
             for p in noncrossing_partitions(used)}
            == {p: kreweras_complement(fresh, p)
                for p in noncrossing_partitions(fresh)})
    assert torsion_view(used) == torsion_view(fresh)
    for seg in used.all_segments:
        assert submodule_segments(used, seg) == submodule_segments(fresh, seg)
        assert quotient_segments(used, seg) == quotient_segments(fresh, seg)


def test_tree_is_freed_after_use():
    tree = load_tree(fixture_path("cyc3"))
    ref = weakref.ref(tree)
    assert verify_kreweras_stability(tree).all_passed
    for p in noncrossing_partitions(tree):
        torsion_pair(tree, p)
    semistable_poset(tree)
    check_semistable_wide(tree, samples=20)
    del tree
    gc.collect()
    assert ref() is None


def count_builds(monkeypatch, module, builder):
    """Record the arguments of every call to a private table builder."""
    calls = []
    real = getattr(module, builder)

    def counting(tree, *args):
        calls.append(args)
        return real(tree, *args)

    monkeypatch.setattr(module, builder, counting)
    return calls


def forbidden(name):
    """A stand-in for a function that must not be called."""
    def call(*args):
        raise AssertionError("%s called" % name)
    return call


@pytest.mark.parametrize("value", [None, 0, (), frozenset()])
def test_memo_builds_a_falsy_value_once_per_key(value):
    """`memo` tells a missing key from a stored value by a private mark,
    so a builder that returns None or 0 still runs once per key."""
    tree = load_tree(fixture_path("a2"))
    calls = []

    def build(t, *args):
        calls.append(args)
        return value

    for _ in range(3):
        assert tree.memo(("falsy", 1), build, 1) is value
        assert tree.memo(("falsy", 2), build, 2) is value
    assert calls == [(1,), (2,)]


@pytest.mark.parametrize("name", SMALL)
def test_verify_thm1_builds_facets_once(name, monkeypatch, capsys):
    builds = count_builds(monkeypatch, nc_complex, "_facets")
    assert cli.main(["verify-thm1", fixture_path(name)]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("name", SMALL)
def test_check_all_builds_facets_and_torsion_pairs_once(name, monkeypatch,
                                                         capsys):
    """check-all builds the torsion table, every partition's T and F,
    and the decomposition table over it, once per tree, and checks the
    decompositions on the table alone: it asks no single (partition,
    module) pair and looks up no partition's position."""
    facet_builds = count_builds(monkeypatch, nc_complex, "_facets")
    table_builds = count_builds(monkeypatch, partitions, "_torsion_table")
    decompositions = count_builds(monkeypatch, partitions,
                                  "_build_decompositions")
    for fn in ("torsion_decompose", "_position"):
        monkeypatch.setattr(partitions, fn, forbidden(fn))
    assert cli.main(["check-all", "--samples", "20", fixture_path(name)]) == 0
    out = capsys.readouterr().out
    assert "all checks pass" in out
    assert len(facet_builds) == 1
    assert table_builds == [()]
    assert decompositions == [()]
    tree = load_tree(fixture_path(name))
    count = len(noncrossing_partitions(tree)) * len(
        string_modules.indecomposables(tree))
    assert "torsion-pairs        ok  %d decompositions" % count in out


def test_torsion_formats_without_frozenset_pairs(monkeypatch, capsys):
    """`torsion` formats every partition's T and F off the torsion
    table's id rows: it builds no frozenset pair, and its JSON renders
    each segment's vertex list, and each distinct partition block, once,
    however often they are printed."""
    monkeypatch.setattr(partitions, "torsion_pair", forbidden("torsion_pair"))
    rendered = []
    real = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda obj, level=0: (
        rendered.append(tuple(obj)), real(obj, level))[1])
    assert cli.main(["torsion", "--format", "json",
                     fixture_path("cyc3")]) == 0
    printed = [tuple(v) for pair in json.loads(capsys.readouterr().out)[
        "pairs"] for v in pair["torsion"] + pair["free"]]
    tree = load_tree(fixture_path("cyc3"))
    segments = [s.vertices for s in tree.all_segments]
    assert sorted(rendered) == sorted(segments
                                      + list(partitions._blocks(tree)[0]))
    assert set(printed) <= set(segments) and len(printed) > len(segments)


def test_torsion_reads_hom_once_per_segment_pair(monkeypatch, capsys):
    """`torsion` checks Hom(T, F) = 0 for every partition at once, each
    Hom space read as one AND of a K_s and a C_t mask of the sub-segment
    table, built once: it asks no Hom space and lists no C_s or K_s."""
    builds = count_builds(monkeypatch, gc_vectors, "_build_subsegments")
    for module, name in ((string_modules, "hom_dim"),
                         (string_modules, "_graph_map"),
                         (gc_vectors, "submodule_segments"),
                         (gc_vectors, "quotient_segments")):
        monkeypatch.setattr(module, name, forbidden(name))
    assert cli.main(["torsion", fixture_path("big8")]) == 0
    assert capsys.readouterr().out
    assert builds == [()]


@pytest.mark.parametrize("name", SMALL)
def test_facets_dot_builds_flip_index_once(name, monkeypatch, capsys):
    builds = count_builds(monkeypatch, nc_complex, "_ridges")
    assert cli.main(["facets", "--format", "dot", fixture_path(name)]) == 0
    assert capsys.readouterr().out.startswith("graph flips {")
    assert len(builds) == 1


@pytest.mark.parametrize("name", ["a2", "cyc3", "big8"])
def test_verify_thm1_builds_each_g_vector_once(name, monkeypatch, capsys):
    builds = count_builds(monkeypatch, gc_vectors, "_g_vectors")
    assert cli.main(["verify-thm1", fixture_path(name)]) == 0
    assert builds == [()]


def test_verify_thm1_weighs_each_facet_once(monkeypatch, capsys):
    """verify-thm1 weighs all facets in one column-wise pass; it makes
    no single weight's stability pass."""
    builds = count_builds(monkeypatch, semistable, "_stability")
    assert cli.main(["verify-thm1", fixture_path("big8")]) == 0
    assert capsys.readouterr().out == "1074/1074 facets pass\n"
    assert builds == []


def test_verify_thm1_builds_results_for_failing_facets_only(monkeypatch,
                                                            capsys):
    """With every facet passing, verify-thm1 and check-all's theorem
    step build no FacetResult and transpose no weight: the verdicts are
    read off the fault columns."""
    for name in ("FacetResult", "_theta_rows"):
        monkeypatch.setattr(semistable, name, forbidden(name))
    assert cli.main(["verify-thm1", "--format", "json",
                     fixture_path("big8")]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == \
        "1074/1074 facets pass"
    assert cli.main(["check-all", "--samples", "5",
                     fixture_path("cyc3")]) == 0
    assert "all checks pass" in capsys.readouterr().out


def test_semistable_weighs_once(monkeypatch, capsys):
    """`semistable` reads its semistable and stable modules off one
    stability pass of its weight."""
    builds = count_builds(monkeypatch, semistable, "_stability")
    for fmt in ("text", "json"):
        assert cli.main(["semistable", "--theta=0,0,0,0,0,0,0", "--format",
                         fmt, fixture_path("big8")]) == 0
    assert builds == [((0,) * 7,)] * 2


@pytest.mark.parametrize("name", SMALL)
def test_torsion_decompose_enumerates_submodules_once(name, monkeypatch,
                                                      capsys):
    """check-all's torsion step builds the submodule table, every
    module's submodules with their quotients, once per tree."""
    builds = count_builds(monkeypatch, string_modules, "_build_submodules")
    assert cli.main(["check-all", "--samples", "20", fixture_path(name)]) == 0
    assert builds == [()]


@pytest.mark.parametrize("name", SUITE)
def test_engine_paths_build_no_tiling_algebra(name, monkeypatch, capsys):
    """check-all, submodules, quotients and torsion decompositions read
    arrow closure off C_s, so they build no tiling algebra; `modules`
    builds it once."""
    builds = count_builds(monkeypatch, string_modules, "TilingAlgebra")
    trees = []

    def load(path):  # the tree the command runs on, kept to look at
        trees.append(load_tree(path))
        return trees[-1]

    monkeypatch.setattr(cli, "load_tree", load)
    assert cli.main(["check-all", "--samples", "5", fixture_path(name)]) == 0
    tree = trees[0]
    p = noncrossing_partitions(tree)[-1]
    for M in string_modules.indecomposables(tree):
        for sub in string_modules.all_submodules(tree, M):
            string_modules.quotient_by(tree, M, sub)
        partitions.torsion_decompose(tree, p, M)
    assert builds == []
    assert cli.main(["modules", fixture_path(name)]) == 0
    assert builds == [()]


@pytest.mark.parametrize("name", SUITE)
def test_check_all_builds_no_payload_or_partition_table(name, monkeypatch,
                                                        capsys):
    """check-all's pairing, dominance and poset steps read the record
    table, the count table and the gluing: a passing run builds no facet
    payload and no partition table, and asks for no facet's pairing
    matrix or dominance check and no `ncp_poset`; `poset --which ss`
    builds no partition table either.  With every count swapped, the
    failing pairing and dominance steps word their failure off the
    records of the lowest failing facet: still no payload is built, and
    the text is the vector oracles' on the negated g-vectors, which have
    those counts."""
    for module, fn in ((gc_vectors, "pairing_matrix"),
                       (gc_vectors, "zigzag_dominance_check"),
                       (partitions, "ncp_poset")):
        monkeypatch.setattr(module, fn, forbidden(fn))
    trees = []

    def load(path):  # the tree the command runs on, kept to look at
        trees.append(load_tree(path))
        return trees[-1]

    monkeypatch.setattr(cli, "load_tree", load)
    assert cli.main(["check-all", "--samples", "5", fixture_path(name)]) == 0
    assert "all checks pass" in capsys.readouterr().out
    assert not {"payloads", "ncp"} & set(trees[0]._memo)
    assert cli.main(["poset", "--which", "ss", fixture_path(name)]) == 0
    assert capsys.readouterr().out
    assert "ncp" not in trees[1]._memo
    steps = {"pairing-identity": oracles.pairing_per_facet,
             "zigzag-dominance": oracles.dominance_per_facet}
    real = gc_vectors._g_vectors
    monkeypatch.setattr(gc_vectors, "_g_vectors", lambda tree: tuple(
        tuple(-x for x in g) for g in real(tree)))
    tree = load_tree(fixture_path(name))
    want = {step: outcome(fn, tree) for step, fn in steps.items()}
    monkeypatch.setattr(gc_vectors, "_g_vectors", real)
    counts = gc_vectors._arc_counts
    monkeypatch.setattr(gc_vectors, "_arc_counts", lambda tree: [
        [(m, p) for p, m in row] for row in counts(tree)])
    cli.main(["check-all", "--format", "json", "--samples", "0",
              fixture_path(name)])
    assert {c["name"]: (c["passed"], c["detail"])
            for c in json.loads(capsys.readouterr().out)["checks"]
            if c["name"] in steps} == want
    assert "payloads" not in trees[2]._memo


def naive_closure(tree, segments):
    closed = set(segments)
    while True:
        new = {compose(tree, s, t) for s in closed for t in closed
               if s != t} - {None} - closed
        if not new:
            return closed
        closed |= new


@pytest.mark.parametrize("name", SMALL)
def test_segment_closure_matches_fixpoint(name):
    tree = get_tree(name)
    segs = tree.all_segments
    for s in segs:
        for t in segs:
            assert compose(tree, s, t) == compose(tree, t, s)
    for seg in segs:
        for family in (submodule_segments(tree, seg),
                       quotient_segments(tree, seg)):
            assert segment_closure(tree, family) == \
                naive_closure(tree, family)
    for p in noncrossing_partitions(tree):
        blocks = oracles.partition_segments(tree, p)
        assert segment_closure(tree, blocks) == naive_closure(tree, blocks)
