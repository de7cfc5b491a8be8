"""Up-set bitmask posets against the dense-matrix oracle, and the
poset checks that must hold under `python -O`."""

import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import SMALL, SUITE, fixture_path, get_tree
from treestab import cli, partitions as pt, semistable as st
from treestab.tree_core import EmbeddedTree

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def assert_matches_oracle(fast, dense, dense_lattice=True):
    """Same order, covers, lattice verdict and isomorphism verdicts.
    The lattice verdict is checked against the row-intersection oracle,
    and against the dense oracle unless `dense_lattice` is false (it
    takes about a minute on big8)."""
    k = len(dense)
    assert len(fast) == k
    assert [[fast.leq(i, j) for j in range(k)]
            for i in range(k)] == dense.matrix
    down = oracles.down_rows(fast)
    assert [[bool(down[j] >> i & 1) for j in range(k)]
            for i in range(k)] == dense.matrix
    assert fast.covers() == dense.covers()
    lattice = oracles.lattice_by_rows(fast)
    assert fast.is_lattice() == lattice
    if dense_lattice:
        assert dense.is_lattice() == lattice
    # a shuffled copy of each; relabel maps an element to its new index
    perm = list(range(k))
    random.Random(k).shuffle(perm)
    fast_copy = pt.Poset([fast.elements[p] for p in perm],
                         [down[p] for p in perm])
    dense_copy = oracles.DensePoset(perm, lambda a, b: dense.matrix[a][b])
    relabel = {p: i for i, p in enumerate(perm)}
    swapped = dict(relabel)
    if k >= 2:
        swapped[perm[0]], swapped[perm[1]] = 1, 0
    assert fast.isomorphic_by(fast_copy, relabel)
    for f_other, d_other, mapping in (
            (fast, dense, list(range(k))), (fast_copy, dense_copy, relabel),
            (fast_copy, dense_copy, swapped),
            (fast_copy, dense_copy, list(range(k))),
            (fast, dense, [0] * k), (fast, dense, dict.fromkeys(range(k), 0))):
        assert fast.isomorphic_by(f_other, mapping) == \
            dense.isomorphic_by(d_other, mapping)


@pytest.mark.parametrize("name", SUITE)
def test_ncp_poset_matches_oracle(name):
    tree = get_tree(name)
    dense = oracles.DensePoset(pt.noncrossing_partitions(tree),
                               oracles.refinement_leq)
    assert_matches_oracle(pt.ncp_poset(tree), dense,
                          dense_lattice=name != "big8")


def assert_order_check_matches_posets(tree):
    """The order check against both posets built whole: the gluing's
    ends columns are the composition closures of each color's block
    segments, the semi columns are the red ones, so the check never
    falls back to the posets, and `semistable_poset` passes with the
    poset of the route that compares the two whole."""
    glued = pt._gluing(tree)
    assert glued.ends == tuple(pt._closure_columns(tree, blocks)
                               for blocks in glued.blocks)
    assert st._facet_weights(tree)[2] == glued.ends[0]
    po, whole = st.semistable_poset(tree), \
        oracles.semistable_poset_by_posets(tree)
    assert (po.elements, po.up) == (whole.elements, whole.up)


@pytest.mark.parametrize("name", SUITE)
def test_semistable_poset_matches_oracle(name):
    po = st.semistable_poset(get_tree(name))
    dense = oracles.DensePoset(po.elements, lambda a, b: a <= b)
    assert_matches_oracle(po, dense, dense_lattice=name != "big8")
    assert_order_check_matches_posets(get_tree(name))


@settings(max_examples=20, deadline=None)
@given(randtrees.rotations(max_interior=6))
def test_random_tree_posets_match_oracle(rotation):
    tree = EmbeddedTree(rotation)
    assert_matches_oracle(pt.ncp_poset(tree), oracles.DensePoset(
        pt.noncrossing_partitions(tree), oracles.refinement_leq))
    po = st.semistable_poset(tree)
    assert_matches_oracle(po, oracles.DensePoset(po.elements,
                                                 lambda a, b: a <= b))
    assert_order_check_matches_posets(tree)


@pytest.mark.parametrize("name", SMALL)
def test_ncp_order_is_refinement(name):
    po = pt.ncp_poset(get_tree(name))
    ps = po.elements
    assert all(po.leq(i, j) == oracles.refinement_leq(p, q)
               for i, p in enumerate(ps) for j, q in enumerate(ps))


# masks as sets of bits: the bowtie has two minimal and two maximal
# elements; "vee" has a top but no meet of its two atoms; "wedge" has a
# bottom but no join of its two coatoms.  The bounded ones have a bottom
# and a top, so only the join of two upper covers of one element can
# fail: the bowtie's two atoms in "bounded-bowtie"; in "high-bowtie" the
# atoms have a join, and its two upper covers have none; in "skew" the
# atoms have no join, though any two elements that one element covers
# have one
NOT_LATTICES = {
    "antichain": ([0b1, 0b10], (False, False)),
    "bowtie": ([0b1, 0b10, 0b111, 0b1011], (False, False)),
    "vee": ([0b1, 0b10, 0b11], (True, False)),
    "wedge": ([0, 0b1, 0b10], (False, True)),
    "bounded-bowtie": ([0, 0b1, 0b10, 0b111, 0b1011, 0b1111],
                       (False, False)),
    "high-bowtie": ([0, 0b1, 0b10, 0b11, 0b111, 0b1011, 0b11111,
                     0b101111, 0b111111], (False, False)),
    "skew": ([0, 0b1, 0b11, 0b100, 0b1100, 0b10111, 0b101101, 0b111111],
             (False, False)),
}


@pytest.mark.parametrize("name", sorted(NOT_LATTICES))
def test_non_lattices(name):
    masks, (joins, meets) = NOT_LATTICES[name]
    fast = pt.Poset(range(len(masks)), masks)
    dense = oracles.DensePoset(masks, lambda a, b: a & ~b == 0)
    pairs = [(i, j) for i in range(len(masks))
             for j in range(i + 1, len(masks))]
    assert all(len(dense._bound_ids(i, j, True)) == 1
               for i, j in pairs) == joins
    assert all(len(dense._bound_ids(i, j, False)) == 1
               for i, j in pairs) == meets
    assert_matches_oracle(fast, dense)
    assert not fast.is_lattice()


def random_families(rng, count):
    """`count` families of distinct masks: half are up to 8 random masks
    over up to 5 bits, which can hit every poset on up to 5 elements
    (each is the inclusion order of its down-sets); half are the
    down-sets of a random order on up to 6 elements with the empty and
    the full set added, which are bounded, so that only cover pairs can
    fail there."""
    for n in range(count):
        if n % 2:
            bits = rng.randint(1, 5)
            yield list(dict.fromkeys(rng.getrandbits(bits)
                                     for _ in range(rng.randint(0, 8))))
            continue
        down = []  # element j is above i < j with probability 1/2
        for j in range(rng.randint(0, 6)):
            down.append(reduce(or_, (down[i] for i in range(j)
                                     if rng.random() < 0.5), 1 << j))
        yield list(dict.fromkeys([0] + down + [(1 << len(down)) - 1]))


# one element with mask 0, a two-element chain, an antichain of
# singletons
EDGE_FAMILIES = [[0], [0, 1], [1 << b for b in range(6)]]


def test_random_mask_families_match_dense_oracle():
    verdicts = []
    for masks in EDGE_FAMILIES + list(random_families(random.Random(14),
                                                      2000)):
        fast = pt.Poset(range(len(masks)), masks)
        dense = oracles.DensePoset(masks, lambda a, b: a & ~b == 0)
        assert fast.up == [sum(leq << j for j, leq in enumerate(row))
                           for row in dense.matrix], masks
        verdict = fast.is_lattice()
        assert verdict == dense.is_lattice() \
            == oracles.lattice_by_rows(fast), masks
        full = (1 << len(masks)) - 1
        verdicts.append((verdict, full in fast.up
                         and full in oracles.down_rows(fast)))
    # lattices, unbounded non-lattices and bounded ones all occur
    assert min(map(verdicts.count, [(True, True), (False, False),
                                    (False, True)])) >= 20


@pytest.mark.parametrize("which", ["ncp", "ss"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_poset_command_scans_covers_once(monkeypatch, which, fmt):
    """`poset` prints the covers and the lattice verdict, which reads
    the covers too: both get the one list scanned for the poset."""
    calls = []
    scan = pt.Poset.covers

    def spy(self):
        out = scan(self)
        calls.append((self, out))
        return out

    monkeypatch.setattr(pt.Poset, "covers", spy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["poset", "--which", which, "--format", fmt,
                         fixture_path("cyc3")]) == 0
    assert len(calls) == 2
    (po, first), (again, second) = calls
    assert again is po and second is first


def test_nine_vertex_posets_are_lattices(tmp_path):
    """Both posets of a 9-vertex tree (4,862 elements) are lattices.
    The row-intersection route takes about 13 s per poset on a 2-core
    VM, the cover-pair test about 0.1 s."""
    tree = randtrees.grow_full(random.Random(1), 9)
    path = tmp_path / "full9.tree"
    path.write_text("".join("vertex %s: %s\n" % (v, " ".join(ns))
                            for v, ns in tree.rotation.items()))
    for which in ("ncp", "ss"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["poset", "--which", which, str(path)]) == 0
        assert out.getvalue().partition("\n")[0] == \
            "4862 elements, lattice: True"


DOCTORED = {
    "reversed-ncp-order": (
        # each semi column complemented within the facets, which reverses
        # inclusion of semistable sets, and sends the check to the posets
        "from treestab import nc_complex\n"
        "real = semistable._semistable_columns\n"
        "def complemented(tree, w):\n"
        "    semi, stable = real(tree, w)\n"
        "    everyone = (1 << len(nc_complex.facets(tree))) - 1\n"
        "    return [everyone & ~c for c in semi], stable\n"
        "semistable._semistable_columns = complemented\n",
        "semistable order disagrees with refinement order"),
    "one-semistable-set": (
        "semistable._semistable_columns = lambda tree, w: "
        "([0] * len(w),) * 2\n",
        "facet weights share a semistable set"),
}


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_semistable_poset_checks_survive_optimize(name):
    doctoring, message = DOCTORED[name]
    script = (
        "import sys\n"
        "from treestab import partitions, semistable\n"
        "from treestab.tree_core import load_tree\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        + doctoring +
        "semistable.semistable_poset(load_tree(sys.argv[1]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(TESTS)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, fixture_path("a2")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "ConventionError: " + message in proc.stderr
