"""Up-set bitmask posets against the dense-matrix oracle, and the
poset checks that must hold under `python -O`."""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

import oracles
import randtrees
from conftest import SMALL, SUITE, fixture_path, get_tree
from treestab import partitions as pt, semistable as st
from treestab.tree_core import EmbeddedTree

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def assert_matches_oracle(fast, dense, lattice=None):
    """Same order, covers, lattice verdict and isomorphism verdicts.
    `lattice` stands in for the oracle's verdict where it is too slow."""
    k = len(dense)
    assert len(fast) == k
    assert [[fast.leq(i, j) for j in range(k)]
            for i in range(k)] == dense.matrix
    assert [[bool(fast.down[j] >> i & 1) for j in range(k)]
            for i in range(k)] == dense.matrix
    assert fast.covers() == dense.covers()
    if lattice is None:
        lattice = dense.is_lattice()
    assert fast.is_lattice() == lattice
    # a shuffled copy of each; relabel maps an element to its new index
    perm = list(range(k))
    random.Random(k).shuffle(perm)
    fast_copy = pt.Poset([fast.elements[p] for p in perm],
                         [fast.down[p] for p in perm])
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
    # the oracle's lattice check takes about a minute on big8
    assert_matches_oracle(pt.ncp_poset(tree), dense,
                          lattice=True if name == "big8" else None)


@pytest.mark.parametrize("name", SUITE)
def test_semistable_poset_matches_oracle(name):
    po = st.semistable_poset(get_tree(name))
    dense = oracles.DensePoset(po.elements, lambda a, b: a <= b)
    assert_matches_oracle(po, dense, lattice=True if name == "big8" else None)


@settings(max_examples=20, deadline=None)
@given(randtrees.rotations())
def test_random_tree_posets_match_oracle(rotation):
    tree = EmbeddedTree(rotation)
    assert_matches_oracle(pt.ncp_poset(tree), oracles.DensePoset(
        pt.noncrossing_partitions(tree), oracles.refinement_leq))
    po = st.semistable_poset(tree)
    assert_matches_oracle(po, oracles.DensePoset(po.elements,
                                                 lambda a, b: a <= b))


@pytest.mark.parametrize("name", SMALL)
def test_ncp_order_is_refinement(name):
    po = pt.ncp_poset(get_tree(name))
    ps = po.elements
    assert all(po.leq(i, j) == oracles.refinement_leq(p, q)
               for i, p in enumerate(ps) for j, q in enumerate(ps))


# masks as sets of bits: the bowtie has two minimal and two maximal
# elements; "vee" has a top but no meet of its two atoms; "wedge" has a
# bottom but no join of its two coatoms
NOT_LATTICES = {
    "antichain": ([0b1, 0b10], (False, False)),
    "bowtie": ([0b1, 0b10, 0b111, 0b1011], (False, False)),
    "vee": ([0b1, 0b10, 0b11], (True, False)),
    "wedge": ([0, 0b1, 0b10], (False, True)),
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


DOCTORED = {
    "reversed-ncp-order": (
        "real = partitions.ncp_poset\n"
        "def reversed_order(tree):\n"
        "    po = real(tree)\n"
        "    po.up, po.down = po.down, po.up\n"
        "    return po\n"
        "partitions.ncp_poset = reversed_order\n",
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
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, fixture_path("a2")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "ConventionError: " + message in proc.stderr
