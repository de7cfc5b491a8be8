"""Hypothesis strategy for small embedded trees.

Grows a tree by repeatedly promoting a leaf to an interior vertex with
two or three fresh leaves; every tree whose interior vertices have
degree at least three arises this way, and the drawn insertion points
vary the embedding."""

from hypothesis import strategies as st

from treestab.tree_core import EmbeddedTree


@st.composite
def rotations(draw, max_interior=4):
    rotation = {"i0": ["t0", "t1", "t2"],
                "t0": ["i0"], "t1": ["i0"], "t2": ["i0"]}
    leaves = ["t0", "t1", "t2"]
    next_leaf = 3
    extra = draw(st.integers(min_value=0, max_value=max_interior - 1))
    for k in range(extra):
        pos = draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        promoted = leaves.pop(pos)
        parent = rotation[promoted][0]
        fresh = draw(st.integers(min_value=2, max_value=3))
        kids = []
        for _ in range(fresh):
            name = "t%d" % next_leaf
            next_leaf += 1
            kids.append(name)
            rotation[name] = [promoted]
            leaves.append(name)
        # parent stays first; the drawn rotation of the new children
        # fixes the embedding
        if draw(st.booleans()):
            kids.reverse()
        rotation[promoted] = [parent] + kids
    return {v: tuple(ns) for v, ns in rotation.items()}


def grow_full(rng, interior):
    """A tree grown by the same rule, with choices drawn from `rng` (a
    `random.Random`), in which every path between two interior vertices
    is a segment: redrawn until it is one."""
    while True:
        rotation = {"i0": ["t0", "t1", "t2"],
                    "t0": ["i0"], "t1": ["i0"], "t2": ["i0"]}
        leaves = ["t0", "t1", "t2"]
        for _ in range(interior - 1):
            promoted = leaves.pop(rng.randrange(len(leaves)))
            kids = ["t%d" % (len(rotation) + k)
                    for k in range(rng.choice((2, 3)))]
            for name in kids:
                rotation[name] = [promoted]
            leaves += kids
            if rng.random() < 0.5:
                kids.reverse()
            rotation[promoted] = rotation[promoted][:1] + kids
        tree = EmbeddedTree(rotation)
        if len(tree.all_segments) == interior * (interior - 1) // 2:
            return tree
