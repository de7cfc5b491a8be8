"""Seeded embedded-tree generator for the benchmark.

The growth rule is the one of `tests/randtrees.py`, driven by
`random.Random(seed)` instead of hypothesis: start from a star with
three leaves, then repeatedly promote a leaf to an interior vertex with
two or three fresh leaves, in a drawn rotation.  Every tree whose
interior vertices have degree at least three arises this way.

Nothing here imports treestab: the segment count below is recomputed
from the rotation system, so the benchmark can check the program's
module count against it.
"""

import itertools


def grow(rng, interior):
    """Rotation system of a tree with `interior` interior vertices."""
    rotation = {"i0": ["t0", "t1", "t2"],
                "t0": ["i0"], "t1": ["i0"], "t2": ["i0"]}
    leaves = ["t0", "t1", "t2"]
    next_leaf = 3
    for _ in range(interior - 1):
        promoted = leaves.pop(rng.randrange(len(leaves)))
        parent = rotation[promoted][0]
        kids = []
        for _ in range(rng.choice((2, 3))):
            name = "t%d" % next_leaf
            next_leaf += 1
            kids.append(name)
            rotation[name] = [promoted]
            leaves.append(name)
        # parent stays first; the drawn rotation of the new children
        # fixes the embedding
        if rng.random() < 0.5:
            kids.reverse()
        rotation[promoted] = [parent] + kids
    return rotation


def grow_full(rng, interior):
    """A grown tree in which every path between two interior vertices
    is a segment.  Within this class the facet count is fixed by the
    interior-vertex count (42, 132, 429, 1430 for 5 to 8), so runs on
    different seeds do the same amount of work on differently shaped
    trees.  About a third of the grown trees qualify."""
    while True:
        rotation = grow(rng, interior)
        if segment_count(rotation) == interior * (interior - 1) // 2:
            return rotation


def interior_vertices(rotation):
    return [v for v, ns in rotation.items() if len(ns) > 1]


def _path(rotation, a, b):
    parent = {a: None}
    queue = [a]
    for v in queue:
        if v == b:
            break
        for u in rotation[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def segment_count(rotation):
    """Number of segments: paths between two interior vertices whose
    entry and exit rays are neighbours in the rotation at every vertex
    passed through."""
    count = 0
    for a, b in itertools.combinations(interior_vertices(rotation), 2):
        path = _path(rotation, a, b)
        for i in range(1, len(path) - 1):
            ns = rotation[path[i]]
            gap = (ns.index(path[i + 1]) - ns.index(path[i - 1])) % len(ns)
            if gap not in (1, len(ns) - 1):
                break
        else:
            count += 1
    return count


def tree_text(rotation):
    """The rotation system in the tree file format."""
    return "".join("vertex %s: %s\n" % (v, " ".join(ns))
                   for v, ns in rotation.items())


def parse_rotation(text):
    """Rotation system of a well-formed tree file."""
    rotation = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, nbrs = line[len("vertex"):].split(":", 1)
            rotation[name.strip()] = nbrs.split()
    return rotation
