"""Arcs, crossing, and the facets of the noncrossing complex.

An arc is a leaf-to-leaf path whose consecutive edges always share a
face.  Every arc splits the disk into two regions; regions are stored
as sets of face indices, and since faces biject with boundary gaps the
region of an arc is always a contiguous cyclic interval of gaps.  That
makes the crossing test a constant-time interleaving check on boundary
positions; the definitional region-containment test is kept alongside
and the two are compared exhaustively in the test suite.

Facets carry the combinatorial payload everything downstream feeds on:
which corner each arc is marked at, the color of each non-boundary
arc, and the segment joining its two marked corners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tree_core import ConventionError, Segment


@dataclass(frozen=True)
class Arc:
    """Leaf-to-leaf extreme path.

    `leaves` is ordered by boundary position, and `pos` holds those
    positions.  `side` is the pair of face-index sets split off by the
    arc: side[0] collects the gaps swept from leaves[0] counterclockwise
    to leaves[1], side[1] the rest.
    """

    leaves: tuple
    path: tuple = field(compare=False, repr=False)
    pos: tuple = field(compare=False, repr=False)
    side: tuple = field(compare=False, repr=False)
    hugs: frozenset = field(compare=False, repr=False)

    @property
    def is_boundary(self):
        p, q = self.pos
        length = len(self.side[0]) + len(self.side[1])
        return (q - p) % length == 1 or (p - q) % length == 1

    def region_containing(self, face_index):
        if face_index in self.side[0]:
            return self.side[0]
        return self.side[1]

    def __repr__(self):
        return "Arc(%s~%s)" % self.leaves


def _build_arc(tree, a, b):
    pos = {leaf: i for i, leaf in enumerate(tree.boundary_leaves)}
    if pos[a] > pos[b]:
        a, b = b, a
    path = tree.path_between(a, b)
    if not tree.is_extreme_path(path):
        return None
    L = len(tree.boundary_leaves)
    p, q = pos[a], pos[b]
    side0 = frozenset(range(p, q))
    side1 = frozenset(range(L)) - side0
    hugs = frozenset(tree.hugged_corners(path))
    return Arc((a, b), tuple(path), (p, q), (side0, side1), hugs)


def arcs(tree):
    """All arcs of the tree, sorted by boundary positions."""
    out = []
    leaves = tree.boundary_leaves
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            arc = _build_arc(tree, leaves[i], leaves[j])
            if arc is not None:
                out.append(arc)
    out.sort(key=lambda d: d.pos)
    return out


def crossing(d1, d2):
    """Strict interleaving of boundary positions.

    Equivalent to the region formulation (no region of one arc contains
    a region of the other) because regions are cyclic gap intervals.
    """
    (a1, b1), (a2, b2) = d1.pos, d2.pos
    return (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1)


def crossing_by_regions(d1, d2):
    """Definitional version: d1 and d2 cross when no choice of regions
    nests.  Used as the oracle for `crossing`."""
    for r1 in d1.side:
        for r2 in d2.side:
            if r1 <= r2 or r2 <= r1:
                return False
    return True


def boundary_arcs(tree):
    """Arcs between cyclically adjacent boundary leaves.  These exist
    for every tree (the face walk certifies the extreme-path condition)
    and cross nothing, so they lie in every facet."""
    leaves = tree.boundary_leaves
    out = []
    for i in range(len(leaves)):
        arc = _build_arc(tree, leaves[i], leaves[(i + 1) % len(leaves)])
        if arc is None:
            raise ConventionError(
                "boundary pair %r,%r is not an arc"
                % (leaves[i], leaves[(i + 1) % len(leaves)]))
        out.append(arc)
    return out


def _max_cliques(vertices, adjacent):
    """Bron-Kerbosch with pivoting; yields maximal cliques as sets."""
    def expand(r, p, x):
        if not p and not x:
            yield set(r)
            return
        pivot = max(p | x, key=lambda v: len(adjacent[v] & p))
        for v in sorted(p - adjacent[pivot]):
            yield from expand(r | {v}, p & adjacent[v], x & adjacent[v])
            p = p - {v}
            x = x | {v}

    yield from expand(set(), set(vertices), set())


class Facet:
    """A maximal set of pairwise-noncrossing arcs, with marks and colors.

    Every corner of the tree is marked by exactly one member arc: the
    maximal arc through that corner, where arcs through a common corner
    (v, F) are linearly ordered by containment of their F-side regions.
    Boundary arcs pick up one mark, the others two, and the flags at the
    two marks of a non-boundary arc always agree in color.
    """

    def __init__(self, tree, members, index=None):
        self.tree = tree
        self.index = index
        self.arcs = tuple(sorted(members, key=lambda d: d.pos))
        self.colored = tuple(d for d in self.arcs if not d.is_boundary)
        self.boundary = tuple(d for d in self.arcs if d.is_boundary)
        self._mark()
        self._color()

    def _mark(self):
        tree = self.tree
        marks = {d: [] for d in self.arcs}
        for corner in tree.corners:
            _, fi = corner
            candidates = [d for d in self.arcs if corner in d.hugs]
            if not candidates:
                raise ConventionError("corner %r hugged by no arc" % (corner,))
            regions = {d: d.region_containing(fi) for d in candidates}
            # the F-side regions of arcs through one corner form a chain
            candidates.sort(key=lambda d: len(regions[d]))
            for small, big in zip(candidates, candidates[1:]):
                if not regions[small] <= regions[big]:
                    raise ConventionError(
                        "regions at corner %r do not nest" % (corner,))
            marks[candidates[-1]].append(corner)
        self.marks = {d: tuple(ms) for d, ms in marks.items()}
        for d in self.arcs:
            want = 1 if d.is_boundary else 2
            if len(self.marks[d]) != want:
                raise ConventionError(
                    "%r carries %d marks, expected %d"
                    % (d, len(self.marks[d]), want))
        for d in self.colored:
            (v, fi), (u, gi) = self.marks[d]
            if d.region_containing(fi) is d.region_containing(gi):
                raise ConventionError(
                    "marks of %r fall in the same region" % (d,))

    def _color(self):
        tree = self.tree
        self.color = {d: "boundary" for d in self.boundary}
        self.segment = {}
        for d in self.colored:
            (v, fi), (u, gi) = self.marks[d]
            path = list(d.path)
            i, j = path.index(v), path.index(u)
            if i > j:
                (v, fi, i), (u, gi, j) = (u, gi, j), (v, fi, i)
            seg_path = path[i:j + 1]
            self.segment[d] = Segment.canonical(seg_path)
            c1 = tree.flag_color(v, seg_path[1], fi)
            c2 = tree.flag_color(u, seg_path[-2], gi)
            if c1 != c2:
                raise ConventionError(
                    "flags of %r disagree: %s vs %s" % (d, c1, c2))
            self.color[d] = c1

    def greens(self):
        return tuple(d for d in self.colored if self.color[d] == "green")

    def reds(self):
        return tuple(d for d in self.colored if self.color[d] == "red")

    def supporting_arcs(self, d):
        """The covers of d from below at its two marked corners, in mark
        order."""
        if d.is_boundary:
            raise ValueError("boundary arcs have no supporting arcs")
        out = []
        for corner in self.marks[d]:
            _, fi = corner
            chain = [e for e in self.arcs if corner in e.hugs]
            chain.sort(key=lambda e: len(e.region_containing(fi)))
            k = chain.index(d)
            assert k > 0, "marked arc cannot be minimal at its corner"
            out.append(chain[k - 1])
        return tuple(out)

    def key(self):
        return tuple(d.leaves for d in self.arcs)


def facets(tree):
    """All facets, in a deterministic order, as a tuple built once per
    tree.

    Enumeration runs maximal-clique search over the non-boundary arcs
    only; boundary arcs cross nothing and are appended to every clique.
    Purity (equal facet sizes) is asserted over the full enumeration.
    """
    return tree.memo("facets", _facets)


def _facets(tree):
    all_arcs = arcs(tree)
    bnd = [d for d in all_arcs if d.is_boundary]
    colored = [d for d in all_arcs if not d.is_boundary]
    if len(bnd) != len(tree.boundary_leaves) and len(tree.leaves) > 2:
        import warnings
        warnings.warn("boundary arc missing; facets may be irregular")
    adjacency = {
        i: {j for j in range(len(colored))
            if j != i and not crossing(colored[i], colored[j])}
        for i in range(len(colored))
    }
    cliques = list(_max_cliques(range(len(colored)), adjacency))
    out = []
    for clique in cliques:
        members = bnd + [colored[i] for i in clique]
        out.append(Facet(tree, members))
    out.sort(key=lambda f: f.key())
    for i, f in enumerate(out):
        f.index = i
    expect = len(tree.leaves) + len(tree.interior_vertices) - 1
    for f in out:
        if len(f.arcs) != expect:
            raise ConventionError(
                "facet %d has %d arcs, expected %d (complex not pure)"
                % (f.index, len(f.arcs), expect))
    return tuple(out)


def flip_neighbors(facet, all_facets):
    """Facets differing from `facet` in exactly one non-boundary arc, in
    index order, read off the ridges of `all_facets`, the tree's facets."""
    if all_facets is not facets(facet.tree) \
            and tuple(all_facets) != facets(facet.tree):
        raise ValueError("flip neighbours are taken among all facets")
    ridges = facet.tree.memo("ridges", _ridges)
    mine = frozenset(facet.colored)
    return sorted((g for d in mine for g in ridges[mine - {d}]
                   if g is not facet), key=lambda g: g.index)


def _ridges(tree):
    """Facets by their colored arcs minus one arc."""
    out = {}
    for f in facets(tree):
        for d in f.colored:
            out.setdefault(frozenset(f.colored) - {d}, []).append(f)
    return out
