"""Arcs, crossing, and the facets of the noncrossing complex.

An arc is a leaf-to-leaf path whose consecutive edges always share a
face.  Faces biject with boundary gaps, so each of the two regions an
arc splits the disk into is a contiguous cyclic interval of gaps: for
an arc at boundary positions p < q, gaps p..q-1 on one side and the
rest on the other.  `Arc.pos` is therefore all the region data there
is; crossing is a constant-time interleaving check on it, and a region
is read off it as a bitmask of gaps where one is needed.

Facets carry the combinatorial payload everything downstream feeds on:
which corner each arc is marked at, the color of each non-boundary
arc, and the segment joining its two marked corners.  Marking reads
one per-tree table, each corner's chain of arcs through it ordered by
their region on the corner's side, largest first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tree_core import ConventionError, Segment


@dataclass(frozen=True)
class Arc:
    """Leaf-to-leaf extreme path.

    `leaves` is ordered by boundary position, and `pos` holds those
    positions.  A boundary arc joins cyclically adjacent leaves.
    """

    leaves: tuple
    path: tuple = field(compare=False, repr=False)
    pos: tuple = field(compare=False, repr=False)
    is_boundary: bool = field(compare=False, repr=False)

    def __repr__(self):
        return "Arc(%s~%s)" % self.leaves


def _build_arc(tree, p, q):
    """The arc between boundary leaves p < q, or None when their path
    is not extreme."""
    leaves = tree.boundary_leaves
    path = tree.path_between(leaves[p], leaves[q])
    if not tree.is_extreme_path(path):
        return None
    return Arc((leaves[p], leaves[q]), tuple(path), (p, q),
               q - p in (1, len(leaves) - 1))


def arcs(tree):
    """All arcs of the tree, sorted by boundary positions, as a tuple
    built once per tree."""
    return tree.memo("arcs", _arcs)


def _arcs(tree):
    L = len(tree.boundary_leaves)
    built = (_build_arc(tree, p, q)
             for p in range(L) for q in range(p + 1, L))
    return tuple(arc for arc in built if arc is not None)


def crossing(d1, d2):
    """Strict interleaving of boundary positions.

    Equivalent to the region formulation (no region of one arc contains
    a region of the other) because regions are cyclic gap intervals.
    """
    (a1, b1), (a2, b2) = d1.pos, d2.pos
    return (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1)


def boundary_arcs(tree):
    """Arcs between cyclically adjacent boundary leaves.  These exist
    for every tree (the face walk certifies the extreme-path condition)
    and cross nothing, so they lie in every facet."""
    out = tuple(d for d in arcs(tree) if d.is_boundary)
    if len(out) != len(tree.boundary_leaves):
        raise ConventionError("%d boundary arcs for %d boundary leaves"
                              % (len(out), len(tree.boundary_leaves)))
    return out


def _chains(tree):
    """Per corner (v, fi), the arcs through it paired with their region
    on the side of gap fi as a gap bitmask, largest region first."""
    full = (1 << len(tree.boundary_leaves)) - 1
    through = {corner: [] for corner in tree.corners}
    for d in arcs(tree):
        p, q = d.pos
        inner = (1 << q) - (1 << p)  # gaps p..q-1
        for corner in tree.hugged_corners(d.path):
            region = inner if p <= corner[1] < q else full ^ inner
            through[corner].append((d, region))
    return {corner: tuple(sorted(chain, key=lambda e: -e[1].bit_count()))
            for corner, chain in through.items()}


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

    def _chain(self, corner, members):
        """The members through `corner`, with their regions, largest
        first."""
        return [e for e in self.tree.memo("chains", _chains)[corner]
                if e[0] in members]

    def _mark(self):
        members = frozenset(self.arcs)
        marks = {d: [] for d in self.arcs}
        for corner in self.tree.corners:
            chain = self._chain(corner, members)
            if not chain:
                raise ConventionError("corner %r hugged by no arc" % (corner,))
            # members cross nothing, so their regions form a chain
            for (_, big), (_, small) in zip(chain, chain[1:]):
                if small & ~big:
                    raise ConventionError(
                        "regions at corner %r do not nest" % (corner,))
            marks[chain[0][0]].append(corner)
        self.marks = {d: tuple(ms) for d, ms in marks.items()}
        for d in self.arcs:
            want = 1 if d.is_boundary else 2
            if len(self.marks[d]) != want:
                raise ConventionError(
                    "%r carries %d marks, expected %d"
                    % (d, len(self.marks[d]), want))
        for d in self.colored:
            (_, fi), (_, gi) = self.marks[d]
            p, q = d.pos
            if (p <= fi < q) == (p <= gi < q):
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
        members = frozenset(self.arcs)
        out = []
        for corner in self.marks[d]:
            chain = [e for e, _ in self._chain(corner, members)]
            k = chain.index(d)
            if k + 1 == len(chain):
                raise ConventionError(
                    "marked arc cannot be minimal at its corner")
            out.append(chain[k + 1])
        return tuple(out)

    def key(self):
        return tuple(d.leaves for d in self.arcs)


def facets(tree):
    """All facets, in a deterministic order, as a tuple built once per
    tree.

    Enumeration runs maximal-clique search over the non-boundary arcs
    only; boundary arcs cross nothing and are appended to every clique.
    Purity (equal facet sizes) is checked over the full enumeration.
    """
    return tree.memo("facets", _facets)


def _facets(tree):
    bnd = boundary_arcs(tree)
    colored = [d for d in arcs(tree) if not d.is_boundary]
    adjacency = {
        i: {j for j in range(len(colored))
            if j != i and not crossing(colored[i], colored[j])}
        for i in range(len(colored))
    }
    out = [Facet(tree, bnd + tuple(colored[i] for i in clique))
           for clique in _max_cliques(range(len(colored)), adjacency)]
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
