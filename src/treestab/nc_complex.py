"""Arcs, crossing, and the facets of the noncrossing complex.

An arc is a leaf-to-leaf path whose consecutive edges always share a
face.  Faces biject with boundary gaps, so each of the two regions an
arc splits the disk into is a contiguous cyclic interval of gaps: for
an arc at boundary positions p < q, gaps p..q-1 on one side and the
rest on the other.  `Arc.pos` is therefore all the region data there
is; crossing is a constant-time interleaving check on it, and a region
is read off it as a bitmask of gaps where one is needed.

Arcs are numbered once per tree by their place in `arcs(tree)`, and
corners by their place in `tree.corners`.  A facet is a bitmask of arc
ids; clique search, marking and the flip index all run on those ids.
Marking reads one per-tree table: for each arc, the corners it passes
through, each with the id masks of the arcs through that corner with
a larger region on the corner's side and of those whose regions there
do not nest with its own.  A member marks a corner when no member lies
above it there, and no two members may clash at any corner.  The
segment and color of a colored arc depend only on the arc and its two
marked corners, so they are built once per such triple and tree.
Facets carry the payload everything downstream feeds on, keyed by
`Arc`: which corners each arc is marked at, the color of each
non-boundary arc, and the segment joining its two marked corners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tree_core import ConventionError, Segment, _bits


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
    """Per arc id: the id mask of the corners it passes through, and
    per such corner, in `tree.corners` order, a triple (k, above,
    clash).  Here k is the corner id; `above` holds the ids of the arcs
    through k whose region on the side of k's gap is larger, and
    `clash` those whose region there neither contains nor lies in the
    arc's own."""
    full = (1 << len(tree.boundary_leaves)) - 1
    corner_id = {corner: k for k, corner in enumerate(tree.corners)}
    through = [[] for _ in tree.corners]
    every = arcs(tree)
    for i, d in enumerate(every):
        p, q = d.pos
        inner = (1 << q) - (1 << p)  # gaps p..q-1
        for corner in tree.hugged_corners(d.path):
            region = inner if p <= corner[1] < q else full ^ inner
            through[corner_id[corner]].append((i, region))
    hugs = [[] for _ in every]
    for k, chain in enumerate(through):
        for i, r in chain:
            hugs[i].append((k, sum(1 << j for j, o in chain
                                   if o.bit_count() > r.bit_count()),
                            sum(1 << j for j, o in chain
                                if o & ~r and r & ~o)))
    return tuple((sum(1 << k for k, _, _ in h), tuple(h)) for h in hugs)


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

    `members` is the bitmask of the member arcs' ids.  Every corner of
    the tree is marked by exactly one member arc: the maximal arc
    through that corner, where arcs through a common corner (v, F) are
    linearly ordered by containment of their F-side regions.  Boundary
    arcs pick up one mark, the others two, and the flags at the two
    marks of a non-boundary arc always agree in color.
    """

    def __init__(self, tree, members, index=None):
        self.tree = tree
        self.index = index
        every = arcs(tree)
        ids = tuple(_bits(members))
        self._mask = members
        self.arcs = tuple(every[i] for i in ids)
        self.colored = tuple(d for d in self.arcs if not d.is_boundary)
        self.boundary = tuple(d for d in self.arcs if d.is_boundary)
        self._colored_mask = sum(1 << i for i, d in zip(ids, self.arcs)
                                 if not d.is_boundary)
        self._color(ids, self._mark(ids))

    def _mark(self, ids):
        """Check the marks and return the ids of the corners each member
        marks, in `arcs` order.  A member marks the corners where no
        member has a larger region.  Members cross nothing, so at every
        corner their regions must form a chain: two members clash there
        exactly when, in the order by region size, two consecutive ones
        do not nest."""
        tree, mask = self.tree, self._mask
        chains = tree.memo("chains", _chains)
        covered = clashing = 0
        marked = []
        for i in ids:
            through, hugs = chains[i]
            covered |= through
            mine = []
            for k, above, clash in hugs:
                if mask & clash:
                    clashing |= 1 << k
                if not mask & above:
                    mine.append(k)
            marked.append(mine)
        # the first corner in order that is bare or does not nest
        bad = ((1 << len(tree.corners)) - 1) & ~covered | clashing
        if bad:
            k = (bad & -bad).bit_length() - 1
            if not covered >> k & 1:
                raise ConventionError(
                    "corner %r hugged by no arc" % (tree.corners[k],))
            raise ConventionError("regions at corner %r do not nest"
                                  % (tree.corners[k],))
        for d, ks in zip(self.arcs, marked):
            want = 1 if d.is_boundary else 2
            if len(ks) != want:
                raise ConventionError("%r carries %d marks, expected %d"
                                      % (d, len(ks), want))
        for d, ks in zip(self.arcs, marked):
            if not d.is_boundary:
                (_, fi), (_, gi) = tree.corners[ks[0]], tree.corners[ks[1]]
                p, q = d.pos
                if (p <= fi < q) == (p <= gi < q):
                    raise ConventionError(
                        "marks of %r fall in the same region" % (d,))
        return marked

    def _color(self, ids, marked):
        self.color = {d: "boundary" for d in self.boundary}
        self.segment = {}
        for i, d, ks in zip(ids, self.arcs, marked):
            if not d.is_boundary:
                k1, k2 = ks
                self.segment[d], self.color[d] = self.tree.memo(
                    ("arc_segment", i, k1, k2), _arc_segment, i, k1, k2)

    @property
    def marks(self):
        """{arc: its marked corners, in `tree.corners` order}, worked out
        again on each read, as `_mark` does: facets are many, and only
        their colors and segments are kept."""
        chains = self.tree.memo("chains", _chains)
        corners = self.tree.corners
        return {d: tuple(corners[k] for k, above, _ in chains[i][1]
                         if not self._mask & above)
                for i, d in zip(_bits(self._mask), self.arcs)}

    def greens(self):
        return tuple(d for d, c in self.color.items() if c == "green")

    def reds(self):
        return tuple(d for d, c in self.color.items() if c == "red")

    def key(self):
        return tuple(d.leaves for d in self.arcs)


def _arc_segment(tree, i, k1, k2):
    """(segment, color) of arc i marked at corners k1 and k2: the part
    of the arc between the two marked vertices, and the color both
    flags there give."""
    d = arcs(tree)[i]
    (v, fi), (u, gi) = tree.corners[k1], tree.corners[k2]
    path = list(d.path)
    a, b = path.index(v), path.index(u)
    if a > b:
        (v, fi, a), (u, gi, b) = (u, gi, b), (v, fi, a)
    seg_path = path[a:b + 1]
    c1 = tree.flag_color(v, seg_path[1], fi)
    c2 = tree.flag_color(u, seg_path[-2], gi)
    if c1 != c2:
        raise ConventionError(
            "flags of %r disagree: %s vs %s" % (d, c1, c2))
    return Segment.canonical(seg_path), c1


def facets(tree):
    """All facets, in a deterministic order, as a tuple built once per
    tree.

    Enumeration runs maximal-clique search over the non-boundary arcs
    only; boundary arcs cross nothing and are appended to every clique.
    Purity (equal facet sizes) is checked over the full enumeration.
    """
    return tree.memo("facets", _facets)


def _facets(tree):
    every = arcs(tree)
    boundary_arcs(tree)  # checks that there is one per boundary leaf
    bnd = sum(1 << i for i, d in enumerate(every) if d.is_boundary)
    colored = [i for i, d in enumerate(every) if not d.is_boundary]
    adjacency = {
        a: {b for b in range(len(colored))
            if b != a and not crossing(every[colored[a]], every[colored[b]])}
        for a in range(len(colored))
    }
    out = [Facet(tree, bnd | sum(1 << colored[a] for a in clique))
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
    mine = facet._colored_mask
    return sorted((g for i in _bits(mine) for g in ridges[mine ^ 1 << i]
                   if g is not facet), key=lambda g: g.index)


def _ridges(tree):
    """Facets by the id mask of their colored arcs minus one arc."""
    out = {}
    for f in facets(tree):
        for i in _bits(f._colored_mask):
            out.setdefault(f._colored_mask ^ 1 << i, []).append(f)
    return out
