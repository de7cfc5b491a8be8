"""Arcs, crossing, and the facets of the noncrossing complex.

An arc is a leaf-to-leaf path whose consecutive edges always share a
face.  Faces biject with boundary gaps, so each of the two regions an
arc splits the disk into is a contiguous cyclic interval of gaps: for
an arc at boundary positions p < q, gaps p..q-1 on one side and the
rest on the other.  `Arc.pos` is therefore all the region data there
is; crossing is a constant-time interleaving check on it, and a region
is read off it as a bitmask of gaps where one is needed.

The arcs are found by one walk from each boundary leaf, which also
records, once per arc, the corners it hugs and its turns.  Arcs are
numbered once per tree by their place in `arcs(tree)` (their `id`),
and corners by their place in `tree.corners`.  A facet is a bitmask of
arc ids: the boundary arcs and a maximal clique of colored arcs that do
not cross, found by Bron-Kerbosch on int masks.

Marking runs column-wise, over all facets of a tree at once.  For each
arc, the facets holding it form one int bitmask over facet positions.
Each corner has a fixed chain, the arcs through it with the largest
region on the corner's side first; walking it with a running OR of the
facet sets of the arcs above gives, in one big-int operation per arc,
the facets in which the arc marks that corner.  Every check is a set
operation over facets: a corner no member passes, two members whose
regions there do not nest, a member with other than one mark (boundary
arcs) or two, two marks in the same region, and flags that disagree.
The segment and color of a colored arc depend only on the arc and its
two marked corners, so they are worked out once per such triple in a
marking pass.  The triple's record (arc id, segment id, green?) keeps
its column, the facets that hold it: this record table is what the
gluing, the weights and the facet JSON read.  A facet's payload, its records,
and its arcs, colors, segments and marks are views built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, pairwise

from .tree_core import ConventionError, _bits, _raise_lowest, _segment_table


@dataclass(frozen=True)
class Arc:
    """Leaf-to-leaf extreme path.

    `leaves` is ordered by boundary position, and `pos` holds those
    positions.  `path` runs from the first leaf to the second; at each
    of its inner vertices, in path order, `corners` holds the corner
    (vertex, face index) the arc hugs there and `turns` its turn,
    "left" or "right" (see `tree_core.turn`).  A boundary arc joins
    cyclically adjacent leaves.  `id` is the arc's place in
    `arcs(tree)`.
    """

    leaves: tuple
    path: tuple = field(compare=False, repr=False)
    pos: tuple = field(compare=False, repr=False)
    is_boundary: bool = field(compare=False, repr=False)
    id: int = field(compare=False, repr=False)
    corners: tuple = field(compare=False, repr=False)
    turns: tuple = field(compare=False, repr=False)

    def __repr__(self):
        return "Arc(%s~%s)" % self.leaves


def arcs(tree):
    """All arcs of the tree, sorted by boundary positions, as a tuple
    built once per tree."""
    return tree.memo("arcs", _arcs)


def _arcs(tree):
    """One walk from each boundary leaf.  At each interior vertex the
    walk goes on only by the two rays rotation-adjacent to the one it
    came in by, so every path it follows is extreme; each arc is kept
    from its end at the lower boundary position."""
    leaves, rot = tree.boundary_leaves, tree.rotation
    pos = {leaf: p for p, leaf in enumerate(leaves)}
    found = []
    for p, leaf in enumerate(leaves):
        # x reached from prev; the path to prev, its corners and turns
        todo = [(rot[leaf][0], leaf, (), (), ())]
        while todo:
            x, prev, path, corners, turns = todo.pop()
            path += (prev,)
            if x not in pos:
                # turning left the arc hugs the sector that starts at its
                # exit ray, turning right the one at its entry ray
                left = tree.cw_next(x, prev)
                todo.append((left, x, path, corners + (
                    (x, tree.sector_face[x, left]),), turns + ("left",)))
                todo.append((tree.ccw_next(x, prev), x, path, corners + (
                    (x, tree.sector_face[x, prev]),), turns + ("right",)))
            elif pos[x] > p:
                found.append(((p, pos[x]), path + (x,), corners, turns))
    L = len(leaves)
    return tuple(
        Arc((leaves[p], leaves[q]), path, (p, q), q - p in (1, L - 1), i,
            corners, turns)
        for i, ((p, q), path, corners, turns) in enumerate(sorted(found)))


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
    """Per corner id, the arcs through that corner, larger region on
    the side of the corner's gap first: per arc, (i, inside, clash).
    Here i is the arc id; `inside` says whether the corner's gap lies
    between the arc's ends; and `clash` holds the ids of the later
    entries whose regions there neither contain nor lie in the arc's
    own (regions of equal size among them)."""
    full = (1 << len(tree.boundary_leaves)) - 1
    corner_id = {corner: k for k, corner in enumerate(tree.corners)}
    through = [[] for _ in tree.corners]
    for d in arcs(tree):
        p, q = d.pos
        inner = (1 << q) - (1 << p)  # gaps p..q-1
        for corner in d.corners:
            inside = p <= corner[1] < q
            through[corner_id[corner]].append(
                (d.id, inner if inside else full ^ inner, inside))
    for chain in through:
        chain.sort(key=lambda e: -e[1].bit_count())
    return tuple(
        tuple((i, inside, tuple(j for j, o, _ in chain[x + 1:]
                                if o & ~r and r & ~o))
              for x, (i, r, inside) in enumerate(chain))
        for chain in through)


def _max_cliques(adjacent, vertices):
    """The maximal cliques among the vertices of the mask `vertices`,
    as a list of masks, where `adjacent[v]` is the mask of the
    neighbours of v: Bron-Kerbosch with a pivot, on ints."""
    out = []

    def expand(clique, p, x):
        if not p:
            if not x:
                out.append(clique)
            return
        # branch on the vertices of p not adjacent to a pivot, p | x's lowest
        pivot = ((p | x) & -(p | x)).bit_length() - 1
        for v in _bits(p & ~adjacent[pivot]):
            expand(clique | 1 << v, p & adjacent[v], x & adjacent[v])
            p ^= 1 << v
            x |= 1 << v

    expand(0, vertices, 0)
    return out


_BIT = bytes.maketrans(b"01", b"\0\1")


def _transpose(rows, width):
    """The columns of the bit matrix whose rows are the bitmasks `rows`,
    `width` bits wide: per bit place, lowest first, a bytes string of
    b"0" and b"1", one per row."""
    text = "".join(format(r, "0%db" % width)[::-1] for r in rows).encode()
    return [text[c::width] for c in range(width)]


def _pick(items, columns, width):
    """Per position below `width`, the items whose column, a bitmask
    over positions, holds it: the columns transposed."""
    return (compress(items, pick.translate(_BIT))
            for pick in _transpose(columns, width))


def _as_int(column):
    """A column of `_transpose` read back as a bitmask, one bit per row."""
    return int(column[::-1] or b"0", 2)


def _mark(tree, masks):
    """Mark and color the facets with member masks `masks` in one
    column-wise pass.  Returns the marks, per arc id a list of (corner
    id, inside, the positions in `masks` where the arc marks that
    corner) in corner order, and the record table {(arc id, segment id,
    green?): the positions in `masks` holding it}, in record order.
    Checks fail with a ConventionError for the first failing mask, and
    for it with the first failing check, in the order listed in the
    module docstring: corners by id, then arcs by id."""
    every = arcs(tree)
    # held[i]: the positions of the masks holding arc i
    held = list(map(_as_int, _transpose(masks, len(every))))
    everyone = (1 << len(masks)) - 1
    marked = [[] for _ in every]
    faults = []  # (positions, message, or message of a position)
    for k, chain in enumerate(tree.memo("chains", _chains)):
        # A member marks the corner where no member lies above it.  Two
        # members of equal region size clash, so where none clash the
        # members above are those earlier in the chain.
        above = clashing = 0
        for i, inside, clash in chain:
            mine = held[i]
            marked[i].append((k, inside, mine & ~above))
            for j in clash:
                clashing |= mine & held[j]
            above |= mine
        if everyone & ~above:
            faults.append((everyone & ~above, "corner %r hugged by no arc"
                           % (tree.corners[k],)))
        if clashing:
            faults.append((clashing, "regions at corner %r do not nest"
                           % (tree.corners[k],)))
    for d in every:
        # saturating counters of the marks: at least one, two, three
        once = twice = thrice = 0
        for _, _, m in marked[d.id]:
            thrice |= twice & m
            twice |= once & m
            once |= m
        wrong = held[d.id] & ~(once & ~twice if d.is_boundary
                               else twice & ~thrice)
        if wrong:
            def miscount(f, d=d):
                count = sum(m >> f & 1 for _, _, m in marked[d.id])
                return "%r carries %d marks, expected %d" % (
                    d, count, 1 if d.is_boundary else 2)
            faults.append((wrong, miscount))
    pairs = []
    for d in every:
        if d.is_boundary:
            continue
        ms = marked[d.id]
        for x, (k1, in1, m1) in enumerate(ms):
            for k2, in2, m2 in ms[x + 1:]:
                both = m1 & m2
                if both and in1 == in2:
                    faults.append((both, "marks of %r fall in the same "
                                   "region" % (d,)))
                elif both:
                    pairs.append((d.id, k1, k2, both))
    good = everyone
    for bad, _ in faults:
        good &= ~bad
    records = {}  # triples of an arc can share a record
    for i, k1, k2, both in pairs:
        if both & good:
            try:
                record = _arc_segment(tree, i, k1, k2)
                records[record] = records.get(record, 0) | both
            except ConventionError as e:
                faults.append((both & good, str(e)))
    _raise_lowest(faults, lambda p, why: ConventionError(
        why(p) if callable(why) else why))
    return marked, dict(sorted(records.items()))


def _arc_segment(tree, i, k1, k2):
    """Payload record (i, segment id, green?) of arc i marked at
    corners k1 and k2: the segment is the part of the arc between the
    two marked vertices, and the color the one both flags there give."""
    d = arcs(tree)[i]
    (v, fi), (u, gi) = tree.corners[k1], tree.corners[k2]
    a, b = d.path.index(v), d.path.index(u)
    if a > b:
        (v, fi, a), (u, gi, b) = (u, gi, b), (v, fi, a)
    c1 = tree.flag_color(v, d.path[a + 1], fi)
    c2 = tree.flag_color(u, d.path[b - 1], gi)
    if c1 != c2:
        raise ConventionError(
            "flags of %r disagree: %s vs %s" % (d, c1, c2))
    table = _segment_table(tree)
    return i, table.pairs[table.index[v], table.index[u]][1], c1 == "green"


class Facet:
    """A maximal set of pairwise-noncrossing arcs, with marks and colors.

    `_mask` is the bitmask of the member arcs' ids, and `payload` holds
    a record (arc id, segment id, green?) per colored member, by arc
    id.  Every corner of the tree is marked by exactly one member arc:
    the maximal arc through that corner, where arcs through a common
    corner (v, F) are linearly ordered by containment of their F-side
    regions.  Boundary arcs pick up one mark, the others two, and the
    flags at the two marks of a non-boundary arc always agree in color;
    the colored arc's segment joins its two marked vertices.  Marking
    and its checks run in `_mark`, on this facet alone when it is built
    directly and on all the tree's facets at once in `facets`, whose
    payloads are built on first read, all at once.

    `arcs`, `colored`, `boundary`, `color` ({arc: "red", "green" or
    "boundary"}), `segment` ({colored arc: segment}) and `marks` ({arc:
    its marked corners, in `tree.corners` order}) are views built from
    the mask and payload when read.
    """

    def __init__(self, tree, members, index=None):
        if not 0 <= members < 1 << len(arcs(tree)):
            raise ValueError("%r is no arc-id mask of this tree" % (members,))
        self.tree, self.index, self._mask = tree, index, members
        self.payload = tuple(_mark(tree, [members])[1])

    @cached_property
    def payload(self):
        return self.tree.memo("payloads", _payloads)[self.index]

    @cached_property
    def arcs(self):
        every = arcs(self.tree)
        return tuple(every[i] for i in _bits(self._mask))

    @property
    def colored(self):
        return tuple(d for d in self.arcs if not d.is_boundary)

    @property
    def boundary(self):
        return tuple(d for d in self.arcs if d.is_boundary)

    @cached_property
    def color(self):
        every = arcs(self.tree)
        out = dict.fromkeys(self.boundary, "boundary")
        out.update((every[i], "green" if green else "red")
                   for i, _, green in self.payload)
        return out

    @cached_property
    def segment(self):
        every, segs = arcs(self.tree), self.tree.all_segments
        return {every[i]: segs[s] for i, s, _ in self.payload}

    @cached_property
    def marks(self):
        every, corners = arcs(self.tree), self.tree.corners
        marked = _mark(self.tree, [self._mask])[0]
        return {every[i]: tuple(corners[k] for k, _, m in marked[i] if m)
                for i in _bits(self._mask)}

    def greens(self):
        every = arcs(self.tree)
        return tuple(every[i] for i, _, green in self.payload if green)

    def reds(self):
        every = arcs(self.tree)
        return tuple(every[i] for i, _, green in self.payload if not green)

    def key(self):
        return tuple(d.leaves for d in self.arcs)


def facets(tree):
    """All facets, in facet order, as a tuple built once per tree."""
    return _marking(tree)[0]


def _marking(tree):
    """(the tree's facets, the mask of its boundary arcs, the record
    table of `_mark` over the facets' positions), built once per tree."""
    return tree.memo("facets", _facets)


def _facets(tree):
    """Each facet is a maximal clique (`_max_cliques`) of the colored
    arcs that do not cross, ORed with the boundary arcs.  They are
    sorted by their arcs' leaf pairs, in id order, then marked in one
    pass (`_mark`), so a marking fault names the lowest failing facet.
    Purity is checked."""
    every = arcs(tree)
    bnd = sum(1 << d.id for d in boundary_arcs(tree))
    colored = [d for d in every if not d.is_boundary]
    # per arc id, the colored arcs that do not cross it
    adjacent = [sum(1 << e.id for e in colored
                    if e is not d and not crossing(d, e)) for d in every]
    rank = [""] * len(every)  # an arc's place in leaf-pair order, as text
    for r, d in enumerate(sorted(every, key=lambda d: d.leaves)):
        rank[d.id] = chr(r)
    masks = [bnd | clique for clique in
             _max_cliques(adjacent, sum(1 << d.id for d in colored))]
    width = len(every)  # a row of member flags per mask, all in one text
    text = "".join(format(m, "0%db" % width)[::-1]
                   for m in masks).encode().translate(_BIT)
    picked = "".join(compress("".join(rank) * len(masks), text))  # all keys
    ends = pairwise(accumulate((m.bit_count() for m in masks), initial=0))
    masks = [m for _, m in sorted(zip((picked[a:b] for a, b in ends), masks))]
    records = _mark(tree, masks)[1]
    expect = len(tree.leaves) + len(tree.interior_vertices) - 1
    out = []
    for index, mask in enumerate(masks):
        if mask.bit_count() != expect:
            raise ConventionError(
                "facet %d has %d arcs, expected %d (complex not pure)"
                % (index, mask.bit_count(), expect))
        facet = Facet.__new__(Facet)
        facet.tree, facet.index, facet._mask = tree, index, mask
        out.append(facet)
    return tuple(out), bnd, records


def _payloads(tree):
    """Per facet position, its payload: the record table transposed."""
    fs, _, records = _marking(tree)
    return tuple(map(tuple, _pick(records, records.values(), len(fs))))


def flip_neighbors(facet, all_facets):
    """Facets differing from `facet` in exactly one non-boundary arc, in
    index order, read off the ridges of `all_facets`, the tree's facets."""
    if all_facets is not facets(facet.tree) \
            and tuple(all_facets) != facets(facet.tree):
        raise ValueError("flip neighbours are taken among all facets")
    ridges = facet.tree.memo("ridges", _ridges)
    mine = facet._mask & ~_marking(facet.tree)[1]  # its colored arcs
    return sorted((g for i in _bits(mine) for g in ridges[mine ^ 1 << i]
                   if g is not facet), key=lambda g: g.index)


def _ridges(tree):
    """Facets by the id mask of their colored arcs minus one arc."""
    out, boundary = {}, _marking(tree)[1]
    for f in facets(tree):
        mine = f._mask & ~boundary
        for i in _bits(mine):
            out.setdefault(mine ^ 1 << i, []).append(f)
    return out
