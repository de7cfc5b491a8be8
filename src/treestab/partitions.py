"""Noncrossing tree partitions, their Kreweras complement, and the
torsion pairs they label.

A facet of the noncrossing complex marks every corner once, and its
colored arcs carry segments.  Gluing the red segments' endpoints
partitions the interior vertices; same for green.  Both maps are
bijections onto the noncrossing partitions, and green-after-red
inverse is the Kreweras complement.  Red and green segments together
form a spanning tree on the interior vertices, which is what makes the
torsion-pair bookkeeping finite and checkable.
"""

from __future__ import annotations

from . import gc_vectors, nc_complex, string_modules
from .tree_core import ConventionError, Segment, compose


class TreePartition:
    """Set partition of the interior vertices, canonically ordered."""

    def __init__(self, blocks):
        cleaned = sorted(tuple(sorted(b)) for b in blocks if b)
        seen = set()
        for b in cleaned:
            for v in b:
                if v in seen:
                    raise ValueError("vertex %r in two blocks" % (v,))
                seen.add(v)
        self.blocks = tuple(cleaned)

    def block_of(self, v):
        for b in self.blocks:
            if v in b:
                return b
        raise KeyError(v)

    def __eq__(self, other):
        return isinstance(other, TreePartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "/".join("{%s}" % ",".join(b) for b in self.blocks)


def refinement_leq(p, q):
    """Whether p refines q: every block of p sits inside a block of q."""
    return all(any(set(bp) <= set(bq) for bq in q.blocks) for bp in p.blocks)


def _endpoint_partition(tree, segments):
    parent = {v: v for v in tree.interior_vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in segments:
        a, b = s.endpoints
        parent[find(a)] = find(b)
    blocks = {}
    for v in tree.interior_vertices:
        blocks.setdefault(find(v), []).append(v)
    return TreePartition(blocks.values())


def block_segments(tree, block):
    """Segments a partition block requires: endpoint pairs inside the
    block whose tree path meets the block only at the ends.  Such a
    pair must be joined by a segment; anything else means the block is
    not realizable and the input was not a noncrossing partition."""
    block = set(block)
    out = set()
    for a in sorted(block):
        for b in sorted(block):
            if b <= a:
                continue
            path = tree.path_between(a, b)
            if any(v in block for v in path[1:-1]):
                continue
            if not tree.is_extreme_path(path):
                raise ValueError(
                    "block %r needs a curve from %r to %r but no segment "
                    "joins them" % (sorted(block), a, b))
            out.add(Segment.canonical(path))
    return out


def partition_segments(tree, partition):
    """Union of block_segments over all blocks; a frozenset, built once
    per partition and tree."""
    return tree.memo(("segments", partition), _partition_segments, partition)


def _partition_segments(tree, partition):
    out = set()
    for b in partition.blocks:
        out |= block_segments(tree, b)
    return frozenset(out)


def red_partition(facet):
    """Interior vertices glued along the facet's red segments."""
    return _glued_partition(facet, "red")


def green_partition(facet):
    """Interior vertices glued along the facet's green segments."""
    return _glued_partition(facet, "green")


def _glued_partition(facet, color):
    segments = [facet.segment[d] for d in facet.colored
                if facet.color[d] == color]
    part = _endpoint_partition(facet.tree, segments)
    for s in segments:
        if set(s.vertices[1:-1]) & set(part.block_of(s.vertices[0])):
            raise ConventionError("%s segment %r not minimal in its block"
                                  % (color, s))
    return part


def _ncp_table(tree):
    """Red partitions in facet order, and the red-to-green map."""
    reds, complement = [], {}
    for facet in nc_complex.facets(tree):
        red = red_partition(facet)
        reds.append(red)
        complement[red] = green_partition(facet)
    if len(complement) != len(reds):
        raise ConventionError("red partitions repeat across facets")
    return tuple(reds), complement


def noncrossing_partitions(tree):
    """All noncrossing partitions, in facet order; one per facet."""
    return tree.memo("ncp", _ncp_table)[0]


def kreweras_complement(tree, partition):
    """Green partition of the facet whose red partition this is."""
    try:
        return tree.memo("ncp", _ncp_table)[1][partition]
    except KeyError:
        raise ValueError("%r is not a noncrossing partition of this tree"
                         % (partition,)) from None


def kreweras_orbits(tree):
    """Cycle lengths of the Kreweras map on noncrossing partitions.
    Reported, not constrained: the map need not have small order."""
    seen, orbits = set(), []
    for p in noncrossing_partitions(tree):
        length = 0
        while p not in seen:
            seen.add(p)
            p = kreweras_complement(tree, p)
            length += 1
        if length:
            orbits.append(length)
    return sorted(orbits, reverse=True)


# -- red-green trees -----------------------------------------------------


class RedGreenTree:
    """Spanning structure on the interior vertices whose edge set is
    the disjoint union of the partition's red segments and its
    Kreweras complement's green segments.  Always a tree."""

    def __init__(self, tree, partition):
        self.tree = tree
        self.partition = partition
        self.complement = kreweras_complement(tree, partition)
        self.red_segments = sorted(partition_segments(tree, partition),
                                   key=lambda s: s.vertices)
        self.green_segments = sorted(
            partition_segments(tree, self.complement),
            key=lambda s: s.vertices)
        overlap = set(self.red_segments) & set(self.green_segments)
        if overlap:
            raise ConventionError("segment on both sides: %r" % (overlap,))
        self.adjacency = {v: [] for v in tree.interior_vertices}
        edges = 0
        for color, segs in (("red", self.red_segments),
                            ("green", self.green_segments)):
            for s in segs:
                a, b = s.endpoints
                self.adjacency[a].append((b, s, color))
                self.adjacency[b].append((a, s, color))
                edges += 1
        if edges != len(tree.interior_vertices) - 1:
            raise ConventionError("red and green segments miss the tree count")
        # connectivity makes it a tree
        glued = _endpoint_partition(tree, self.red_segments
                                    + self.green_segments)
        if len(glued.blocks) != 1:
            raise ConventionError("red-green graph is disconnected")

    def tree_path(self, v, u):
        """Segments along the unique path from v to u, each tagged with
        its color."""
        prev = {v: None}
        stack = [v]
        while stack:
            w = stack.pop()
            if w == u:
                break
            for x, s, color in self.adjacency[w]:
                if x not in prev:
                    prev[x] = (w, s, color)
                    stack.append(x)
        if u not in prev:
            raise KeyError("no path from %r to %r" % (v, u))
        out = []
        w = u
        while prev[w] is not None:
            w2, s, color = prev[w]
            out.append((s, color))
            w = w2
        return list(reversed(out))


def redgreen_tree(tree, partition):
    return RedGreenTree(tree, partition)


# -- biclosed sets and closure -------------------------------------------


def segment_closure(tree, segments):
    """Smallest composition-closed superset.  Composition is symmetric,
    so each pair is composed once: when the later of the two is taken
    off the work list."""
    closed = set(segments)
    todo = list(closed)
    while todo:
        s = todo.pop()
        for t in list(closed):
            c = compose(tree, s, t) if t != s else None
            if c is not None and c not in closed:
                closed.add(c)
                todo.append(c)
    return closed


def is_closed(tree, segments):
    segments = set(segments)
    return segment_closure(tree, segments) == segments


def is_biclosed(tree, segments):
    """Closed under composition, with composition-closed complement."""
    segments = set(segments)
    rest = set(tree.all_segments) - segments
    return is_closed(tree, segments) and is_closed(tree, rest)


def join_biclosed(tree, b1, b2):
    """Join in the biclosed-set order: closure of the union.  The
    result is checked to be biclosed again."""
    joined = segment_closure(tree, set(b1) | set(b2))
    if not is_biclosed(tree, joined):
        raise ConventionError("join left the biclosed family")
    return joined


# -- torsion pairs -------------------------------------------------------


def wide_from_partition(tree, partition):
    """Module set of the composition closure of the partition's
    segments; the subcategory the main theorem pairs with a Kreweras
    stability condition.  A frozenset, built once per partition and
    tree."""
    return tree.memo(("wide", partition), _wide_from_partition, partition)


def _wide_from_partition(tree, partition):
    segs = segment_closure(tree, partition_segments(tree, partition))
    return frozenset(string_modules.string_module(tree, s) for s in segs)


def torsion_pair(tree, partition):
    """(T, F) for a noncrossing partition: T joins the quotient-closed
    sets of the complement's green segments, F joins the sub-closed
    sets of the red segments.  Hom(T, F) vanishes and the pair covers
    every simple.  Both are frozensets, built and checked once per
    partition and tree."""
    return tree.memo(("torsion", partition), _torsion_pair, partition)


def _torsion_pair(tree, partition):
    complement = kreweras_complement(tree, partition)
    tsegs = set()
    for s in partition_segments(tree, complement):
        tsegs |= gc_vectors.quotient_segments(tree, s)
    if tsegs:
        tsegs = segment_closure(tree, tsegs)
    fsegs = set()
    for s in partition_segments(tree, partition):
        fsegs |= gc_vectors.submodule_segments(tree, s)
    if fsegs:
        fsegs = segment_closure(tree, fsegs)
    T = frozenset(string_modules.string_module(tree, s) for s in tsegs)
    F = frozenset(string_modules.string_module(tree, s) for s in fsegs)
    for X in T:
        for Y in F:
            if string_modules.hom_dim(tree, X, Y) != 0:
                raise ConventionError(
                    "torsion class maps onto its own free class: %r -> %r"
                    % (X, Y))
    simples = {s for s in tree.all_segments if len(s) == 1}
    covered = {m.segment for m in T} | {m.segment for m in F}
    if not simples <= covered:
        raise ConventionError("simple module outside both classes")
    return T, F


def torsion_decompose(tree, partition, module):
    """Canonical sequence of an indecomposable under the partition's
    torsion pair: the submodule in T with quotient in F.  Exactly one
    submodule qualifies."""
    T, F = torsion_pair(tree, partition)
    tsegs = {m.segment for m in T}
    fsegs = {m.segment for m in F}
    hits = [(sub, quot) for sub, quot, subsegs, quotsegs
            in tree.memo(("sub_quotients", module), _sub_quotients, module)
            if subsegs <= tsegs and quotsegs <= fsegs]
    if len(hits) != 1:
        raise ConventionError("torsion decomposition of %r not unique: %r"
                              % (module, hits))
    sub, quot = hits[0]
    total = tuple(a + b for a, b in zip(sub.dim_vector(tree),
                                        quot.dim_vector(tree)))
    if total != module.dim_vector:
        raise ConventionError("dimension mismatch in decomposition")
    return hits[0]


def _sub_quotients(tree, module):
    """(submodule, quotient, their segment sets) for every submodule of
    an indecomposable."""
    out = []
    for sub in string_modules.all_submodules(tree, module):
        quot = string_modules._quotient(tree, module, sub)
        out.append((sub, quot, frozenset(m.segment for m in sub),
                    frozenset(m.segment for m in quot)))
    return tuple(out)


# -- posets --------------------------------------------------------------


def _bits(mask):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Inclusion order of masks[i], kept as up-set bitmasks (bit j of
    up[i] says i <= j) and their transpose, the down-sets."""

    def __init__(self, elements, masks):
        self.elements = list(elements)
        masks = list(masks)
        # having[p]: the elements whose mask holds bit p
        having = [sum(1 << j for j, m in enumerate(masks) if m >> p & 1)
                  for p in range(max(masks, default=0).bit_length())]
        self.up, self.down = [], []
        for i, m in enumerate(masks):
            up = down = (1 << len(masks)) - 1
            for p, h in enumerate(having):
                if m >> p & 1:
                    up &= h
                else:
                    down &= ~h
            self.up.append(up)
            self.down.append(down)
            if not up & down & 1 << i:
                raise ValueError("order must be reflexive")
            if up & down != 1 << i:
                raise ValueError("elements %d and %d are order-equal"
                                 % (i, next(_bits(up & down ^ 1 << i))))

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def covers(self):
        """Pairs (i, j) with i covered by j, in lexicographic order: the
        strict up-set of i minus everything strictly above a member."""
        out = []
        for i, up in enumerate(self.up):
            strict = up ^ 1 << i
            above = 0
            for j in _bits(strict):
                above |= self.up[j] ^ 1 << j
            out.extend((i, j) for j in _bits(strict & ~above))
        return out

    def is_lattice(self):
        """Every pair has a join and a meet: its common up-set is some
        element's up-set, and its common down-set some down-set."""
        for rows in (self.up, self.down):
            principal = set(rows)
            if not all(principal.issuperset(map(a.__and__, rows[i + 1:]))
                       for i, a in enumerate(rows)):
                return False
        return True

    def isomorphic_by(self, other, mapping):
        """Whether the index map i -> mapping[i] is an order
        isomorphism onto `other`."""
        k = len(self.elements)
        if len(other.elements) != k or sorted(mapping) != list(range(k)):
            return False
        image = [mapping[i] for i in range(k)]
        return sorted(image) == list(range(k)) and all(
            sum(1 << image[j] for j in _bits(up)) == other.up[image[i]]
            for i, up in enumerate(self.up))


def ncp_poset(tree):
    """Noncrossing partitions under refinement, which is inclusion of
    the sets of vertex pairs sharing a block."""
    index = {v: i for i, v in enumerate(tree.interior_vertices)}
    ncps = noncrossing_partitions(tree)
    return Poset(ncps, [sum(1 << len(index) * index[a] + index[b]
                            for block in p.blocks for a in block
                            for b in block) for p in ncps])
