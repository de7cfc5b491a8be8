"""Noncrossing tree partitions, their Kreweras complement, and the
torsion pairs they label.

A facet of the noncrossing complex marks every corner once, and its
colored arcs carry segments.  Gluing the red segments' endpoints
partitions the interior vertices; same for green.  Both maps are
bijections onto the noncrossing partitions, and green-after-red
inverse is the Kreweras complement.  Red and green segments together
form a spanning tree on the interior vertices, which is what makes the
torsion-pair bookkeeping finite and checkable.

Segment sets are worked on as id masks, and the partitions of many
facets at once as columns, int bitsets over facet positions: a block's
segments, a partition's segments and composition closure are mask or
column operations on the vertex pairs and compositions of the tree's
segment table (see `tree_core`); the public functions hand out sets.
"""

from __future__ import annotations

from . import gc_vectors, nc_complex, string_modules
from .tree_core import ConventionError, _bits, _id_mask, _segment_table


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
        self._hash = hash(self.blocks)

    def __eq__(self, other):
        return isinstance(other, TreePartition) and self.blocks == other.blocks

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "/".join("{%s}" % ",".join(b) for b in self.blocks)


def _block_mask(tree, block):
    """Id mask of the segments a partition block requires: endpoint
    pairs inside the block whose tree path meets the block only at the
    ends.  Such a pair must be joined by a segment; anything else means
    the block is not realizable and the input was not a noncrossing
    partition."""
    table = _segment_table(tree)
    ids = sorted({table.index[v] for v in block})
    inside = sum(1 << a for a in ids)
    out = 0
    for x, a in enumerate(ids):
        for b in ids[x + 1:]:
            inner, seg = table.pairs[a, b]
            if inner & inside:
                continue
            if seg is None:
                ivs = tree.interior_vertices
                raise ValueError(
                    "block %r needs a curve from %r to %r but no segment "
                    "joins them" % (sorted(block), ivs[a], ivs[b]))
            out |= 1 << seg
    return out


def _segment_mask(tree, partition):
    """Id mask of the union of the blocks' `_block_mask`; built once per
    partition and tree."""
    return tree.memo(("segment_mask", partition), _build_segment_mask,
                     partition)


def _build_segment_mask(tree, partition):
    out = 0
    for b in partition.blocks:
        out |= _block_mask(tree, b)
    return out


def _segment_ends(tree, segments):
    """(vertex id, vertex id, segment) per segment: the ids of its two
    ends, and the segment."""
    index = _segment_table(tree).index
    return [(index[s.vertices[0]], index[s.vertices[-1]], s)
            for s in segments]


def _glued_blocks(tree, ends, color):
    """Frozenset of the vertex id masks of the blocks got by gluing,
    for each (a, b, segment) of `ends`, the blocks of the vertices with
    ids a and b.  A segment must not pass through its own block."""
    table = _segment_table(tree)
    block = [1 << v for v in range(len(table.index))]
    for a, b, _ in ends:
        glued = block[a] | block[b]
        for v in _bits(glued):
            block[v] = glued
    for a, b, s in ends:
        if table.pairs[a, b][0] & block[a]:
            raise ConventionError("%s segment %r not minimal in its block"
                                  % (color, s))
    return frozenset(block)


def _partition(tree, blocks):
    ivs = tree.interior_vertices
    return TreePartition([ivs[v] for v in _bits(m)] for m in blocks)


def _ncp_table(tree):
    """Red partitions in facet order, and the red-to-green map.  Each
    partition is built once, as a red one; green gluings are looked up
    among the red partitions by their block masks.  The segments to
    glue are read off the facets' payloads."""
    fs = nc_complex.facets(tree)
    ends = _segment_ends(tree, tree.all_segments)  # by segment id
    by_blocks = {}
    for facet in fs:
        blocks = _glued_blocks(tree, [ends[s] for _, s, green
                                      in facet.payload if not green], "red")
        if blocks in by_blocks:
            raise ConventionError("red partitions repeat across facets")
        by_blocks[blocks] = _partition(tree, blocks)
    reds = tuple(by_blocks.values())
    complement = {}
    for facet, red in zip(fs, reds):
        green = by_blocks.get(_glued_blocks(
            tree, [ends[s] for _, s, green in facet.payload if green],
            "green"))
        if green is None:
            raise ConventionError("green partition of facet %d is no red "
                                  "partition" % facet.index)
        complement[red] = green
    return reds, complement


def _glue_columns(tree, facets):
    """Both gluings of `facets`, red then green, column-wise: per color,
    `same[a][b]` holds the positions in `facets` of the facets where the
    interior vertices with ids a and b share a block."""
    table = _segment_table(tree)
    ids = range(len(table.index))
    everyone = (1 << len(facets)) - 1
    out = [[[everyone if a == b else 0 for b in ids] for a in ids]
           for _ in "rg"]
    for (_, s, green), col in gc_vectors._payload_columns(facets).items():
        vs = table.segments[s].vertices
        a, b = table.index[vs[0]], table.index[vs[-1]]
        out[green][a][b] |= col
        out[green][b][a] |= col
    for same in out:
        for k in ids:  # close transitively over the middle vertex k
            for row in same:
                via = row[k]
                if via:
                    row[:] = [c | via & d for c, d in zip(row, same[k])]
    return out


def side_columns(tree, facets):
    """Both sides of the main theorem for `facets`, column-wise: for the
    red and then the green partition, (block, wide), where per segment
    id `block` holds the positions in `facets` of the facets where the
    segment is one of the partition's (`_block_mask`), and `wide` those
    where it lies in their composition closure.  The noncrossing
    partitions of the tree, glued facet by facet, are checked first."""
    noncrossing_partitions(tree)
    glued = _glue_columns(tree, facets)
    table = _segment_table(tree)
    out, lost = [], [0, 0]
    for color, same in enumerate(glued):
        block = [0] * len(table.segments)
        for (a, b), (inner, s) in table.pairs.items():
            col = same[a][b]
            for v in _bits(inner):
                col &= ~same[a][v]
            if s is None:
                lost[color] |= col
            elif a < b:
                block[s] = col
        out.append((block, _closure_columns(tree, block)))
    if lost[0] | lost[1]:
        # raise what the first such facet's partition raises, red first
        f = ((lost[0] | lost[1]) & -(lost[0] | lost[1])).bit_length() - 1
        _build_segment_mask(tree, _partition(tree, {
            sum((c >> f & 1) << b for b, c in enumerate(row))
            for row in glued[0 if lost[0] >> f & 1 else 1]}))
    return out


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


# -- composition closure -------------------------------------------------


def _closure(tree, mask):
    """Id mask of the smallest composition-closed superset.  Composition
    is symmetric, so each pair is composed once: when the later of the
    two is taken off the work list."""
    table = _segment_table(tree).compose
    todo = list(_bits(mask))
    while todo:
        for t, u in table[todo.pop()].items():
            if mask >> t & 1 and not mask >> u & 1:
                mask |= 1 << u
                todo.append(u)
    return mask


def _closure_columns(tree, columns):
    """`_closure` column-wise: per segment id, the positions where the
    segment lies in the closure of the segments `columns` holds there."""
    wide = list(columns)
    compose = _segment_table(tree).compose
    todo = [s for s, col in enumerate(wide) if col]
    while todo:
        s = todo.pop()
        for t, u in compose[s].items():
            new = wide[s] & wide[t] & ~wide[u]
            if new:
                wide[u] |= new
                todo.append(u)
    return wide


def segment_closure(tree, segments):
    """Smallest composition-closed superset, as a set."""
    segs = tree.all_segments
    return {segs[i] for i in _bits(_closure(tree, _id_mask(tree, segments)))}


# -- torsion pairs -------------------------------------------------------


def torsion_pair(tree, partition):
    """(T, F) for a noncrossing partition: T joins the quotient-closed
    sets of the complement's green segments, F joins the sub-closed
    sets of the red segments.  Hom(T, F) vanishes and the pair covers
    every simple.  Both are frozensets, built and checked once per
    partition and tree."""
    return tree.memo(("torsion", partition), _torsion_pair, partition)[0]


def _torsion_pair(tree, partition):
    """((T, F), id mask of T, id mask of F)."""
    segs = tree.all_segments
    tmask = 0
    for s in _bits(_segment_mask(tree, kreweras_complement(tree, partition))):
        tmask |= _id_mask(tree, gc_vectors.quotient_segments(tree, segs[s]))
    tmask = _closure(tree, tmask)
    proper = gc_vectors._proper(tree)
    fmask = 0
    for s in _bits(_segment_mask(tree, partition)):
        fmask |= proper[s] | 1 << s
    fmask = _closure(tree, fmask)
    inds = string_modules.indecomposables(tree)
    for x in _bits(tmask):
        for y in _bits(fmask):
            if string_modules.hom_dim(tree, inds[x], inds[y]) != 0:
                raise ConventionError(
                    "torsion class maps onto its own free class: %r -> %r"
                    % (inds[x], inds[y]))
    simples = sum(1 << i for i, s in enumerate(segs) if len(s) == 1)
    if simples & ~(tmask | fmask):
        raise ConventionError("simple module outside both classes")
    return ((frozenset(inds[i] for i in _bits(tmask)),
             frozenset(inds[i] for i in _bits(fmask))), tmask, fmask)


def torsion_decompose(tree, partition, module):
    """Canonical sequence of an indecomposable under the partition's
    torsion pair: the submodule in T with quotient in F.  Exactly one
    submodule qualifies."""
    _, tmask, fmask = tree.memo(("torsion", partition), _torsion_pair,
                                partition)
    hits = [(sub, quot) for sub, quot, submask, quotmask
            in tree.memo(("sub_quotients", module), _sub_quotients, module)
            if not submask & ~tmask and not quotmask & ~fmask]
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
    """(submodule, quotient, their segment id masks) for every submodule
    of an indecomposable."""
    out = []
    for sub in string_modules.all_submodules(tree, module):
        quot = string_modules._quotient(tree, module, sub)
        out.append((sub, quot,
                    _id_mask(tree, (m.segment for m in sub)),
                    _id_mask(tree, (m.segment for m in quot))))
    return tuple(out)


# -- posets --------------------------------------------------------------


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
    index = _segment_table(tree).index
    ncps = noncrossing_partitions(tree)
    return Poset(ncps, [sum(1 << len(index) * index[a] + index[b]
                            for block in p.blocks for a in block
                            for b in block) for p in ncps])
