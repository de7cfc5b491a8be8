"""Noncrossing tree partitions, their Kreweras complement, and the
torsion pairs they label.

A facet of the noncrossing complex marks every corner once, and its
colored arcs carry segments.  Gluing the red segments' endpoints
partitions the interior vertices; same for green.  Both maps are
bijections onto the noncrossing partitions, and green-after-red
inverse is the Kreweras complement.  Red and green segments together
form a spanning tree on the interior vertices, which is what makes the
torsion-pair bookkeeping finite and checkable.

There is one gluing, column-wise: int bitsets over facet positions
(columns) say per color where two interior vertices share a block and
where a segment is a block segment.  The tree's facets are glued, and
every gluing check is run, once per tree.  Transposed, the same-block
columns give each facet a row per color, its partition as vertex
pairs: red rows tell partitions apart and are what the partitions and
their refinement order are built from, green ones are looked up among
them (the Kreweras map).  The torsion pairs of all partitions come from
the block columns too, as per-segment columns of T and F, checked once
per tree, and so are each module's canonical sequences (the positions
of each submodule option).  Closures run column-wise on the
compositions of the segment table (see `tree_core`); public functions
hand out sets.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, groupby
from operator import and_, itemgetter, or_
from typing import NamedTuple

from . import gc_vectors, nc_complex, string_modules
from .tree_core import ConventionError, _bits, _id, _raise_lowest, \
    _segment_table


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


class _Gluing(NamedTuple):
    """Both gluings of F facets, as columns over 2F positions: position
    f stands for the red partition of facet f, F + f for its green one."""

    records: dict  # the facets' record table (see `nc_complex._mark`)
    # blocks[color][s], by facet: where segment id s is a block segment
    # (its ends share a block, no inner vertex of its path does)
    blocks: tuple
    # of the tree's facets only: rows[p], the same-block relation at
    # position p as b"0"/b"1" with vertex ids (a, b) at place V * a + b;
    # complement[f], the facet whose red partition is facet f's green one
    rows: tuple
    complement: tuple


def _gluing(tree):
    """The `_Gluing` of the tree's facets, off their record table, built
    and checked once per tree.  Other facet lists, such as a lone or
    doctored facet, are glued by `_glue_columns` directly."""
    width = len(nc_complex.facets(tree))  # so `facets` builds them
    return tree.memo("gluing", _glue_columns, nc_complex._marking(tree)[2],
                     width, True)


def _glue_columns(tree, records, width, whole):
    """Glue the segments' end pairs, off the record table `records` of
    `width` facets, and close them transitively over the middle vertex.
    The first failing check at the lowest failing position raises, so
    red comes before green: a segment through its own block, a block no
    segment can draw, then, for the tree's facets (`whole`), a red
    partition that repeats or a green one that is no red one."""
    table = _segment_table(tree)
    ivs, segs = tree.interior_vertices, table.segments
    ids = range(len(ivs))
    glued = [0] * len(segs)  # per segment id, the positions holding it
    for (_, s, green), col in records.items():
        glued[s] |= col << width * green
    same = [[(1 << 2 * width) - 1 if a == b else 0 for b in ids]
            for a in ids]
    for (a, b), (_, s) in table.pairs.items():
        if s is not None:
            same[a][b] = glued[s]
    for k, pivot in enumerate(same):
        for row in same:
            via = row[k]
            if via and row is not pivot:
                row[:] = [c | via & d for c, d in zip(row, pivot)]
    block, through, lost = [0] * len(segs), [0] * len(segs), {}
    for (a, b), (inner, s) in table.pairs.items():
        if a < b:
            # where the path meets a's block
            meets = reduce(or_, (same[a][v] for v in _bits(inner)), 0)
            if s is None:
                lost[a, b] = same[a][b] & ~meets
            else:
                block[s] = same[a][b] & ~meets
                through[s] = glued[s] & meets

    def crossing(p):  # the first such segment in the facet's records
        s = next(s for (_, s, g), col in records.items()
                 if (col << width * g & through[s]) >> p & 1)
        return ConventionError("%s segment %r not minimal in its block"
                               % (("red", "green")[p >= width], segs[s]))

    def undrawn(p):  # the first lost pair, blocks in canonical order
        names = [[ivs[v] for v in ids if row[v] >> p & 1] for row in same]
        a, b = min((ab for ab, col in lost.items() if col >> p & 1),
                   key=lambda ab: (names[ab[0]], ab))
        return ValueError("block %r needs a curve from %r to %r but no "
                          "segment joins them" % (names[a], ivs[a], ivs[b]))

    faults = [(reduce(or_, through, 0), crossing),
              (reduce(or_, lost.values(), 0), undrawn)]
    rows = complement = ()
    if whole:
        rows = nc_complex._transpose([c for row in same for c in row],
                                     2 * width)
        first = dict(zip(reversed(rows[:width]), range(width - 1, -1, -1)))
        complement = tuple(map(first.get, rows[width:]))
        faults += [
            (sum(1 << f for f, r in enumerate(rows[:width]) if first[r] != f),
             lambda p: ConventionError("red partitions repeat across "
                                       "facets")),
            (sum(1 << width + f for f, g in enumerate(complement)
                 if g is None),
             lambda p: ConventionError("green partition of facet %d is no "
                                       "red partition" % (p % width)))]
    _raise_lowest(faults, lambda p, error: error(p))
    red = (1 << width) - 1
    return _Gluing(records, ([c & red for c in block],
                             [c >> width for c in block]), rows, complement)


def _ncp_table(tree):
    """Red partitions in facet order, the position of each, the distinct
    blocks, and per partition the ids of its blocks into them, in block
    order; built from the gluing's red same-block rows: each block is
    the part of a row at its least vertex."""
    glued = _gluing(tree)
    ivs, bits = tree.interior_vertices, nc_complex._BIT
    k = len(ivs)
    names = {}  # a row part: its first vertex id, and its block id
    blocks, reds, parts = [], [], []
    for row in glued.rows[:len(glued.complement)]:
        mine = []
        for a in range(k):
            m = row[k * a:k * a + k]
            named = names.get(m)
            if named is None:
                named = names[m] = m.find(b"1"), len(blocks)
                blocks.append(tuple(compress(ivs, m.translate(bits))))
            if named[0] == a:
                mine.append(named[1])
        reds.append(TreePartition(blocks[b] for b in mine))
        parts.append(tuple(mine))
    return (tuple(reds), dict(zip(reds, range(len(reds)))), tuple(blocks),
            tuple(parts))


def noncrossing_partitions(tree):
    """All noncrossing partitions, in facet order; one per facet."""
    return tree.memo("ncp", _ncp_table)[0]


def _blocks(tree):
    """(the distinct blocks of the noncrossing partitions, per partition
    in facet order the ids of its blocks into them, in block order)."""
    return tree.memo("ncp", _ncp_table)[2:]


def _position(tree, partition):
    """The position of the facet whose red partition this is."""
    try:
        return tree.memo("ncp", _ncp_table)[1][partition]
    except KeyError:
        raise ValueError("%r is not a noncrossing partition of this tree"
                         % (partition,)) from None


def kreweras_complement(tree, partition):
    """Green partition of the facet whose red partition this is."""
    return noncrossing_partitions(tree)[
        _gluing(tree).complement[_position(tree, partition)]]


def kreweras_orbits(tree):
    """Cycle lengths of the Kreweras map on noncrossing partitions.
    Reported, not constrained: the map need not have small order."""
    complement, seen, orbits = _gluing(tree).complement, set(), []
    for p in range(len(complement)):
        length = 0
        while p not in seen:
            seen.add(p)
            p = complement[p]
            length += 1
        if length:
            orbits.append(length)
    return sorted(orbits, reverse=True)


# -- composition closure -------------------------------------------------


def _closure_columns(tree, columns):
    """Per segment id, the positions where the segment lies in the
    smallest composition-closed superset of the segments `columns` holds
    there.  Composition is symmetric, so a pair is composed again only
    when one of the two is taken off the work list after it grew."""
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
    """Smallest composition-closed superset, as a set: the column
    closure at a single position."""
    segs, ids = tree.all_segments, {_id(tree, s) for s in segments}
    closed = _closure_columns(tree, [int(s in ids) for s in range(len(segs))])
    return {seg for seg, col in zip(segs, closed) if col}


# -- torsion pairs -------------------------------------------------------


def torsion_pair(tree, partition):
    """(T, F) for a noncrossing partition: T joins the quotient-closed
    sets of the complement's green segments, F joins the sub-closed
    sets of the red segments.  Hom(T, F) vanishes and the pair covers
    every simple.  Both are frozensets, read off the tree's torsion
    table, which checks every partition's pair."""
    inds = string_modules.indecomposables(tree)
    return tuple(frozenset(inds[i] for i in _bits(mask))
                 for mask in _torsion(tree)[2][_position(tree, partition)])


def _torsion(tree):
    """The tree's torsion table, built and checked once."""
    return tree.memo("torsion", _torsion_table)


def _torsion_table(tree):
    """Columns T and F per segment id over the gluing's positions (the
    red partitions, in facet order), and their rows, per position the id
    masks (T, F), built and checked once per tree: T closes the K_s of
    the green block segments s, F the C_s of the red ones.  Hom(x, y) is
    nonzero exactly when K_x and C_y meet, and each segment pair (x, y)
    with nonzero Hom gives the fault column T[x] & F[y]; so does a simple
    outside both.  The lowest failing position raises, Hom pairs before
    simples."""
    glued = _gluing(tree)
    width, segs = len(glued.complement), tree.all_segments
    C, K = gc_vectors._subsegments(tree)
    T, F = [0] * len(segs), [0] * len(segs)
    for s, (red, green) in enumerate(zip(*glued.blocks)):
        for q in _bits(K[s]):
            T[q] |= green
        for t in _bits(C[s]):
            F[t] |= red
    T, F = _closure_columns(tree, T), _closure_columns(tree, F)
    inds = string_modules.indecomposables(tree)
    faults = [(T[x] & F[y], "torsion class maps onto its own free class: "
               "%r -> %r" % (inds[x], inds[y]))
              for x in range(len(segs)) for y in range(len(segs))
              if T[x] & F[y] and K[x] & C[y]]
    everyone = (1 << width) - 1
    covered = reduce(and_, (T[s] | F[s] for s, seg in enumerate(segs)
                            if len(seg) == 1), everyone)
    faults.append((everyone & ~covered, "simple module outside both classes"))
    _raise_lowest(faults, lambda p, message: ConventionError(message))
    tmasks, fmasks = (map(nc_complex._as_int, nc_complex._transpose(
        cols, width)) for cols in (T, F))
    return tuple(T), tuple(F), tuple(zip(tmasks, fmasks))


def torsion_decompose(tree, partition, module):
    """Canonical sequence of an indecomposable under the partition's
    torsion pair: the submodule in T with quotient in F.  Exactly one
    submodule qualifies (see `_build_decompositions`)."""
    f = _position(tree, partition)
    options = _decompositions(tree)[_id(tree, module.segment)]
    pair = next(pair for pair, col in options if col >> f & 1)
    return tuple(string_modules._module_sum(tree, ids) for ids in pair)


def _decompositions(tree):
    """The tree's decomposition table, built and checked once."""
    return tree.memo("decompositions", _build_decompositions)


def _build_decompositions(tree):
    """Per segment id, per submodule of its module, ((submodule run ids,
    quotient run ids), the positions where the submodule lies in T and
    the quotient in F): one AND of their runs' torsion columns.  The
    runs' edges are checked to add up to the module's.  The lowest
    position where no option or two hold raises for its first module."""
    T, F, rows = _torsion(tree)
    segs, everyone = tree.all_segments, (1 << len(rows)) - 1
    table, faults = [], []
    for s, pairs in enumerate(string_modules._submodules(tree)):
        options, once, twice = [], 0, 0
        for sub, quot in pairs:
            if sum(len(segs[t]) for t in sub + quot) != len(segs[s]):
                raise ConventionError("dimension mismatch in decomposition")
            col = reduce(and_, [T[t] for t in sub] + [F[t] for t in quot],
                         everyone)
            once, twice = once | col, twice | once & col
            options.append(((sub, quot), col))
        table.append(tuple(options))
        faults.append((everyone & ~once | twice, s))
    _raise_lowest(faults, lambda p, s: ConventionError(
        "torsion decomposition of %r not unique: %r" % (
            string_modules.indecomposables(tree)[s],
            [tuple(string_modules._module_sum(tree, ids) for ids in pair)
             for pair, col in table[s] if col >> p & 1])))
    return tuple(table)


# -- posets --------------------------------------------------------------


class Poset:
    """Inclusion order of masks[i], kept as up-set bitmasks: bit j of
    up[i] says i <= j.  One transpose of the masks gives, per bit, the
    elements holding it; up[i] ANDs those of the bits of masks[i]."""

    def __init__(self, elements, masks):
        self.elements = list(elements)
        self._covers = None
        masks = list(masks)
        if len(set(masks)) < len(masks):  # the first element with a twin
            i = next(i for i, m in enumerate(masks) if masks.count(m) > 1)
            raise ValueError("elements %d and %d are order-equal"
                             % (i, masks.index(masks[i], i + 1)))
        having = list(map(nc_complex._as_int, nc_complex._transpose(
            masks, max(masks, default=0).bit_length())))
        full = (1 << len(masks)) - 1
        self.up = [reduce(and_, bits, full) for bits in
                   nc_complex._pick(having, having, len(masks))]

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def covers(self):
        """Pairs (i, j) with i covered by j, in lexicographic order, scanned
        once: the strict up-set of i minus all strictly above a member."""
        if self._covers is None:
            self._covers = []
            for i, up in enumerate(self.up):
                strict = up ^ 1 << i
                above = reduce(or_, (self.up[j] ^ 1 << j
                                     for j in _bits(strict)), 0)
                self._covers.extend((i, j) for j in _bits(strict & ~above))
        return self._covers

    def is_lattice(self):
        """A bottom (a full up-set), a top (in every up-set), and a join
        for any two upper covers of one element: their common up-set is
        some element's up-set.  That suffices (Bjorner, Edelman and
        Ziegler 1990, Lemma 2.1)."""
        full, principal = (1 << len(self)) - 1, set(self.up)
        if self.up and (full not in principal or not reduce(and_, self.up)):
            return False
        uppers = ([self.up[j] for _, j in pairs]
                  for _, pairs in groupby(self.covers(), itemgetter(0)))
        return all(principal.issuperset(a & b for i, a in enumerate(ups)
                                        for b in ups[:i]) for ups in uppers)

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
    the sets of vertex pairs sharing a block (the same-block rows)."""
    reds = noncrossing_partitions(tree)
    return Poset(reds, map(nc_complex._as_int, _gluing(tree).rows[:len(reds)]))
